"""Grid-to-graph reconstruction.

Consecutive node tokens define edges; jump-marked instances are dropped
and repeat traversals collapse to one edge. The cyclic index shift is not
inverted: decoded node k is the k-th distinct index token of the grid, so
reconstruction is up to relabeling, which is what the guarantee promises.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .graph import AttributedGraph
from .tokenizer import (
    ROLE_EDGE_ATTR,
    ROLE_NODE,
    ROLE_NODE_ATTR,
    ROLE_PAD,
    ROLE_TYPE,
    TokenGrid,
)
from .vocab import CLASS_SEMANTIC, CLASS_SPECIAL, CLASS_STRUCTURAL, Vocabulary


@dataclass
class Step:
    """One walk step read back from a grid: the node's index token, its
    attribute block if attached at this visit, the edge-type token (jump
    or direction) if any, and the attribute block of the edge taken next
    if attached at this traversal."""

    node: int
    node_attrs: list[int] = field(default_factory=list)
    edge_type: int | None = None
    edge_attrs: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class ReconstructionReport:
    graph: AttributedGraph
    dropped_jump_edges: int
    deduplicated_edges: int
    warnings: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "dropped_jump_edges": self.dropped_jump_edges,
            "deduplicated_edges": self.deduplicated_edges,
            "warnings": list(self.warnings),
        }


def grid_from_prolonged_tokens(tokens: list[str], vocab: Vocabulary) -> TokenGrid:
    """Lift a raw prolonged token list into a role-tagged grid.

    Roles follow from token classes alone: structural tokens are node
    visits, specials are edge-type markers, and semantic tokens (with any
    digit tokens that follow) are node or edge attributes depending on
    the kind embedded in the token itself.
    """
    ids = [vocab.id(tok) for tok in tokens]
    roles = []
    current = None
    for tid in ids:
        cls = vocab.class_of(tid)
        if cls == CLASS_STRUCTURAL:
            roles.append(ROLE_NODE)
        elif cls == CLASS_SPECIAL:
            roles.append(ROLE_TYPE)
        elif cls == CLASS_SEMANTIC:
            current = ROLE_NODE_ATTR if vocab.semantic[tid][0] == "node" else ROLE_EDGE_ATTR
            roles.append(current)
        elif current is None:  # a digit, with no marker yet to own it
            raise ValueError(f"digit token {vocab.token(tid)!r} before any attribute marker")
        else:
            roles.append(current)
    return TokenGrid(layout="prolonged", l=1, tokens=zip(ids), roles=zip(roles))


def _collect_steps(grid: TokenGrid, vocab: Vocabulary) -> list[Step]:
    """Group the grid's cells into walk steps by the role each cell claims.

    A cell's token must be a vocabulary id that fits its role, so a
    relabelled cell fails here instead of being read back as a different
    graph (a negative id would otherwise index from the vocabulary's end).
    """
    size = len(vocab)
    num_indices = vocab.num_indices
    pad = vocab.pad_id
    edge_types = (vocab.jump_id, vocab.fwd_id, vocab.bwd_id)
    steps: list[Step] = []
    step = None
    cells = zip(chain.from_iterable(grid.tokens), chain.from_iterable(grid.roles))
    for tid, role in cells:
        if type(tid) is not int or not 0 <= tid < size:
            raise ValueError(f"token id {tid!r} outside the vocabulary's {size} ids")
        if role == ROLE_PAD:
            if tid != pad:
                raise ValueError(f"token {vocab.token(tid)!r} in a pad cell")
            continue
        if role == ROLE_NODE:
            # Structural tokens are exactly the ids below num_indices.
            if tid >= num_indices:
                raise ValueError(
                    f"edge-type token {vocab.token(tid)!r} in a node cell"
                    if vocab.class_of(tid) == CLASS_SPECIAL
                    else f"non-structural token {vocab.token(tid)!r} in a node cell"
                )
            step = Step(tid)
            steps.append(step)
        elif step is None:
            raise ValueError("dangling attribute tokens before any node token")
        elif role == ROLE_TYPE:
            if tid not in edge_types:
                raise ValueError(f"token {vocab.token(tid)!r} in an edge-type cell")
            step.edge_type = tid
        elif role == ROLE_NODE_ATTR:
            step.node_attrs.append(tid)
        elif role == ROLE_EDGE_ATTR:
            step.edge_attrs.append(tid)
        else:
            raise ValueError(f"unknown cell role {role!r}")
    return steps


def _parse_block(ids: tuple[int, ...], vocab: Vocabulary, kind: str, style: str):
    """Decode an attribute cell run into (dimension, value) pairs, reading
    the vocabulary's id tables. Each dimension may appear once."""
    semantic = vocab.semantic
    digit_chars = vocab.digit_chars
    out = []
    i, n = 0, len(ids)
    while i < n:
        tid = ids[i]
        entry = semantic[tid]
        if entry is None:
            raise ValueError(
                f"malformed attribute run: expected a semantic token, got {vocab.token(tid)!r}"
            )
        token_kind, dim, value = entry
        if token_kind != kind:
            raise ValueError(f"malformed attribute run: {token_kind} token in {kind} block")
        i += 1
        if style == "digits":
            start = i
            while i < n and ids[i] in digit_chars:
                i += 1
            if i == start:
                raise ValueError("malformed attribute run: dimension marker without digits")
            text = "".join([digit_chars[t] for t in ids[start:i]])
            if "." in text:
                raise ValueError(f"malformed attribute run: non-integer value {text!r}")
            value = int(text)
        out.append((dim, value))
    dims = [dim for dim, _ in out]
    if len(set(dims)) < len(dims):
        dim = next(d for i, d in enumerate(dims) if d in dims[:i])
        raise ValueError(f"malformed attribute run: dimension {dim} repeated in {kind} block")
    return out


def _attr_vector(pairs, width, defaults, what):
    vec = list(defaults) if defaults else [0] * width
    for dim, value in pairs:
        if dim >= width:
            raise ValueError(f"{what} attribute dimension {dim} outside width {width}")
        vec[dim] = value
    return vec


def detokenize(
    grid: TokenGrid,
    vocab: Vocabulary,
    node_attr_width: int | None = None,
    edge_attr_width: int | None = None,
    node_defaults: tuple[int, ...] | None = None,
    edge_defaults: tuple[int, ...] | None = None,
) -> ReconstructionReport:
    """Rebuild an attributed graph from a token grid.

    Attribute widths and defaults may be supplied by the caller; otherwise
    widths are inferred from the vocabulary's semantic tokens and omitted
    dimensions fall back to zero. Directedness is inferred from direction
    tokens, so a directed graph with no base edges reconstructs as
    undirected.
    """
    steps = _collect_steps(grid, vocab)
    if not steps:
        raise ValueError("grid contains no node tokens")
    warnings: list[str] = []

    local: dict[int, int] = {}
    for step in steps:
        local.setdefault(step.node, len(local))

    n_width = node_attr_width if node_attr_width is not None else vocab.attr_width("node")
    e_width = edge_attr_width if edge_attr_width is not None else vocab.attr_width("edge")
    n_defaults = tuple(node_defaults) if node_defaults is not None else (0,) * n_width
    e_defaults = tuple(edge_defaults) if edge_defaults is not None else (0,) * e_width

    # Blocks repeat (one per distinct attribute row), so each is parsed once.
    parsed: dict[tuple[str, tuple[int, ...]], list] = {}

    def parse(kind: str, ids: list[int], style: str) -> list:
        key = (kind, tuple(ids))
        pairs = parsed.get(key)
        if pairs is None:
            pairs = parsed[key] = _parse_block(key[1], vocab, kind, style)
        return pairs

    node_attr_pairs: dict[int, list] = {}
    for step in steps:
        if not step.node_attrs:
            continue
        pairs = parse("node", step.node_attrs, vocab.node_attr_style)
        v = local[step.node]
        if v in node_attr_pairs and node_attr_pairs[v] != pairs:
            warnings.append(f"conflicting attribute blocks for node {v}; keeping the first")
        else:
            node_attr_pairs.setdefault(v, pairs)

    directed = any(
        step.edge_type in (vocab.fwd_id, vocab.bwd_id) for step in steps if step.edge_type is not None
    )

    dropped_jumps = 0
    duplicates = 0
    edge_order: list[tuple[int, int]] = []
    edge_attr_pairs: dict[tuple[int, int], list] = {}
    seen: set[tuple[int, int]] = set()
    visits = [local[step.node] for step in steps]
    for step, a, b in zip(steps, visits, visits[1:]):
        if step.edge_type == vocab.jump_id:
            dropped_jumps += 1
            if step.edge_attrs:
                warnings.append("attribute tokens on a jump edge were discarded")
            continue
        if directed and step.edge_type == vocab.bwd_id:
            a, b = b, a
        key = (a, b) if directed or a < b else (b, a)
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
            edge_order.append(key)
        if step.edge_attrs:
            pairs = parse("edge", step.edge_attrs, vocab.edge_attr_style)
            if key in edge_attr_pairs and edge_attr_pairs[key] != pairs:
                warnings.append(f"conflicting attribute blocks for edge {key}; keeping the first")
            else:
                edge_attr_pairs.setdefault(key, pairs)
    if steps[-1].edge_type is not None or steps[-1].edge_attrs:
        raise ValueError("malformed attribute run: edge tokens after the final node")

    node_attrs = (
        tuple(
            tuple(_attr_vector(node_attr_pairs.get(v, []), n_width, n_defaults, "node"))
            for v in range(len(local))
        )
        if n_width
        else ()
    )
    edge_attrs = (
        tuple(
            tuple(_attr_vector(edge_attr_pairs.get(e, []), e_width, e_defaults, "edge"))
            for e in edge_order
        )
        if e_width
        else ()
    )
    graph = AttributedGraph(
        num_nodes=len(local),
        edges=tuple(edge_order),
        directed=directed,
        node_attrs=node_attrs,
        edge_attrs=edge_attrs,
        node_defaults=n_defaults if n_width else (),
        edge_defaults=e_defaults if e_width else (),
    )
    return ReconstructionReport(
        graph=graph,
        dropped_jump_edges=dropped_jumps,
        deduplicated_edges=duplicates,
        warnings=tuple(warnings),
    )
