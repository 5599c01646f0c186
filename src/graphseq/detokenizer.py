"""Grid-to-graph reconstruction.

A grid is read back into the four lists, indexed by walk position, that
the tokenizer writes every layout from; the graph is then read off them.
Consecutive node tokens define edges; jump-marked instances are dropped
and repeat traversals collapse to one edge. The cyclic index shift is not
inverted: decoded node k is the k-th distinct index token of the grid, so
reconstruction is up to relabeling, which is what the guarantee promises.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache
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
from .vocab import CLASS_SPECIAL, Vocabulary


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


def _collect_steps(grid: TokenGrid, vocab: Vocabulary):
    """The lists ``tokenize`` wrote the grid from: per walk position, the
    node token, the node attribute block, the edge-type id (None when
    untyped) and the edge attribute block, a list of ids or ``()``.

    Each cell joins the position of the node cell before it, by the role
    it claims. A cell's token must be a vocabulary id that fits its role,
    so a relabelled cell fails here instead of being read back as a
    different graph (a negative id would otherwise index from the
    vocabulary's end).
    """
    size = len(vocab)
    num_indices = vocab.num_indices
    pad = vocab.pad_id
    edge_types = (vocab.jump_id, vocab.fwd_id, vocab.bwd_id)
    nodes: list[int] = []
    node_blocks: list = []
    types: list = []
    edge_blocks: list = []
    cells = zip(grid.cells, chain.from_iterable(grid.roles))
    for tid, role in cells:
        if type(tid) is not int or not 0 <= tid < size:
            raise ValueError(f"token id {tid!r} outside the vocabulary's {size} ids")
        if role == ROLE_PAD:
            if tid != pad:
                raise ValueError(f"token {vocab.token(tid)!r} in a pad cell")
        elif role == ROLE_NODE:
            # Structural tokens are exactly the ids below num_indices.
            if tid >= num_indices:
                raise ValueError(
                    f"edge-type token {vocab.token(tid)!r} in a node cell"
                    if vocab.class_of(tid) == CLASS_SPECIAL
                    else f"non-structural token {vocab.token(tid)!r} in a node cell"
                )
            nodes.append(tid)
            node_blocks.append(())
            types.append(None)
            edge_blocks.append(())
        elif not nodes:
            raise ValueError("dangling attribute tokens before any node token")
        elif role == ROLE_TYPE:
            if tid not in edge_types:
                raise ValueError(f"token {vocab.token(tid)!r} in an edge-type cell")
            types[-1] = tid
        elif role == ROLE_NODE_ATTR:
            node_blocks[-1] = [*node_blocks[-1], tid]
        elif role == ROLE_EDGE_ATTR:
            edge_blocks[-1] = [*edge_blocks[-1], tid]
        else:
            raise ValueError(f"unknown cell role {role!r}")
    return nodes, node_blocks, types, edge_blocks


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
            try:
                value = int(text)
            except ValueError:
                digits = text.removeprefix("-")
                if digits.isdigit():  # well-formed, but past the integer-string limit
                    raise ValueError(
                        f"malformed attribute run: {len(digits)}-digit value exceeds Python's "
                        f"{sys.get_int_max_str_digits()}-digit integer limit"
                    ) from None
                raise ValueError(f"malformed attribute run: non-integer value {text!r}") from None
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
    return tuple(vec)


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
    undirected. A graph without decoded edges has no edge defaults.
    """
    nodes, node_blocks, types, edge_blocks = _collect_steps(grid, vocab)
    if not nodes:
        raise ValueError("grid contains no node tokens")
    warnings: list[str] = []

    local: dict[int, int] = {}
    visits = [local.setdefault(tok, len(local)) for tok in nodes]

    n_width = node_attr_width if node_attr_width is not None else vocab.attr_width("node")
    e_width = edge_attr_width if edge_attr_width is not None else vocab.attr_width("edge")
    n_defaults = tuple(node_defaults) if node_defaults is not None else (0,) * n_width
    e_defaults = tuple(edge_defaults) if edge_defaults is not None else (0,) * e_width

    # Blocks repeat (one per distinct attribute row), so each is parsed once.
    styles = {"node": vocab.node_attr_style, "edge": vocab.edge_attr_style}
    parse = cache(lambda kind, ids: _parse_block(ids, vocab, kind, styles[kind]))

    node_attr_pairs: dict[int, list] = {}
    for v, block in zip(visits, node_blocks):
        if block:
            pairs = parse("node", tuple(block))
            if node_attr_pairs.setdefault(v, pairs) != pairs:
                warnings.append(f"conflicting attribute blocks for node {v}; keeping the first")

    # Only a directed grid holds direction tokens.
    directed = vocab.fwd_id in types or vocab.bwd_id in types

    # Each decoded edge, in order of first traversal, with the attribute
    # pairs of its first traversal that carries a block (None before one).
    edges: dict[tuple[int, int], list | None] = {}
    dropped_jumps = 0
    for a, b, edge_type, block in zip(visits, visits[1:], types, edge_blocks):
        if edge_type == vocab.jump_id:
            dropped_jumps += 1
            if block:
                warnings.append("attribute tokens on a jump edge were discarded")
            continue
        if edge_type == vocab.bwd_id:
            a, b = b, a
        key = (a, b) if directed or a < b else (b, a)
        if not block:
            edges.setdefault(key, None)
            continue
        pairs = parse("edge", tuple(block))
        kept = edges.get(key)
        if kept is None:
            edges[key] = pairs
        elif kept != pairs:
            warnings.append(f"conflicting attribute blocks for edge {key}; keeping the first")
    if types[-1] is not None or edge_blocks[-1]:
        raise ValueError("malformed attribute run: edge tokens after the final node")

    node_attrs = tuple(
        _attr_vector(node_attr_pairs.get(v, ()), n_width, n_defaults, "node") for v in range(len(local))
    ) if n_width else ()
    edge_attrs = tuple(
        _attr_vector(pairs or (), e_width, e_defaults, "edge") for pairs in edges.values()
    ) if e_width else ()
    graph = AttributedGraph(
        num_nodes=len(local),
        edges=tuple(edges),
        directed=directed,
        node_attrs=node_attrs,
        edge_attrs=edge_attrs,
        node_defaults=n_defaults if n_width else (),
        edge_defaults=e_defaults if edge_attrs else (),
    )
    return ReconstructionReport(
        graph=graph,
        dropped_jump_edges=dropped_jumps,
        # Every traversal past an edge's first collapses into it.
        deduplicated_edges=len(visits) - 1 - dropped_jumps - len(edges),
        warnings=tuple(warnings),
    )
