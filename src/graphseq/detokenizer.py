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
    warnings: tuple[str, ...] = ()  # always empty: what the decoder cannot read exactly, it refuses

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
            digits = text.removeprefix("-")
            if not digits.isdigit():
                raise ValueError(f"malformed attribute run: non-integer value {text!r}")
            # 0, or no such function before Python 3.10.7, means no limit.
            limit = getattr(sys, "get_int_max_str_digits", int)()
            if limit and len(digits) > limit:
                raise ValueError(f"malformed attribute run: {len(digits)}-digit value exceeds Python's "
                                 f"{limit}-digit integer limit")
            value = int(text)
        out.append((dim, value))
    dims = [dim for dim, _ in out]
    if len(set(dims)) < len(dims):
        dim = next(d for i, d in enumerate(dims) if d in dims[:i])
        raise ValueError(f"malformed attribute run: dimension {dim} repeated in {kind} block")
    return out


def _attr_vector(pairs, defaults):
    vec = list(defaults)
    for dim, value in pairs:
        vec[dim] = value
    return tuple(vec)


def _refused_block(grid: TokenGrid, step: int, role: str, why: str) -> ValueError:
    """The error refusing step ``step``'s ``role`` block, naming its first cell."""
    node_cells = 0
    for cell, cell_role in enumerate(chain.from_iterable(grid.roles)):
        node_cells += cell_role == ROLE_NODE
        if node_cells > step and cell_role == role:
            break
    return ValueError(f"cell {cell} (row {cell // grid.l}, column {cell % grid.l}): {why}")


def detokenize(grid: TokenGrid, vocab: Vocabulary) -> ReconstructionReport:
    """Rebuild an attributed graph from a token grid.

    Attribute rows are as wide as the vocabulary's defaults, which fill
    every omitted dimension; a semantic token names a dimension within
    them. A node or a base edge carries at most one attribute block and a
    jump step none, as the tokenizer writes them; any other block raises
    ``ValueError`` naming its first cell. Directedness is inferred from
    direction tokens, so a directed graph with no base edges reconstructs
    as undirected. A graph without decoded edges has no edge defaults.
    """
    nodes, node_blocks, types, edge_blocks = _collect_steps(grid, vocab)
    if not nodes:
        raise ValueError("grid contains no node tokens")

    local: dict[int, int] = {}
    visits = [local.setdefault(tok, len(local)) for tok in nodes]

    # Each node's block, then each decoded edge in order of first
    # traversal with its block; ``()`` stands for no block.
    node_block: list[tuple] = [()] * len(local)
    for step, (v, block) in enumerate(zip(visits, node_blocks)):
        if block and node_block[v]:
            raise _refused_block(grid, step, ROLE_NODE_ATTR, f"second attribute block for node {v}")
        if block:
            node_block[v] = tuple(block)

    # Only a directed grid holds direction tokens.
    directed = vocab.fwd_id in types or vocab.bwd_id in types

    edges: dict[tuple[int, int], tuple] = {}
    dropped_jumps = 0
    for step, (a, b, edge_type, block) in enumerate(zip(visits, visits[1:], types, edge_blocks)):
        if edge_type == vocab.jump_id:
            dropped_jumps += 1
            if block:
                raise _refused_block(grid, step, ROLE_EDGE_ATTR, "attribute block on a jump step")
            continue
        if edge_type == vocab.bwd_id:
            a, b = b, a
        key = (a, b) if directed or a < b else (b, a)
        if block and edges.get(key):
            raise _refused_block(grid, step, ROLE_EDGE_ATTR, f"second attribute block for edge {key}")
        if block or key not in edges:
            edges[key] = tuple(block)
    if types[-1] is not None or edge_blocks[-1]:
        raise ValueError("malformed attribute run: edge tokens after the final node")

    # Blocks repeat (one per distinct attribute row), so each is read once.
    # Every block is read, also of a kind the vocabulary gives no width.
    styles = {"node": vocab.node_attr_style, "edge": vocab.edge_attr_style}
    defaults = {"node": vocab.node_defaults, "edge": vocab.edge_defaults}
    attr_row = cache(lambda kind, ids: _attr_vector(_parse_block(ids, vocab, kind, styles[kind]), defaults[kind]))
    node_attrs = tuple(attr_row("node", block) for block in node_block)
    edge_attrs = tuple(attr_row("edge", block) for block in edges.values())
    graph = AttributedGraph(
        num_nodes=len(local),
        edges=tuple(edges),
        directed=directed,
        node_attrs=node_attrs if vocab.node_defaults else (),
        edge_attrs=edge_attrs if vocab.edge_defaults else (),
        node_defaults=vocab.node_defaults,
        edge_defaults=vocab.edge_defaults if edges else (),
    )
    return ReconstructionReport(
        graph=graph,
        dropped_jump_edges=dropped_jumps,
        # Every traversal past an edge's first collapses into it.
        deduplicated_edges=len(visits) - 1 - dropped_jumps - len(edges),
    )
