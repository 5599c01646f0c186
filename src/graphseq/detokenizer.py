"""Grid-to-graph reconstruction.

A grid is read in one pass, cell by cell, by the role each cell claims.
Each node cell closes the walk step before it: consecutive node tokens
define edges, jump-marked instances are dropped and repeat traversals
collapse to one edge. The cyclic index shift is not inverted: decoded
node k is the k-th distinct index token of the grid, so reconstruction
is up to relabeling, which is what the guarantee promises.
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


def detokenize(grid: TokenGrid, vocab: Vocabulary) -> ReconstructionReport:
    """Rebuild an attributed graph from a token grid.

    Attribute rows are as wide as the vocabulary's defaults, which fill
    every omitted dimension; a semantic token names a dimension within
    them. Only what the tokenizer writes decodes: each cell's token fits
    its role, new node tokens appear at consecutive indices modulo
    ``vocab.num_indices``, every step that is not a jump carries a
    direction token or none does, a node or a base edge carries at most
    one attribute block and a jump step none. Any other grid raises
    ``ValueError`` naming the flat cell, row and column at fault (a
    refused block by its first cell). Directedness is read from direction
    tokens, so a directed graph with no base edges reconstructs as
    undirected. A graph without decoded edges has no edge defaults.
    """
    l, size, num_indices = grid.l, len(vocab), vocab.num_indices
    pad, jump, bwd = vocab.pad_id, vocab.jump_id, vocab.bwd_id
    edge_types = (jump, vocab.fwd_id, bwd)

    def refused(cell: int, why: str) -> ValueError:
        return ValueError(f"cell {cell} (row {cell // l}, column {cell % l}): {why}")

    local: dict[int, int] = {}  # node token -> decoded node, in order of first visit
    node_blocks: list = []  # per decoded node, its block's ids or ()
    # Each decoded edge in order of first traversal, with its block's ids or ().
    edges: dict[tuple[int, int], list | tuple] = {}
    directed = None  # fixed by the first step that is not a jump
    visits = dropped_jumps = 0
    # The open step: its node, edge-type id, node block, and edge block
    # with its first cell; a block is None until its first cell is read.
    prev = step_type = node_run = edge_run = edge_cell = None
    for cell, (tid, role) in enumerate(zip(grid.cells, chain.from_iterable(grid.roles))):
        # A negative id would otherwise index from the vocabulary's end.
        if type(tid) is not int or not 0 <= tid < size:
            raise refused(cell, f"token id {tid!r} outside the vocabulary's {size} ids")
        if role == ROLE_PAD:
            if tid != pad:
                raise refused(cell, f"token {vocab.token(tid)!r} in a pad cell")
        elif role == ROLE_NODE:
            # Structural tokens are exactly the ids below num_indices.
            if tid >= num_indices:
                raise refused(cell, f"edge-type token {vocab.token(tid)!r} in a node cell"
                              if vocab.class_of(tid) == CLASS_SPECIAL
                              else f"non-structural token {vocab.token(tid)!r} in a node cell")
            v = local.get(tid, len(local))
            visits += 1
            if step_type == jump:
                dropped_jumps += 1
                if edge_run is not None:
                    raise refused(edge_cell, "attribute block on a jump step")
            elif prev is not None:
                # The tokenizer types every step but jumps of a directed graph, and none of another.
                typed = step_type is not None
                if directed is None:
                    directed = typed
                elif typed != directed:
                    raise refused(cell, "untyped step after a directed step" if directed
                                  else f"directed step {vocab.token(step_type)!r} after an untyped step")
                a, b = (v, prev) if step_type == bwd else (prev, v)
                key = (a, b) if directed or a < b else (b, a)
                if edge_run is None:
                    edges.setdefault(key, ())
                elif edges.get(key):
                    raise refused(edge_cell, f"second attribute block for edge {key}")
                else:
                    edges[key] = edge_run
            if v == len(local):
                # The tokenizer's cyclic shift gives node k the first node token plus k.
                want = (next(iter(local), tid) + v) % num_indices
                if tid != want:
                    raise refused(cell, f"new node token {vocab.token(tid)!r} breaks first-appearance order, "
                                        f"which gives {vocab.token(want)!r}")
                local[tid] = v
                node_blocks.append(())
            prev, step_type, node_run, edge_run = v, None, None, None
        elif prev is None:
            raise refused(cell, "dangling attribute tokens before any node token")
        elif role == ROLE_TYPE:
            if tid not in edge_types:
                raise refused(cell, f"token {vocab.token(tid)!r} in an edge-type cell")
            step_type = tid
        elif role == ROLE_NODE_ATTR:
            if node_run is not None:
                node_run.append(tid)
            elif node_blocks[prev]:
                raise refused(cell, f"second attribute block for node {prev}")
            else:
                node_run = node_blocks[prev] = [tid]
        elif role == ROLE_EDGE_ATTR:
            if edge_run is not None:
                edge_run.append(tid)
            else:
                edge_run, edge_cell = [tid], cell
        else:
            raise refused(cell, f"unknown cell role {role!r}")
    if prev is None:
        raise ValueError("grid contains no node tokens")
    if step_type is not None or edge_run is not None:
        raise ValueError("malformed attribute run: edge tokens after the final node")

    # Blocks repeat (one per distinct attribute row), so each is read once.
    # Every block is read, also of a kind the vocabulary gives no width.
    styles = {"node": vocab.node_attr_style, "edge": vocab.edge_attr_style}
    defaults = {"node": vocab.node_defaults, "edge": vocab.edge_defaults}
    attr_row = cache(lambda kind, ids: _attr_vector(_parse_block(ids, vocab, kind, styles[kind]), defaults[kind]))
    node_attrs = tuple(attr_row("node", tuple(block)) for block in node_blocks)
    edge_attrs = tuple(attr_row("edge", tuple(block)) for block in edges.values())
    graph = AttributedGraph(
        num_nodes=len(local),
        edges=tuple(edges),
        directed=bool(directed),
        node_attrs=node_attrs if vocab.node_defaults else (),
        edge_attrs=edge_attrs if vocab.edge_defaults else (),
        node_defaults=vocab.node_defaults,
        edge_defaults=vocab.edge_defaults if edges else (),
    )
    return ReconstructionReport(
        graph=graph,
        dropped_jump_edges=dropped_jumps,
        # Every traversal past an edge's first collapses into it.
        deduplicated_edges=visits - 1 - dropped_jumps - len(edges),
    )
