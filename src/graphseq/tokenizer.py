"""Walk-to-token serialization in three layouts.

Every layout is written from three lists indexed by walk position: the
node's attribute block (attached at exactly one of the node's visits,
drawn uniformly under the call seed), an optional edge-type token (jump
marker, or traversal direction for directed graphs), and the edge's
attribute block (attached at exactly one traversal of each base edge),
beside the node index token of each position. Attribute dimensions
holding their default value are omitted.

* ``prolonged`` - fully flattened, width-1 grid. Per step:
  ``node, node-attrs?, edge-type?, edge-attrs?`` then the next node.
* ``short`` - one row per step, width ``l = 2 + We + Wn``:
  ``[node, edge-type, edge-attr cells.., node-attr cells..]`` where ``We``
  and ``Wn`` are the configured (or auto-fit) attribute token widths.
* ``long`` - a node row ``[node, edge-type, pad..]`` per step, followed by
  a node-attr row and an edge-attr row (same width ``l``) whenever the
  step carries the corresponding block.

Grids record each cell's role (node / edge-type / edge-attr / node-attr /
pad) next to its token, and the detokenizer reads a grid back into the
same four lists by them. The token classes fix every role too, so
example files leave roles out.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .euler import EulerPath, EulerizedMultigraph, bounded_draws, check_walkable
from .graph import AttributedGraph
from .vocab import Vocabulary

LAYOUTS = ("short", "long", "prolonged")

ROLE_NODE = "node"
ROLE_TYPE = "edge-type"
ROLE_EDGE_ATTR = "edge-attr"
ROLE_NODE_ATTR = "node-attr"
ROLE_PAD = "pad"


@dataclass(frozen=True)
class ReindexConfig:
    """Node re-indexing parameters.

    ``num_indices`` is the structural token count and must cover the node
    count of any serialized (sub)graph. With ``cyclic`` set, a random
    offset drawn under ``seed`` shifts every first-appearance index
    modulo ``num_indices`` so all index tokens occur at equal rates.
    """

    num_indices: int = 256
    cyclic: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.num_indices < 1:
            raise ValueError(f"num_indices must be >= 1, not {self.num_indices}")


def rows_of(cells: tuple[int, ...], l: int) -> tuple[tuple[int, ...], ...]:
    """Row-major ``cells`` cut into rows of width ``l``."""
    return tuple(zip(*[iter(cells)] * l))


@dataclass(frozen=True)
class TokenGrid:
    """Token ids in grid form; ``l`` is the row width: 1 for prolonged,
    at least 2 for short and long.

    ``cells`` holds every token id once, row-major, and ``roles`` one
    tuple of ``l`` roles per row. Emitters share equal role rows, so
    roles cost one reference per row; ``tokens`` cuts the cells into
    rows on each access and keeps none of them.
    """

    layout: str
    l: int
    cells: tuple[int, ...]
    roles: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "roles", tuple(self.roles))
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        # Each short or long row holds at least a node and an edge-type cell.
        if type(self.l) is not int or (self.l != 1 if self.layout == "prolonged" else self.l < 2):
            raise ValueError(f"a {self.layout} grid cannot have row width l={self.l!r}")
        # Role rows are stored as given, so they must already be tuples.
        if not set(map(type, self.roles)) <= {tuple}:
            i, row = next((i, r) for i, r in enumerate(self.roles) if type(r) is not tuple)
            raise TypeError(f"role row {i} is a {type(row).__name__}, not a tuple")
        if not set(map(len, self.roles)) <= {self.l}:
            i, row = next((i, r) for i, r in enumerate(self.roles) if len(r) != self.l)
            raise ValueError(f"role row {i} has width {len(row)}, not l={self.l}")
        if len(self.cells) != self.l * len(self.roles):
            raise ValueError(
                f"grid has {len(self.cells)} cells but {len(self.roles)} role rows"
                f" of width l={self.l} hold {self.l * len(self.roles)}"
            )

    @classmethod
    def from_rows(cls, layout: str, l: int, tokens, roles) -> "TokenGrid":
        """The grid of token rows and role rows, each row of width ``l``.

        Only the rules of rows are checked here; the init checks the rest.
        """
        tokens, roles = tuple(tokens), tuple(map(tuple, roles))
        if len(tokens) != len(roles):
            raise ValueError(f"grid has {len(tokens)} token rows but {len(roles)} role rows")
        if not set(map(len, tokens)) <= {l}:
            i, row = next((i, r) for i, r in enumerate(tokens) if len(r) != l)
            raise ValueError(f"token row {i} has width {len(row)}, not l={l!r}")
        return cls(layout=layout, l=l, cells=tuple(chain.from_iterable(tokens)), roles=roles)

    @property
    def tokens(self) -> tuple[tuple[int, ...], ...]:
        return rows_of(self.cells, self.l)

    @property
    def num_rows(self) -> int:
        return len(self.roles)

    def flat(self) -> list[int]:
        return list(self.cells)

    def to_json(self) -> dict:
        """The grid as a JSON document. Its token rows are built for this
        call; its role rows are the grid's own tuples, which ``json.dumps``
        writes as arrays: copy before editing."""
        return {
            "layout": self.layout,
            "l": self.l,
            "tokens": self.tokens,
            "roles": self.roles,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TokenGrid":
        return cls.from_rows(doc["layout"], doc["l"], doc["tokens"], doc["roles"])


def _check_vocab_indices(cfg: ReindexConfig, vocab: Vocabulary) -> None:
    # A cyclic shift past the vocabulary's indices would fail for some seeds only.
    if cfg.num_indices > vocab.num_indices:
        raise ValueError(
            f"re-indexing over {cfg.num_indices} indices exceeds the vocabulary's {vocab.num_indices}"
        )


def _check_node_count(num_nodes: int, cfg: ReindexConfig) -> None:
    if num_nodes > cfg.num_indices:
        raise ValueError(f"{num_nodes} nodes exceed the index space of {cfg.num_indices}")


def _visits(path: EulerPath) -> dict[int, list[int]]:
    """Each node's walk positions, keyed in order of first appearance."""
    visits: dict[int, list[int]] = {}
    for pos, v in enumerate(path.nodes):
        at = visits.get(v)
        if at is None:
            visits[v] = [pos]
        else:
            at.append(pos)
    return visits


def _index_map(first_seen, cfg: ReindexConfig) -> dict[int, int]:
    """Serialization index per node id: first appearance along the walk
    gets 0, 1, 2, ...; with ``cfg.cyclic`` every index is shifted by one
    offset drawn uniformly from ``0..num_indices-1`` under ``cfg.seed``."""
    _check_node_count(len(first_seen), cfg)
    offset = random.Random(cfg.seed).randrange(cfg.num_indices) if cfg.cyclic else 0
    return {v: (i + offset) % cfg.num_indices for i, v in enumerate(first_seen)}


def _spelled(g: AttributedGraph, vocab: Vocabulary) -> tuple[dict, dict]:
    """``vocab.block_ids`` of each distinct node row, then of each distinct
    edge row of ``g``, in row order: the blocks a serialization reads."""
    kinds = ("node", g.node_attrs, g.node_defaults), ("edge", g.edge_attrs, g.edge_defaults)
    return tuple({row: vocab.block_ids(kind, row, defaults) for row in dict.fromkeys(rows)}
                 for kind, rows, defaults in kinds)


def _widest(spelled: dict) -> int:
    return max(map(len, spelled.values()), default=0)


def _placements(path: EulerPath, mg: EulerizedMultigraph, vocab: Vocabulary, visits, seed: int,
                node_spelled: dict, edge_spelled: dict):
    """Node attribute block, edge-type id (or None) and edge attribute
    block per walk position; a position without a block holds ``()``.

    Under ``seed``, each node's block goes to one of its visits (one draw
    per node, in node id order), then each base edge's block to one of
    its traversals (one draw per edge, in edge id order). A node visited
    once or an edge traversed once takes its only position and no draw.
    ``node_spelled`` and ``edge_spelled`` are ``_spelled(mg.base, vocab)``.
    """
    g = mg.base
    nodes, edges = path.nodes, path.edges
    _, choice = bounded_draws(random.Random(seed))
    node_blocks: list = [()] * len(nodes)
    if node_spelled:
        for v in sorted(visits):
            node_blocks[choice(visits[v])] = node_spelled[g.node_attrs[v]]

    # Jump edges follow the base edges in the multigraph's edge ids.
    num_base = mg.num_base_edges
    jump = vocab.jump_id
    if g.directed:
        fwd, bwd, ends = vocab.fwd_id, vocab.bwd_id, mg.endpoints
        types = [
            jump if eid >= num_base else fwd if v == ends[eid][0] else bwd
            for v, eid in zip(nodes, edges)
        ]
    else:
        types = [jump if eid >= num_base else None for eid in edges]
    types.append(None)

    edge_blocks: list = [()] * len(nodes)
    if edge_spelled:
        steps_of_edge: list[list[int]] = [[] for _ in range(num_base)]
        for step, eid in enumerate(edges):
            if eid < num_base:
                steps_of_edge[eid].append(step)
        for eid, steps in enumerate(steps_of_edge):
            if steps:
                edge_blocks[choice(steps)] = edge_spelled[g.edge_attrs[eid]]
    return node_blocks, types, edge_blocks


_NODE_CELL = (ROLE_NODE,)
_TYPE_CELL = (ROLE_TYPE,)
_NODE_ATTR_CELL = (ROLE_NODE_ATTR,)
_EDGE_ATTR_CELL = (ROLE_EDGE_ATTR,)


def _emit_prolonged(node_toks, node_blocks, types, edge_blocks):
    cells: list[int] = []
    roles: list[tuple[str]] = []
    for tok, nb, et, eb in zip(node_toks, node_blocks, types, edge_blocks):
        cells.append(tok)
        roles.append(_NODE_CELL)
        if nb:
            cells += nb
            roles += [_NODE_ATTR_CELL] * len(nb)
        if et is not None:
            cells.append(et)
            roles.append(_TYPE_CELL)
        if eb:
            cells += eb
            roles += [_EDGE_ATTR_CELL] * len(eb)
    return cells, roles


def sequence_length(mg: EulerizedMultigraph, vocab: Vocabulary, cfg: ReindexConfig) -> int:
    """Prolonged token count of any walk of a repaired multigraph.

    Every walk gives the same count, so none is taken: one node cell per
    visit (edge instances + 1), one edge-type cell per typed instance
    (every instance on a directed graph, jump instances otherwise), and
    each node's and base edge's attribute block once. Raises what
    ``extract_path`` and ``tokenize`` raise on the same inputs, with the
    same messages.
    """
    check_walkable(mg)
    _check_vocab_indices(cfg, vocab)
    g = mg.base
    _check_node_count(g.num_nodes, cfg)
    m = mg.num_edges + len(mg.duplications)
    if g.directed:
        typed = m
    else:
        num_base = mg.num_base_edges
        typed = len(mg.jump_edges) + sum(eid >= num_base for eid in mg.duplications)
    return m + 1 + typed + sum(
        len(spelled[row]) for spelled, rows in zip(_spelled(g, vocab), (g.node_attrs, g.edge_attrs)) for row in rows
    )


def widest_blocks(g: AttributedGraph, vocab: Vocabulary) -> tuple[int, int]:
    """Cells of ``g``'s widest edge and node attribute blocks: the widths
    ``tokenize`` fits short and long grids to, since every walk of ``g``
    places every row's block."""
    node_spelled, edge_spelled = _spelled(g, vocab)
    return _widest(edge_spelled), _widest(node_spelled)


def _fit_width(needed, configured, what):
    if configured is None:
        return needed
    if needed > configured:
        raise ValueError(
            f"{what} block needs {needed} cells but width is capped at {configured}"
        )
    return configured


def _emit_short(node_toks, node_blocks, types, edge_blocks, pad, we, wn):
    pads = [(pad,) * k for k in range(max(we, wn) + 1)]
    # Few distinct role rows exist: one per (typed, edge cells, node cells).
    role_rows: dict[tuple[bool, int, int], tuple[str, ...]] = {}
    cells, roles = [], []
    for tok, nb, et, eb in zip(node_toks, node_blocks, types, edge_blocks):
        typed = et is not None
        ne, nn = len(eb), len(nb)
        cells += (tok, et if typed else pad, *eb, *pads[we - ne], *nb, *pads[wn - nn])
        key = (typed, ne, nn)
        role = role_rows.get(key)
        if role is None:
            role = role_rows[key] = (
                (ROLE_NODE, ROLE_TYPE if typed else ROLE_PAD)
                + (ROLE_EDGE_ATTR,) * ne + (ROLE_PAD,) * (we - ne)
                + (ROLE_NODE_ATTR,) * nn + (ROLE_PAD,) * (wn - nn)
            )
        roles.append(role)
    return cells, roles


def _emit_long(node_toks, node_blocks, types, edge_blocks, pad, width):
    pads = [(pad,) * k for k in range(width + 1)]
    node_role = (ROLE_NODE,) + (ROLE_PAD,) * (width - 1)
    typed_role = (ROLE_NODE, ROLE_TYPE) + (ROLE_PAD,) * (width - 2)
    node_attr_roles = [(ROLE_NODE_ATTR,) * k + (ROLE_PAD,) * (width - k) for k in range(width + 1)]
    edge_attr_roles = [(ROLE_EDGE_ATTR,) * k + (ROLE_PAD,) * (width - k) for k in range(width + 1)]
    cells, roles = [], []
    for tok, nb, et, eb in zip(node_toks, node_blocks, types, edge_blocks):
        if et is None:
            cells += (tok, *pads[width - 1])
            roles.append(node_role)
        else:
            cells += (tok, et, *pads[width - 2])
            roles.append(typed_role)
        if nb:
            cells += (*nb, *pads[width - len(nb)])
            roles.append(node_attr_roles[len(nb)])
        if eb:
            cells += (*eb, *pads[width - len(eb)])
            roles.append(edge_attr_roles[len(eb)])
    return cells, roles


def tokenize(
    path: EulerPath,
    mg: EulerizedMultigraph,
    vocab: Vocabulary,
    layout: str,
    cfg: ReindexConfig,
    seed: int,
    edge_attr_width: int | None = None,
    node_attr_width: int | None = None,
) -> TokenGrid:
    """Serialize one walk into a token grid.

    ``cfg.seed`` drives the cyclic index offset; ``seed`` drives the
    per-node / per-edge attribute placement draws. Explicit attribute
    widths cap the grid sections (overflow is an error, never a
    truncation); by default they fit ``widest_blocks`` of the graph.
    """
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    _check_vocab_indices(cfg, vocab)
    visits = _visits(path)
    # Structural index i is vocabulary id i, so an index is its node token.
    node_toks = list(map(_index_map(visits, cfg).__getitem__, path.nodes))
    node_spelled, edge_spelled = _spelled(mg.base, vocab)
    placements = _placements(path, mg, vocab, visits, seed, node_spelled, edge_spelled)
    if layout == "prolonged":
        cells, roles = _emit_prolonged(node_toks, *placements)
        return TokenGrid(layout=layout, l=1, cells=cells, roles=roles)
    we = _fit_width(_widest(edge_spelled), edge_attr_width, "edge attribute")
    wn = _fit_width(_widest(node_spelled), node_attr_width, "node attribute")
    if layout == "short":
        cells, roles = _emit_short(node_toks, *placements, vocab.pad_id, we, wn)
    else:
        cells, roles = _emit_long(node_toks, *placements, vocab.pad_id, 2 + we + wn)
    return TokenGrid(layout=layout, l=2 + we + wn, cells=cells, roles=roles)
