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
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .euler import EulerPath, EulerizedMultigraph, bounded_draws, check_walkable
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


@dataclass(frozen=True)
class TokenGrid:
    """Token ids in grid form; ``l`` is the row width: 1 for prolonged,
    at least 2 for short and long."""

    layout: str
    l: int
    tokens: tuple[tuple[int, ...], ...]
    roles: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(map(tuple, self.tokens)))
        object.__setattr__(self, "roles", tuple(map(tuple, self.roles)))
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        # Each short or long row holds at least a node and an edge-type cell.
        if type(self.l) is not int or (self.l != 1 if self.layout == "prolonged" else self.l < 2):
            raise ValueError(f"a {self.layout} grid cannot have row width l={self.l!r}")
        if len(self.tokens) != len(self.roles):
            raise ValueError(
                f"grid has {len(self.tokens)} token rows but {len(self.roles)} role rows"
            )
        if not {*map(len, self.tokens), *map(len, self.roles)} <= {self.l}:
            raise ValueError("grid rows must all have width l")

    @property
    def num_rows(self) -> int:
        return len(self.tokens)

    def flat(self) -> list[int]:
        return list(chain.from_iterable(self.tokens))

    def to_json(self) -> dict:
        """The grid as a JSON document. Its rows are the grid's own tuples,
        which ``json.dumps`` writes as arrays: copy before editing."""
        return {
            "layout": self.layout,
            "l": self.l,
            "tokens": self.tokens,
            "roles": self.roles,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TokenGrid":
        return cls(
            layout=doc["layout"],
            l=doc["l"],
            tokens=doc["tokens"],
            roles=doc["roles"],
        )


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


def _spelled(vocab: Vocabulary, kind: str, rows, defaults) -> dict:
    """``vocab.block_ids`` of each distinct row, spelled in row order."""
    return {row: vocab.block_ids(kind, row, defaults) for row in dict.fromkeys(rows)}


def _placements(path: EulerPath, mg: EulerizedMultigraph, vocab: Vocabulary, visits, seed: int):
    """Node attribute block, edge-type id (or None) and edge attribute
    block per walk position; a position without a block holds ``()``.

    Under ``seed``, each node's block goes to one of its visits (one draw
    per node, in node id order), then each base edge's block to one of
    its traversals (one draw per edge, in edge id order). The node draws
    are made without node attributes too, so edge placement does not
    depend on them.
    """
    g = mg.base
    nodes, edges = path.nodes, path.edges
    _, choice = bounded_draws(random.Random(seed))
    node_blocks: list = [()] * len(nodes)
    if g.node_attrs:
        rows = g.node_attrs
        spelled = _spelled(vocab, "node", rows, g.node_defaults)
        for v in sorted(visits):
            node_blocks[choice(visits[v])] = spelled[rows[v]]
    elif g.edge_attrs:
        for v in sorted(visits):
            choice(visits[v])

    # Jump edges follow the base edges in the multigraph's edge ids.
    num_base = mg.num_base_edges
    jump = vocab.jump_id
    if g.directed:
        fwd, bwd, ends = vocab.fwd_id, vocab.bwd_id, g.edges
        types = [
            jump if eid >= num_base else fwd if v == ends[eid][0] else bwd
            for v, eid in zip(nodes, edges)
        ]
    else:
        types = [jump if eid >= num_base else None for eid in edges]
    types.append(None)

    edge_blocks: list = [()] * len(nodes)
    if g.edge_attrs:
        steps_of_edge: list[list[int]] = [[] for _ in range(num_base)]
        for step, eid in enumerate(edges):
            if eid < num_base:
                steps_of_edge[eid].append(step)
        rows = g.edge_attrs
        spelled = _spelled(vocab, "edge", rows, g.edge_defaults)
        for eid, steps in enumerate(steps_of_edge):
            if steps:
                edge_blocks[choice(steps)] = spelled[rows[eid]]
    return node_blocks, types, edge_blocks


_NODE_CELL = (ROLE_NODE,)
_TYPE_CELL = (ROLE_TYPE,)
_NODE_ATTR_CELL = (ROLE_NODE_ATTR,)
_EDGE_ATTR_CELL = (ROLE_EDGE_ATTR,)


def _emit_prolonged(node_toks, node_blocks, types, edge_blocks):
    tokens: list[int] = []
    roles: list[tuple[str]] = []
    for tok, nb, et, eb in zip(node_toks, node_blocks, types, edge_blocks):
        tokens.append(tok)
        roles.append(_NODE_CELL)
        if nb:
            tokens += nb
            roles += [_NODE_ATTR_CELL] * len(nb)
        if et is not None:
            tokens.append(et)
            roles.append(_TYPE_CELL)
        if eb:
            tokens += eb
            roles += [_EDGE_ATTR_CELL] * len(eb)
    return list(zip(tokens)), roles


def _spelled_cells(vocab, kind, rows, defaults) -> int:
    """Cells holding every row's attribute block, each distinct row spelled
    once, in the order ``tokenize`` first spells them."""
    return sum(
        count * len(vocab.block_ids(kind, row, defaults))
        for row, count in Counter(rows).items()
    )


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
    return (
        m + 1 + typed
        + _spelled_cells(vocab, "node", g.node_attrs, g.node_defaults)
        + _spelled_cells(vocab, "edge", g.edge_attrs, g.edge_defaults)
    )


def _fit_width(blocks, configured, what):
    needed = max(map(len, blocks), default=0)
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
    rows, roles = [], []
    for tok, nb, et, eb in zip(node_toks, node_blocks, types, edge_blocks):
        typed = et is not None
        ne, nn = len(eb), len(nb)
        rows.append((tok, et if typed else pad, *eb, *pads[we - ne], *nb, *pads[wn - nn]))
        key = (typed, ne, nn)
        role = role_rows.get(key)
        if role is None:
            role = role_rows[key] = (
                (ROLE_NODE, ROLE_TYPE if typed else ROLE_PAD)
                + (ROLE_EDGE_ATTR,) * ne + (ROLE_PAD,) * (we - ne)
                + (ROLE_NODE_ATTR,) * nn + (ROLE_PAD,) * (wn - nn)
            )
        roles.append(role)
    return rows, roles


def _emit_long(node_toks, node_blocks, types, edge_blocks, pad, width):
    pads = [(pad,) * k for k in range(width + 1)]
    node_role = (ROLE_NODE,) + (ROLE_PAD,) * (width - 1)
    typed_role = (ROLE_NODE, ROLE_TYPE) + (ROLE_PAD,) * (width - 2)
    node_attr_roles = [(ROLE_NODE_ATTR,) * k + (ROLE_PAD,) * (width - k) for k in range(width + 1)]
    edge_attr_roles = [(ROLE_EDGE_ATTR,) * k + (ROLE_PAD,) * (width - k) for k in range(width + 1)]
    rows, roles = [], []
    for tok, nb, et, eb in zip(node_toks, node_blocks, types, edge_blocks):
        if et is None:
            rows.append((tok, *pads[width - 1]))
            roles.append(node_role)
        else:
            rows.append((tok, et, *pads[width - 2]))
            roles.append(typed_role)
        if nb:
            rows.append((*nb, *pads[width - len(nb)]))
            roles.append(node_attr_roles[len(nb)])
        if eb:
            rows.append((*eb, *pads[width - len(eb)]))
            roles.append(edge_attr_roles[len(eb)])
    return rows, roles


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
    truncation); by default they fit the widest block in the walk.
    """
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    _check_vocab_indices(cfg, vocab)
    visits = _visits(path)
    # Structural index i is vocabulary id i, so an index is its node token.
    node_toks = list(map(_index_map(visits, cfg).__getitem__, path.nodes))
    placements = _placements(path, mg, vocab, visits, seed)
    if layout == "prolonged":
        tokens, roles = _emit_prolonged(node_toks, *placements)
        return TokenGrid(layout=layout, l=1, tokens=tokens, roles=roles)
    node_blocks, _, edge_blocks = placements
    we = _fit_width(edge_blocks, edge_attr_width, "edge attribute")
    wn = _fit_width(node_blocks, node_attr_width, "node attribute")
    if layout == "short":
        tokens, roles = _emit_short(node_toks, *placements, vocab.pad_id, we, wn)
    else:
        tokens, roles = _emit_long(node_toks, *placements, vocab.pad_id, 2 + we + wn)
    return TokenGrid(layout=layout, l=2 + we + wn, tokens=tokens, roles=roles)
