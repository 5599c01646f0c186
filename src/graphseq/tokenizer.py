"""Walk-to-token serialization in three layouts.

Every layout starts from the same per-step record: the step's node index
token, the node's attribute block (attached at exactly one of the node's
visits, drawn uniformly under the call seed), an optional edge-type token
(jump marker, or traversal direction for directed graphs), and the edge's
attribute block (attached at exactly one traversal of each base edge).
Attribute dimensions holding their default value are omitted.

* ``prolonged`` - fully flattened, width-1 grid. Per step:
  ``node, node-attrs?, edge-type?, edge-attrs?`` then the next node.
* ``short`` - one row per step, width ``l = 2 + We + Wn``:
  ``[node, edge-type, edge-attr cells.., node-attr cells..]`` where ``We``
  and ``Wn`` are the configured (or auto-fit) attribute token widths.
* ``long`` - a node row ``[node, edge-type, pad..]`` per step, followed by
  a node-attr row and an edge-attr row (same width ``l``) whenever the
  step carries the corresponding block.

Grids record each cell's role (node / edge-type / edge-attr / node-attr /
pad) next to its token, and the detokenizer reads them. The token classes
fix every role too, so example files leave roles out.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .euler import EulerPath, EulerizedMultigraph, check_walkable
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
    """Token ids in grid form; ``l`` is the row width (1 for prolonged)."""

    layout: str
    l: int
    tokens: tuple[tuple[int, ...], ...]
    roles: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(map(tuple, self.tokens)))
        object.__setattr__(self, "roles", tuple(map(tuple, self.roles)))
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
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
        return [tok for row in self.tokens for tok in row]

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


def reindex(path: EulerPath, cfg: ReindexConfig) -> dict[int, int]:
    """Map node ids to serialization indices.

    First appearance along the walk gets 0, 1, 2, ...; with ``cfg.cyclic``
    every index is shifted by one offset drawn uniformly from
    ``0..num_indices-1`` under ``cfg.seed``.
    """
    order: dict[int, int] = {}
    for v in path.nodes:
        if v not in order:
            order[v] = len(order)
    _check_node_count(len(order), cfg)
    offset = random.Random(cfg.seed).randrange(cfg.num_indices) if cfg.cyclic else 0
    return {v: (i + offset) % cfg.num_indices for v, i in order.items()}


def _blocks_at(vocab, kind, rows, defaults, attach) -> dict[int, list[int]]:
    """Attribute block per step position from ``attach`` (position ->
    row index), each distinct row spelled once."""
    if not rows:
        return {}
    by_row: dict[tuple[int, ...], list[int]] = {}
    out = {}
    for pos, key in attach.items():
        row = rows[key]
        block = by_row.get(row)
        if block is None:
            block = by_row[row] = vocab.block_ids(kind, row, defaults)
        out[pos] = block
    return out


@dataclass
class Step:
    """One walk step as token ids: the node's index token, its attribute
    block if attached at this visit, the edge-type token (jump or
    direction) if any, and the attribute block of the edge taken next if
    attached at this traversal. The tokenizer lays steps out as grid rows;
    the detokenizer collects them back from a grid."""

    node: int
    node_attrs: list[int] = field(default_factory=list)
    edge_type: int | None = None
    edge_attrs: list[int] = field(default_factory=list)


def _build_steps(
    path: EulerPath, mg: EulerizedMultigraph, vocab: Vocabulary, index_of, seed: int
) -> list[Step]:
    g = mg.base
    rng = random.Random(seed)

    occurrences: dict[int, list[int]] = {}
    for pos, v in enumerate(path.nodes):
        occurrences.setdefault(v, []).append(pos)
    node_attach = {rng.choice(occurrences[v]): v for v in sorted(occurrences)}

    # Jump edges follow the base edges in the multigraph's edge ids.
    num_base = mg.num_base_edges
    steps_of_edge: dict[int, list[int]] = {}
    edge_types: list[int | None] = []
    for step, eid in enumerate(path.edges):
        if eid >= num_base:
            edge_types.append(vocab.jump_id)
            continue
        steps_of_edge.setdefault(eid, []).append(step)
        if g.directed:
            forward = path.nodes[step] == g.edges[eid][0]
            edge_types.append(vocab.fwd_id if forward else vocab.bwd_id)
        else:
            edge_types.append(None)
    edge_types.append(None)
    edge_attach = {rng.choice(steps_of_edge[eid]): eid for eid in sorted(steps_of_edge)}

    node_blocks = _blocks_at(vocab, "node", g.node_attrs, g.node_defaults, node_attach)
    edge_blocks = _blocks_at(vocab, "edge", g.edge_attrs, g.edge_defaults, edge_attach)

    # Structural index i is vocabulary id i, so an index is its node token.
    return [
        Step(index_of[v], node_blocks.get(i, []), edge_type, edge_blocks.get(i, []))
        for i, (v, edge_type) in enumerate(zip(path.nodes, edge_types))
    ]


def _emit_prolonged(steps):
    tokens: list[int] = []
    roles: list[str] = []
    for step in steps:
        tokens.append(step.node)
        roles.append(ROLE_NODE)
        if step.node_attrs:
            tokens += step.node_attrs
            roles += [ROLE_NODE_ATTR] * len(step.node_attrs)
        if step.edge_type is not None:
            tokens.append(step.edge_type)
            roles.append(ROLE_TYPE)
        if step.edge_attrs:
            tokens += step.edge_attrs
            roles += [ROLE_EDGE_ATTR] * len(step.edge_attrs)
    return list(zip(tokens)), list(zip(roles))


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
    needed = max((len(b) for b in blocks), default=0)
    if configured is None:
        return needed
    if needed > configured:
        raise ValueError(
            f"{what} block needs {needed} cells but width is capped at {configured}"
        )
    return configured


def _emit_short(steps, vocab, we, wn):
    pad = vocab.pad_id
    # Few distinct role rows exist: one per (typed, edge cells, node cells).
    role_rows: dict[tuple[bool, int, int], tuple[str, ...]] = {}
    rows, roles = [], []
    for step in steps:
        typed = step.edge_type is not None
        ne, nn = len(step.edge_attrs), len(step.node_attrs)
        rows.append((
            step.node, step.edge_type if typed else pad,
            *step.edge_attrs, *(pad,) * (we - ne),
            *step.node_attrs, *(pad,) * (wn - nn),
        ))
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


def _emit_long(steps, vocab, width):
    pad = vocab.pad_id
    role_rows: dict[tuple[str, ...], tuple[str, ...]] = {}
    rows, roles = [], []

    def pad_row(ids, rs):
        rows.append((*ids, *(pad,) * (width - len(ids))))
        role = role_rows.get(rs)
        if role is None:
            role = role_rows[rs] = rs + (ROLE_PAD,) * (width - len(rs))
        roles.append(role)

    for step in steps:
        if step.edge_type is None:
            pad_row((step.node,), (ROLE_NODE,))
        else:
            pad_row((step.node, step.edge_type), (ROLE_NODE, ROLE_TYPE))
        if step.node_attrs:
            pad_row(step.node_attrs, (ROLE_NODE_ATTR,) * len(step.node_attrs))
        if step.edge_attrs:
            pad_row(step.edge_attrs, (ROLE_EDGE_ATTR,) * len(step.edge_attrs))
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
    index_of = reindex(path, cfg)
    steps = _build_steps(path, mg, vocab, index_of, seed)
    if layout == "prolonged":
        tokens, roles = _emit_prolonged(steps)
        return TokenGrid(layout=layout, l=1, tokens=tokens, roles=roles)
    we = _fit_width([s.edge_attrs for s in steps], edge_attr_width, "edge attribute")
    wn = _fit_width([s.node_attrs for s in steps], node_attr_width, "node attribute")
    if layout == "short":
        tokens, roles = _emit_short(steps, vocab, we, wn)
    else:
        tokens, roles = _emit_long(steps, vocab, 2 + we + wn)
    return TokenGrid(layout=layout, l=2 + we + wn, tokens=tokens, roles=roles)
