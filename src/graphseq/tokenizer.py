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

Cell roles (node / edge-type / edge-attr / node-attr / pad) are recorded
alongside tokens so grids deserialize without re-deriving structure.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .euler import EulerPath, EulerizedMultigraph
from .vocab import Vocabulary, digits, marker_token, semantic_token

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
    """Token ids in grid form. ``m`` is the walk's edge-instance count and
    ``l`` the row width (1 for prolonged)."""

    layout: str
    m: int
    l: int
    tokens: tuple[tuple[int, ...], ...]
    roles: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(tuple(r) for r in self.tokens))
        object.__setattr__(self, "roles", tuple(tuple(r) for r in self.roles))
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        for row, roles in zip(self.tokens, self.roles):
            if len(row) != self.l or len(roles) != self.l:
                raise ValueError("grid rows must all have width l")

    @property
    def num_rows(self) -> int:
        return len(self.tokens)

    def flat(self) -> list[int]:
        return [tok for row in self.tokens for tok in row]

    def to_json(self) -> dict:
        return {
            "layout": self.layout,
            "m": self.m,
            "l": self.l,
            "tokens": [list(r) for r in self.tokens],
            "roles": [list(r) for r in self.roles],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TokenGrid":
        return cls(
            layout=doc["layout"],
            m=doc["m"],
            l=doc["l"],
            tokens=tuple(tuple(r) for r in doc["tokens"]),
            roles=tuple(tuple(r) for r in doc["roles"]),
        )


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
    if len(order) > cfg.num_indices:
        raise ValueError(
            f"{len(order)} nodes exceed the index space of {cfg.num_indices}"
        )
    offset = random.Random(cfg.seed).randrange(cfg.num_indices) if cfg.cyclic else 0
    return {v: (i + offset) % cfg.num_indices for v, i in order.items()}


def _block_ids(vocab, kind, style, attrs, defaults):
    tag = vocab.dataset_tag
    ids: list[int] = []
    for dim, value in enumerate(attrs):
        if value == defaults[dim]:
            continue
        if style == "inline":
            ids.append(vocab.id(semantic_token(tag, kind, dim, value)))
        else:
            ids.append(vocab.id(marker_token(tag, kind, dim)))
            for t in digits(value):
                ids.append(vocab.id(t))
    return ids


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
    node_attach = {v: rng.choice(occurrences[v]) for v in sorted(occurrences)}

    steps_of_edge: dict[int, list[int]] = {}
    for step, (eid, _) in enumerate(path.edge_instances):
        if not mg.is_jump(eid):
            steps_of_edge.setdefault(eid, []).append(step)
    edge_attach = {eid: rng.choice(steps_of_edge[eid]) for eid in sorted(steps_of_edge)}

    node_blocks = {
        v: _block_ids(vocab, "node", vocab.node_attr_style, g.node_attrs[v], g.node_defaults)
        if g.node_attrs
        else []
        for v in occurrences
    }
    edge_blocks = {
        eid: _block_ids(vocab, "edge", vocab.edge_attr_style, g.edge_attrs[eid], g.edge_defaults)
        if g.edge_attrs
        else []
        for eid in steps_of_edge
    }

    steps = []
    for i, v in enumerate(path.nodes):
        node_attrs = node_blocks[v] if node_attach[v] == i else []
        edge_type = None
        edge_attrs: list[int] = []
        if i < len(path.edge_instances):
            eid, _ = path.edge_instances[i]
            if mg.is_jump(eid):
                edge_type = vocab.jump_id
            elif g.directed:
                src, _dst = mg.endpoints(eid)
                edge_type = vocab.fwd_id if path.nodes[i] == src else vocab.bwd_id
            if edge_attach.get(eid) == i:
                edge_attrs = edge_blocks[eid]
        steps.append(Step(vocab.id(str(index_of[v])), node_attrs, edge_type, edge_attrs))
    return steps


def _emit_prolonged(steps):
    tokens: list[int] = []
    roles: list[str] = []
    for step in steps:
        tokens.append(step.node)
        roles.append(ROLE_NODE)
        tokens.extend(step.node_attrs)
        roles.extend([ROLE_NODE_ATTR] * len(step.node_attrs))
        if step.edge_type is not None:
            tokens.append(step.edge_type)
            roles.append(ROLE_TYPE)
        tokens.extend(step.edge_attrs)
        roles.extend([ROLE_EDGE_ATTR] * len(step.edge_attrs))
    return tuple((t,) for t in tokens), tuple((r,) for r in roles)


def _fit_width(blocks, configured, what):
    needed = max((len(b) for b in blocks), default=0)
    if configured is None:
        return needed
    if needed > configured:
        raise ValueError(
            f"{what} block needs {needed} cells but width is capped at {configured}"
        )
    return configured


def _padded(block, width, role, vocab):
    ids = block + [vocab.pad_id] * (width - len(block))
    roles = [role] * len(block) + [ROLE_PAD] * (width - len(block))
    return ids, roles


def _emit_short(steps, vocab, edge_width, node_width):
    we = _fit_width([s.edge_attrs for s in steps], edge_width, "edge attribute")
    wn = _fit_width([s.node_attrs for s in steps], node_width, "node attribute")
    width = 2 + we + wn
    rows, roles = [], []
    for step in steps:
        typed = step.edge_type is not None
        row = [step.node, step.edge_type if typed else vocab.pad_id]
        role = [ROLE_NODE, ROLE_TYPE if typed else ROLE_PAD]
        ids, rs = _padded(step.edge_attrs, we, ROLE_EDGE_ATTR, vocab)
        row += ids
        role += rs
        ids, rs = _padded(step.node_attrs, wn, ROLE_NODE_ATTR, vocab)
        row += ids
        role += rs
        rows.append(tuple(row))
        roles.append(tuple(role))
    return tuple(rows), tuple(roles), width


def _emit_long(steps, vocab, edge_width, node_width):
    we = _fit_width([s.edge_attrs for s in steps], edge_width, "edge attribute")
    wn = _fit_width([s.node_attrs for s in steps], node_width, "node attribute")
    width = 2 + we + wn
    rows, roles = [], []

    def pad_row(ids, rs):
        rows.append(tuple(ids + [vocab.pad_id] * (width - len(ids))))
        roles.append(tuple(rs + [ROLE_PAD] * (width - len(ids))))

    for step in steps:
        if step.edge_type is None:
            pad_row([step.node], [ROLE_NODE])
        else:
            pad_row([step.node, step.edge_type], [ROLE_NODE, ROLE_TYPE])
        if step.node_attrs:
            pad_row(step.node_attrs, [ROLE_NODE_ATTR] * len(step.node_attrs))
        if step.edge_attrs:
            pad_row(step.edge_attrs, [ROLE_EDGE_ATTR] * len(step.edge_attrs))
    return tuple(rows), tuple(roles), width


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
    # A cyclic shift past the vocabulary's indices would fail for some seeds only.
    if cfg.num_indices > vocab.num_indices:
        raise ValueError(
            f"re-indexing over {cfg.num_indices} indices exceeds the vocabulary's {vocab.num_indices}"
        )
    index_of = reindex(path, cfg)
    steps = _build_steps(path, mg, vocab, index_of, seed)
    m = len(path.edge_instances)
    if layout == "prolonged":
        tokens, roles = _emit_prolonged(steps)
        return TokenGrid(layout=layout, m=m, l=1, tokens=tokens, roles=roles)
    if layout == "short":
        tokens, roles, width = _emit_short(steps, vocab, edge_attr_width, node_attr_width)
    else:
        tokens, roles, width = _emit_long(steps, vocab, edge_attr_width, node_attr_width)
    return TokenGrid(layout=layout, m=m, l=width, tokens=tokens, roles=roles)
