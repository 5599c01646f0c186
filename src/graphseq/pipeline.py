"""End-to-end wiring: graph -> multigraph -> walk -> grid, round-trip
verification, per-item seed derivation, and the sequence-budget fit rule.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace

from .detokenizer import detokenize
from .euler import EulerizedMultigraph, EulerPath, build_multigraph, extract_path
from .graph import AttributedGraph, SubgraphSample
from .sampler import SamplerConfig, sample
from .tokenizer import ReindexConfig, TokenGrid, sequence_length, tokenize
from .vocab import Vocabulary, build_vocab


def derive_seed(master: int, *parts) -> int:
    """Stable per-item seed: hash of the master seed and an item key."""
    text = ":".join([str(master), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# The repaired multigraph of ``fit_sample``'s accepted attempt, its walk
# and the seed they were made under. A data loader fits a sample,
# attaches identity attributes, then serializes the same nodes and edges
# under the same seed; the repair and the walk depend on nothing else, so
# that serialization reuses both. The next ``_serialize`` empties the
# slot whether or not it matches. The key is the whole input of the
# repair and the walk, so an entry another thread left is at worst a miss.
_fitted: list[tuple[int, EulerizedMultigraph, EulerPath]] = []


def _serialize(
    g: AttributedGraph,
    vocab: Vocabulary,
    layout: str,
    cfg: ReindexConfig,
    seed: int,
    edge_attr_width: int | None = None,
    node_attr_width: int | None = None,
) -> tuple[TokenGrid, EulerPath]:
    """``serialize_graph``'s grid together with the walk it spells.

    When the fit slot holds ``seed`` and a multigraph of ``g``'s nodes
    and edges, its repair and walk are tokenized over ``g``'s attributes;
    otherwise ``g`` is repaired and walked here.
    """
    try:
        fitted_seed, mg, path = _fitted.pop()  # atomic, unlike a test then a pop
    except IndexError:
        fitted_seed = None
    if fitted_seed == seed and mg.base.num_nodes == g.num_nodes and mg.base.edges == g.edges:
        mg = replace(mg, base=g)
    else:
        mg = build_multigraph(g, derive_seed(seed, "jump"))
        path = extract_path(mg, derive_seed(seed, "path"))
    step_cfg = replace(cfg, seed=derive_seed(seed, "shift", cfg.seed))
    grid = tokenize(path, mg, vocab, layout, step_cfg, derive_seed(seed, "attrs"),
                    edge_attr_width=edge_attr_width, node_attr_width=node_attr_width)
    return grid, path


def serialize_graph(
    g: AttributedGraph,
    vocab: Vocabulary,
    layout: str = "prolonged",
    cfg: ReindexConfig | None = None,
    seed: int = 0,
    edge_attr_width: int | None = None,
    node_attr_width: int | None = None,
) -> TokenGrid:
    """Full serialization of one graph under a single seed.

    Sub-seeds for jump placement, walk extraction, the cyclic shift, and
    attribute placement are derived from ``seed``, so equal inputs give
    byte-identical grids. Without ``cfg`` the vocabulary's index space is used.
    """
    cfg = cfg or ReindexConfig(num_indices=vocab.num_indices)
    return _serialize(g, vocab, layout, cfg, seed, edge_attr_width, node_attr_width)[0]


def _matches_witness(decoded: AttributedGraph, g: AttributedGraph, order: tuple[int, ...]) -> bool:
    """Whether ``decoded`` is ``g`` with decoded node k being ``order[k]``.

    Directedness is compared only when ``g`` has an edge: the format
    carries direction on edge tokens alone.
    """
    if (
        decoded.num_nodes != g.num_nodes
        or (bool(g.edges) and decoded.directed != g.directed)
        or decoded.node_defaults != g.node_defaults
        or decoded.edge_defaults != g.edge_defaults
        or decoded.node_attrs != (tuple(g.node_attrs[v] for v in order) if g.node_attrs else ())
    ):
        return False

    def edge_map(graph: AttributedGraph, label) -> dict:
        rows = graph.edge_attrs or [()] * graph.num_edges
        keys = ((label[s], label[d]) for s, d in graph.edges)
        if not g.directed:
            keys = ((min(s, d), max(s, d)) for s, d in keys)
        return dict(zip(keys, rows))

    return edge_map(decoded, order) == edge_map(g, range(g.num_nodes))


def roundtrip_report(
    g: AttributedGraph,
    layout: str = "prolonged",
    seed: int = 0,
    cfg: ReindexConfig | None = None,
) -> dict:
    """Serialize, reconstruct, and compare against the input graph, under
    a vocabulary built from ``g`` alone.

    The walk names the bijection to check: the detokenizer numbers nodes
    by first appearance, so decoded node k is the k-th distinct node of
    the walk. Checking that one mapping costs O(n + m) at any size.
    Without ``cfg`` the index space is 256, or the node count if larger.
    """
    cfg = cfg or ReindexConfig(num_indices=max(256, g.num_nodes))
    vocab = build_vocab([g], "roundtrip", cfg)
    grid, path = _serialize(g, vocab, layout, cfg, seed)
    report = detokenize(
        grid,
        vocab,
        node_attr_width=g.node_attr_width,
        edge_attr_width=g.edge_attr_width,
        node_defaults=g.node_defaults or None,
        edge_defaults=g.edge_defaults or None,
    )
    return {
        "ok": _matches_witness(report.graph, g, tuple(dict.fromkeys(path.nodes))),
        "dedup": report.deduplicated_edges,
        "jumps": report.dropped_jump_edges,
    }


def fit_sample(
    g: AttributedGraph,
    roots,
    cfg: SamplerConfig,
    vocab: Vocabulary,
    reindex_cfg: ReindexConfig | None = None,
    seed: int = 0,
    adj=None,
) -> tuple[SubgraphSample, int]:
    """Sample within the config's token budget; returns the sample and
    its prolonged length under ``seed``.

    Each attempt is measured by counting the prolonged tokens of its
    repaired multigraph, without walking it. An attempt over the budget,
    or with more nodes than a valid index space holds, is rejected and
    the draw retried with the fanout decremented (never truncated);
    exhausting fanout 1 is an error. Without ``reindex_cfg`` the
    vocabulary's index space is used. Only the accepted attempt is
    walked; its multigraph and walk are kept for the next serialization,
    which reuses them when it serializes the same nodes and edges under
    ``seed``.
    """
    reindex_cfg = reindex_cfg or ReindexConfig(num_indices=vocab.num_indices)
    for attempt, fanout in enumerate(range(cfg.neighbors, 0, -1)):
        attempt_cfg = replace(cfg, neighbors=fanout, seed=derive_seed(cfg.seed, "retry", attempt))
        sub = sample(g, roots, attempt_cfg, adj=adj)
        n, space = sub.graph.num_nodes, reindex_cfg.num_indices
        if n > space and space <= vocab.num_indices:
            continue  # oversized; an invalid space is ``sequence_length``'s error
        mg = build_multigraph(sub.graph, derive_seed(seed, "jump"))
        length = sequence_length(mg, vocab, reindex_cfg)
        if length <= cfg.max_seq_len:
            _fitted[:] = [(seed, mg, extract_path(mg, derive_seed(seed, "path")))]
            return sub, length
    raise ValueError(f"sequence exceeds max_seq_len={cfg.max_seq_len} even at fanout 1")
