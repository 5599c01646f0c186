"""End-to-end wiring: graph -> multigraph -> walk -> grid, round-trip
verification, per-item seed derivation, and the sequence-budget fit rule.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import replace

from .detokenizer import detokenize, isomorphic
from .euler import build_multigraph, extract_path
from .graph import AttributedGraph, SubgraphSample, adjacency
from .sampler import SamplerConfig, sample
from .tokenizer import ReindexConfig, TokenGrid, sequence_length, tokenize
from .vocab import Vocabulary, build_vocab


def derive_seed(master: int, *parts) -> int:
    """Stable per-item seed: hash of the master seed and an item key."""
    text = ":".join([str(master), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


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
    byte-identical grids.
    """
    cfg = cfg or ReindexConfig()
    mg = build_multigraph(g, derive_seed(seed, "jump"))
    path = extract_path(mg, derive_seed(seed, "path"))
    step_cfg = replace(cfg, seed=derive_seed(seed, "shift", cfg.seed))
    return tokenize(
        path,
        mg,
        vocab,
        layout,
        step_cfg,
        derive_seed(seed, "attrs"),
        edge_attr_width=edge_attr_width,
        node_attr_width=node_attr_width,
    )


def roundtrip_report(
    g: AttributedGraph,
    layout: str = "prolonged",
    seed: int = 0,
    cfg: ReindexConfig | None = None,
    vocab: Vocabulary | None = None,
) -> dict:
    """Serialize, reconstruct, and compare against the input graph."""
    cfg = cfg or ReindexConfig()
    if vocab is None:
        vocab = build_vocab([g], "roundtrip", cfg)
    grid = serialize_graph(g, vocab, layout, cfg, seed)
    report = detokenize(
        grid,
        vocab,
        node_attr_width=g.node_attr_width,
        edge_attr_width=g.edge_attr_width,
        node_defaults=g.node_defaults or None,
        edge_defaults=g.edge_defaults or None,
    )
    ok = isomorphic(report.graph, g)
    return {
        "ok": ok,
        "dedup": report.deduplicated_edges,
        "jumps": report.dropped_jump_edges,
    }


def _prolonged_length(g: AttributedGraph, vocab: Vocabulary, cfg: ReindexConfig, seed: int) -> float:
    """``serialize_graph(g, vocab, "prolonged", cfg, seed).num_rows``,
    counted from the repaired multigraph without walking or tokenizing.
    A graph with more nodes than a valid index space holds is infinitely
    long: an oversized attempt, not an error."""
    if g.num_nodes > cfg.num_indices and cfg.num_indices <= vocab.num_indices:
        return math.inf
    return sequence_length(build_multigraph(g, derive_seed(seed, "jump")), vocab, cfg)


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
    or with more nodes than the index space holds, is rejected and the
    draw retried with the fanout decremented (never truncated);
    exhausting fanout 1 is an error. Without ``reindex_cfg`` the
    vocabulary's index space is used.
    """
    reindex_cfg = reindex_cfg or ReindexConfig(num_indices=vocab.num_indices)
    if adj is None:
        adj = adjacency(g)
    for attempt, fanout in enumerate(range(cfg.neighbors, 0, -1)):
        attempt_cfg = replace(cfg, neighbors=fanout, seed=derive_seed(cfg.seed, "retry", attempt))
        sub = sample(g, roots, attempt_cfg, adj=adj)
        length = _prolonged_length(sub.graph, vocab, reindex_cfg, seed)
        if length <= cfg.max_seq_len:
            return sub, length
    raise ValueError(
        f"sequence exceeds max_seq_len={cfg.max_seq_len} even at fanout 1"
    )


def calibrate_fanout(
    g: AttributedGraph,
    cfg: SamplerConfig,
    vocab: Vocabulary,
    trials: int = 50,
    seed: int = 0,
    adj=None,
) -> SamplerConfig:
    """Largest fanout <= cfg.neighbors whose trial samples all fit.

    Mirrors the preconfiguration step that keeps generated sequences
    inside the context window. Each trial's prolonged length is counted
    from its repaired multigraph without walking it; a trial with more
    nodes than the vocabulary's index space does not fit.
    """
    from .sampler import draw_roots

    if adj is None:
        adj = adjacency(g)
    reindex_cfg = ReindexConfig(num_indices=vocab.num_indices)
    for fanout in range(cfg.neighbors, 0, -1):
        candidate = replace(cfg, neighbors=fanout)
        roots = draw_roots(g, cfg.mode, trials, derive_seed(seed, "roots", fanout))
        ok = True
        for i, r in enumerate(roots):
            trial_cfg = replace(candidate, seed=derive_seed(seed, "trial", fanout, i))
            sub = sample(g, r, trial_cfg, adj=adj)
            if _prolonged_length(sub.graph, vocab, reindex_cfg, derive_seed(seed, i)) > cfg.max_seq_len:
                ok = False
                break
        if ok:
            return candidate
    raise ValueError("no fanout fits the requested budget")
