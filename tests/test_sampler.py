import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    SamplerConfig,
    SubgraphSample,
    add_jump_edges,
    adjacency,
    build_codebook,
    build_vocab,
    connected_components,
    derive_seed,
    draw_roots,
    eulerize,
    extract_path,
    fit_sample,
    sample,
    serialize_graph,
    tokenize,
    with_identity_attrs,
)
from graphseq import euler, pipeline

from conftest import power_law_graph, random_connected_graph


def _chain(n=5):
    return AttributedGraph(num_nodes=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def _cfg(mode="node-ego", depth=2, neighbors=1, max_len=512, seed=0):
    return SamplerConfig(mode=mode, depth=depth, neighbors=neighbors, max_seq_len=max_len, seed=seed)


def test_chain_sample_contains_root_and_stays_small():
    g = _chain()
    for seed in range(20):
        sub = sample(g, (2,), _cfg(seed=seed))
        assert 3 <= sub.graph.num_nodes <= 5
        assert sub.origin_ids[0] == 2
        assert sub.root_nodes == (0,)


def test_sampling_is_deterministic():
    g = random_connected_graph(random.Random(0), n_min=30, n_max=30)
    cfg = _cfg(depth=2, neighbors=3, seed=17)
    assert sample(g, (4,), cfg) == sample(g, (4,), cfg)


def test_node_ego_samples_are_connected():
    rng = random.Random(2)
    for i in range(30):
        g = random_connected_graph(rng, n_min=10, n_max=40, max_node_width=0, max_edge_width=0)
        sub = sample(g, (rng.randrange(g.num_nodes),), _cfg(depth=3, neighbors=2, seed=i))
        assert len(connected_components(sub.graph)) == 1


def test_edge_ego_keeps_both_roots_first():
    g = _chain(8)
    sub = sample(g, (3, 4), _cfg(mode="edge-ego", depth=1, neighbors=2))
    assert sub.root_nodes == (0, 1)
    assert sub.origin_ids[0] == 3 and sub.origin_ids[1] == 4


def test_induced_subgraph_keeps_internal_edges():
    # diamond plus a pendant: all edges among sampled nodes must survive
    g = AttributedGraph(
        num_nodes=5, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4))
    )
    sub = sample(g, (0,), _cfg(depth=2, neighbors=3, seed=1))
    sampled = set(sub.origin_ids)
    expected = sum(1 for u, v in g.edges if u in sampled and v in sampled)
    assert sub.graph.num_edges == expected


def test_attributes_carry_over():
    g = AttributedGraph(
        num_nodes=4,
        edges=((0, 1), (1, 2), (2, 3)),
        node_attrs=[[9], [8], [7], [6]],
        edge_attrs=[[1], [2], [3]],
    )
    sub = sample(g, (1,), _cfg(depth=1, neighbors=2, seed=0))
    for local, gid in enumerate(sub.origin_ids):
        assert sub.graph.node_attrs[local] == g.node_attrs[gid]


def test_origin_ids_are_injective():
    rng = random.Random(5)
    g = random_connected_graph(rng, n_min=20, n_max=50)
    for i in range(20):
        sub = sample(g, (i % g.num_nodes,), _cfg(depth=3, neighbors=3, seed=i))
        assert len(set(sub.origin_ids)) == sub.graph.num_nodes


def test_root_count_must_match_mode(c3):
    with pytest.raises(ValueError, match="takes 1 root"):
        sample(c3, (0, 1), _cfg())
    with pytest.raises(ValueError, match="takes 2 root"):
        sample(c3, (0,), _cfg(mode="edge-ego"))


def test_root_out_of_range(c3):
    with pytest.raises(ValueError, match="out of range"):
        sample(c3, (9,), _cfg())


def test_roots_must_be_integers(c3):
    # int() would read 1.5 as 1 and sample around a node nobody asked for.
    with pytest.raises(ValueError, match="root node 1.5 is not an integer"):
        sample(c3, (0, 1.5), _cfg(mode="edge-ego"))
    with pytest.raises(ValueError, match="root node True is not an integer"):
        sample(c3, (True,), _cfg())
    assert sample(c3, (np.int64(1),), _cfg()).origin_ids[0] == 1


def test_config_validation():
    with pytest.raises(ValueError, match="depth"):
        SamplerConfig(mode="node-ego", depth=0, neighbors=1, max_seq_len=10)
    with pytest.raises(ValueError, match="neighbors"):
        SamplerConfig(mode="node-ego", depth=1, neighbors=0, max_seq_len=10)
    with pytest.raises(ValueError, match="max_seq_len"):
        SamplerConfig(mode="node-ego", depth=1, neighbors=1, max_seq_len=0)
    with pytest.raises(ValueError, match="mode"):
        SamplerConfig(mode="ring-ego", depth=1, neighbors=1, max_seq_len=10)


# --- root drawing ---------------------------------------------------------


def test_draw_zero_roots(c3):
    assert draw_roots(c3, "node-ego", 0, seed=0) == []


def test_draw_all_edges_of_triangle(c3):
    roots = draw_roots(c3, "edge-ego", 3, seed=1)
    assert sorted(tuple(sorted(r)) for r in roots) == [(0, 1), (0, 2), (1, 2)]


def test_negatives_on_complete_graph_fail(c3):
    with pytest.raises(ValueError, match="non-edge"):
        draw_roots(c3, "edge-ego", 3, seed=0, negatives=True)


def test_negatives_need_edge_ego(c3):
    with pytest.raises(ValueError, match="edge-ego roots only, not node-ego"):
        draw_roots(c3, "node-ego", 2, seed=0, negatives=True)


def test_negatives_are_real_non_edges():
    g = _chain(10)
    linked = {frozenset(e) for e in g.edges}
    roots = draw_roots(g, "edge-ego", 5, seed=3, negatives=True)
    assert len(roots) == 10
    positives, negatives = roots[:5], roots[5:]
    for head, tail in positives:
        assert frozenset((head, tail)) in linked
    for i, (head, tail) in enumerate(negatives):
        assert head == positives[i][0]  # head kept, tail redrawn
        assert frozenset((head, tail)) not in linked


def test_negative_roots_are_pinned():
    # sha256 prefix of the JSON roots: the draws decide every sample. On
    # the directed graph some pairs are linked in one orientation only,
    # and a negative must avoid both.
    dense = AttributedGraph(
        num_nodes=10,
        directed=True,
        edges=tuple(
            (v, u) if (u + v) % 2 else (u, v)
            for u in range(10)
            for v in range(u + 1, 10)
            if (u + 2 * v) % 5
        ),
    )
    roots = [
        draw_roots(power_law_graph(2000, 2, 0), "edge-ego", 500, 7, negatives=True),
        draw_roots(dense, "edge-ego", 30, 7, negatives=True),
    ]
    assert hashlib.sha256(json.dumps(roots).encode()).hexdigest()[:16] == "5d27a739f28dbe07"


def test_draw_more_than_available_fails(c3):
    with pytest.raises(ValueError, match="only"):
        draw_roots(c3, "node-ego", 4, seed=0)
    with pytest.raises(ValueError, match="only"):
        draw_roots(c3, "edge-ego", 4, seed=0)


def test_edge_ego_sample_is_connected_for_real_edges():
    rng = random.Random(9)
    for i in range(20):
        g = random_connected_graph(rng, n_min=10, n_max=30, max_node_width=0, max_edge_width=0)
        u, v = g.edges[rng.randrange(g.num_edges)]
        sub = sample(g, (u, v), _cfg(mode="edge-ego", depth=2, neighbors=3, seed=i))
        assert len(connected_components(sub.graph)) == 1


def test_negative_pair_subgraph_serializes_via_jumps():
    # two far-apart roots with no seed edge can land in separate pieces;
    # serialization then relies on jump repair
    g = AttributedGraph(
        num_nodes=12,
        edges=tuple((i, i + 1) for i in range(5)) + tuple((i, i + 1) for i in range(6, 11)),
    )
    sub = sample(g, (0, 6), _cfg(mode="edge-ego", depth=1, neighbors=1, seed=0))
    assert len(connected_components(sub.graph)) == 2
    report = __import__("graphseq").roundtrip_report(sub.graph, "prolonged", seed=1)
    assert report["ok"] and report["jumps"] == 1


def _uniform_sparse_graph(n, mean_degree, seed):
    # low clustering, so shallow ego subgraphs stay close to trees
    rng = random.Random(seed)
    target = n * mean_degree // 2
    edges = set((i, (i + 1) % n) for i in range(n))
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return AttributedGraph(num_nodes=n, edges=tuple(sorted(edges)))


def test_shallow_wide_edge_ego_matches_ninety_token_scale():
    # edge-ego, depth 1, fanout 14, identity-encoded nodes: roughly 30-node
    # subgraphs whose flat sequences sit around ninety tokens
    from graphseq import (
        ReindexConfig,
        build_codebook,
        build_vocab,
        serialize_graph,
        with_identity_attrs,
    )

    g = _uniform_sparse_graph(3000, 18, seed=0)
    adj = adjacency(g)
    cb = build_codebook(g, k=2, strategy="bfs-partition", max_cluster=64, dataset_tag="ppa")
    rng = random.Random(4)
    lengths = []
    for i in range(60):
        u, v = g.edges[rng.randrange(g.num_edges)]
        sub = sample(g, (u, v), _cfg(mode="edge-ego", depth=1, neighbors=14, seed=i), adj=adj)
        sub = with_identity_attrs(sub, cb)
        vocab = build_vocab([sub.graph], "ppa", ReindexConfig(), node_attr_style="inline")
        grid = serialize_graph(sub.graph, vocab, "prolonged", ReindexConfig(), i)
        lengths.append(grid.num_rows)
    mean_len = sum(lengths) / len(lengths)
    assert 45 <= mean_len <= 180, mean_len


# --- budget fitting -------------------------------------------------------


def test_fit_sample_decrements_fanout():
    rng = random.Random(6)
    g = random_connected_graph(rng, n_min=60, n_max=60, max_node_width=0, max_edge_width=0)
    vocab = build_vocab([g], "fit", ReindexConfig())
    adj = adjacency(g)
    tight = SamplerConfig(mode="node-ego", depth=3, neighbors=8, max_seq_len=24, seed=0)
    sub, length = fit_sample(g, (0,), tight, vocab, adj=adj)
    assert serialize_graph(sub.graph, vocab, "prolonged", ReindexConfig(), 0).num_rows == length <= 24
    loose = SamplerConfig(mode="node-ego", depth=3, neighbors=8, max_seq_len=4096, seed=0)
    sub_loose, _ = fit_sample(g, (0,), loose, vocab, adj=adj)
    assert sub_loose.graph.num_nodes >= sub.graph.num_nodes


def test_fit_sample_gives_up_when_even_fanout_one_overflows():
    g = _chain(40)
    vocab = build_vocab([g], "fit", ReindexConfig())
    cfg = SamplerConfig(mode="node-ego", depth=30, neighbors=2, max_seq_len=3, seed=0)
    with pytest.raises(ValueError, match="max_seq_len"):
        fit_sample(g, (0,), cfg, vocab)


def test_budget_fit_uses_the_vocabulary_index_space():
    # A depth-2 ego sample of a 401-node star holds up to 302 nodes, more
    # than the default 256 indices but within the vocabulary's 512.
    star = AttributedGraph(num_nodes=401, edges=tuple((0, i) for i in range(1, 401)))
    vocab = build_vocab([star], "star", ReindexConfig(num_indices=512))
    cfg = SamplerConfig(mode="node-ego", depth=2, neighbors=300, max_seq_len=4096, seed=0)
    sub, length = fit_sample(star, (5,), cfg, vocab)
    assert sub.graph.num_nodes == 302
    grid = serialize_graph(sub.graph, vocab, "prolonged", ReindexConfig(num_indices=512), 0)
    assert grid.num_rows == length <= 4096


def test_budget_fit_retries_a_sample_that_overflows_the_index_space():
    # With 256 indices the fanout-300 draw of 302 nodes is oversized, not
    # an error: fanout 254 gives the leaf root, the hub and 254 more leaves.
    star = AttributedGraph(num_nodes=401, edges=tuple((0, i) for i in range(1, 401)))
    vocab = build_vocab([star], "star", ReindexConfig())
    cfg = SamplerConfig(mode="node-ego", depth=2, neighbors=300, max_seq_len=4096, seed=0)
    sub, length = fit_sample(star, (5,), cfg, vocab)
    assert sub.graph.num_nodes == 256
    assert serialize_graph(sub.graph, vocab, "prolonged", ReindexConfig(), 0).num_rows == length


# --- reuse of the fitted repair -------------------------------------------


def _layer_grid(g, vocab, layout, cfg, seed):
    """``serialize_graph``'s grid composed from the layer calls, over a
    freshly repaired multigraph."""
    mg = eulerize(add_jump_edges(g, derive_seed(seed, "jump")))
    path = extract_path(mg, derive_seed(seed, "path"))
    step_cfg = replace(cfg, seed=derive_seed(seed, "shift", cfg.seed))
    return tokenize(path, mg, vocab, layout, step_cfg, derive_seed(seed, "attrs"))


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_serialization_reuses_the_fitted_repair(monkeypatch):
    # fit -> identity attributes -> serialize, as a data loader runs it:
    # one parity repair per fit attempt and one walk per fit, neither
    # more for the serialization.
    parent = power_law_graph(2000, 3, seed=5)
    cb = build_codebook(parent, k=2, strategy="bfs-partition", max_cluster=64, dataset_tag="ppa")
    everyone = SubgraphSample(graph=parent, root_nodes=(0,), origin_ids=range(parent.num_nodes))
    coded_parent = with_identity_attrs(everyone, cb).graph
    vocab = build_vocab([coded_parent], "ppa", ReindexConfig(), node_attr_style="inline")
    cfg = ReindexConfig(seed=3)
    calls = Counter()
    _count_calls(monkeypatch, euler, "eulerize", calls)
    _count_calls(monkeypatch, pipeline, "extract_path", calls)
    _count_calls(monkeypatch, pipeline, "sample", calls)
    rng = random.Random(8)
    written = []
    for i in range(40):
        roots = parent.edges[rng.randrange(parent.num_edges)]
        scfg = SamplerConfig(mode="edge-ego", depth=1, neighbors=10, max_seq_len=30, seed=i)
        sub, _ = fit_sample(parent, roots, scfg, vocab, cfg, seed=i)
        coded = with_identity_attrs(sub, cb).graph
        layout = ("prolonged", "short", "long")[i % 3]
        fitted = calls.copy()
        written.append((coded, layout, i, serialize_graph(coded, vocab, layout, cfg, i)))
        assert calls == fitted  # neither a repair nor a walk
    assert calls["sample"] > len(written)  # the tight budget makes some fits retry
    assert calls["eulerize"] == calls["sample"]
    assert calls["extract_path"] == len(written)
    monkeypatch.undo()
    for coded, layout, i, grid in written:
        assert grid == _layer_grid(coded, vocab, layout, cfg, i)


def test_fitted_repair_is_not_reused_for_other_edges_or_seeds(monkeypatch):
    g = random_connected_graph(random.Random(3), n_min=40, n_max=40, max_node_width=0, max_edge_width=0)
    vocab = build_vocab([g], "fit", ReindexConfig())
    cfg = ReindexConfig()
    scfg = SamplerConfig(mode="node-ego", depth=2, neighbors=3, max_seq_len=4096, seed=0)
    calls = Counter()
    _count_calls(monkeypatch, euler, "eulerize", calls)
    for seed in range(12):
        for differs in ("edges", "seed"):
            sub, _ = fit_sample(g, (seed,), scfg, vocab, cfg, seed=seed)
            if differs == "edges":  # same nodes, one edge fewer
                h, s = replace(sub.graph, edges=sub.graph.edges[:-1]), seed
            else:
                h, s = sub.graph, seed + 100
            before = calls["eulerize"]
            grid = serialize_graph(h, vocab, "prolonged", cfg, s)
            assert calls["eulerize"] == before + 1
            assert grid == _layer_grid(h, vocab, "prolonged", cfg, s)


def test_only_an_accepted_fit_fills_the_slot_and_serialization_empties_it():
    g = random_connected_graph(random.Random(4), n_min=30, n_max=30, max_node_width=0, max_edge_width=0)
    vocab = build_vocab([g], "fit", ReindexConfig())
    serialize_graph(g, vocab)  # empties the slot whatever earlier tests left
    assert pipeline._fitted == []
    cfg = SamplerConfig(mode="node-ego", depth=2, neighbors=4, max_seq_len=4096, seed=0)
    with pytest.raises(ValueError, match="max_seq_len"):
        fit_sample(g, (0,), replace(cfg, max_seq_len=1), vocab)
    assert pipeline._fitted == []
    sub, _ = fit_sample(g, (0,), cfg, vocab)
    [(seed, mg, path)] = pipeline._fitted
    assert mg.base is sub.graph and seed == 0
    assert path == extract_path(mg, derive_seed(0, "path"))
    serialize_graph(g, vocab, seed=5)
    assert pipeline._fitted == []


def test_interleaved_fits_serialize_what_separate_fits_would():
    # Two loaders in one process: the second fit overwrites the first
    # one's slot entry, so the first serialization must miss, and the
    # second finds the slot empty. On a circulant graph most samples have
    # the same node count, so an entry taken without its whole key would
    # give a wrong grid.
    n = 600
    g = AttributedGraph(num_nodes=n, edges=tuple((v, (v + d) % n) for v in range(n) for d in (1, 2, 5)))
    vocab = build_vocab([g], "fit", ReindexConfig())
    cfg = SamplerConfig(mode="edge-ego", depth=1, neighbors=3, max_seq_len=4096, seed=0)

    def fit(i):
        return fit_sample(g, g.edges[7 * i], replace(cfg, seed=i), vocab, seed=i)[0]

    alone = []
    for i in range(40):
        alone.append(serialize_graph(fit(i).graph, vocab, seed=i))
    interleaved = []
    for i in range(0, 40, 2):
        first, second = fit(i), fit(i + 1)
        interleaved.append(serialize_graph(first.graph, vocab, seed=i))
        interleaved.append(serialize_graph(second.graph, vocab, seed=i + 1))
    assert interleaved == alone
