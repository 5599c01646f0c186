"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical criteria use frozen seeds verified to pass their stated
thresholds; runtime bounds are asserted where stated.
"""
import itertools
import json
import math
import random
import time
from collections import Counter

from scipy import stats

import graphseq as gs
from graphseq import (
    AttributedGraph,
    ReindexConfig,
    SamplerConfig,
    adjacency,
    build_codebook,
    build_multigraph,
    build_smtp,
    build_vocab,
    decode_node,
    derive_seed,
    detokenize,
    draw_mask_fraction,
    draw_roots,
    encode_node,
    extract_path,
    fit_sample,
    format_edge_task,
    format_graph_task,
    format_node_task,
    sample,
    serialize_graph,
    with_identity_attrs,
)
from graphseq.detokenizer import grid_from_prolonged_tokens
from graphseq.euler import add_jump_edges, eulerize
from graphseq.pipeline import calibrate_fanout
from graphseq.tokenizer import ROLE_NODE, ROLE_NODE_ATTR, tokenize
from graphseq.vocab import GSUM

from conftest import DATA_DIR, power_law_graph, random_connected_graph, random_graph, vocab_for
from oracle import isomorphic, validate_path
from test_euler import min_duplications_bruteforce

LAYOUTS = ("prolonged", "short", "long")


def _report(number: int, detail: str):
    print(f"ACCEPTANCE {number}: PASS - {detail}")


def test_criterion_01_roundtrip_reversibility():
    """1,000 random connected attributed graphs, all layouts: detokenize of
    tokenize is isomorphic to the input. Under 30 s."""
    rng = random.Random(2024)
    start = time.time()
    failures = not_isomorphic = 0
    for i in range(1000):
        g = random_connected_graph(rng, n_min=2, n_max=12, max_node_width=4, max_edge_width=3)
        vocab = build_vocab([g], "roundtrip", ReindexConfig())
        for layout in LAYOUTS:
            seed = derive_seed(1, i, layout)
            report = gs.roundtrip_report(g, layout, seed=seed)
            failures += not report["ok"]
            decoded = detokenize(
                serialize_graph(g, vocab, layout, seed=seed), vocab,
                g.node_attr_width, g.edge_attr_width, g.node_defaults or None, g.edge_defaults or None,
            )
            not_isomorphic += not isomorphic(decoded.graph, g)
    elapsed = time.time() - start
    assert failures == 0
    assert not_isomorphic == 0
    assert elapsed < 30
    _report(1, f"1000/1000 graphs reversible across all three layouts in {elapsed:.1f}s")


def test_criterion_02_eulerization_minimality():
    """Duplication counts match the brute-force minimum: exhaustively for
    every connected graph on up to 6 labeled nodes, plus 500 random 7-node
    graphs. Under 60 s."""
    start = time.time()
    checked = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            g = AttributedGraph(num_nodes=n, edges=edges)
            if len(gs.connected_components(g)) != 1:
                continue
            mg = add_jump_edges(g, 0)
            assert len(eulerize(mg).duplications) == min_duplications_bruteforce(mg)
            checked += 1
    rng = random.Random(7)
    for _ in range(500):
        g = random_connected_graph(rng, n_min=7, n_max=7, max_node_width=0, max_edge_width=0)
        mg = add_jump_edges(g, 0)
        assert len(eulerize(mg).duplications) == min_duplications_bruteforce(mg)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    _report(2, f"{checked} graphs at the brute-force minimum (exhaustive <=6 nodes + 500 seven-node) in {elapsed:.1f}s")


def test_criterion_03_path_validity():
    """10,000 (graph, seed) pairs: every walk covers each edge instance
    exactly once with adjacent consecutive nodes."""
    rng = random.Random(5)
    graphs = [random_graph(rng, max_node_width=0, max_edge_width=0) for _ in range(500)]
    start = time.time()
    for i in range(10000):
        g = graphs[i % len(graphs)]
        mg = build_multigraph(g, derive_seed(3, i))
        path = extract_path(mg, derive_seed(4, i))
        assert validate_path(mg, path)
    elapsed = time.time() - start
    _report(3, f"10000/10000 walks cover exactly once in {elapsed:.1f}s")


def test_criterion_04_cyclic_reindex_uniformity():
    """First node-index residues over 10,000 tokenizations pass a chi-square
    goodness-of-fit test at significance 0.01 (and stay within 3 sigma of
    the multinomial expectation per residue); with cyclic disabled the
    first index is always 0."""
    g = AttributedGraph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))
    vocab = vocab_for(g)
    mg = build_multigraph(g, 0)
    path = extract_path(mg, 0)
    counts = Counter()
    for i in range(10000):
        cfg = ReindexConfig(num_indices=256, cyclic=True, seed=derive_seed(0, i))
        grid = tokenize(path, mg, vocab, "prolonged", cfg, i)
        counts[grid.tokens[0][0]] += 1
    observed = [counts.get(r, 0) for r in range(256)]
    result = stats.chisquare(observed)
    assert result.pvalue >= 0.01
    expected = 10000 / 256
    sigma = math.sqrt(10000 * (1 / 256) * (255 / 256))
    assert max(abs(o - expected) for o in observed) <= 3 * sigma

    for i in range(200):
        cfg = ReindexConfig(num_indices=256, cyclic=False)
        grid = tokenize(path, mg, vocab, "prolonged", cfg, i)
        assert vocab.token(grid.tokens[0][0]) == "0"
    _report(4, f"residues uniform (chi-square p={result.pvalue:.3f} >= 0.01); cyclic off always starts at index 0")


def test_criterion_05_molecule_golden_fixture():
    """The published prolonged sequence detokenizes to the 4-node, 3-edge
    molecule with edge (1,2) attributes (1,0,0); re-tokenizing with a seed
    that reproduces the attribute placement round-trips isomorphically."""
    doc = json.loads((DATA_DIR / "molpcba_fixture.json").read_text())
    expected = AttributedGraph.from_json(doc["graph"])
    cfg = ReindexConfig(num_indices=256)
    vocab = build_vocab([expected], doc["dataset_tag"], cfg)
    grid = grid_from_prolonged_tokens(doc["tokens"], vocab)
    rec = detokenize(grid, vocab, node_attr_width=9, edge_attr_width=3)
    assert rec.graph.num_nodes == 4
    assert rec.graph.num_edges == 3
    # tokens '1' and '2' map to local nodes 0 and 1
    assert rec.graph.edges[0] == (0, 1)
    assert rec.graph.edge_attrs[0] == (1, 0, 0)
    assert isomorphic(rec.graph, expected)

    # seed 1 re-attaches the revisited node's attributes at its second
    # appearance, matching the published placement
    regrid = serialize_graph(rec.graph, vocab, "prolonged", cfg, seed=1)
    tokens = [t for (t,) in regrid.tokens]
    roles = [r for (r,) in regrid.roles]
    visits = {}
    for pos, (t, r) in enumerate(zip(tokens, roles)):
        if r == ROLE_NODE:
            visits.setdefault(t, []).append(pos)
    (revisited,) = [t for t, ps in visits.items() if len(ps) == 2]
    assert roles[visits[revisited][1] + 1] == ROLE_NODE_ATTR
    rec2 = detokenize(regrid, vocab, node_attr_width=9, edge_attr_width=3)
    assert isomorphic(rec2.graph, rec.graph)
    assert isomorphic(rec2.graph, expected)
    _report(5, "published sequence reconstructs exactly; re-tokenization round-trips isomorphically")


def test_criterion_06_smtp_leakage_and_schedule():
    """1,000 masked examples over identity-encoded graphs leak nothing;
    10,000 mask-fraction draws have mean 0.5 +/- 0.02 and KS distance to
    Uniform(0,1) at most 0.02."""
    parent = AttributedGraph(
        num_nodes=64, edges=tuple((i, (i + 1) % 64) for i in range(64))
        + tuple((i, (i + 9) % 64) for i in range(0, 64, 4))
    )
    cb = build_codebook(parent, k=2, strategy="bfs-partition", max_cluster=8, dataset_tag="t")
    adj = adjacency(parent)
    cfg = ReindexConfig()
    rng = random.Random(17)
    checked = 0
    for i in range(1000):
        scfg = SamplerConfig(mode="node-ego", depth=3, neighbors=2,
                             max_seq_len=512, seed=derive_seed(9, i))
        sub = with_identity_attrs(sample(parent, (i % 64,), scfg, adj=adj), cb)
        vocab = build_vocab([sub.graph], "t", cfg, node_attr_style="inline")
        layout = LAYOUTS[i % 3]
        grid = serialize_graph(sub.graph, vocab, layout, cfg, derive_seed(10, i))
        ex = build_smtp(grid, draw_mask_fraction(rng), derive_seed(11, i), vocab)
        flat_roles = [r for row in grid.roles for r in row]
        masked_nodes = {tok for pos, tok in ex.targets if flat_roles[pos] == ROLE_NODE}
        survivors = masked_nodes & {t for row in ex.inputs.tokens for t in row}
        assert not survivors, f"leak in example {i}"
        checked += 1
    assert checked == 1000

    draws = [draw_mask_fraction(random.Random(derive_seed(12, i))) for i in range(10000)]
    mean = sum(draws) / len(draws)
    ks = stats.kstest(draws, "uniform")
    assert abs(mean - 0.5) <= 0.02
    assert ks.statistic <= 0.02
    _report(6, f"0 leaks in 1000 examples; mean draw {mean:.3f}, KS {ks.statistic:.4f}")


def test_criterion_07_ntp_targets():
    """Across 1,000 grids the NTP target multiset equals every non-padding
    token outside the first row, and padding never becomes a target."""
    rng = random.Random(23)
    for i in range(1000):
        g = random_connected_graph(rng, n_max=10)
        vocab = vocab_for(g)
        layout = LAYOUTS[i % 3]
        grid = serialize_graph(g, vocab, layout, ReindexConfig(), derive_seed(13, i))
        ex = gs.build_ntp(grid, vocab)
        expected = Counter()
        for t in range(1, grid.num_rows):
            for tok, role in zip(grid.tokens[t], grid.roles[t]):
                if role != "pad":
                    expected[(t - 1, tok)] += 1
        assert Counter(ex.targets) == expected
        # every target is backed by a non-pad cell of its next row
        for t, tok in ex.targets:
            assert any(
                cell == tok and role != "pad"
                for cell, role in zip(grid.tokens[t + 1], grid.roles[t + 1])
            )
    _report(7, "1000/1000 grids: targets = all non-pad tokens beyond the first row")


def test_criterion_08_identity_codebook_scale():
    """k=2 over a million-node graph: injective codes, per-slot vocabularies
    at most 1,024 with max_cluster=1,024, decode of encode is the identity.
    Under 60 s."""
    start = time.time()
    n = 1_000_000
    g = AttributedGraph(num_nodes=n, edges=tuple((i, (i + 1) % n) for i in range(n)))
    cb = build_codebook(g, k=2, strategy="bfs-partition", max_cluster=1024, seed=0, dataset_tag="big")
    assert all(size <= 1024 for size in cb.slot_sizes)
    codes = {cb.code(v) for v in range(n)}
    assert len(codes) == n
    for v in range(n):
        assert decode_node(cb, encode_node(cb, v)) == v
    elapsed = time.time() - start
    assert elapsed < 60
    _report(8, f"10^6 nodes: slots {cb.slot_sizes}, injective, decode(encode)=id in {elapsed:.1f}s")


def _ring_lattice(n, k, rewire, seed):
    rng = random.Random(seed)
    edges = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            edges.add((min(i, (i + j) % n), max(i, (i + j) % n)))
    out = set(edges)
    for a, b in sorted(edges):
        if rng.random() < rewire:
            c = rng.randrange(n)
            if c not in (a, b) and (min(a, c), max(a, c)) not in out:
                out.discard((a, b))
                out.add((min(a, c), max(a, c)))
    return AttributedGraph(num_nodes=n, edges=tuple(sorted(out)))


def test_criterion_09_sampler_context_fit():
    """On a 10^5-node power-law graph a calibrated (depth, fanout) keeps
    1,000/1,000 prolonged sequences inside the budget; deep fanout-1
    sampling on a clustered graph lands within a factor of two of the
    50-token scale."""
    g = power_law_graph(100_000, 2, 0)
    adj = adjacency(g)
    vocab = build_vocab([g], "pl", ReindexConfig())
    base = SamplerConfig(mode="node-ego", depth=2, neighbors=12, max_seq_len=256, seed=0)
    calibrated = calibrate_fanout(g, base, vocab, trials=60, seed=3, adj=adj)
    roots = draw_roots(g, "node-ego", 1000, seed=11)
    fitted = 0
    for i, r in enumerate(roots):
        cfg = SamplerConfig(
            mode="node-ego",
            depth=calibrated.depth,
            neighbors=calibrated.neighbors,
            max_seq_len=calibrated.max_seq_len,
            seed=derive_seed(5, i),
        )
        sub, length = fit_sample(g, r, cfg, vocab, seed=derive_seed(6, i), adj=adj)
        grid = serialize_graph(sub.graph, vocab, "prolonged", ReindexConfig(), derive_seed(6, i))
        assert grid.num_rows == length <= calibrated.max_seq_len
        fitted += 1
    assert fitted == 1000

    clustered = _ring_lattice(3000, 6, 0.05, 0)
    cadj = adjacency(clustered)
    cvocab = build_vocab([clustered], "prot", ReindexConfig())
    rng = random.Random(1)
    lengths = []
    for i in range(300):
        scfg = SamplerConfig(mode="node-ego", depth=20, neighbors=1,
                             max_seq_len=4096, seed=derive_seed(7, i))
        sub = sample(clustered, (rng.randrange(clustered.num_nodes),), scfg, adj=cadj)
        grid = serialize_graph(sub.graph, cvocab, "prolonged", ReindexConfig(), derive_seed(8, i))
        lengths.append(grid.num_rows)
    mean_len = sum(lengths) / len(lengths)
    assert 25 <= mean_len <= 100, f"mean sequence length {mean_len} outside [25, 100]"
    _report(9, f"1000/1000 fit a {calibrated.max_seq_len}-token budget at fanout {calibrated.neighbors}; depth-20 fanout-1 mean length {mean_len:.0f} (target scale 50, factor-2 band)")


def test_criterion_10_task_formatting():
    """300 randomized cases across the three task kinds: correct readout
    token and byte-exact suffix stripping."""
    rng = random.Random(41)
    cfg = ReindexConfig()
    cases = 0
    for i in range(100):
        g = random_connected_graph(rng, n_max=8)
        vocab = vocab_for(g)
        grid = serialize_graph(g, vocab, LAYOUTS[i % 3], cfg, derive_seed(20, i))
        ts = format_graph_task(grid, vocab)
        assert vocab.token(ts.tokens[ts.readout_position]) == GSUM
        assert list(ts.tokens[: len(grid.flat())]) == grid.flat()
        cases += 1

    parent = AttributedGraph(
        num_nodes=40,
        edges=tuple((i, (i + 1) % 40) for i in range(40))
        + tuple((i, (i + 11) % 40) for i in range(0, 40, 5)),
    )
    cb = build_codebook(parent, k=2, strategy="bfs-partition", max_cluster=8, dataset_tag="t")
    adj = adjacency(parent)
    for i in range(100):
        roots = draw_roots(parent, "edge-ego", 1, seed=derive_seed(21, i))[0]
        scfg = SamplerConfig(mode="edge-ego", depth=2, neighbors=3,
                             max_seq_len=512, seed=derive_seed(22, i))
        sub = with_identity_attrs(sample(parent, roots, scfg, adj=adj), cb)
        vocab = build_vocab([sub.graph], "t", cfg, node_attr_style="inline")
        grid = serialize_graph(sub.graph, vocab, "prolonged", cfg, derive_seed(23, i))
        src = encode_node(cb, sub.origin_ids[0])
        dst = encode_node(cb, sub.origin_ids[1])
        ts = format_edge_task(grid, vocab, src, dst, label=i % 2)
        assert vocab.token(ts.tokens[ts.readout_position]) == dst[-1]
        assert list(ts.tokens[: len(grid.flat())]) == grid.flat()
        cases += 1

    for i in range(100):
        root = (i * 7) % 40
        scfg = SamplerConfig(mode="node-ego", depth=3, neighbors=2,
                             max_seq_len=512, seed=derive_seed(24, i))
        sub = with_identity_attrs(sample(parent, (root,), scfg, adj=adj), cb)
        vocab = build_vocab([sub.graph], "t", cfg, node_attr_style="inline")
        grid = serialize_graph(sub.graph, vocab, "prolonged", cfg, derive_seed(25, i))
        target = encode_node(cb, sub.origin_ids[0])
        ts = format_node_task(grid, vocab, target)
        assert vocab.token(ts.tokens[ts.readout_position]) == target[-1]
        assert list(ts.tokens[: len(grid.flat())]) == grid.flat()
        cases += 1
    assert cases == 300
    _report(10, "300/300 task sequences: correct readout token, suffix strips byte-exactly")
