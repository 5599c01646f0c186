import hashlib
import json
import random
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csgraph

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    add_jump_edges,
    build_multigraph,
    build_vocab,
    connected_components,
    eulerize,
    extract_path,
    serialize_graph,
)
from graphseq.euler import (
    EXACT_ODD_LIMIT,
    EulerizedMultigraph,
    _exact_matching,
    _nearest_pairs,
    _odd_searches,
    _path_edges,
    bounded_draws,
)
from graphseq.graph import bfs

from conftest import power_law_graph, random_connected_graph, random_graph
from oracle import bfs_tree, edge_ends, validate_path


def min_duplications_bruteforce(mg: EulerizedMultigraph, max_size: int = 12) -> int:
    """Independent oracle: smallest set of duplicated edges leaving at most
    two odd-degree nodes. Minimal multisets never repeat an edge (a double
    copy cancels parity-wise), so plain subsets suffice."""
    base_deg = mg.degrees()
    if sum(d % 2 for d in base_deg) <= 2:
        return 0
    ends = edge_ends(mg)
    for size in range(1, max_size + 1):
        for combo in combinations(ends, size):
            deg = list(base_deg)
            for u, v in combo:
                deg[u] += 1
                deg[v] += 1
            if sum(d % 2 for d in deg) <= 2:
                return size
    raise AssertionError("no repair found within the size bound")


def _pairings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first = items[0]
    for j in range(1, len(items)):
        rest = items[1:j] + items[j + 1 :]
        for sub in _pairings(rest):
            yield ((first, items[j]),) + sub


def exact_matching_bruteforce(odd, dist):
    """Reference: the first pairing, in ``_pairings`` order, minimizing
    its total distance minus its largest distance, by trying all of them
    (10,395 at 12 odd nodes)."""
    best = None
    best_cost = None
    for pairing in _pairings(odd):
        weights = [dist[a][b] for a, b in pairing]
        cost = sum(weights) - max(weights)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = pairing
    return best


def greedy_matching_rescan(odd, dist):
    """Reference: rescan all remaining pairs for the nearest one, the
    first in (distance, i, j) order, O(k^3). ``np.argmin`` scans in row
    order, so it returns the first least entry of the upper triangle."""
    k = len(odd)
    w = np.array([[dist[a][b] for b in odd] for a in odd], dtype=float)
    w[np.tril_indices(k)] = np.inf
    pairing = []
    for _ in range(k // 2):
        i, j = divmod(int(np.argmin(w)), k)
        pairing.append((odd[i], odd[j]))
        w[[i, j], :] = np.inf
        w[:, [i, j]] = np.inf
    return tuple(pairing)


def tie_heavy_table(rng: random.Random, k: int, top: int) -> list[list[int]]:
    """Symmetric k x k table of weights in 1..top with a zero diagonal."""
    w = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            w[i][j] = w[j][i] = rng.randint(1, top)
    return w


def tree_path(adj, start: int, goal: int) -> list[int]:
    """Edge ids along the oracle's ``bfs_tree`` path, from ``goal`` back
    to ``start``."""
    parent = bfs_tree(adj, start)
    edges = []
    node = goal
    while node != start:
        node, eid = parent[node]
        edges.append(eid)
    return edges


def pairs_of(matching):
    return tuple((i, j) for _, i, j in matching)


def bfs_distances(mg: EulerizedMultigraph, start: int) -> list[int]:
    adj = mg.simple_adjacency()
    dist = [-1] * mg.base.num_nodes
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


# --- jump edges ---------------------------------------------------------


def test_no_jumps_for_connected_graph(p3):
    assert add_jump_edges(p3, 0).jump_edges == ()


def test_one_jump_for_two_components(two_triangles):
    mg = add_jump_edges(two_triangles, 1)
    assert len(mg.jump_edges) == 1
    (u, v), = mg.jump_edges
    assert u in {0, 1, 2} and v in {3, 4, 5}
    assert mg.is_connected()


def test_jumps_chain_components_in_order():
    g = AttributedGraph(num_nodes=6, edges=((0, 1), (2, 3), (4, 5)))
    mg = add_jump_edges(g, 4)
    assert len(mg.jump_edges) == 2
    first, second = mg.jump_edges
    assert first[0] in {0, 1} and first[1] in {2, 3}
    assert second[0] in {2, 3} and second[1] in {4, 5}


def test_jump_endpoints_vary_with_seed(two_triangles):
    endpoints = {add_jump_edges(two_triangles, s).jump_edges[0] for s in range(40)}
    assert len(endpoints) > 1


def test_a_one_node_component_takes_no_jump_draw():
    # Components {0}, {1, 2, 3}, {4}, {5, 6, 7}: the isolated nodes are
    # their own endpoints, and only the other two components draw, as
    # Random.choice draws, in chain order.
    g = AttributedGraph(num_nodes=8, edges=((1, 2), (2, 3), (5, 6), (6, 7)))
    for seed in range(30):
        rng = random.Random(seed)
        a, b, c = rng.choice((1, 2, 3)), rng.choice((1, 2, 3)), rng.choice((5, 6, 7))
        assert add_jump_edges(g, seed).jump_edges == ((0, a), (b, 4), (4, c))


# --- eulerization -------------------------------------------------------


def test_eulerize_triangle_needs_nothing(c3):
    assert eulerize(add_jump_edges(c3, 0)).duplications == ()


def test_eulerize_path_needs_nothing(p3):
    assert eulerize(add_jump_edges(p3, 0)).duplications == ()


def test_eulerize_star_matches_oracle(k13):
    mg = add_jump_edges(k13, 0)
    oracle = min_duplications_bruteforce(mg)
    repaired = eulerize(mg)
    assert len(repaired.duplications) == oracle == 1
    assert len(repaired.odd_nodes()) == 2
    assert repaired.minimality_guaranteed


def test_eulerize_matches_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        g = random_connected_graph(rng, n_min=2, n_max=7, max_node_width=0, max_edge_width=0)
        mg = add_jump_edges(g, 0)
        repaired = eulerize(mg)
        assert len(repaired.odd_nodes()) in (0, 2)
        assert len(repaired.duplications) == min_duplications_bruteforce(mg)


def test_exact_pairing_at_the_limit():
    # A star with EXACT_ODD_LIMIT leaves: every leaf is odd and two apart
    # from every other, so the exact pairing duplicates all but the two
    # edges of the exempted pair.
    n = EXACT_ODD_LIMIT + 1
    g = AttributedGraph(num_nodes=n, edges=tuple((0, v) for v in range(1, n)))
    repaired = eulerize(add_jump_edges(g, 0))
    assert repaired.minimality_guaranteed
    assert len(repaired.odd_nodes()) == 2
    assert len(repaired.duplications) == EXACT_ODD_LIMIT - 2


def test_greedy_fallback_above_exact_limit():
    # a star with 14 leaves has 14 odd nodes, beyond the exact-search bound
    n = 15
    g = AttributedGraph(num_nodes=n, edges=tuple((0, v) for v in range(1, n)))
    repaired = eulerize(add_jump_edges(g, 0))
    assert not repaired.minimality_guaranteed
    assert len(repaired.odd_nodes()) == 2


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_exact_matching_returns_the_bruteforce_pairing(k):
    # Few distinct weights make many pairings tie at the optimum, so this
    # checks the tie-breaking, not only the cost.
    rng = random.Random(k)
    for top in (2, 3, 6):
        for _ in range(30):
            w = tie_heavy_table(rng, k, top)
            expected = exact_matching_bruteforce(tuple(range(k)), w)
            assert pairs_of(_exact_matching(w)) == expected


def test_exact_matching_returns_the_bruteforce_pairing_on_bfs_tables():
    # Distance tables of real graphs: a metric, with the ties that short
    # BFS distances bring, unlike the tables drawn above.
    rng = random.Random(2024)
    wanted = dict.fromkeys(range(4, EXACT_ODD_LIMIT + 1, 2), 6)
    for _ in range(5000):
        g = random_graph(rng, n_min=8, n_max=40, max_node_width=0, max_edge_width=0)
        mg = add_jump_edges(g, 0)
        odd = mg.odd_nodes()
        if not wanted.get(len(odd)):
            continue
        wanted[len(odd)] -= 1
        w, _ = _odd_searches(mg.simple_adjacency(), odd, g.num_nodes)
        assert pairs_of(_exact_matching(w)) == exact_matching_bruteforce(tuple(range(len(odd))), w)
        if not any(wanted.values()):
            break
    assert not any(wanted.values())


def test_exact_matching_keeps_both_exemption_states():
    # After the pair (0, 1) the optimum is reachable both with the
    # exemption spent on it and with the exemption still free; only the
    # spent state leads to the first optimal pairing, so dropping it when
    # the free one survives picks (2, 5) instead of (2, 3).
    w = [
        [0, 7, 8, 14, 19, 7],
        [7, 0, 14, 19, 13, 2],
        [8, 14, 0, 6, 19, 1],
        [14, 19, 6, 0, 7, 4],
        [19, 13, 19, 7, 0, 2],
        [7, 2, 1, 4, 2, 0],
    ]
    expected = ((0, 1), (2, 3), (4, 5))
    assert exact_matching_bruteforce(tuple(range(6)), w) == expected
    assert pairs_of(_exact_matching(w)) == expected


def test_odd_searches_give_bfs_distances():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng, n_min=2, n_max=60, max_node_width=0, max_edge_width=0)
        mg = add_jump_edges(g, 0)
        odd = mg.odd_nodes()
        if len(odd) < 2:
            continue
        adj = mg.simple_adjacency()
        table, vias = _odd_searches(adj, odd, g.num_nodes)
        assert table == [[bfs_distances(mg, a)[b] for b in odd] for a in odd]
        assert len(vias) == len(odd) - 1
        ends = edge_ends(mg)
        for i, (a, via) in enumerate(zip(odd, vias)):
            # Each kept list is that of a full bfs from its odd node, whose
            # distances are the reference's at every node.
            dist, fresh = [-1] * g.num_nodes, [-1] * g.num_nodes
            bfs(adj, (a,), dist, fresh)
            assert dist == bfs_distances(mg, a) and via == fresh
            for b in odd[i + 1 :]:
                assert _path_edges(via, ends, a, b) == tree_path(adj, a, b)


# SHA-256 of the prolonged and short grids of a seeded corpus of 200
# graphs with 10-30 nodes. Its exact repairs are those of the brute-force
# matching above; its greedy repairs come from ``_nearest_pairs``, which
# no reference reproduces pair for pair. Any change to pairing or
# tie-breaking on either the exact or the greedy path changes it.
CORPUS_DIGEST = "d90d487cf65b062df22e7ffa077b1463120c7a4f63a130d0953d4ba8de15115e"


def _digest_corpus() -> list[AttributedGraph]:
    """The seeded corpus of 200 graphs with 10-30 nodes that
    ``CORPUS_DIGEST`` pins."""
    rng = random.Random(31337)
    return [random_graph(rng, n_min=10, n_max=30) for _ in range(200)]


def test_serialized_corpus_bytes_are_pinned():
    graphs = _digest_corpus()
    odd = [len(add_jump_edges(g, 0).odd_nodes()) for g in graphs]
    assert sum(2 < k <= EXACT_ODD_LIMIT for k in odd) > 100
    assert sum(k > EXACT_ODD_LIMIT for k in odd) > 50
    vocab = build_vocab(graphs, "digest", ReindexConfig())
    digest = hashlib.sha256()
    for i, g in enumerate(graphs):
        for layout in ("prolonged", "short"):
            grid = serialize_graph(g, vocab, layout, seed=i)
            doc = [grid.layout, grid.l, grid.tokens, grid.roles]
            digest.update(json.dumps(doc).encode() + b"\n")
    assert digest.hexdigest() == CORPUS_DIGEST


def _large_graphs() -> list[AttributedGraph]:
    """Seeded graphs of 200-1,000 nodes: sparse random draws (most
    disconnected, some directed), power-law graphs with hubs, and long
    cycles with a few chords, whose at most 12 odd nodes lie many rings
    apart."""
    rng = random.Random(1973)
    graphs = []
    for i in range(10):
        n = rng.randint(200, 1000)
        directed = i % 3 == 0
        edges = set()
        for _ in range(rng.randint(n // 2, 3 * n // 2)):
            u, v = rng.sample(range(n), 2)
            edges.add((u, v) if directed else (min(u, v), max(u, v)))
        graphs.append(AttributedGraph(num_nodes=n, edges=tuple(sorted(edges)), directed=directed))
    for n, m, seed in ((200, 1, 3), (600, 2, 4), (1000, 3, 5)):
        g = power_law_graph(n, m, seed)
        graphs.append(g)
        graphs.append(replace(g, directed=True))
    for n, chords in ((300, 4), (800, 6), (1000, 5)):
        edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
        while len(edges) < n + chords:
            u, v = sorted(rng.sample(range(n), 2))
            if v - u > 1:
                edges.add((u, v))
        graphs.append(AttributedGraph(num_nodes=n, edges=tuple(sorted(edges))))
    return graphs


# SHA-256 of the duplicated edge ids, the minimality flag and the walk's
# nodes and edge ids of every graph of _large_graphs, each repaired and
# walked under its own seed. Taken from the greedy repair over the
# regions of multi-source searches (``_nearest_pairs``) and the walk over
# shuffled (instance, node) lists.
LARGE_REPAIR_DIGEST = "43608026cd111f5847a067c1568e365cdd8887fe7c4f36502903a8b60a3b265e"


def test_repairs_and_walks_of_large_graphs_are_pinned():
    graphs = _large_graphs()
    digest = hashlib.sha256()
    odd_counts, ring_counts = [], []
    for seed, g in enumerate(graphs, start=500):
        connected = add_jump_edges(g, seed)
        odd = connected.odd_nodes()
        odd_counts.append(len(odd))
        ring_counts.append(max(max(bfs_distances(connected, a)) for a in odd[:12]) if odd else 0)
        mg = eulerize(connected)
        path = extract_path(mg, seed)
        doc = [mg.duplications, mg.minimality_guaranteed, path.nodes, path.edges]
        digest.update(json.dumps(doc).encode() + b"\n")
    # Both repair paths, over many rings; hubs, directed and disconnected inputs.
    assert sum(k > EXACT_ODD_LIMIT for k in odd_counts) >= 10
    assert sum(2 < k <= EXACT_ODD_LIMIT for k in odd_counts) >= 3
    assert sum(r >= 30 for r in ring_counts) >= 10
    assert max(max(len(lst) for lst in add_jump_edges(g, 0).simple_adjacency()) for g in graphs) >= 9
    assert sum(g.directed for g in graphs) >= 5
    assert sum(len(connected_components(g)) > 1 for g in graphs) >= 5
    assert digest.hexdigest() == LARGE_REPAIR_DIGEST


def _tree_plus_edges(n: int, seed: int) -> AttributedGraph:
    """A seeded random tree on n nodes, each node after the first joined
    to an earlier one, plus n // 2 further distinct edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return AttributedGraph(num_nodes=n, edges=tuple(sorted(edges)))


@pytest.fixture(scope="module")
def greedy_repairs():
    """Per graph of both pinned corpora that takes greedy repair: its odd
    nodes, their BFS distances to every node, and ``_nearest_pairs``."""
    repairs = []
    for g in _digest_corpus() + _large_graphs():
        mg = add_jump_edges(g, 0)
        odd = mg.odd_nodes()
        if len(odd) <= EXACT_ODD_LIMIT:
            continue
        rows = csgraph.shortest_path(_scipy_graph(mg), directed=False, unweighted=True, indices=odd)
        dist = dict(zip(odd, rows.astype(int).tolist()))
        pairs = _nearest_pairs(mg.simple_adjacency(), mg.endpoints, odd, g.num_nodes)
        repairs.append((mg, odd, dist, pairs))
    assert len(repairs) == 61 + 16
    return repairs


def test_nearest_pairs_join_every_odd_node_along_a_path(greedy_repairs):
    for mg, odd, dist, pairs in greedy_repairs:
        assert sorted(x for _, a, b, _ in pairs for x in (a, b)) == list(odd)
        ends = edge_ends(mg)
        for length, a, b, path in pairs:
            assert a < b and length == len(path) >= dist[a][b]
            node = a
            for eid in path:
                u, v = ends[eid]
                assert node in (u, v)
                node ^= u ^ v
            assert node == b
        # The first pair taken is a nearest pair of odd nodes.
        assert pairs[0][0] == min(dist[a][b] for a, b in combinations(odd, 2))


def test_nearest_pairs_total_is_near_the_rescan_greedy(greedy_repairs):
    ours = rescan = 0
    for _, odd, dist, pairs in greedy_repairs:
        ours += sum(length for length, _, _, _ in pairs)
        rescan += sum(dist[a][b] for a, b in greedy_matching_rescan(odd, dist))
    assert abs(ours - rescan) <= 0.02 * rescan


def test_greedy_repair_memory_is_linear():
    # 3 x 10^4 nodes with about 1.6 x 10^4 odd ones: a table or a bitset
    # per node over the odd nodes would take hundreds of megabytes.
    mg = add_jump_edges(_tree_plus_edges(30_000, 1), 0)
    tracemalloc.start()
    try:
        repaired = eulerize(mg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mg.odd_nodes()) > 10_000
    assert len(repaired.odd_nodes()) == 2 and not repaired.minimality_guaranteed
    assert peak < 64 * 2**20


@pytest.mark.parametrize("embedded", [False, True], ids=["star", "embedded"])
def test_hub_leaves_pair_off_in_few_rounds(embedded, monkeypatch):
    # One search claims the hub for a single leaf, so its other leaves
    # reach no other region over an edge and pair only through the hub.
    # Pairing one of them per round would take 5 x 10^3 searches.
    leaves = 10_000
    edges = {(0, v) for v in range(1, leaves + 1)}
    n = leaves + 1
    if embedded:
        tree = _tree_plus_edges(2 * leaves, 2)
        edges |= {(u + n, v + n) for u, v in tree.edges} | {(0, n)}
        n += tree.num_nodes
    g = AttributedGraph(num_nodes=n, edges=tuple(sorted(edges)))
    mg = add_jump_edges(g, 0)
    odd = mg.odd_nodes()
    starts = []

    def counting_bfs(adj, todo, dist, via):
        starts.append(len(todo))
        return bfs(adj, todo, dist, via)

    monkeypatch.setattr("graphseq.euler.bfs", counting_bfs)
    pairs = _nearest_pairs(mg.simple_adjacency(), mg.endpoints, odd, n)
    assert len(odd) >= leaves and starts[0] == len(odd)
    assert sorted(x for _, a, b, _ in pairs for x in (a, b)) == list(odd)
    hub_pairs = [length for length, a, b, _ in pairs if a <= leaves and b <= leaves]
    assert len(hub_pairs) >= leaves // 2 - 1 and max(hub_pairs) == 2
    assert len(starts) <= (1 if not embedded else 6)


# --- path extraction ----------------------------------------------------


def test_bounded_draws_consume_the_generator_as_random_does():
    # Every length from 0 to 300 in turn on one generator per seed, then
    # powers of two and their neighbours, where the bit count changes.
    edges = sorted({m + d for m in (2**e for e in range(1, 9)) for d in (-1, 0, 1)})
    for seed in range(25):
        ours, theirs = random.Random(seed), random.Random(seed)
        shuffle, choice = bounded_draws(ours)
        for n in [*range(301), *edges, 1, 1, 2, 1]:
            a, b = list(range(n)), list(range(n))
            shuffle(a)
            theirs.shuffle(b)
            assert a == b
            if n > 1:
                assert choice(a) == theirs.choice(b)
                assert choice(range(n)) == theirs.choice(range(n))
            elif n:
                # A single candidate is returned without a draw.
                state = ours.getstate()
                assert choice(a) == choice(range(n)) == 0
                assert ours.getstate() == state
            else:
                with pytest.raises(IndexError):
                    choice(a)
                with pytest.raises(IndexError):
                    theirs.choice(b)
            assert ours.getstate() == theirs.getstate()


def test_walk_of_a_disconnected_multigraph_is_rejected(two_triangles):
    # Every degree is even, so only the connectivity check can refuse it.
    with pytest.raises(ValueError, match="disconnected; add jump edges first"):
        extract_path(EulerizedMultigraph(base=two_triangles), 0)


def test_triangle_walk_covers_three_edges(c3):
    mg = build_multigraph(c3, 0)
    path = extract_path(mg, 5)
    assert len(path.edges) == 3
    assert path.nodes[0] == path.nodes[-1]
    assert validate_path(mg, path)


def test_path_graph_has_two_walks(p3):
    mg = build_multigraph(p3, 0)
    walks = {extract_path(mg, s).nodes for s in range(20)}
    assert walks <= {(0, 1, 2), (2, 1, 0)}
    assert len(walks) == 2


def test_extract_path_is_deterministic(c3):
    mg = build_multigraph(c3, 0)
    assert extract_path(mg, 42) == extract_path(mg, 42)


def test_walks_are_stochastic_across_seeds():
    # bowtie: two triangles sharing node 0; Eulerian with several circuits
    g = AttributedGraph(
        num_nodes=5, edges=((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4))
    )
    mg = build_multigraph(g, 0)
    assert mg.odd_nodes() == ()
    walks = {extract_path(mg, s).nodes for s in range(20)}
    assert len(walks) >= 2
    # One graph, many sequences: the augmentation serialization-based
    # training relies on. With cyclic=False the walk is the only seeded
    # draw left in the tokens.
    cfg = ReindexConfig(cyclic=False)
    vocab = build_vocab([g], "div", cfg)
    sequences = {serialize_graph(g, vocab, "prolonged", cfg, s).tokens for s in range(20)}
    assert len(sequences) >= 2


def test_extract_path_rejects_unrepaired_parity(k13):
    with pytest.raises(ValueError, match="odd-degree"):
        extract_path(add_jump_edges(k13, 0), 0)


def test_single_node_graph_walks_trivially():
    g = AttributedGraph(num_nodes=1)
    path = extract_path(build_multigraph(g, 0), 0)
    assert path.nodes == (0,)
    assert path.edges == ()


def test_cover_exactly_once_property():
    rng = random.Random(4)
    for i in range(120):
        g = random_graph(rng, max_node_width=0, max_edge_width=0)
        mg = build_multigraph(g, i)
        path = extract_path(mg, i)
        assert validate_path(mg, path)
        assert len(connected_components(g)) - 1 == len(mg.jump_edges)


# --- traversal against scipy ---------------------------------------------


def _sparse_graph(rng: random.Random) -> AttributedGraph:
    """20-200 nodes with about n/2 to 3n/2 random edges, so most draws fall
    into several components; directed draws may hold antiparallel pairs."""
    n = rng.randint(20, 200)
    directed = rng.random() < 0.3
    edges = set()
    for _ in range(rng.randint(n // 2, 3 * n // 2)):
        u, v = rng.sample(range(n), 2)
        edges.add((u, v) if directed else (min(u, v), max(u, v)))
    return AttributedGraph(num_nodes=n, edges=tuple(sorted(edges)), directed=directed)


def _scipy_graph(mg: EulerizedMultigraph):
    n = mg.base.num_nodes
    ends = edge_ends(mg)
    rows = [u for u, _ in ends]
    cols = [v for _, v in ends]
    return coo_matrix((np.ones(len(ends)), (rows, cols)), shape=(n, n)).tocsr()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_traversal_agrees_with_scipy(seed):
    rng = random.Random(seed)
    g = _sparse_graph(rng)
    ncomp, labels = csgraph.connected_components(
        _scipy_graph(EulerizedMultigraph(base=g)), directed=False
    )
    expected = {}
    for v, label in enumerate(labels):
        expected.setdefault(label, set()).add(v)
    # Both order components by their smallest node.
    assert connected_components(g) == list(expected.values())

    # Jump edges chaining only some components, then the full chain with
    # duplicated edges on top: a multigraph that may or may not be connected.
    full = add_jump_edges(g, seed)
    partial = EulerizedMultigraph(base=g, jump_edges=full.jump_edges[: rng.randint(0, ncomp - 1)])
    dups = tuple(sorted(rng.choices(range(full.num_edges), k=rng.randint(0, 5))))
    repeated = EulerizedMultigraph(base=g, jump_edges=full.jump_edges, duplications=dups)
    n = g.num_nodes
    for mg in (partial, full, repeated):
        matrix = _scipy_graph(mg)
        assert mg.is_connected() == (csgraph.connected_components(matrix, directed=False)[0] == 1)
        adj = mg.simple_adjacency()
        ends = edge_ends(mg)
        starts = rng.sample(range(n), 3)
        scipy_dist = csgraph.shortest_path(matrix, directed=False, unweighted=True, indices=starts)
        for row, a in zip(scipy_dist, starts):
            dist, via = [-1] * n, [-1] * n
            reached = bfs(adj, (a,), dist, via)
            assert dist == [int(d) if np.isfinite(d) else -1 for d in row]
            assert reached == list(bfs_tree(adj, a))
            for b in rng.sample(reached, min(8, len(reached))):
                chain = _path_edges(via, ends, a, b)
                assert chain == tree_path(adj, a, b)
                assert len(chain) == row[b]
                node = a
                for eid in reversed(chain):
                    u, v = ends[eid]
                    assert node in (u, v)
                    node = v if node == u else u
                assert node == b
        # From all starts at once: the least distance to any of them, each
        # node reached over an edge from a node one closer.
        dist, via = [-1] * n, [-1] * n
        order = bfs(adj, starts, dist, via)
        assert dist == [int(d) if np.isfinite(d) else -1 for d in scipy_dist.min(axis=0)]
        assert order[: len(starts)] == starts
        for v in order[len(starts) :]:
            u, w = ends[via[v]]
            assert v in (u, w) and dist[u ^ w ^ v] == dist[v] - 1


# --- structure carried from the building function --------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_carried_structure_equals_a_fresh_build(seed):
    # add_jump_edges and eulerize hand their results the adjacency,
    # connectivity and odd nodes they already know; a multigraph built from
    # the same fields derives them itself.
    rng = random.Random(seed)
    g = _sparse_graph(rng) if rng.random() < 0.5 else random_graph(rng)
    connected = add_jump_edges(g, seed)
    for mg in (connected, eulerize(connected)):
        fresh = EulerizedMultigraph(
            base=mg.base,
            jump_edges=mg.jump_edges,
            duplications=mg.duplications,
            minimality_guaranteed=mg.minimality_guaranteed,
        )
        assert "_derived" in vars(mg) and "_derived" not in vars(fresh)
        assert "_derived" not in vars(replace(mg, minimality_guaranteed=True))
        assert mg == fresh and repr(mg) == repr(fresh)
        assert mg.odd_nodes() == fresh.odd_nodes()
        assert mg.degrees() == fresh.degrees()
        assert mg.simple_adjacency() == fresh.simple_adjacency()
        assert mg.is_connected() == fresh.is_connected()


def test_carried_structure_covers_jumps_and_duplications():
    # Two three-leaf stars: a jump edge joins them and parity repair
    # duplicates edges, so both carrying paths are taken.
    g = AttributedGraph(num_nodes=8, edges=((0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (5, 7)))
    connected = add_jump_edges(g, 0)
    mg = eulerize(connected)
    assert connected.jump_edges and mg.duplications
    fresh = EulerizedMultigraph(base=g, jump_edges=mg.jump_edges, duplications=mg.duplications)
    assert mg.odd_nodes() == fresh.odd_nodes() and len(mg.odd_nodes()) == 2
    assert mg.simple_adjacency() == fresh.simple_adjacency()
    assert mg.is_connected() and fresh.is_connected()
