import hashlib
import json
import random
from itertools import combinations

import pytest

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    add_jump_edges,
    build_multigraph,
    build_vocab,
    classify,
    connected_components,
    eulerize,
    extract_path,
    serialize_graph,
    validate_path,
)
from graphseq.euler import (
    EXACT_ODD_LIMIT,
    EulerizedMultigraph,
    _exact_matching,
    _greedy_matching,
    _odd_rings,
    _ring_table,
)

from conftest import random_connected_graph, random_graph


def min_duplications_bruteforce(mg: EulerizedMultigraph, max_size: int = 12) -> int:
    """Independent oracle: smallest set of duplicated edges leaving at most
    two odd-degree nodes. Minimal multisets never repeat an edge (a double
    copy cancels parity-wise), so plain subsets suffice."""
    base_deg = mg.degrees()
    if sum(d % 2 for d in base_deg) <= 2:
        return 0
    edge_ids = list(range(mg.num_edges))
    for size in range(1, max_size + 1):
        for combo in combinations(edge_ids, size):
            deg = list(base_deg)
            for eid in combo:
                u, v = mg.endpoints(eid)
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
    """Reference: rescan all remaining pairs for the nearest one, O(k^3)."""
    remaining = list(odd)
    pairing = []
    while remaining:
        best = None
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                a, b = remaining[i], remaining[j]
                if best is None or dist[a][b] < dist[best[0]][best[1]]:
                    best = (a, b)
        pairing.append(best)
        remaining.remove(best[0])
        remaining.remove(best[1])
    return tuple(pairing)


def tie_heavy_table(rng: random.Random, k: int, top: int) -> list[list[int]]:
    """Symmetric k x k table of weights in 1..top with a zero diagonal."""
    w = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            w[i][j] = w[j][i] = rng.randint(1, top)
    return w


def rings_of(w: list[list[int]]) -> list[list[int]]:
    """Per distance 1..max, each row's bitset of columns at that distance."""
    k = len(w)
    return [
        [sum(1 << j for j in range(k) if w[i][j] == d) for i in range(k)]
        for d in range(1, max(map(max, w)) + 1)
    ]


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


# --- classification -----------------------------------------------------


def test_classify_triangle(c3):
    kind, odd = classify(add_jump_edges(c3, 0))
    assert kind == "eulerian" and odd == ()


def test_classify_path(p3):
    kind, odd = classify(add_jump_edges(p3, 0))
    assert kind == "semi-eulerian" and odd == (0, 2)


def test_classify_star(k13):
    kind, odd = classify(add_jump_edges(k13, 0))
    assert kind == "neither" and len(odd) == 4


def test_classify_rejects_disconnected(two_triangles):
    with pytest.raises(ValueError, match="disconnected"):
        classify(EulerizedMultigraph(base=two_triangles))


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


def test_greedy_matching_returns_the_rescan_pairing():
    rng = random.Random(7)
    for k in range(4, 42, 2):
        for top in (2, 3, 6):
            w = tie_heavy_table(rng, k, top)
            matching = _greedy_matching(rings_of(w), k)
            assert pairs_of(matching) == greedy_matching_rescan(tuple(range(k)), w)
            assert [d for d, i, j in matching] == [w[i][j] for _, i, j in matching]


def test_odd_rings_give_bfs_distances():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng, n_min=2, n_max=60, max_node_width=0, max_edge_width=0)
        mg = add_jump_edges(g, 0)
        odd = mg.odd_nodes()
        table = _ring_table(_odd_rings(mg.simple_adjacency(), odd, g.num_nodes), len(odd))
        assert table == [[bfs_distances(mg, a)[b] for b in odd] for a in odd]


# SHA-256 of the prolonged and short grids of a seeded corpus of 200
# graphs with 10-30 nodes, computed with the brute-force and rescan
# matchings above in place of the library's. Any change to pairing or
# tie-breaking on either the exact or the greedy path changes it.
CORPUS_DIGEST = "23521aba385870f6eaadc494b794e1bac1258515f8c6cddec5909bd51889f615"


def test_serialized_corpus_bytes_are_pinned():
    rng = random.Random(31337)
    graphs = [random_graph(rng, n_min=10, n_max=30) for _ in range(200)]
    odd = [len(add_jump_edges(g, 0).odd_nodes()) for g in graphs]
    assert sum(2 < k <= EXACT_ODD_LIMIT for k in odd) > 100
    assert sum(k > EXACT_ODD_LIMIT for k in odd) > 50
    vocab = build_vocab(graphs, "digest", ReindexConfig())
    digest = hashlib.sha256()
    for i, g in enumerate(graphs):
        for layout in ("prolonged", "short"):
            grid = serialize_graph(g, vocab, layout, seed=i)
            digest.update(json.dumps(grid.to_json()).encode() + b"\n")
    assert digest.hexdigest() == CORPUS_DIGEST


# --- path extraction ----------------------------------------------------


def test_triangle_walk_covers_three_edges(c3):
    mg = build_multigraph(c3, 0)
    path = extract_path(mg, 5)
    assert len(path.edge_instances) == 3
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
    assert classify(mg)[0] == "eulerian"
    walks = {extract_path(mg, s).nodes for s in range(200)}
    assert len(walks) >= 2


def test_extract_path_rejects_unrepaired_parity(k13):
    with pytest.raises(ValueError, match="odd-degree"):
        extract_path(add_jump_edges(k13, 0), 0)


def test_single_node_graph_walks_trivially():
    g = AttributedGraph(num_nodes=1)
    path = extract_path(build_multigraph(g, 0), 0)
    assert path.nodes == (0,)
    assert path.edge_instances == ()


def test_cover_exactly_once_property():
    rng = random.Random(4)
    for i in range(120):
        g = random_graph(rng, max_node_width=0, max_edge_width=0)
        mg = build_multigraph(g, i)
        path = extract_path(mg, i)
        assert validate_path(mg, path)
        assert len(connected_components(g)) - 1 == len(mg.jump_edges)
