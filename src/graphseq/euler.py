"""Connectivity and parity repair plus randomized Eulerian path extraction.

A graph is first made connected by chaining its components with synthetic
"jump" edges, then repaired to have at most two odd-degree nodes by
duplicating existing edges along shortest paths (the route-inspection
construction). ``extract_path`` samples one edge-covering walk of the
resulting multigraph with seeded randomness, so repeated serialization of
the same graph yields different but equally valid sequences.
"""
from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass

from .graph import AttributedGraph, connected_components

# Odd-node counts up to this bound get the exact matching treatment; the
# number of pairings of 12 nodes is 10395, well within brute-force range.
EXACT_ODD_LIMIT = 12


@dataclass(frozen=True)
class EulerizedMultigraph:
    """Base graph plus jump edges and duplicated edge copies.

    Edges are addressed by a single id space: base edges keep their index,
    jump edges follow at ``num_base_edges + j``. ``duplications`` is a
    multiset of edge ids; shortest repair paths may run over jump edges,
    so duplications are not restricted to base edges.
    """

    base: AttributedGraph
    jump_edges: tuple[tuple[int, int], ...] = ()
    duplications: tuple[int, ...] = ()
    minimality_guaranteed: bool = True

    @property
    def num_base_edges(self) -> int:
        return len(self.base.edges)

    @property
    def num_edges(self) -> int:
        return self.num_base_edges + len(self.jump_edges)

    def is_jump(self, edge_id: int) -> bool:
        return edge_id >= self.num_base_edges

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        if edge_id < self.num_base_edges:
            return self.base.edges[edge_id]
        return self.jump_edges[edge_id - self.num_base_edges]

    @property
    def _dup_counts(self) -> Counter:
        return Counter(self.duplications)

    def edge_instances(self) -> tuple[tuple[int, int], ...]:
        """All (edge id, instance ordinal) pairs, in canonical order."""
        dups = self._dup_counts
        out = []
        for eid in range(self.num_edges):
            for ordinal in range(1 + dups.get(eid, 0)):
                out.append((eid, ordinal))
        return tuple(out)

    def degrees(self) -> list[int]:
        deg = [0] * self.base.num_nodes
        dups = self._dup_counts
        for eid in range(self.num_edges):
            u, v = self.endpoints(eid)
            mult = 1 + dups.get(eid, 0)
            deg[u] += mult
            deg[v] += mult
        return deg

    def odd_nodes(self) -> tuple[int, ...]:
        return tuple(v for v, d in enumerate(self.degrees()) if d % 2 == 1)

    def simple_adjacency(self) -> list[list[tuple[int, int]]]:
        """Per node, sorted (neighbor, edge id) pairs ignoring multiplicity."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.base.num_nodes)]
        for eid in range(self.num_edges):
            u, v = self.endpoints(eid)
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        for lst in adj:
            lst.sort()
        return adj

    def is_connected(self) -> bool:
        n = self.base.num_nodes
        if n <= 1:
            return True
        adj = self.simple_adjacency()
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == n


@dataclass(frozen=True)
class EulerPath:
    """One edge-covering walk: n+1 node visits aligned with n edge instances."""

    nodes: tuple[int, ...]
    edge_instances: tuple[tuple[int, int], ...]
    rng_seed: int

    def __post_init__(self):
        if len(self.nodes) != len(self.edge_instances) + 1:
            raise ValueError("node sequence must be one longer than edge sequence")


def add_jump_edges(g: AttributedGraph, seed: int) -> EulerizedMultigraph:
    """Chain disconnected components with synthetic edges.

    Components are taken in ascending order of their smallest node id and
    linked consecutively (first to second, second to third, ...), with the
    endpoint inside each component drawn uniformly from that component.
    """
    comps = connected_components(g)
    rng = random.Random(seed)
    jumps = []
    for a, b in zip(comps, comps[1:]):
        u = rng.choice(sorted(a))
        v = rng.choice(sorted(b))
        jumps.append((u, v))
    return EulerizedMultigraph(base=g, jump_edges=tuple(jumps))


def classify(mg: EulerizedMultigraph) -> tuple[str, tuple[int, ...]]:
    """Return ("eulerian" | "semi-eulerian" | "neither", odd-degree nodes)."""
    if not mg.is_connected():
        raise ValueError("multigraph is disconnected; add jump edges first")
    odd = mg.odd_nodes()
    if len(odd) == 0:
        return "eulerian", odd
    if len(odd) == 2:
        return "semi-eulerian", odd
    return "neither", odd


def _bfs_distances(adj, start: int, n: int) -> list[int]:
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _bfs_path_edges(adj, start: int, goal: int, n: int) -> list[int]:
    """Edge ids along one shortest path; deterministic via sorted adjacency."""
    parent_edge: list[tuple[int, int] | None] = [None] * n
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        if u == goal:
            break
        for v, eid in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent_edge[v] = (u, eid)
                queue.append(v)
    edges = []
    node = goal
    while node != start:
        u, eid = parent_edge[node]
        edges.append(eid)
        node = u
    return edges


def _pairings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first = items[0]
    for j in range(1, len(items)):
        rest = items[1:j] + items[j + 1 :]
        for sub in _pairings(rest):
            yield ((first, items[j]),) + sub


def _exact_matching(odd, dist):
    """Pairing of odd nodes minimizing duplication count after exempting
    the pairing's farthest pair (which is left odd for a semi-Eulerian
    result). Minimizing the post-exemption total directly is required for
    exact minimality; the cheapest full pairing can be suboptimal once one
    pair is free."""
    best = None
    best_cost = None
    for pairing in _pairings(odd):
        weights = [dist[a][b] for a, b in pairing]
        cost = sum(weights) - max(weights)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best = pairing
    return best


def _greedy_matching(odd, dist):
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


def eulerize(mg: EulerizedMultigraph) -> EulerizedMultigraph:
    """Duplicate edges until at most two nodes have odd degree.

    A semi-Eulerian result is preferred: the matched pair with the largest
    shortest-path distance stays odd, saving its duplications. Up to
    ``EXACT_ODD_LIMIT`` odd nodes the pairing is chosen by exhaustive
    search and the duplication count is provably minimal; beyond that a
    nearest-pair greedy matching is used and ``minimality_guaranteed`` is
    cleared.
    """
    if not mg.is_connected():
        raise ValueError("multigraph is disconnected; add jump edges first")
    odd = mg.odd_nodes()
    if len(odd) <= 2:
        return mg
    adj = mg.simple_adjacency()
    n = mg.base.num_nodes
    dist = {v: _bfs_distances(adj, v, n) for v in odd}
    exact = len(odd) <= EXACT_ODD_LIMIT
    pairing = _exact_matching(odd, dist) if exact else _greedy_matching(odd, dist)
    weights = [dist[a][b] for a, b in pairing]
    exempt = weights.index(max(weights))
    duplicated: set[int] = set()
    for idx, (a, b) in enumerate(pairing):
        if idx == exempt:
            continue
        # Duplicating twice cancels parity-wise, so repair paths combine mod 2.
        duplicated ^= set(_bfs_path_edges(adj, a, b, n))
    result = EulerizedMultigraph(
        base=mg.base,
        jump_edges=mg.jump_edges,
        duplications=tuple(sorted(duplicated)),
        minimality_guaranteed=exact and mg.minimality_guaranteed,
    )
    if len(result.odd_nodes()) > 2:
        raise RuntimeError("parity repair failed")  # pragma: no cover
    return result


def build_multigraph(g: AttributedGraph, seed: int) -> EulerizedMultigraph:
    """Jump-edge connection followed by Eulerization."""
    return eulerize(add_jump_edges(g, seed))


def extract_path(mg: EulerizedMultigraph, seed: int) -> EulerPath:
    """Sample one (semi-)Eulerian walk with Hierholzer's algorithm.

    Edge order at every node is shuffled under ``seed`` and the start node
    is drawn uniformly from the odd nodes (semi-Eulerian) or all nodes
    (Eulerian), so distinct seeds explore distinct walks. Deterministic
    for a fixed (multigraph, seed) pair.
    """
    n = mg.base.num_nodes
    if n == 0:
        raise ValueError("cannot extract a path from an empty graph")
    odd = mg.odd_nodes()
    if len(odd) not in (0, 2):
        raise ValueError(f"multigraph has {len(odd)} odd-degree nodes; eulerize first")
    if not mg.is_connected():
        raise ValueError("multigraph is disconnected; add jump edges first")

    rng = random.Random(seed)
    start = rng.choice(list(odd)) if odd else rng.randrange(n)

    instances = mg.edge_instances()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (eid, _) in enumerate(instances):
        u, v = mg.endpoints(eid)
        adj[u].append((idx, v))
        adj[v].append((idx, u))
    for lst in adj:
        rng.shuffle(lst)

    used = [False] * len(instances)
    ptr = [0] * n
    stack: list[tuple[int, int | None]] = [(start, None)]
    rev_nodes: list[int] = []
    rev_insts: list[int] = []
    while stack:
        v, via = stack[-1]
        moved = False
        while ptr[v] < len(adj[v]):
            idx, w = adj[v][ptr[v]]
            ptr[v] += 1
            if not used[idx]:
                used[idx] = True
                stack.append((w, idx))
                moved = True
                break
        if not moved:
            stack.pop()
            rev_nodes.append(v)
            if via is not None:
                rev_insts.append(via)
    rev_nodes.reverse()
    rev_insts.reverse()
    if len(rev_insts) != len(instances):  # pragma: no cover - guarded by checks above
        raise RuntimeError("walk failed to cover every edge instance")
    return EulerPath(
        nodes=tuple(rev_nodes),
        edge_instances=tuple(instances[i] for i in rev_insts),
        rng_seed=seed,
    )


def validate_path(mg: EulerizedMultigraph, path: EulerPath) -> bool:
    """True iff the walk covers every edge instance exactly once and every
    consecutive node pair is joined by its claimed instance."""
    if sorted(path.edge_instances) != sorted(mg.edge_instances()):
        return False
    for i, (eid, _) in enumerate(path.edge_instances):
        u, v = mg.endpoints(eid)
        a, b = path.nodes[i], path.nodes[i + 1]
        if {a, b} != {u, v}:
            return False
    return True
