"""Connectivity and parity repair plus randomized Eulerian path extraction.

A graph is first made connected by chaining its components with synthetic
"jump" edges, then repaired to have at most two odd-degree nodes by
duplicating existing edges along paths between paired odd nodes: the
route-inspection construction of Edmonds & Johnson, "Matching, Euler
tours and the Chinese postman" (Math. Programming 5, 1973). Components,
connectivity and both repairs' paths come from one search,
``graph.bfs``. Up to ``EXACT_ODD_LIMIT`` odd nodes, one full search from
each gives both the distance table of an exact DP over subsets of odd
nodes and the repair paths of the pairs it picks, each the path a full
``bfs`` from the pair's lower-index node holds. Above it, each round of
``_nearest_pairs`` searches from all unmatched odd nodes at once and
pairs them greedily through the nodes where their regions meet
(Mehlhorn's Voronoi construction), in memory linear in the graph.
``extract_path`` samples one edge-covering walk of the resulting
multigraph with seeded randomness, so repeated serialization of the same
graph yields different but equally valid sequences. Its draws, the jump
edges' and the tokenizer's come from ``bounded_draws``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import itemgetter

from .graph import Adjacency, AttributedGraph, bfs, connected_components, undirected_adjacency

# Odd-node counts up to this bound get the exact pairing. The subset DP
# takes about 0.13 ms per graph at 12 odd nodes, 0.37 ms at 14, 1.1 ms at
# 16 and 3.3 ms at 18, after building that count's pairing plan once in
# 0.9, 2.8, 7.6 and 20 ms (random tables of weights 1-6, best of nine
# passes); the 11 BFS runs of its distance table take about 0.05 ms on a
# 22-node molecule (2-vCPU Xeon host, Python 3.11). The limit stays at 12:
# raising it changes seeded output.
EXACT_ODD_LIMIT = 12


@dataclass(frozen=True)
class Derived:
    """Structure of a multigraph that follows from its fields: the simple
    adjacency (per node, sorted (neighbor, edge id) pairs ignoring
    multiplicity), whether it is connected, and its odd-degree nodes."""

    adjacency: Adjacency
    connected: bool
    odd_nodes: tuple[int, ...]


@dataclass(frozen=True)
class EulerizedMultigraph:
    """Base graph plus jump edges and duplicated edge copies.

    Edges are addressed by a single id space: base edges keep their index,
    jump edges follow at ``num_base_edges + j``. ``duplications`` is a
    multiset of edge ids; shortest repair paths may run over jump edges,
    so duplications are not restricted to base edges.

    The ``_derived`` structure is computed from the fields on first use,
    unless the building function already knows it: ``add_jump_edges``
    extends the base graph's adjacency it searched, and ``eulerize`` keeps
    its input's adjacency and connectivity, which duplicated copies do not
    change. A multigraph a caller builds, or gets from
    ``dataclasses.replace``, computes its own. It is no field, so it takes
    no part in equality or repr.
    """

    base: AttributedGraph
    jump_edges: tuple[tuple[int, int], ...] = ()
    duplications: tuple[int, ...] = ()
    minimality_guaranteed: bool = True

    @classmethod
    def _built(cls, derived: Derived, **fields) -> "EulerizedMultigraph":
        """A multigraph whose builder already knows its structure."""
        mg = cls(**fields)
        # A cached property has no setter, so this fills the instance
        # dict, where ``_derived`` looks first.
        object.__setattr__(mg, "_derived", derived)
        return mg

    @property
    def num_base_edges(self) -> int:
        return len(self.base.edges)

    @property
    def num_edges(self) -> int:
        return self.num_base_edges + len(self.jump_edges)

    # The fields are frozen, so values cached per instance never go stale.
    @cached_property
    def endpoints(self) -> tuple[tuple[int, int], ...]:
        """Endpoints per edge id: the base edges, then the jump edges; a
        tuple even when the base graph keeps its edges in columns."""
        return tuple(self.base.edges) + self.jump_edges

    def edge_instances(self) -> tuple[int, ...]:
        """The edge id of every edge instance (each edge, then each of its
        duplicated copies), in ascending order."""
        return tuple(sorted(chain(range(self.num_edges), self.duplications)))

    def degrees(self) -> list[int]:
        deg = [0] * self.base.num_nodes
        ends = self.endpoints
        for u, v in chain(ends, map(ends.__getitem__, self.duplications)):
            deg[u] += 1
            deg[v] += 1
        return deg

    @cached_property
    def _derived(self) -> Derived:
        n = self.base.num_nodes
        adj = undirected_adjacency(n, self.endpoints)
        return Derived(
            adjacency=adj,
            connected=n <= 1 or len(bfs(adj, (0,), [-1] * n, [-1] * n)) == n,
            odd_nodes=tuple(v for v, d in enumerate(self.degrees()) if d % 2 == 1),
        )

    def odd_nodes(self) -> tuple[int, ...]:
        return self._derived.odd_nodes

    def simple_adjacency(self) -> Adjacency:
        """Per node, sorted (neighbor, edge id) pairs ignoring multiplicity."""
        return self._derived.adjacency

    def is_connected(self) -> bool:
        return self._derived.connected


@dataclass(frozen=True)
class EulerPath:
    """One edge-covering walk: n+1 node visits and the ids of the n edge
    instances between them."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.edges) + 1:
            raise ValueError("node sequence must be one longer than edge sequence")


def add_jump_edges(g: AttributedGraph, seed: int) -> EulerizedMultigraph:
    """Chain disconnected components with synthetic edges.

    Components are taken in ascending order of their smallest node id and
    linked consecutively (first to second, second to third, ...), with the
    endpoint inside each component drawn uniformly from that component.
    """
    adj = undirected_adjacency(g.num_nodes, g.edges)
    comps = connected_components(g, adj)
    jumps = []
    if len(comps) > 1:
        # A connected graph draws nothing, so it skips seeding a generator.
        _, choice = bounded_draws(random.Random(seed))
        jumps = [(choice(sorted(a)), choice(sorted(b))) for a, b in zip(comps, comps[1:])]
        lists = list(adj)
        for eid, (u, v) in enumerate(jumps, start=g.num_edges):
            lists[u] = tuple(sorted(lists[u] + ((v, eid),)))
            lists[v] = tuple(sorted(lists[v] + ((u, eid),)))
        adj = tuple(lists)
    # Without duplications every edge appears once in each endpoint's list.
    odd = tuple(v for v, lst in enumerate(adj) if len(lst) % 2 == 1)
    return EulerizedMultigraph._built(
        Derived(adj, connected=True, odd_nodes=odd), base=g, jump_edges=tuple(jumps)
    )


def _odd_searches(adj: Adjacency, odd: tuple[int, ...], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The k x k table of BFS distances between odd nodes, and the ``via``
    list of a full ``bfs`` from every odd node but the last.

    Pairs are (i, j) with i < j, so the last odd node needs no search of
    its own: its row of the table is the last column.
    """
    w, vias = [], []
    for a in odd[:-1]:
        dist, via = [-1] * n, [-1] * n
        bfs(adj, (a,), dist, via)
        w.append([dist[b] for b in odd])
        vias.append(via)
    w.append([row[-1] for row in w] + [0])
    return w, vias


def _path_edges(via: list[int], ends, start: int, goal: int) -> list[int]:
    """Edge ids along the search tree's path, from ``goal`` back to ``start``."""
    edges = []
    node = goal
    while node != start:
        eid = via[node]
        edges.append(eid)
        u, v = ends[eid]
        node ^= u ^ v
    return edges


def _nearest_pairs(adj: Adjacency, ends, odd: tuple[int, ...], n: int) -> list[tuple[int, int, int, list[int]]]:
    """Greedy pairing of the odd nodes after Mehlhorn's Voronoi
    construction ("A faster approximation algorithm for the Steiner
    problem in graphs", IPL 27, 1988), as (length, a, b, path) per pair,
    a < b, the path being the ids of ``length`` edges from a to b.

    Each round runs one ``bfs`` from every unmatched odd node. A node
    belongs to the region of the start its search tree leads back to, and
    each neighbour in another region offers the path from that region's
    start through the neighbour to the node. A node first proposes its
    own start and its nearest offer. Proposals are taken in (length,
    node) order while both starts are unmatched; a node whose proposal is
    taken or blocked proposes the next two unmatched starts, its own then
    its offers nearest first, so the leaves of a hub pair off in one
    round. The least proposal is a least distance between unmatched odd
    nodes, so each round matches a pair; the odd nodes left start the
    next. Memory is linear in the graph.
    """
    matched = bytearray(n)
    pairs = []
    todo = odd
    while todo:
        dist, via, owner = [-1] * n, [-1] * n, [-1] * n
        order = bfs(adj, todo, dist, via)
        for u in order:
            if dist[u]:
                x, y = ends[via[u]]
                owner[u] = owner[x ^ y ^ u]
            else:
                owner[u] = u
        # A proposal is (length, node, start's entry, start's entry, the
        # node's offers not yet read, or None), an entry being (length
        # through the node, start, the node or the neighbour the start's
        # tree reaches, the edge id from it or -1).
        heap = []
        for u in order:
            a = owner[u]
            offers = [(dist[v] + 1, owner[v], v, eid) for v, eid in adj[u] if owner[v] != a]
            if offers:
                offers.sort()
                y = offers[0]
                rest = iter(offers) if len(offers) > 1 else None
                heap.append((dist[u] + y[0], u, (dist[u], a, u, -1), y, rest))
        heapify(heap)
        while heap:
            length, u, x, y, rest = heappop(heap)
            if x[1] > y[1]:
                x, y = y, x
            (_, a, p, ep), (_, b, q, eq) = x, y
            if matched[a] or matched[b]:
                if rest:
                    _propose(heap, u, x if not matched[a] else y if not matched[b] else None, rest, matched)
                continue
            matched[a] = matched[b] = 1
            path = _path_edges(via, ends, a, p)[::-1] + [e for e in (ep, eq) if e >= 0]
            pairs.append((length, a, b, path + _path_edges(via, ends, b, q)))
            if rest:
                _propose(heap, u, None, rest, matched)
        todo = [a for a in todo if not matched[a]]
    return pairs


def _propose(heap: list, u: int, held, rest, matched: bytearray) -> None:
    """Push node u's proposal of the offer it holds (or None) and the
    next offers of unmatched starts that the iterator ``rest`` yields,
    skipping a second offer of the same start."""
    for e in rest:
        if matched[e[1]]:
            continue
        if held is None:
            held = e
        elif e[1] != held[1]:
            heappush(heap, (held[0] + e[0], u, held, e, rest))
            return


@cache
def _pairing_plan(k: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The subsets of range(k), k even, that pairing the lowest index first
    reaches from the full set, as (lowest index, moves) per subset.

    Subsets are listed by size, so every move leads to an earlier entry:
    entry 0 is the empty set and the last is the full set. A move
    (j, sub) pairs the lowest index with j and leaves entry ``sub``; moves
    are in ascending j. Only these subsets take part in the DP: 233 at
    k = 12, out of 4,096.
    """
    levels = [{(1 << k) - 1}]
    for _ in range(k // 2):
        rests = {m & (m - 1) for m in levels[-1]}  # each without its lowest index
        levels.append({rest ^ 1 << j for rest in rests for j in range(k) if rest >> j & 1})
    masks = [m for level in reversed(levels) for m in sorted(level)]
    index = {m: s for s, m in enumerate(masks)}
    plan = []
    for mask in masks:
        rest = mask & (mask - 1)
        moves = tuple((j, index[rest ^ 1 << j]) for j in range(k) if rest >> j & 1)
        plan.append(((mask & -mask).bit_length() - 1, moves))
    return tuple(plan)


# Stands for no pairing, above any total of BFS distances.
_NO_PAIRING = 1 << 62


def _exact_matching(w: list[list[int]]) -> list[tuple[int, int, int]]:
    """Index pairing minimizing its total weight minus its largest weight,
    as (weight, i, j) triples.

    The farthest pair is left odd for a semi-Eulerian result, so the
    pairing is chosen for the post-exemption total: the cheapest full
    pairing can be suboptimal once one pair is free. min(sum - max) over
    pairings equals the min over (pairing, exempted pair) of sum minus the
    exempted weight, which a DP over subsets of indices computes: each
    subset always pairs its lowest index, and keeps two costs, with the
    exemption still free and with it spent.

    Among optimal pairings the first in lexicographic order of partners
    (lowest index's partner first) is returned, with pairs in that order.
    """
    plan = _pairing_plan(len(w))
    # Per plan entry, the least cost of pairing its subset with the
    # exemption still free and with it spent; the empty set must spend it.
    free = [_NO_PAIRING] * len(plan)
    spent = [0] * len(plan)
    for s in range(1, len(plan)):
        i, moves = plan[s]
        row = w[i]
        best_free = best_spent = _NO_PAIRING
        for j, sub in moves:
            d = row[j]
            cost = d + free[sub]
            if cost < best_free:
                best_free = cost
            cost = spent[sub]
            if cost < best_free:
                best_free = cost
            cost += d
            if cost < best_spent:
                best_spent = cost
        free[s] = best_free
        spent[s] = best_spent

    # Walk down from the full set taking the lowest feasible partner. A
    # prefix can reach the optimum with the exemption still free, already
    # spent, or both; each flag fixes what the rest must cost, so the two
    # flags are the whole state.
    s = len(plan) - 1
    can_free, can_spent = True, False
    matching = []
    while s:
        i, moves = plan[s]
        row = w[i]
        for j, sub in moves:
            d = row[j]
            next_free = can_free and d + free[sub] == free[s]
            next_spent = (can_free and spent[sub] == free[s]) or (
                can_spent and d + spent[sub] == spent[s]
            )
            if next_free or next_spent:
                break
        matching.append((d, i, j))
        can_free, can_spent = next_free, next_spent
        s = sub
    return matching


def eulerize(mg: EulerizedMultigraph) -> EulerizedMultigraph:
    """Duplicate edges until at most two nodes have odd degree.

    The odd nodes are paired and every pair but one is joined by a
    duplicated path. The pair left out is the first with the longest
    repair path, so the result is semi-Eulerian and saves that pair's
    duplications. Up to ``EXACT_ODD_LIMIT`` odd nodes the pairing comes
    from an exact DP over subsets of odd nodes and the duplication count
    is provably minimal; the BFS runs that fill its distance table also
    give the paths, each the one a full ``bfs`` from the pair's
    lower-index node holds. Beyond that ``_nearest_pairs`` pairs them
    greedily along the regions of multi-source searches, and
    ``minimality_guaranteed`` is cleared.
    """
    if not mg.is_connected():
        raise ValueError("multigraph is disconnected; add jump edges first")
    odd = mg.odd_nodes()
    if len(odd) <= 2:
        return mg
    adj = mg.simple_adjacency()
    ends = mg.endpoints
    n = mg.base.num_nodes
    exact = len(odd) <= EXACT_ODD_LIMIT
    if exact:
        w, vias = _odd_searches(adj, odd, n)
        pairs = [(d, odd[i], odd[j], _path_edges(vias[i], ends, odd[i], odd[j]))
                 for d, i, j in _exact_matching(w)]
    else:
        pairs = _nearest_pairs(adj, ends, odd, n)
    pairs.remove(max(pairs, key=itemgetter(0)))
    duplicated: set[int] = set()
    for _, _, _, path in pairs:
        # Duplicating twice cancels parity-wise, so repair paths combine mod 2.
        duplicated.symmetric_difference_update(path)
    # Each duplicated copy flips the degree parity of both its endpoints.
    still_odd = set(odd)
    for eid in duplicated:
        still_odd.symmetric_difference_update(ends[eid])
    if len(still_odd) > 2:
        raise RuntimeError("parity repair failed")  # pragma: no cover
    return EulerizedMultigraph._built(
        Derived(adj, connected=True, odd_nodes=tuple(sorted(still_odd))),
        base=mg.base,
        jump_edges=mg.jump_edges,
        duplications=tuple(sorted(duplicated)),
        minimality_guaranteed=exact and mg.minimality_guaranteed,
    )


def build_multigraph(g: AttributedGraph, seed: int) -> EulerizedMultigraph:
    """Jump-edge connection followed by Eulerization."""
    return eulerize(add_jump_edges(g, seed))


def check_walkable(mg: EulerizedMultigraph) -> tuple[int, ...]:
    """The odd nodes of a multigraph that one walk covers; raises for an
    empty, unrepaired or disconnected multigraph."""
    if mg.base.num_nodes == 0:
        raise ValueError("cannot extract a path from an empty graph")
    odd = mg.odd_nodes()
    if len(odd) not in (0, 2):
        raise ValueError(f"multigraph has {len(odd)} odd-degree nodes; eulerize first")
    if not mg.is_connected():
        raise ValueError("multigraph is disconnected; add jump edges first")
    return odd


def bounded_draws(rng: random.Random):
    """``shuffle`` and ``choice`` functions that consume ``rng`` exactly as
    ``rng.shuffle`` and ``rng.choice`` do, drawing from its public
    ``getrandbits`` alone, except that ``choice`` of a single candidate
    returns it and draws nothing.

    A draw below n is that of CPython's ``_randbelow_with_getrandbits``
    (the same on 3.10 through 3.13): take ``n.bit_length()`` bits and draw
    again while the value is n or more. Inlined, it costs no Python call
    per draw.
    """
    getrandbits = rng.getrandbits

    def shuffle(x: list) -> None:
        for i in range(len(x) - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]

    def choice(seq):
        n = len(seq)
        if n < 2:
            return seq[0]  # an empty sequence raises IndexError, as in random
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return seq[r]

    return shuffle, choice


def extract_path(mg: EulerizedMultigraph, seed: int) -> EulerPath:
    """Sample one (semi-)Eulerian walk with Hierholzer's algorithm.

    Edge order at every node is shuffled under ``seed`` and the start node
    is drawn uniformly from the odd nodes (semi-Eulerian) or all nodes
    (Eulerian), so distinct seeds explore distinct walks. Deterministic
    for a fixed (multigraph, seed) pair.
    """
    odd = check_walkable(mg)
    n = mg.base.num_nodes
    shuffle, choice = bounded_draws(random.Random(seed))
    start = choice(odd or range(n))

    # Per node, the indices of its edge instances in shuffled order,
    # reversed so that pop() takes them in that order; an instance's far
    # end is the XOR of its endpoints with the near one.
    instances = mg.edge_instances()
    pairs = list(map(mg.endpoints.__getitem__, instances))
    incident: list[list[int]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(pairs):
        incident[u].append(idx)
        incident[v].append(idx)
    far = [u ^ v for u, v in pairs]
    for lst in incident:
        if len(lst) > 1:
            shuffle(lst)
            lst.reverse()

    # Hierholzer: follow unused instances from v, leaving each node passed
    # and its instance on the stacks; a node with none left closes the
    # walk backwards, and the walk resumes from the node left behind.
    used = bytearray(len(instances))
    stack: list[int] = []
    vias: list[int] = []
    rev_nodes: list[int] = []
    rev_insts: list[int] = []
    v = start
    lst = incident[v]
    while True:
        while lst:
            idx = lst.pop()
            if not used[idx]:
                used[idx] = 1
                stack.append(v)
                vias.append(idx)
                v ^= far[idx]
                lst = incident[v]
        rev_nodes.append(v)
        if not stack:
            break
        v = stack.pop()
        rev_insts.append(vias.pop())
        lst = incident[v]
    rev_nodes.reverse()
    rev_insts.reverse()
    if len(rev_insts) != len(instances):  # pragma: no cover - guarded by checks above
        raise RuntimeError("walk failed to cover every edge instance")
    return EulerPath(nodes=tuple(rev_nodes), edges=tuple(map(instances.__getitem__, rev_insts)))
