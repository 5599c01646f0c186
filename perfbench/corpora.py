"""Seeded synthetic corpora for the benchmark workloads.

Every generator takes the workload seed and returns plain graph JSON
documents in graphseq's documented schema, so the program under test only
ever sees the JSONL written from them. Nothing here imports graphseq.
"""
from __future__ import annotations

import json
import random
from collections import Counter


def _spanning_forest(rng: random.Random, n: int, parts: int):
    """Random trees over ``parts`` disjoint node sets; returns (edges, sets)."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    components = [nodes[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]
    edges = [(c[rng.randrange(i)], c[i]) for c in components for i in range(1, len(c))]
    return edges, components


def _graph_doc(rng, n, edges, directed, node_attr, edge_attr) -> dict:
    oriented = []
    for u, v in edges:
        if directed and rng.random() < 0.5:
            u, v = v, u
        elif not directed:
            u, v = min(u, v), max(u, v)
        oriented.append([u, v])
    return {
        "directed": directed,
        "num_nodes": n,
        "edges": oriented,
        "node_attrs": [node_attr(rng) for _ in range(n)],
        "edge_attrs": [edge_attr(rng) for _ in oriented],
    }


def _add_extra_edges(rng, components, edges, extra, odd_target=None):
    """Add ``extra`` new edges, each inside one component of 3+ nodes.

    With ``odd_target``, an edge is kept only if it does not move the count
    of odd-degree nodes away from the target, so the graph ends with that
    count when it can: parity repair cost grows with the cube of it, and
    fixing it keeps the cost of a graph of a given size the same under
    every seed. After 100 rejected draws in a row the target is dropped.
    """
    present = {(min(u, v), max(u, v)) for u, v in edges}
    degree = Counter(v for e in edges for v in e)
    odd = sum(d % 2 for d in degree.values())
    roomy = [c for c in components if len(c) >= 3]
    capacity = sum(len(c) * (len(c) - 1) // 2 - (len(c) - 1) for c in roomy)
    extra = min(extra, capacity)
    rejected = 0
    while extra:
        comp = rng.choice(roomy)
        u, v = rng.sample(comp, 2)
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        delta = (1 - 2 * (degree[u] % 2)) + (1 - 2 * (degree[v] % 2))
        if odd_target is not None and rejected < 100:
            gap = odd - odd_target
            if delta * gap > 0 or (gap == 0 and delta):
                rejected += 1
                continue
        rejected = 0
        present.add(key)
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
        odd += delta
        extra -= 1
    return edges


_ATOM_WEIGHTS = (0.55, 0.15, 0.12, 0.06, 0.04, 0.03, 0.02, 0.02, 0.01)


def _atom(rng):
    return [rng.choices(range(9), _ATOM_WEIGHTS)[0], rng.choice((0, 0, 0, 1, 2, 3))]


def _bond(rng):
    return [rng.choice((0, 0, 0, 1, 1, 2, 3))]


def _odd_count(edges) -> int:
    return sum(d % 2 for d in Counter(v for e in edges for v in e).values())


def _molecule_edges(rng, n, parts, odd_target=None):
    edges, comps = _spanning_forest(rng, n, parts)
    return _add_extra_edges(rng, comps, edges, n + 3 - len(edges), odd_target)


def molecule_graphs(seed: int, count: int) -> list[dict]:
    """Molecule-like graphs: 10-30 nodes, m = n + 3 edges (fewer when tiny
    components have no room), atom type and charge per node, bond order
    per edge (0 is the omitted default).

    About a quarter are directed and a fifth split into two or three
    components, so the jump-edge path is exercised. Graph i takes its size,
    direction, component count and odd-node count from one fixed reference
    draw, and the seed draws everything else: exact parity repair costs
    ~60 ms at 12 odd nodes and ~1 ms at 8, so the odd-node mix must not
    change with the seed.
    """
    shapes = random.Random(0)
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        n = shapes.randint(10, 30)
        parts = shapes.choice((2, 3)) if shapes.random() < 0.2 else 1
        directed = shapes.random() < 0.25
        odd = _odd_count(_molecule_edges(shapes, n, parts))
        edges = _molecule_edges(rng, n, parts, odd)
        while _odd_count(edges) != odd:
            edges = _molecule_edges(rng, n, parts, odd)
        docs.append(_graph_doc(rng, n, edges, directed, _atom, _bond))
    return docs


def _van_der_corput(i: int) -> float:
    x, denom = 0.0, 1.0
    while i:
        denom *= 2
        x += (i & 1) / denom
        i >>= 1
    return x


def sparse_sizes(count: int, lo: int = 200, hi: int = 1000) -> list[int]:
    """Node counts spread log-uniformly over [lo, hi] in a low-discrepancy
    order: every prefix of the list covers the range evenly, so a run that
    stops early still sees the same size mix under every seed."""
    return [round(lo * (hi / lo) ** _van_der_corput(i + 1)) for i in range(count)]


def sparse_graphs(seed: int, count: int) -> list[dict]:
    """Sparse graphs of 200-1,000 nodes with m = 2n, one node and one edge
    attribute. Every fourth graph is directed and every fifth splits into
    2-4 components, and half the nodes have odd degree. The size, direction,
    component count and odd-node count of graph i do not depend on the
    seed, so neither does the cost mix of the corpus."""
    rng = random.Random(seed)
    docs = []
    for i, n in enumerate(sparse_sizes(count)):
        parts = 2 + i % 3 if i % 5 == 3 else 1
        edges, comps = _spanning_forest(rng, n, parts)
        edges = _add_extra_edges(rng, comps, edges, 2 * n - len(edges), 2 * round(n / 4))
        docs.append(
            _graph_doc(
                rng, n, edges, i % 4 == 1,
                lambda r: [r.randint(0, 7)],
                lambda r: [r.choice((0, 0, 1, 2))],
            )
        )
    return docs


def power_law_parent(seed: int, n: int = 100_000, m: int = 2) -> dict:
    """Preferential-attachment graph (each new node links to ``m`` earlier
    ones, 80% by degree, 20% uniformly) with one edge attribute."""
    rng = random.Random(seed)
    edges = set()
    repeated: list[int] = []
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            pick = rng.choice(repeated) if repeated and rng.random() < 0.8 else rng.randrange(v)
            chosen.add(pick)
        for u in chosen:
            edges.add((u, v))
            repeated += [u, v]
        if len(repeated) > 200_000:
            repeated = repeated[-100_000:]
    ordered = sorted(edges)
    return {
        "directed": False,
        "num_nodes": n,
        "edges": [list(e) for e in ordered],
        "node_attrs": [],
        "edge_attrs": [[rng.randint(0, 3)] for _ in ordered],
    }


def write_jsonl(docs, path) -> None:
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
