"""Bounded ego-subgraph extraction around seed nodes or edges.

Capped-fanout BFS: at every hop each frontier node draws at most
``neighbors`` of its not-yet-visited neighbors uniformly without
replacement, then the subgraph induced on all reached nodes (every
internal edge kept) is re-indexed locally with the roots first.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import AttributedGraph, NeighborIndex, SubgraphSample, adjacency, int_row

# Each sampling mode and the roots it grows from: one node, or the two
# ends of an edge (or, for a negative, of a non-edge).
MODE_ROOTS = {"node-ego": 1, "edge-ego": 2}


@dataclass(frozen=True)
class SamplerConfig:
    """Ego-sampling knobs.

    ``max_seq_len`` is the serialized-token budget enforced by the
    pipeline's fit-and-retry wrapper, not by ``sample`` itself.
    """

    mode: str
    depth: int
    neighbors: int
    max_seq_len: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODE_ROOTS:
            raise ValueError(f"mode must be one of {tuple(MODE_ROOTS)}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.neighbors < 1:
            raise ValueError("neighbors must be >= 1")
        if self.max_seq_len <= 0:
            raise ValueError("max_seq_len must be positive")


def _roots_for_mode(mode: str, roots) -> tuple[int, ...]:
    roots = int_row(roots, "root node")
    expected = MODE_ROOTS[mode]
    if len(roots) != expected:
        raise ValueError(f"{mode} sampling takes {expected} root(s), got {len(roots)}")
    if mode == "edge-ego" and roots[0] == roots[1]:
        raise ValueError("edge-ego roots must be two distinct nodes")
    return roots


def sample(
    g: AttributedGraph,
    roots,
    cfg: SamplerConfig,
    adj: NeighborIndex | None = None,
) -> SubgraphSample:
    """Extract one ego subgraph. Deterministic for a fixed config seed.
    ``adj``, when given, must be ``adjacency(g)``, the neighbour index
    the graph keeps."""
    roots = _roots_for_mode(cfg.mode, roots)
    for r in roots:
        if not 0 <= r < g.num_nodes:
            raise ValueError(f"root node {r} out of range")
    if adj is None:
        adj = adjacency(g)
    rng = random.Random(cfg.seed)

    order = list(roots)
    visited = set(roots)
    frontier = list(roots)
    for _ in range(cfg.depth):
        if not frontier:
            break
        new: list[int] = []
        for u in frontier:
            # antiparallel directed edges list a neighbor twice; draw per node
            fresh = sorted(set(adj.run(u)).difference(visited))
            if not fresh:
                continue
            picked = rng.sample(fresh, min(cfg.neighbors, len(fresh)))
            for v in sorted(picked):
                visited.add(v)
                order.append(v)
                new.append(v)
        frontier = new

    local = {v: i for i, v in enumerate(order)}
    edge_ids = adj.induced_edge_ids(visited)
    sub = AttributedGraph(
        num_nodes=len(order),
        edges=tuple((local[src], local[dst]) for src, dst in map(g.edges.__getitem__, edge_ids)),
        directed=g.directed,
        node_attrs=tuple(g.node_attrs[v] for v in order) if g.node_attrs else (),
        edge_attrs=tuple(g.edge_attrs[ei] for ei in edge_ids) if g.edge_attrs else (),
        node_defaults=g.node_defaults,
        edge_defaults=g.edge_defaults,
    )
    return SubgraphSample(
        graph=sub,
        root_nodes=tuple(range(len(roots))),
        origin_ids=tuple(order),
    )


def draw_roots(
    g: AttributedGraph,
    mode: str,
    count: int,
    seed: int,
    negatives: bool = False,
) -> list[tuple[int, ...]]:
    """Draw sampling roots without replacement.

    node-ego: ``count`` uniform nodes. edge-ego: ``count`` uniform existing
    edges; with ``negatives`` set, ``count`` non-edges follow, each formed
    by keeping a positive edge's head and redrawing the tail uniformly, at
    most 64 times. Negatives exist for edge-ego only.
    """
    if mode not in MODE_ROOTS:
        raise ValueError(f"mode must be one of {tuple(MODE_ROOTS)}")
    if negatives and mode != "edge-ego":
        raise ValueError(f"negatives are drawn for edge-ego roots only, not {mode}")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = random.Random(seed)
    if mode == "node-ego":
        if count > g.num_nodes:
            raise ValueError(f"graph has only {g.num_nodes} nodes, requested {count}")
        return [(v,) for v in rng.sample(range(g.num_nodes), count)]

    if count > g.num_edges:
        raise ValueError(f"graph has only {g.num_edges} edges, requested {count}")
    positives = [tuple(g.edges[i]) for i in rng.sample(range(g.num_edges), count)]
    roots = list(positives)
    if negatives:
        # Either orientation counts as linked, on directed parents too: the
        # head's run in the neighbour index lists both.
        adj = adjacency(g)
        for head, _ in positives:
            for _ in range(64):
                tail = rng.randrange(g.num_nodes)
                if tail != head and not adj.linked(head, tail):
                    roots.append((head, tail))
                    break
            else:
                raise ValueError(
                    f"no non-edge found from node {head}; graph may be complete"
                )
    return roots
