"""Global node identity as a combination of k tokens.

A partition of the parent graph gives each node a (cluster, local index)
pair; for k > 2 the local index is further decomposed positionally. Slot
values become inline semantic tokens (``TAG#node#SLOT#VALUE``), so a
billion-node graph needs only per-slot vocabularies whose sizes multiply
to the node count instead of one token per node.
"""
from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .graph import AttributedGraph, GraphFormatError, SubgraphSample, adjacency, int_row, read_int_pairs
from .vocab import semantic_token

STRATEGIES = ("given-labels", "bfs-partition")


@dataclass(frozen=True)
class NodeIdentityCodebook:
    dataset_tag: str
    k: int
    partition: tuple[int, ...]
    local_index: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.partition)

    @cached_property
    def _local_base(self) -> int:
        # Positional base for spreading the local index over k-1 slots.
        if self.k <= 2:
            return 0
        max_local = max(self.local_index, default=0)
        base = max(2, math.ceil((max_local + 1) ** (1.0 / (self.k - 1))))
        # The float root can land one short; codes stay injective only
        # while k-1 digits reach every local index.
        while base ** (self.k - 1) <= max_local:
            base += 1
        return base

    def code(self, node: int) -> tuple[int, ...]:
        """The k slot values identifying ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} not in codebook")
        if self.k == 1:
            return (self.partition[node],)
        if self.k == 2:
            return (self.partition[node], self.local_index[node])
        rest = []
        local = self.local_index[node]
        for _ in range(self.k - 1):
            rest.append(local % self._local_base)
            local //= self._local_base
        return (self.partition[node],) + tuple(reversed(rest))

    def save(self, path: str | Path):
        lines = []
        for v in range(self.num_nodes):
            tokens = encode_node(self, v)
            lines.append("\t".join([str(v), *tokens]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def encode_node(cb: NodeIdentityCodebook, node: int) -> tuple[str, ...]:
    """The node's k semantic identity tokens."""
    return tuple(
        semantic_token(cb.dataset_tag, "node", slot, val)
        for slot, val in enumerate(cb.code(node))
    )


def _bfs_partition(g: AttributedGraph, max_cluster: int, seed: int) -> list[int]:
    """Greedy seeded BFS regions of at most ``max_cluster`` nodes.

    Each region starts at the lowest-id unassigned node; the rng only
    shuffles expansion order inside a region. The cap is all it
    guarantees: the region count is not bounded near
    ceil(n / max_cluster). A region stops when its BFS runs out of
    unassigned neighbours, so on a power-law parent most regions are
    leftover single nodes.
    """
    adj = adjacency(g)
    rng = random.Random(seed)
    cluster = [-1] * g.num_nodes
    current = 0
    for start in range(g.num_nodes):
        if cluster[start] >= 0:
            continue
        cluster[start] = current
        size = 1
        queue = deque([start])
        while queue and size < max_cluster:
            u = queue.popleft()
            fresh = sorted({v for v, _ in adj[u] if cluster[v] < 0})
            rng.shuffle(fresh)
            fresh = fresh[: max_cluster - size]
            for v in fresh:
                cluster[v] = current
            queue.extend(fresh)
            size += len(fresh)
        current += 1
    return cluster


def build_codebook(
    g: AttributedGraph,
    k: int,
    strategy: str,
    max_cluster: int | None = None,
    seed: int = 0,
    labels: Sequence[int] | None = None,
    dataset_tag: str = "data",
) -> NodeIdentityCodebook:
    """Assign every node an injective k-token identity.

    ``given-labels`` clusters by a caller-provided per-node label column
    (raw non-negative label values become the cluster slot) and rejects a
    cluster above ``max_cluster``; ``bfs-partition`` grows
    seeded BFS regions capped at ``max_cluster`` nodes. Local indices run
    in ascending global-id order within each cluster. ``k=1`` degenerates
    to one unique token per node.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if strategy == "given-labels":
        if labels is None:
            raise ValueError("given-labels strategy requires a node label column")
        if len(labels) != g.num_nodes:
            raise ValueError(f"label column has {len(labels)} labels for {g.num_nodes} nodes")
    if k == 1:
        partition: Sequence[int] = range(g.num_nodes)
    elif strategy == "given-labels":
        partition = labels
    else:
        if max_cluster is None or max_cluster < 1:
            raise ValueError("bfs-partition requires max_cluster >= 1")
        partition = _bfs_partition(g, max_cluster, seed)
    cb = codebook_from_partition(partition, k, dataset_tag)
    # BFS regions stop growing at the cap; label clusters are checked here.
    if strategy == "given-labels" and max_cluster is not None and k > 1:
        oversized = max(Counter(cb.partition).values(), default=0)
        if oversized > max_cluster:
            raise ValueError(
                f"label cluster of {oversized} nodes exceeds max_cluster={max_cluster}"
            )
    return cb


def codebook_from_partition(
    partition: Sequence[int], k: int = 2, dataset_tag: str = "data"
) -> NodeIdentityCodebook:
    """Build a codebook from an externally computed node->cluster map.

    For k > 1 clusters must be non-negative: -1 is the identity slots'
    default value, whose token is never written.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    partition = int_row(partition, "cluster")
    if k == 1:
        partition = tuple(range(len(partition)))
    elif min(partition, default=0) < 0:
        node = next(v for v, c in enumerate(partition) if c < 0)
        raise ValueError(
            f"node {node} has negative cluster {partition[node]}; clusters must be >= 0"
        )
    counts: dict[int, int] = {}
    local = []
    for c in partition:
        local.append(counts.get(c, 0))
        counts[c] = local[-1] + 1
    return NodeIdentityCodebook(
        dataset_tag=dataset_tag,
        k=k,
        partition=partition,
        local_index=tuple(local),
    )


def load_partition(path: str | Path) -> list[int]:
    """Read a "global_id<TAB>cluster" TSV into a dense node->cluster list."""
    rows: dict[int, tuple[int, int]] = {}  # node -> (cluster, file line)
    try:
        for lineno, node, cluster in read_int_pairs(path, "global_id<TAB>cluster"):
            if node in rows:
                raise GraphFormatError(
                    f"node {node} is already assigned on line {rows[node][1]}", line=lineno
                )
            rows[node] = (cluster, lineno)
    except GraphFormatError as exc:
        raise ValueError(f"partition {exc}") from None
    if sorted(rows) != list(range(len(rows))):
        raise ValueError("partition file must cover node ids 0..n-1 exactly once")
    return [rows[v][0] for v in range(len(rows))]


def with_identity_attrs(sample: SubgraphSample, cb: NodeIdentityCodebook) -> SubgraphSample:
    """Replace a sample's node attributes with its nodes' identity codes.

    Identity slots use a -1 default so every slot token is always emitted.
    """
    attrs = tuple(cb.code(gid) for gid in sample.origin_ids)
    graph = replace(
        sample.graph,
        node_attrs=attrs,
        node_defaults=(-1,) * cb.k,
    )
    return SubgraphSample(graph=graph, root_nodes=sample.root_nodes, origin_ids=sample.origin_ids)
