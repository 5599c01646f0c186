"""In-memory model for attributed graphs and sampled subgraphs."""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class GraphFormatError(ValueError):
    """A graph file failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield ``(line number, parse(doc))`` for each non-blank line of a
    JSONL file; the number lets later per-item errors name the line too.

    Bad JSON, a missing key, or a record ``parse`` rejects raises
    ``GraphFormatError`` naming the file line.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                item = parse(json.loads(line))
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            except KeyError as exc:
                raise GraphFormatError(f"missing required key {exc}", line=lineno) from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise GraphFormatError(str(exc), line=lineno) from exc
            yield lineno, item


def write_jsonl(path: str | Path, docs: Iterable[dict]) -> None:
    """Write one JSON line per doc as ``docs`` yields it; a failure part
    way leaves the complete lines written before it."""
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def _as_attr_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in rows)


@dataclass(frozen=True)
class AttributedGraph:
    """A simple graph with fixed-width integer attribute vectors.

    Node ids are 0..num_nodes-1. Undirected graphs store each edge once;
    directed graphs may contain both (u, v) and (v, u). Self loops and
    duplicate edges are rejected. ``node_defaults`` / ``edge_defaults``
    give, per dimension, the value that serialization omits.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...] = ()
    directed: bool = False
    node_attrs: tuple[tuple[int, ...], ...] = ()
    edge_attrs: tuple[tuple[int, ...], ...] = ()
    node_defaults: tuple[int, ...] = ()
    edge_defaults: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(s), int(d)) for s, d in self.edges))
        object.__setattr__(self, "node_attrs", _as_attr_rows(self.node_attrs))
        object.__setattr__(self, "edge_attrs", _as_attr_rows(self.edge_attrs))
        object.__setattr__(self, "node_defaults", tuple(int(v) for v in self.node_defaults))
        object.__setattr__(self, "edge_defaults", tuple(int(v) for v in self.edge_defaults))
        if not self.node_defaults and self.node_attr_width:
            object.__setattr__(self, "node_defaults", (0,) * self.node_attr_width)
        if not self.edge_defaults and self.edge_attr_width:
            object.__setattr__(self, "edge_defaults", (0,) * self.edge_attr_width)
        self._validate()

    @property
    def node_attr_width(self) -> int:
        return len(self.node_attrs[0]) if self.node_attrs else 0

    @property
    def edge_attr_width(self) -> int:
        return len(self.edge_attrs[0]) if self.edge_attrs else 0

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def _validate(self):
        if self.num_nodes < 0:
            raise GraphFormatError("num_nodes must be non-negative")
        seen = set()
        for src, dst in self.edges:
            if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
                raise GraphFormatError(f"node id out of range in edge ({src}, {dst})")
            if src == dst:
                raise GraphFormatError(f"self-loop at node {src}")
            key = (src, dst) if self.directed else (min(src, dst), max(src, dst))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({src}, {dst})")
            seen.add(key)
        if self.node_attrs:
            if len(self.node_attrs) != self.num_nodes:
                raise GraphFormatError(
                    f"expected {self.num_nodes} node attribute rows, got {len(self.node_attrs)}"
                )
            width = len(self.node_attrs[0])
            for i, row in enumerate(self.node_attrs):
                if len(row) != width:
                    raise GraphFormatError(f"inconsistent node attribute width at node {i}")
        if self.edge_attrs:
            if len(self.edge_attrs) != len(self.edges):
                raise GraphFormatError(
                    f"expected {len(self.edges)} edge attribute rows, got {len(self.edge_attrs)}"
                )
            width = len(self.edge_attrs[0])
            for i, row in enumerate(self.edge_attrs):
                if len(row) != width:
                    raise GraphFormatError(f"inconsistent edge attribute width at edge {i}")
        if len(self.node_defaults) != self.node_attr_width:
            raise GraphFormatError("node attr_defaults width mismatch")
        if len(self.edge_defaults) != self.edge_attr_width:
            raise GraphFormatError("edge attr_defaults width mismatch")

    def to_json(self) -> dict:
        doc = {
            "directed": self.directed,
            "num_nodes": self.num_nodes,
            "edges": [list(e) for e in self.edges],
            "node_attrs": [list(r) for r in self.node_attrs],
            "edge_attrs": [list(r) for r in self.edge_attrs],
        }
        if self.node_defaults or self.edge_defaults:
            doc["attr_defaults"] = {
                "node": list(self.node_defaults),
                "edge": list(self.edge_defaults),
            }
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "AttributedGraph":
        defaults = doc.get("attr_defaults") or {}
        try:
            return cls(
                num_nodes=int(doc["num_nodes"]),
                edges=tuple((int(s), int(d)) for s, d in doc.get("edges", ())),
                directed=bool(doc.get("directed", False)),
                node_attrs=doc.get("node_attrs") or (),
                edge_attrs=doc.get("edge_attrs") or (),
                node_defaults=defaults.get("node") or (),
                edge_defaults=defaults.get("edge") or (),
            )
        except KeyError as exc:
            raise GraphFormatError(f"missing required key {exc}") from exc


@dataclass(frozen=True)
class SubgraphSample:
    """A locally re-indexed subgraph with its seed node(s) and global ids."""

    graph: AttributedGraph
    root_nodes: tuple[int, ...]
    origin_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "root_nodes", tuple(int(v) for v in self.root_nodes))
        object.__setattr__(self, "origin_ids", tuple(int(v) for v in self.origin_ids))
        if len(self.root_nodes) not in (1, 2):
            raise ValueError("root_nodes must hold 1 or 2 node ids")
        for r in self.root_nodes:
            if not 0 <= r < self.graph.num_nodes:
                raise ValueError(f"root node {r} out of range")
        if len(self.origin_ids) != self.graph.num_nodes:
            raise ValueError("origin_ids must map every local node")
        if len(set(self.origin_ids)) != len(self.origin_ids):
            raise ValueError("origin_ids must be injective")

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "root_nodes": list(self.root_nodes),
            "origin_ids": list(self.origin_ids),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SubgraphSample":
        return cls(
            graph=AttributedGraph.from_json(doc["graph"]),
            root_nodes=tuple(doc["root_nodes"]),
            origin_ids=tuple(doc["origin_ids"]),
        )


def adjacency(g: AttributedGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Undirected adjacency: per node, sorted (neighbor, edge index) pairs."""
    lists: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
    for ei, (src, dst) in enumerate(g.edges):
        lists[src].append((dst, ei))
        lists[dst].append((src, ei))
    return tuple(tuple(sorted(l)) for l in lists)


def connected_components(g: AttributedGraph) -> list[set[int]]:
    """Partition nodes into maximal connected sets, ignoring edge direction.

    Components are ordered by their smallest node id.
    """
    adj = adjacency(g)
    seen = [False] * g.num_nodes
    components = []
    for start in range(g.num_nodes):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.add(v)
                    queue.append(v)
        components.append(comp)
    return components


def _quantize(value, scale: float, offset: int) -> int:
    return int(round(float(value) * scale)) + offset


def quantize_attrs(
    rows: Sequence[Sequence[float]], scale: float = 1.0, offset: int = 0
) -> list[list[int]]:
    """Map continuous attribute values to integers: round(v * scale) + offset."""
    return [[_quantize(v, scale, offset) for v in row] for row in rows]


def load_graph(
    path: str | Path,
    format: str = "json",
    *,
    node_scale: float = 1.0,
    node_offset: int = 0,
    edge_scale: float = 1.0,
    edge_offset: int = 0,
) -> AttributedGraph:
    """Load a graph from disk.

    ``json`` expects a single object in the documented graph schema;
    ``edge-tsv`` expects one "src<TAB>dst" pair per line and produces an
    attribute-free undirected graph. Scale/offset pairs quantize continuous
    attribute values at ingest so the in-memory model stays integer-only.
    """
    path = Path(path)
    if format == "json":
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
        if (node_scale, node_offset) != (1.0, 0) and doc.get("node_attrs"):
            doc["node_attrs"] = quantize_attrs(doc["node_attrs"], node_scale, node_offset)
        if (edge_scale, edge_offset) != (1.0, 0) and doc.get("edge_attrs"):
            doc["edge_attrs"] = quantize_attrs(doc["edge_attrs"], edge_scale, edge_offset)
        return AttributedGraph.from_json(doc)
    if format == "edge-tsv":
        edges = []
        seen = set()
        max_node = -1
        with path.open() as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t") if "\t" in line else line.split()
                if len(parts) != 2:
                    raise GraphFormatError("expected 'src<TAB>dst'", line=lineno)
                try:
                    src, dst = int(parts[0]), int(parts[1])
                except ValueError:
                    raise GraphFormatError("node ids must be integers", line=lineno)
                if src == dst:
                    raise GraphFormatError(f"self-loop at node {src}", line=lineno)
                key = (min(src, dst), max(src, dst))
                if key in seen:
                    raise GraphFormatError(f"duplicate edge ({src}, {dst})", line=lineno)
                seen.add(key)
                edges.append((src, dst))
                max_node = max(max_node, src, dst)
        return AttributedGraph(num_nodes=max_node + 1, edges=tuple(edges))
    raise ValueError(f"unknown graph format: {format!r}")


def graph_record(doc: dict) -> AttributedGraph:
    """The graph of a JSONL record, which may be a bare graph or a sample."""
    return AttributedGraph.from_json(doc.get("graph", doc))


def iter_graphs_jsonl(path: str | Path) -> Iterator[AttributedGraph]:
    """Yield graphs from a JSONL file; lines may be bare graphs or samples."""
    return (g for _, g in read_jsonl(path, graph_record))
