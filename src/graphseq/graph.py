"""In-memory model for attributed graphs and sampled subgraphs, their
file formats, and seeded random graphs for round-trip self-checks."""
from __future__ import annotations

import json
import operator
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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


def decode_json(text: str, parse: Callable[[dict], T], line: int | None = None) -> T:
    """``parse`` of the JSON object in ``text``; every JSON input is read here.
    Bad JSON, a non-object, a missing key or a value ``parse`` rejects raises
    ``GraphFormatError`` at ``line`` if given, else at bad JSON's own line."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, not {type(doc).__name__}")
        return parse(doc)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno if line is None else line) from exc
    except KeyError as exc:
        raise GraphFormatError(f"missing required key {exc}", line=line) from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise GraphFormatError(str(exc), line=line) from exc


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield ``(line number, parse(doc))`` for each non-blank line of a
    JSONL file, decoded by ``decode_json``; the number lets later per-item
    errors name the line too."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                yield lineno, decode_json(line, parse, lineno)


def write_jsonl(path: str | Path, docs: Iterable[dict]) -> None:
    """Write one JSON line per doc as ``docs`` yields it; a failure part
    way leaves the complete lines written before it."""
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def int_row(row, what: str, hint: str = "") -> tuple[int, ...]:
    """``row`` as a tuple of ints: ints and integer types with ``__index__``
    (numpy integers, say) pass, after one scan of the value types when all
    are ints. The first float, string or boolean raises, named after ``what``."""
    row = tuple(row)
    if {*map(type, row)} <= {int}:
        return row
    out = []
    for value in row:
        try:
            if type(value) is bool:  # an int subclass, but true/false is no integer
                raise TypeError
            out.append(operator.index(value))
        except TypeError:
            raise GraphFormatError(f"{what} {value!r} is not an integer{hint}") from None
    return tuple(out)


def check_edges(num_nodes: int, edges: Sequence[tuple[int, int]], directed: bool,
                lines: Sequence[int] = ()) -> None:
    """Raise ``GraphFormatError`` naming the first edge that is out of
    range, a self-loop or a duplicate (on undirected graphs, (v, u) after
    (u, v) is one), and with ``lines`` its file line: ``lines[i]`` is
    the line of ``edges[i]``.

    The checks run in bulk: min and max of the endpoints, one pairwise
    comparison, the size of the edge set and, undirected, its overlap
    with the swapped pairs. Only when one fails does the per-edge loop
    run, to find the first bad edge.
    """
    if not edges:
        return
    srcs, dsts = zip(*edges)
    pairs = set(edges)
    if (
        min(srcs) >= 0
        and min(dsts) >= 0
        and max(srcs) < num_nodes
        and max(dsts) < num_nodes
        and not any(map(operator.eq, srcs, dsts))
        and len(pairs) == len(edges)
        and (directed or pairs.isdisjoint(zip(dsts, srcs)))
    ):
        return
    seen = set()
    for i, (src, dst) in enumerate(edges):
        line = lines[i] if lines else None
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            raise GraphFormatError(f"node id out of range in edge ({src}, {dst})", line)
        if src == dst:
            raise GraphFormatError(f"self-loop at node {src}", line)
        key = (src, dst) if directed else (min(src, dst), max(src, dst))
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({src}, {dst})", line)
        seen.add(key)


def _check_rows(rows: tuple[tuple[int, ...], ...], expected: int, what: str) -> None:
    """One attribute row per node or edge, all of the same width."""
    if len(rows) != expected:
        raise GraphFormatError(f"expected {expected} {what} attribute rows, got {len(rows)}")
    width = len(rows[0])
    if {*map(len, rows)} != {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise GraphFormatError(f"inconsistent {what} attribute width at {what} {i}")


_QUANTIZE_HINT = "; quantize continuous attributes with `graphseq ingest --{0}-scale/--{0}-offset`"


@dataclass(frozen=True)
class AttributedGraph:
    """A simple graph with fixed-width integer attribute vectors.

    Node ids are 0..num_nodes-1. Undirected graphs store each edge once;
    directed graphs may contain both (u, v) and (v, u). Self loops and
    duplicate edges are rejected, and so is any value that is not an
    integer. ``node_defaults`` / ``edge_defaults`` give, per dimension,
    the value that serialization omits.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...] = ()
    directed: bool = False
    node_attrs: tuple[tuple[int, ...], ...] = ()
    edge_attrs: tuple[tuple[int, ...], ...] = ()
    node_defaults: tuple[int, ...] = ()
    edge_defaults: tuple[int, ...] = ()

    def __post_init__(self):
        # Rows become tuples at C speed. One scan of the value types then
        # confirms that every value is already an int, as from JSON or
        # from this package; only when one is not do values get converted
        # one by one, which names the first that is not an integer.
        edges = tuple([(s, d) for s, d in self.edges])
        node_attrs = tuple(map(tuple, self.node_attrs))
        edge_attrs = tuple(map(tuple, self.edge_attrs))
        node_defaults = tuple(self.node_defaults)
        edge_defaults = tuple(self.edge_defaults)
        types = {
            type(self.num_nodes),
            *map(type, chain.from_iterable(edges)),
            *map(type, chain.from_iterable(node_attrs)),
            *map(type, chain.from_iterable(edge_attrs)),
            *map(type, node_defaults),
            *map(type, edge_defaults),
        }
        if types != {int}:
            object.__setattr__(self, "num_nodes", int_row((self.num_nodes,), "num_nodes")[0])
            edges = tuple(int_row(e, f"edge {i}: node id") for i, e in enumerate(edges))
            node_attrs = tuple(
                int_row(row, f"node {i}: attribute", _QUANTIZE_HINT.format("node"))
                for i, row in enumerate(node_attrs)
            )
            edge_attrs = tuple(
                int_row(row, f"edge {i}: attribute", _QUANTIZE_HINT.format("edge"))
                for i, row in enumerate(edge_attrs)
            )
            node_defaults = int_row(node_defaults, "node attr_defaults: value")
            edge_defaults = int_row(edge_defaults, "edge attr_defaults: value")
        if type(self.directed) is not bool:
            raise GraphFormatError(f"directed must be true or false, got {self.directed!r}")
        if not node_defaults and node_attrs:
            node_defaults = (0,) * len(node_attrs[0])
        if not edge_defaults and edge_attrs:
            edge_defaults = (0,) * len(edge_attrs[0])
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "node_attrs", node_attrs)
        object.__setattr__(self, "edge_attrs", edge_attrs)
        object.__setattr__(self, "node_defaults", node_defaults)
        object.__setattr__(self, "edge_defaults", edge_defaults)
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

    # The fields are frozen, so the cached value never goes stale; a graph
    # from ``dataclasses.replace`` is a new instance and builds its own.
    @cached_property
    def _adjacency(self) -> Adjacency:
        return undirected_adjacency(self.num_nodes, self.edges)

    def _validate(self):
        if self.num_nodes < 0:
            raise GraphFormatError("num_nodes must be non-negative")
        check_edges(self.num_nodes, self.edges, self.directed)
        if self.node_attrs:
            _check_rows(self.node_attrs, self.num_nodes, "node")
        if self.edge_attrs:
            _check_rows(self.edge_attrs, len(self.edges), "edge")
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
        """The graph of a JSON document. Every value must be a JSON integer
        and ``directed`` a JSON boolean; anything else is an error, never
        truncated or coerced."""
        defaults = doc.get("attr_defaults") or {}
        return cls(
            num_nodes=doc["num_nodes"],
            edges=doc.get("edges", ()),
            directed=doc.get("directed", False),
            node_attrs=doc.get("node_attrs") or (),
            edge_attrs=doc.get("edge_attrs") or (),
            node_defaults=defaults.get("node") or (),
            edge_defaults=defaults.get("edge") or (),
        )


@dataclass(frozen=True)
class SubgraphSample:
    """A locally re-indexed subgraph with its seed node(s) and global ids."""

    graph: AttributedGraph
    root_nodes: tuple[int, ...]
    origin_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "root_nodes", int_row(self.root_nodes, "root node"))
        object.__setattr__(self, "origin_ids", int_row(self.origin_ids, "origin id"))
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


Adjacency = tuple[tuple[tuple[int, int], ...], ...]


def undirected_adjacency(num_nodes: int, edges: Iterable[tuple[int, int]]) -> Adjacency:
    """Per node, sorted (neighbor, edge index) pairs, ignoring direction;
    an edge's index is its position in ``edges``."""
    lists: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for ei, (src, dst) in enumerate(edges):
        lists[src].append((dst, ei))
        lists[dst].append((src, ei))
    return tuple(tuple(sorted(l)) for l in lists)


def adjacency(g: AttributedGraph) -> Adjacency:
    """Undirected adjacency: per node, sorted (neighbor, edge index) pairs.
    Built on first use and kept by the graph."""
    return g._adjacency


def bfs(adj: Adjacency, starts: Sequence[int], dist: list[int], via: list[int]) -> list[int]:
    """Breadth-first search over ``adj`` from all of ``starts`` at once.

    ``dist`` must hold -1 at every node not yet reached. For each node it
    reaches, the search writes the distance to the nearest start into
    ``dist``, and at each node but the starts the id of the edge that
    first reached it into ``via``; following those edges back leads to
    the start whose search got there first. It returns the nodes reached
    in discovery order, the starts first as given; setting ``dist`` back
    to -1 at them readies both lists for the next search. Sorted
    adjacency makes the search tree deterministic.
    """
    queue = list(starts)
    for v in queue:
        dist[v] = 0
    for u in queue:
        du = dist[u] + 1
        for v, eid in adj[u]:
            if dist[v] < 0:
                dist[v] = du
                via[v] = eid
                queue.append(v)
    return queue


def connected_components(g: AttributedGraph) -> list[set[int]]:
    """Partition nodes into maximal connected sets, ignoring edge direction.

    Components are ordered by their smallest node id. One pair of lists
    serves every search, so the cost is linear in the graph's size.
    """
    adj, n = adjacency(g), g.num_nodes
    dist, via = [-1] * n, [-1] * n
    return [set(bfs(adj, (v,), dist, via)) for v in range(n) if dist[v] < 0]


def quantize_attrs(rows: Sequence[Sequence[float]], scale: float = 1.0, offset: int = 0) -> list[list[int]]:
    """Map continuous attribute values to integers: round(v * scale) + offset."""
    return [[int(round(float(v) * scale)) + offset for v in row] for row in rows]


def read_int_pairs(path: str | Path, fields: str, not_int: str = "") -> Iterator[tuple[int, int, int]]:
    """Yield ``(line number, a, b)`` per "a<TAB>b" line of a text file,
    skipping blank and ``#`` lines; whitespace splits a line with no tab.
    Another shape raises ``GraphFormatError`` ``expected '<fields>'`` with
    the line, a non-integer field ``not_int`` (default: what int says)."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"expected '{fields}'", line=lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(not_int or str(exc), line=lineno) from None
            yield lineno, a, b


def load_graph(
    path: str | Path,
    format: str = "json",
    *,
    node_scale: float | None = None,
    node_offset: int | None = None,
    edge_scale: float | None = None,
    edge_offset: int | None = None,
) -> AttributedGraph:
    """Load a graph from disk.

    ``json`` expects a single object in the documented graph schema;
    ``edge-tsv`` expects one "src<TAB>dst" pair per line and produces an
    attribute-free undirected graph. Scale/offset pairs quantize continuous
    attribute values at ingest so the in-memory model stays integer-only:
    setting either half of a pair quantizes that kind, the other half
    defaulting to scale 1 or offset 0 (so ``node_scale=1`` rounds). With
    neither set, the values must already be integers.
    """
    path = Path(path)
    if format == "json":
        def parse(doc: dict) -> AttributedGraph:
            for key, scale, offset in (
                ("node_attrs", node_scale, node_offset),
                ("edge_attrs", edge_scale, edge_offset),
            ):
                if (scale, offset) != (None, None) and doc.get(key):
                    doc[key] = quantize_attrs(doc[key], 1.0 if scale is None else scale, offset or 0)
            return AttributedGraph.from_json(doc)

        return decode_json(path.read_text(), parse)
    if format == "edge-tsv":
        lines, edges = array("q"), []  # 8 bytes a line number, not a 36-byte int in a list
        for lineno, src, dst in read_int_pairs(path, "src<TAB>dst", "node ids must be integers"):
            lines.append(lineno)
            edges.append((src, dst))
        num_nodes = max(max(chain.from_iterable(edges), default=-1) + 1, 0)
        try:
            return AttributedGraph(num_nodes=num_nodes, edges=edges)
        except GraphFormatError:  # only check_edges can fail here; run it again to name the line
            check_edges(num_nodes, edges, False, lines)
            raise
    raise ValueError(f"unknown graph format: {format!r}")


def graph_record(doc: dict) -> AttributedGraph:
    """The graph of a JSONL record, which may be a bare graph or a sample."""
    return AttributedGraph.from_json(doc.get("graph", doc))


def iter_graphs_jsonl(path: str | Path) -> Iterator[AttributedGraph]:
    """Yield graphs from a JSONL file; lines may be bare graphs or samples."""
    return (g for _, g in read_jsonl(path, graph_record))


def random_connected_graph(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 12,
    max_node_width: int = 4,
    max_edge_width: int = 3,
    directed: bool | None = None,
    value_range: int = 5,
) -> AttributedGraph:
    """Random spanning tree plus extra edges, with random attribute vectors.

    Attribute values land in 0..value_range with all-zero defaults, so some
    dimensions hit the default and exercise omission.
    """
    n = rng.randint(n_min, n_max)
    if directed is None:
        directed = rng.random() < 0.25
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        if rng.random() < 0.5:
            u, v = v, u
        edges.add((u, v) if directed else (min(u, v), max(u, v)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key not in edges:
            edges.add(key)
    edges = sorted(edges)
    a_n = rng.randint(0, max_node_width)
    a_e = rng.randint(0, max_edge_width)
    return AttributedGraph(
        num_nodes=n,
        edges=tuple(edges),
        directed=directed,
        node_attrs=[
            [rng.randint(0, value_range) for _ in range(a_n)] for _ in range(n)
        ]
        if a_n
        else (),
        edge_attrs=[
            [rng.randint(0, value_range) for _ in range(a_e)] for _ in range(len(edges))
        ]
        if a_e
        else (),
    )


def random_graph(rng: random.Random, **kwargs) -> AttributedGraph:
    """Like random_connected_graph but occasionally drops edges so jump
    repair gets exercised."""
    g = random_connected_graph(rng, **kwargs)
    if g.num_edges > 1 and rng.random() < 0.3:
        keep = sorted(rng.sample(range(g.num_edges), g.num_edges - 1))
        return AttributedGraph(
            num_nodes=g.num_nodes,
            edges=tuple(g.edges[i] for i in keep),
            directed=g.directed,
            node_attrs=g.node_attrs,
            edge_attrs=tuple(g.edge_attrs[i] for i in keep) if g.edge_attrs else (),
        )
    return g
