"""In-memory model for attributed graphs and sampled subgraphs, their
file formats, and seeded random graphs for round-trip self-checks."""
from __future__ import annotations

import json
import operator
import random
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
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


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` per line of an input file, the one place
    graphseq opens one: UTF-8 whatever the locale, a leading byte-order mark
    skipped, lines ending as in text mode. A byte that is not UTF-8 reads as
    a lone surrogate, which no ASCII line holds (``isascii`` is O(1)), and
    raises ``GraphFormatError`` at its line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and (bad := re.search("[\udc80-\udcff]", line)):
                raise GraphFormatError(f"byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8", lineno)
            yield lineno, line


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> Iterator[tuple[int, T]]:
    """Yield ``(line number, parse(doc))`` for each non-blank line of a
    JSONL file read by ``read_lines`` and decoded by ``decode_json``; the
    number lets later per-item errors name the line too."""
    for lineno, line in read_lines(path):
        if not line.isspace():
            yield lineno, decode_json(line, parse, lineno)


def write_jsonl(path: str | Path, docs: Iterable[dict]) -> None:
    """Write one JSON line per doc as ``docs`` yields it; a failure part
    way leaves the complete lines written before it. The file is UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def int_row(row, what: str, hint: str = "") -> tuple[int, ...]:
    """``row`` as a tuple of ints: ints and integer types with ``__index__``
    (numpy integers, say) pass, after one scan of the value types when all
    are ints. The first float, string or boolean raises, named after ``what``."""
    row = tuple(row)
    if not row or {*map(type, row)} <= {int}:  # empty: most graphs have no attribute defaults
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


def expect_json(kind: str, key: str, value):
    """``value`` when it is a JSON ``kind``: an "array" a list (or a tuple,
    as this package builds), an "object" a dict; else ``GraphFormatError``
    naming ``key``: ``edges must be a JSON array, not 5``."""
    if isinstance(value, dict if kind == "object" else (list, tuple)):
        return value
    raise GraphFormatError(f"{key} must be a JSON {kind}, not {value!r}")


def row_tuples(key: str, rows, what: str, shape: str, width: int | None = None) -> tuple[tuple, ...]:
    """The array ``rows`` under ``key`` as tuples, each row an array (a list
    or tuple) and ``width`` long if given, checked at C speed; else the first
    row that is not is refused by index: ``edge 1: expected a [src, dst] pair, not 5``."""
    rows = expect_json("array", key, rows)
    if {*map(type, rows)} <= {list, tuple}:
        out = tuple(map(tuple, rows))
        if width is None or {*map(len, out)} <= {width}:
            return out
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or width not in (None, len(row)):
            raise GraphFormatError(f"{what} {i}: expected {shape}, not {row!r}")
    return tuple(map(tuple, rows))


def _int_rows(key: str, rows, what: str, shape: str, value: str, hint: str = "",
              width: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The array ``rows`` under ``key`` as ``row_tuples`` of ints: one scan
    of the value types passes ints, as from JSON or this package, and else
    ``int_row`` converts row by row, naming ``{what} {i}``, ``hint`` formatted by ``what``."""
    rows = row_tuples(key, rows, what, shape, width)
    if {*map(type, chain.from_iterable(rows))} <= {int}:
        return rows
    return tuple(int_row(row, f"{what} {i}: {value}", hint.format(what)) for i, row in enumerate(rows))


class EdgeList:
    """A large graph's edges in two ``array('q')`` columns, ``src`` and
    ``dst``: 16 bytes an edge, where a tuple of pairs keeps about 126 (a
    2-tuple and two int objects). It reads as that tuple of ``(src, dst)``
    pairs: indexes (negative too), iteration, ``in``, equality, hash and
    repr match it, and a slice is the ``EdgeList`` of the sliced columns.
    The columns are read-only. No abstract base class: ``isinstance``
    against one took 0.5 µs, paid by every graph built."""

    __slots__ = ("src", "dst")

    def __init__(self, src: array, dst: array):
        self.src, self.dst = src, dst

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EdgeList(self.src[i], self.dst[i])
        return self.src[i], self.dst[i]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.src, self.dst)

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeList):
            return self.src == other.src and self.dst == other.dst
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


# A graph of this many edges or more keeps them in an ``EdgeList``, and a
# smaller one its tuple of pairs, at the measured crossover in speed. Per
# edge, ``graph_record`` of a freshly decoded record took 1.38 times as
# long in columns at 8,192 edges, 1.04-1.19 at 12,288-16,384, 0.99-1.06
# from 20,000 to 40,000 and 0.82-0.92 from 49,152 up (one process per
# size, Python 3.11, 2 vCPUs): a set of existing tuples is the cheapest
# duplicate check while the tuples stay in cache. Built from a tuple of
# Python pairs, columns took 1.2-1.3 times as long at every size measured,
# up to 65,536; they keep an eighth of the memory at any size.
_COLUMN_MIN_EDGES = 20_000

_FIRST, _SECOND = operator.itemgetter(0), operator.itemgetter(1)


def _edge_columns(pairs) -> EdgeList | None:
    """``pairs`` as columns when there are ``_COLUMN_MIN_EDGES`` of them or
    more and each is two ints; else None, and ``pairs`` is left to the
    tuple path, which converts other integer types and names the first
    value that is no integer. Ids beyond 64 bits keep the tuple too."""
    try:
        if (
            len(pairs) < _COLUMN_MIN_EDGES
            or not {*map(len, pairs)} <= {2}
            or not {*map(type, chain.from_iterable(pairs))} <= {int}  # a bool is an int to array()
        ):
            return None
        # Straight into the arrays: a list of ids first was a little faster,
        # but its freed buffer raised ego-edge-task's peak RSS by 10 MB.
        return EdgeList(array("q", map(_FIRST, pairs)), array("q", map(_SECOND, pairs)))
    except (TypeError, OverflowError):
        return None


def _stored_edges(edges) -> tuple[tuple[int, int], ...] | EdgeList:
    """``edges`` as a graph keeps them: an ``EdgeList`` from
    ``_COLUMN_MIN_EDGES`` edges up, else a tuple of int pairs. A value
    that is not an int is converted by ``int_row`` or refused, naming
    its edge."""
    if isinstance(edges, EdgeList):  # its arrays hold ints only
        return edges if len(edges) >= _COLUMN_MIN_EDGES else tuple(edges)
    columns = _edge_columns(edges)
    if columns is None:
        edges = _int_rows("edges", edges, "edge", "a [src, dst] pair", "node id", width=2)
        columns = _edge_columns(edges)  # values converted from other integer types may fill them
    return edges if columns is None else columns


def check_edges(num_nodes: int, edges: Sequence[tuple[int, int]], directed: bool,
                lines: Sequence[int] = ()) -> None:
    """Raise ``GraphFormatError`` naming the first edge that is out of
    range, a self-loop or a duplicate (on undirected graphs, (v, u) after
    (u, v) is one), and with ``lines`` its file line: ``lines[i]`` is
    the line of ``edges[i]``.

    The checks run in bulk: min and max of the endpoints, one pairwise
    comparison, the size of the edge set and, undirected, its overlap
    with the swapped pairs. An ``EdgeList`` is checked on its columns,
    and its set holds ``src * num_nodes + dst`` keys. Only when one fails
    does the per-edge loop run, to find the first bad edge.
    """
    if not edges:
        return
    if isinstance(edges, EdgeList):
        # One int a pair, no tuple; a key names one pair once in range.
        srcs, dsts = edges.src, edges.dst
        times_n = num_nodes.__mul__
        pairs = map(operator.add, map(times_n, srcs), dsts)
        swapped = map(operator.add, map(times_n, dsts), srcs)
    else:
        srcs, dsts = zip(*edges)
        pairs, swapped = edges, zip(dsts, srcs)
    if (
        min(srcs) >= 0
        and min(dsts) >= 0
        and max(srcs) < num_nodes
        and max(dsts) < num_nodes
        and not any(map(operator.eq, srcs, dsts))
        and len(unique := set(pairs)) == len(edges)
        and (directed or unique.isdisjoint(swapped))
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


# Equal attribute rows share one tuple when a graph has this many rows
# of a kind or more, so a parent with few distinct rows keeps few. A
# small graph's rows are left as they are: interning every molecule
# raised mol-pretrain's peak RSS by 7%, the memo's table costing more
# than sharing saves.
_INTERN_MIN_ROWS = 1024

_ATTR_ROW = "a list of attribute values"
_QUANTIZE_HINT = "; quantize continuous attributes with `graphseq ingest --{0}-scale/--{0}-offset`"


def _attr_rows(kind: str, rows, defaults, expected: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``kind``'s attribute rows and defaults as int tuples, checked: every
    value an integer, one row per node or edge (``expected``), all of one
    width, and as many defaults as the rows are wide. No defaults mean a
    zero per dimension."""
    rows = _int_rows(f"{kind}_attrs", rows, kind, _ATTR_ROW, "attribute", _QUANTIZE_HINT)
    defaults = int_row(expect_json("array", f"{kind} attr_defaults", defaults), f"{kind} attr_defaults: value")
    width = len(rows[0]) if rows else 0
    if rows and len(rows) != expected:
        raise GraphFormatError(f"expected {expected} {kind} attribute rows, got {len(rows)}")
    if not {*map(len, rows)} <= {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise GraphFormatError(f"inconsistent {kind} attribute width at {kind} {i}")
    defaults = defaults or (0,) * width
    if len(defaults) != width:
        raise GraphFormatError(f"{kind} attr_defaults width mismatch")
    # Interned only after the checks, so each refusal names the row as given.
    if len(rows) >= _INTERN_MIN_ROWS:
        rows = tuple(map({}.setdefault, rows, rows))
    return rows, defaults


@dataclass(frozen=True)
class AttributedGraph:
    """A simple graph with fixed-width integer attribute vectors.

    Node ids are 0..num_nodes-1. Undirected graphs store each edge once;
    directed graphs may contain both (u, v) and (v, u). Self loops and
    duplicate edges are rejected, and so is any value that is not an
    integer. ``node_defaults`` / ``edge_defaults`` give, per dimension,
    the value that serialization omits. ``edges`` is an ``EdgeList`` from
    ``_COLUMN_MIN_EDGES`` edges up and a tuple of pairs below, whatever
    was given; both read, compare and hash alike.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...] | EdgeList = ()
    directed: bool = False
    node_attrs: tuple[tuple[int, ...], ...] = ()
    edge_attrs: tuple[tuple[int, ...], ...] = ()
    node_defaults: tuple[int, ...] = ()
    edge_defaults: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.num_nodes) is not int:
            object.__setattr__(self, "num_nodes", int_row((self.num_nodes,), "num_nodes")[0])
        edges = _stored_edges(self.edges)
        if type(self.directed) is not bool:
            raise GraphFormatError(f"directed must be true or false, got {self.directed!r}")
        if self.num_nodes < 0:
            raise GraphFormatError("num_nodes must be non-negative")
        check_edges(self.num_nodes, edges, self.directed)
        node_attrs, node_defaults = _attr_rows("node", self.node_attrs, self.node_defaults, self.num_nodes)
        edge_attrs, edge_defaults = _attr_rows("edge", self.edge_attrs, self.edge_defaults, len(edges))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "node_attrs", node_attrs)
        object.__setattr__(self, "edge_attrs", edge_attrs)
        object.__setattr__(self, "node_defaults", node_defaults)
        object.__setattr__(self, "edge_defaults", edge_defaults)

    def with_node_attrs(self, rows, defaults) -> "AttributedGraph":
        """This graph with node attribute ``rows`` and ``defaults`` in place
        of its own. Only they are checked, under the rules and messages of
        construction; the edges, the edge attributes and defaults, and the
        neighbour index if built, are this graph's own objects, shared and
        not checked again."""
        node_attrs, node_defaults = _attr_rows("node", rows, defaults, self.num_nodes)
        g = object.__new__(type(self))
        vars(g).update(vars(self), node_attrs=node_attrs, node_defaults=node_defaults)
        return g

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    # The fields are frozen, so the cached value never goes stale; a graph
    # from ``dataclasses.replace`` is a new instance and builds its own,
    # while one from ``with_node_attrs`` keeps this one's.
    @cached_property
    def _adjacency(self) -> NeighborIndex:
        return _neighbor_index(self.num_nodes, self.edges)

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
        """The graph of a JSON document, which is left unchanged. Every value
        must be a JSON integer and ``directed`` a JSON boolean; anything
        else is an error, never truncated or coerced."""
        defaults = expect_json("object", "attr_defaults", doc.get("attr_defaults", {}))
        return cls(
            num_nodes=doc["num_nodes"],
            edges=doc.get("edges", ()),
            directed=doc.get("directed", False),
            node_attrs=doc.get("node_attrs", ()),
            edge_attrs=doc.get("edge_attrs", ()),
            node_defaults=defaults.get("node", ()),
            edge_defaults=defaults.get("edge", ()),
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
            graph=AttributedGraph.from_json(expect_json("object", "graph", doc["graph"])),
            root_nodes=expect_json("array", "root_nodes", doc["root_nodes"]),
            origin_ids=expect_json("array", "origin_ids", doc["origin_ids"]),
        )


@dataclass(frozen=True)
class NeighborIndex:
    """A parent graph's neighbours in compressed sparse rows, ignoring
    direction. Node u's run is ``offsets[u]:offsets[u + 1]``: its
    neighbours in ``neighbors`` and the ids of the edges to them in
    ``edge_ids``, sorted by (neighbour, edge id), so a neighbour linked
    by two antiparallel edges appears twice, in edge-id order. An edge's
    id is its position in the graph's edges."""

    offsets: array
    neighbors: array
    edge_ids: array

    def run(self, u: int) -> array:
        """Node u's neighbours in order, one per edge to it."""
        return self.neighbors[self.offsets[u] : self.offsets[u + 1]]

    def linked(self, u: int, v: int) -> bool:
        """Whether an edge joins u and v, in either direction: v is
        searched for by bisection into u's run."""
        hi = self.offsets[u + 1]
        i = bisect_left(self.neighbors, v, self.offsets[u], hi)
        return i < hi and self.neighbors[i] == v

    def induced_edge_ids(self, nodes: set[int]) -> list[int]:
        """The sorted ids of the edges with both ends in ``nodes``.

        A node's run up to twice the size of ``nodes`` is scanned; a
        longer one, a hub's, is searched by bisection for each node of
        ``nodes`` instead, so a hub's whole run is never read.
        """
        neighbors, edge_ids = self.neighbors, self.edge_ids
        found: set[int] = set()
        for u in nodes:
            lo, hi = self.offsets[u], self.offsets[u + 1]
            if hi - lo <= 2 * len(nodes):
                found.update(compress(edge_ids[lo:hi], map(nodes.__contains__, neighbors[lo:hi])))
                continue
            for v in nodes:
                i = bisect_left(neighbors, v, lo, hi)
                while i < hi and neighbors[i] == v:
                    found.add(edge_ids[i])
                    i += 1
        return sorted(found)


def _neighbor_index(num_nodes: int, edges: Sequence[tuple[int, int]]) -> NeighborIndex:
    """The ``NeighborIndex`` of ``edges`` over ``num_nodes`` nodes.

    Each run is first a list of ``neighbour * m + edge id`` keys (m edges),
    one int per edge end; sorting a run's keys sorts it by (neighbour,
    edge id), and division splits them into the two arrays at C speed.
    Neighbours and edge ids take 4 bytes each, so 16 bytes an edge; a
    graph of 2**31 nodes or edges overflows them and raises.
    """
    m = len(edges)
    runs: list[list[int]] = [[] for _ in range(num_nodes)]
    for ei, (src, dst) in enumerate(edges):
        runs[src].append(dst * m + ei)
        runs[dst].append(src * m + ei)
    for run in runs:
        run.sort()
    offsets = array("q", [0])
    offsets.extend(accumulate(map(len, runs)))
    return NeighborIndex(
        offsets=offsets,
        neighbors=array("i", map(m.__rfloordiv__, chain.from_iterable(runs))),  # key // m
        edge_ids=array("i", map(m.__rmod__, chain.from_iterable(runs))),  # key % m
    )


def adjacency(g: AttributedGraph) -> NeighborIndex:
    """The graph's ``NeighborIndex``, built on first use and kept by the
    graph; the index a parent's readers (sampler, BFS partitioner) share."""
    return g._adjacency


Adjacency = tuple[tuple[tuple[int, int], ...], ...]


def undirected_adjacency(num_nodes: int, edges: Iterable[tuple[int, int]]) -> Adjacency:
    """Per node, sorted (neighbor, edge index) pairs, ignoring direction;
    an edge's index is its position in ``edges``. The searches of a
    walk-sized graph run over these pairs; a repaired multigraph keeps
    its own, and no graph caches them."""
    lists: list[list[tuple[int, int]]] = [[] for _ in range(num_nodes)]
    for ei, (src, dst) in enumerate(edges):
        lists[src].append((dst, ei))
        lists[dst].append((src, ei))
    return tuple(tuple(sorted(l)) for l in lists)


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


def connected_components(g: AttributedGraph, adj: Adjacency | None = None) -> list[set[int]]:
    """Partition nodes into maximal connected sets, ignoring edge direction.

    Components are ordered by their smallest node id. One pair of lists
    serves every search, so the cost is linear in the graph's size.
    ``adj``, when given, must be ``undirected_adjacency(g.num_nodes,
    g.edges)``; without it the search builds its own.
    """
    n = g.num_nodes
    if adj is None:
        adj = undirected_adjacency(n, g.edges)
    dist, via = [-1] * n, [-1] * n
    return [set(bfs(adj, (v,), dist, via)) for v in range(n) if dist[v] < 0]


def quantize_attrs(
    rows: Sequence[Sequence[float]], scale: float = 1.0, offset: int = 0, what: str = "row"
) -> list[list[int]]:
    """Map continuous attribute values to integers: round(v * scale) + offset.
    Each value must be an int or a float, never a boolean, and ``v * scale``
    finite; anything else raises ``GraphFormatError`` naming ``what``, the
    row and the value."""

    def quantized(i: int, v) -> int:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise GraphFormatError(f"{what} {i}: attribute {v!r} is not a number")
        try:
            return int(round(v * scale)) + offset
        except (ValueError, OverflowError):  # nan, infinity, or an int past the float range
            raise GraphFormatError(f"{what} {i}: attribute {v!r} times scale {scale} is not finite") from None

    rows = row_tuples(f"{what}_attrs", rows, what, _ATTR_ROW)
    return [[quantized(i, v) for v in row] for i, row in enumerate(rows)]


def read_int_pairs(path: str | Path, fields: str, not_int: str = "") -> Iterator[tuple[int, int, int]]:
    """Yield ``(line number, a, b)`` per "a<TAB>b" line of a text file,
    skipping blank and ``#`` lines; whitespace splits a line with no tab.
    Another shape raises ``GraphFormatError`` ``expected '<fields>'`` with
    the line, a non-integer field ``not_int`` (default: what int says)."""
    for lineno, raw in read_lines(path):
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
    if format == "json":
        def parse(doc: dict) -> AttributedGraph:
            for kind, scale, offset in (
                ("node", node_scale, node_offset),
                ("edge", edge_scale, edge_offset),
            ):
                key = f"{kind}_attrs"
                if (scale, offset) != (None, None) and key in doc:
                    doc[key] = quantize_attrs(doc[key], 1.0 if scale is None else scale, offset or 0, kind)
            return _owned_graph(doc)

        return decode_json("".join(line for _, line in read_lines(path)), parse)
    if format == "edge-tsv":
        # 8 bytes a line number and an endpoint, not a pair and int objects.
        lines, srcs, dsts = array("q"), array("q"), array("q")
        for lineno, src, dst in read_int_pairs(path, "src<TAB>dst", "node ids must be integers"):
            try:
                srcs.append(src)
                dsts.append(dst)
            except OverflowError:
                raise GraphFormatError(f"node id of edge ({src}, {dst}) does not fit in 64 bits", lineno) from None
            lines.append(lineno)
        edges = EdgeList(srcs, dsts)
        num_nodes = max(max(srcs, default=-1) + 1, max(dsts, default=-1) + 1, 0)
        try:
            return AttributedGraph(num_nodes=num_nodes, edges=edges)
        except GraphFormatError:  # only check_edges can fail here; run it again to name the line
            check_edges(num_nodes, edges, False, lines)
            raise
    raise ValueError(f"unknown graph format: {format!r}")


def _owned_graph(doc: dict) -> AttributedGraph:
    """The graph of a decoded JSON graph object that the caller owns and
    drops. A large graph's per-edge lists are replaced in ``doc`` first,
    the edges by columns and the edge attribute rows by tuples, so they
    are freed before construction checks and copies anything. A value
    that is no int stays, for construction to refuse as usual."""
    columns = _edge_columns(doc.get("edges", ()))
    if columns is not None:
        doc["edges"] = columns
        # Held by no local name, the decoded rows are freed here, not after construction.
        doc["edge_attrs"] = row_tuples("edge_attrs", doc.get("edge_attrs", ()), "edge", _ATTR_ROW)
    return AttributedGraph.from_json(doc)


def graph_record(doc: dict) -> AttributedGraph:
    """The graph of a decoded JSONL record, which may be a bare graph or a
    sample; the record is the caller's to drop, and is changed."""
    return _owned_graph(expect_json("object", "graph", doc["graph"]) if "graph" in doc else doc)


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
