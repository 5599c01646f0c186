import json
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphseq import (
    AttributedGraph,
    GraphFormatError,
    SubgraphSample,
    adjacency,
    connected_components,
    load_graph,
    load_partition,
)
from graphseq.graph import (
    _COLUMN_MIN_EDGES,
    EdgeList,
    check_edges,
    decode_json,
    graph_record,
    iter_graphs_jsonl,
    quantize_attrs,
    read_jsonl,
    undirected_adjacency,
    write_jsonl,
)

from conftest import power_law_graph, random_graph


def test_load_json_path_graph(tmp_path):
    doc = {"directed": False, "num_nodes": 3, "edges": [[0, 1], [1, 2]]}
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(doc))
    g = load_graph(path)
    assert g.num_nodes == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.node_attrs == () and g.edge_attrs == ()


def test_load_edge_tsv(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n1\t2\n2\t3\n")
    g = load_graph(path, format="edge-tsv")
    assert g.num_nodes == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_edge_tsv_id_beyond_64_bits_is_an_error(tmp_path):
    path = tmp_path / "big.tsv"
    path.write_text(f"0\t1\n1\t{2**63}\n")
    with pytest.raises(GraphFormatError, match=f"^line 2: node id of edge \\(1, {2**63}\\) does not fit in 64 bits$"):
        load_graph(path, format="edge-tsv")


def test_edge_tsv_duplicate_row_is_an_error(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("0\t1\n0\t1\n")
    with pytest.raises(GraphFormatError, match="line 2.*duplicate edge"):
        load_graph(path, format="edge-tsv")


def test_load_molecule_fixture(molpcba_fixture):
    g = AttributedGraph.from_json(molpcba_fixture["graph"])
    assert g.num_nodes == 4
    assert g.num_edges == 3
    assert {len(row) for row in g.node_attrs} == {9}
    assert {len(row) for row in g.edge_attrs} == {3}
    assert g.node_defaults == (0,) * 9


def test_json_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"num_nodes": 3,\n  "edges": [[0, 1]\n}')
    with pytest.raises(GraphFormatError, match="line"):
        load_graph(path)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(num_nodes=3, edges=((0, 3),)), "out of range"),
        (dict(num_nodes=3, edges=((1, 1),)), "self-loop"),
        (dict(num_nodes=3, edges=((0, 1), (1, 0))), "duplicate edge"),
        (dict(num_nodes=2, edges=((0, 1),), node_attrs=[[1]]), "node attribute rows"),
        (dict(num_nodes=2, edges=((0, 1),), node_attrs=[[1], [1, 2]]), "inconsistent node"),
        (dict(num_nodes=2, edges=((0, 1),), edge_attrs=[[1], [2]]), "edge attribute rows"),
    ],
)
def test_invariant_violations(kwargs, message):
    with pytest.raises(GraphFormatError, match=message):
        AttributedGraph(**kwargs)


def test_directed_allows_antiparallel_edges():
    g = AttributedGraph(num_nodes=2, edges=((0, 1), (1, 0)), directed=True)
    assert g.num_edges == 2


def test_components_p3(p3):
    assert connected_components(p3) == [{0, 1, 2}]


def test_components_two_triangles(two_triangles):
    comps = connected_components(two_triangles)
    assert comps == [{0, 1, 2}, {3, 4, 5}]


def test_components_isolated_nodes():
    g = AttributedGraph(num_nodes=4)
    assert connected_components(g) == [{0}, {1}, {2}, {3}]


def test_components_partition_property():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng)
        comps = connected_components(g)
        union = set()
        for comp in comps:
            assert not (union & comp)
            union |= comp
        assert union == set(range(g.num_nodes))


def csr_runs(index) -> tuple:
    """A neighbour index as per-node tuples of (neighbour, edge id) pairs,
    the shape of ``undirected_adjacency``."""
    off = index.offsets
    return tuple(
        tuple(zip(index.neighbors[off[u] : off[u + 1]], index.edge_ids[off[u] : off[u + 1]]))
        for u in range(len(off) - 1)
    )


def test_adjacency_is_built_once_per_graph(two_triangles):
    adj = adjacency(two_triangles)
    assert adj is adjacency(two_triangles)
    assert csr_runs(adj) == undirected_adjacency(6, two_triangles.edges)
    # replace() makes a new graph, which builds its own adjacency.
    chained = replace(two_triangles, edges=two_triangles.edges + ((2, 3),))
    assert csr_runs(adjacency(chained)) == undirected_adjacency(6, chained.edges)
    assert adjacency(chained) is not adj
    assert connected_components(chained) == [set(range(6))]


def _antiparallel_graph(rng: random.Random) -> AttributedGraph:
    """A random directed or undirected graph, perhaps with no edges or
    isolated nodes; on a directed one some pairs are linked both ways."""
    n = rng.randint(0, 30)
    directed = rng.random() < 0.5
    edges = set()
    for _ in range(rng.randint(0, 3 * n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        if directed:
            edges.add((u, v))
            if rng.random() < 0.3:
                edges.add((v, u))
        else:
            edges.add((min(u, v), max(u, v)))
    edges = list(edges)
    rng.shuffle(edges)  # edge ids in no order of their endpoints
    return AttributedGraph(num_nodes=n, edges=tuple(edges), directed=directed)


def test_neighbor_index_runs_equal_the_tuple_adjacency():
    rng = random.Random(28)
    graphs = [AttributedGraph(num_nodes=0), AttributedGraph(num_nodes=4)]
    graphs += [_antiparallel_graph(rng) for _ in range(300)]
    twice = isolated = 0
    for g in graphs:
        runs = csr_runs(adjacency(g))
        assert runs == undirected_adjacency(g.num_nodes, g.edges)
        assert adjacency(g).offsets[-1] == 2 * g.num_edges
        # A pair linked both ways lists the neighbour twice, in edge-id order.
        twice += sum(len(run) != len({v for v, _ in run}) for run in runs)
        isolated += sum(not run for run in runs)
    assert twice >= 20 and isolated >= 20


def test_neighbor_index_keeps_a_bounded_number_of_bytes_per_edge():
    g = power_law_graph(20_000, 2, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        adjacency(g)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Tuples of (neighbour, edge id) pairs kept about 171 bytes an edge.
    assert kept / g.num_edges <= 64


def test_equal_attribute_rows_of_a_large_graph_share_one_tuple():
    n = 3000
    edges = tuple((v, v + 1) for v in range(n - 1))
    doc = {
        "num_nodes": n,
        "edges": [list(e) for e in edges],
        "node_attrs": [[v % 3, 1] for v in range(n)],
        "edge_attrs": [[v % 4] for v in range(n - 1)],
    }
    g = AttributedGraph.from_json(doc)
    assert len({id(row) for row in g.node_attrs}) == 3
    assert len({id(row) for row in g.edge_attrs}) == 4
    assert g.node_attrs == tuple(map(tuple, doc["node_attrs"]))
    assert g.edge_attrs == tuple(map(tuple, doc["edge_attrs"]))
    # A refusal still names the row as given, though it equals another as a tuple.
    doc["edge_attrs"][2000] = [True]
    with pytest.raises(GraphFormatError, match="^edge 2000: attribute True is not an integer"):
        AttributedGraph.from_json(doc)


def test_cached_adjacency_leaves_equality_hash_and_repr_alone():
    rng = random.Random(12)
    for _ in range(20):
        g = random_graph(rng)
        twin = AttributedGraph.from_json(g.to_json())
        before = (hash(g), repr(g))
        adjacency(g)
        assert g == twin and twin == g
        assert (hash(g), repr(g)) == before == (hash(twin), repr(twin))


def test_json_roundtrip_identity():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng)
        assert AttributedGraph.from_json(g.to_json()) == g


def test_json_roundtrip_through_file(tmp_path):
    rng = random.Random(5)
    g = random_graph(rng)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    assert load_graph(path) == g


def test_jsonl_roundtrip_counts_blank_lines(tmp_path):
    rng = random.Random(8)
    graphs = [random_graph(rng) for _ in range(3)]
    path = tmp_path / "g.jsonl"
    write_jsonl(path, (g.to_json() for g in graphs))
    assert list(iter_graphs_jsonl(path)) == graphs
    path.write_text(path.read_text().replace("\n", "\n\n", 1) + '{"edges": []}\n')
    with pytest.raises(GraphFormatError, match="line 5: missing required key 'num_nodes'"):
        list(read_jsonl(path, AttributedGraph.from_json))


def test_crlf_jsonl_and_tsv_files_read_as_their_lf_twins(tmp_path):
    rng = random.Random(9)
    graphs = [random_graph(rng) for _ in range(3)]
    jsonl = tmp_path / "g.jsonl"
    write_jsonl(jsonl, (g.to_json() for g in graphs))
    jsonl.write_bytes(jsonl.read_bytes().replace(b"\n", b"\r\n"))
    assert list(iter_graphs_jsonl(jsonl)) == graphs
    edges, partition = tmp_path / "edges.tsv", tmp_path / "partition.tsv"
    edges.write_bytes(b"0\t1\r\n1\t2\r\n# note\r\n\r\n2\t3\r\n")
    assert load_graph(edges, format="edge-tsv").edges == ((0, 1), (1, 2), (2, 3))
    partition.write_bytes(b"0\t0\r\n1\t0\r\n2\t1\r\n")
    assert load_partition(partition) == [0, 0, 1]


def test_a_malformed_edge_of_a_column_graph_is_refused_by_index():
    edges = [[i, i + 1] for i in range(_COLUMN_MIN_EDGES)] + [7]
    with pytest.raises(GraphFormatError) as info:
        graph_record({"num_nodes": _COLUMN_MIN_EDGES + 1, "edges": edges})
    assert str(info.value) == f"edge {_COLUMN_MIN_EDGES}: expected a [src, dst] pair, not 7"


def test_ingest_quantization():
    assert quantize_attrs([[0.165]], scale=1000, offset=-1) == [[164]]
    assert quantize_attrs([[0.001]], scale=1000, offset=-1) == [[0]]


def test_ingest_quantization_from_file(tmp_path):
    doc = {
        "num_nodes": 2,
        "edges": [[0, 1]],
        "edge_attrs": [[0.165, 0.001]],
    }
    path = tmp_path / "cont.json"
    path.write_text(json.dumps(doc))
    g = load_graph(path, edge_scale=1000, edge_offset=-1)
    assert g.edge_attrs == ((164, 0),)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data())
def test_component_count_matches_edgeless_nodes(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            unique=True,
            max_size=n,
        )
    )
    g = AttributedGraph(num_nodes=n, edges=tuple(pairs))
    comps = connected_components(g)
    assert sum(len(c) for c in comps) == n
    # a graph with no edges has exactly n components
    if not pairs:
        assert len(comps) == n


# --- bulk edge check against the per-edge loop ---------------------------


def _per_edge_check(num_nodes, edges, directed):
    """The per-edge loop that validated every edge before the bulk check;
    kept as the reference for its verdicts and messages."""
    seen = set()
    for src, dst in edges:
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            raise GraphFormatError(f"node id out of range in edge ({src}, {dst})")
        if src == dst:
            raise GraphFormatError(f"self-loop at node {src}")
        key = (src, dst) if directed else (min(src, dst), max(src, dst))
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({src}, {dst})")
        seen.add(key)


@st.composite
def _edge_lists(draw):
    """A node count, a direction flag and an edge list: either any pairs
    over ids from -2 to n+1, or distinct valid pairs with at most one
    fault (an out-of-range or negative id, a self-loop, a duplicate or a
    reversed duplicate) put in at a random place."""
    n = draw(st.integers(0, 8))
    directed = draw(st.booleans())
    if draw(st.booleans()):
        ids = st.integers(-2, n + 1)
        return n, directed, draw(st.lists(st.tuples(ids, ids), max_size=12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) and not directed else (u, v) for u, v in edges]
    fault = draw(st.sampled_from(["none", "out-of-range", "negative", "self-loop", "duplicate", "reversed"]))
    u = draw(st.integers(0, max(n - 1, 0)))
    bad = {
        "none": None,
        "out-of-range": (u, n + draw(st.integers(0, 2))),
        "negative": (draw(st.integers(-3, -1)), u),
        "self-loop": (u, u),
        "duplicate": edges[0] if edges else None,
        "reversed": edges[0][::-1] if edges else None,
    }[fault]
    if bad is not None:
        if draw(st.booleans()):
            bad = bad[::-1]
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, directed, edges


def _verdict(check, *args):
    try:
        check(*args)
    except GraphFormatError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(_edge_lists())
def test_bulk_edge_check_matches_the_per_edge_loop(case):
    n, directed, edges = case
    expected = _verdict(_per_edge_check, n, tuple(edges), directed)
    assert _verdict(check_edges, n, tuple(edges), directed) == expected
    assert _verdict(AttributedGraph, n, edges, directed) == expected


@settings(max_examples=300, deadline=None)
@given(_edge_lists(), st.data())
def test_edge_tsv_faults_name_their_file_line(tmp_path_factory, case, data):
    # An edge list's faults come from check_edges, under the node count its
    # largest id implies; blank and comment lines move each edge's file line.
    _, _, edges = case
    text, lines = [], []
    for src, dst in edges:
        text += data.draw(st.lists(st.sampled_from(["", "   ", "# src\tdst"]), max_size=2))
        text.append(f"{src}\t{dst}")
        lines.append(len(text))
    path = tmp_path_factory.getbasetemp() / "edges.tsv"
    path.write_text("".join(line + "\n" for line in text))
    n = max(max((max(e) for e in edges), default=-1) + 1, 0)
    first_bad = next((i for i in range(len(edges)) if _verdict(_per_edge_check, n, edges[: i + 1], False)), None)
    if first_bad is None:
        g = load_graph(path, format="edge-tsv")
        assert (g.num_nodes, g.edges) == (n, tuple(edges))
        return
    with pytest.raises(GraphFormatError) as info:
        load_graph(path, format="edge-tsv")
    line = lines[first_bad]
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {_verdict(_per_edge_check, n, edges, False)}"


# --- values must be integers ----------------------------------------------


@pytest.mark.parametrize(
    "doc, message",
    [
        # Read as a directed graph with edge (0, 1) and attribute 1 before.
        (
            {"num_nodes": 3, "edges": [[0, 1.7], [1, 2]], "node_attrs": [[1.9], [2], [3]],
             "directed": "false"},
            "edge 0: node id 1.7 is not an integer",
        ),
        ({"num_nodes": 2.9, "edges": []}, "num_nodes 2.9 is not an integer"),
        (
            {"num_nodes": 3, "edges": [[0, 1], [1, 2]], "node_attrs": [[1], [2.5], [3]]},
            "node 1: attribute 2.5 is not an integer; quantize continuous attributes with "
            "`graphseq ingest --node-scale/--node-offset`",
        ),
        (
            {"num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [["4"]]},
            "edge 0: attribute '4' is not an integer; quantize continuous attributes with "
            "`graphseq ingest --edge-scale/--edge-offset`",
        ),
        ({"num_nodes": 2, "edges": [[0, True]]}, "edge 0: node id True is not an integer"),
        (
            {"num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [[1]], "attr_defaults": {"edge": [0.0]}},
            "edge attr_defaults: value 0.0 is not an integer",
        ),
        ({"num_nodes": 3, "edges": [[0, 1]], "directed": "false"}, "directed must be true or false, got 'false'"),
        ({"num_nodes": 3, "directed": None}, "directed must be true or false, got None"),
        ({"num_nodes": 3, "directed": 1}, "directed must be true or false, got 1"),
    ],
)
def test_non_integer_graph_json_is_rejected_with_its_line(tmp_path, doc, message):
    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps({"num_nodes": 1}) + "\n" + json.dumps(doc) + "\n")
    with pytest.raises(GraphFormatError, match=re.escape(f"line 2: {message}")):
        list(read_jsonl(path, graph_record))


def test_integer_types_convert_and_floats_fail_from_python():
    g = AttributedGraph(num_nodes=np.int64(2), edges=[(np.int32(0), 1)], node_attrs=[[np.int64(3)], [4]])
    assert g == AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=((3,), (4,)))
    assert {type(v) for v in (g.num_nodes, *g.edges[0], *g.node_attrs[0])} == {int}
    with pytest.raises(GraphFormatError, match="node 0: attribute 3.0 is not an integer"):
        AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[3.0], [4]])


# --- edges in columns -------------------------------------------------------

# One size below the column threshold and one at it; a graph of the
# second keeps an EdgeList, of the first a tuple, and both must read,
# compare and refuse alike.
EDGE_STORAGE = [(_COLUMN_MIN_EDGES - 1, tuple), (_COLUMN_MIN_EDGES, EdgeList)]


def _path_with(size: int, fault: tuple) -> list:
    """A path over ``size`` nodes with ``fault`` put in at the middle:
    ``size`` edges in all, the fault's index ``size // 2``."""
    edges = [(v, v + 1) for v in range(size - 1)]
    edges.insert(size // 2, fault)
    return edges


# (fault edge over a path of n nodes, message of the refusal, whether an
# edge-TSV refuses it alike: there a bool or a float is no integer to
# parse, and an id past the largest only adds nodes)
EDGE_FAULTS = [
    pytest.param(lambda n: (0, True), "edge {i}: node id True is not an integer", False, id="bool"),
    pytest.param(lambda n: (0, 1.5), "edge {i}: node id 1.5 is not an integer", False, id="float"),
    pytest.param(lambda n: (0, n), "node id out of range in edge (0, {n})", False, id="too-large"),
    pytest.param(lambda n: (-1, 0), "node id out of range in edge (-1, 0)", True, id="negative"),
    pytest.param(lambda n: (2, 2), "self-loop at node 2", True, id="self-loop"),
    pytest.param(lambda n: (0, 1), "duplicate edge (0, 1)", True, id="duplicate"),
    pytest.param(lambda n: (1, 0), "duplicate edge (1, 0)", True, id="antiparallel"),
]


@pytest.mark.parametrize("size", [5] + [size for size, _ in EDGE_STORAGE])
@pytest.mark.parametrize("fault, message, in_tsv", EDGE_FAULTS)
def test_edge_refusals_read_alike_in_tuples_and_columns(tmp_path, size, fault, message, in_tsv):
    edges = _path_with(size, fault(size))
    message = message.format(i=size // 2, n=size)
    with pytest.raises(GraphFormatError) as direct:
        AttributedGraph(num_nodes=size, edges=edges)
    assert (str(direct.value), direct.value.line) == (message, None)

    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps({"num_nodes": 1}) + "\n" + json.dumps({"num_nodes": size, "edges": edges}) + "\n")
    with pytest.raises(GraphFormatError) as record:
        list(read_jsonl(path, graph_record))
    assert (str(record.value), record.value.line) == (f"line 2: {message}", 2)

    if in_tsv:
        path = tmp_path / "g.tsv"
        path.write_text("# src\tdst\n" + "".join(f"{src}\t{dst}\n" for src, dst in edges))
        with pytest.raises(GraphFormatError) as tsv:
            load_graph(path, format="edge-tsv")
        line = size // 2 + 2
        assert (str(tsv.value), tsv.value.line) == (f"line {line}: {message}", line)


@pytest.mark.parametrize("size, stored", EDGE_STORAGE)
def test_directed_antiparallel_edges_pass_in_tuples_and_columns(size, stored):
    g = AttributedGraph(num_nodes=size, edges=_path_with(size, (1, 0)), directed=True)
    assert type(g.edges) is stored and g.edges[size // 2] == (1, 0)


@pytest.mark.parametrize("size, stored", EDGE_STORAGE)
def test_column_stored_graphs_behave_as_tuple_stored_ones(size, stored):
    rng = random.Random(size)
    n = size // 2
    pairs = set()
    while len(pairs) < size:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    pairs = list(pairs)
    rng.shuffle(pairs)
    pairs = tuple(pairs)
    doc = {
        "directed": False,
        "num_nodes": n,
        "edges": [list(e) for e in pairs],
        "node_attrs": [],
        "edge_attrs": [[rng.randint(0, 3)] for _ in pairs],
        "attr_defaults": {"node": [], "edge": [0]},
    }
    text = json.dumps(doc)
    g = AttributedGraph.from_json(doc)
    assert json.dumps(doc) == text  # from_json leaves its argument alone
    assert type(g.edges) is stored and len(g.edges) == size
    # The same graph keeping a tuple of pairs, built as with_node_attrs does.
    twin = object.__new__(AttributedGraph)
    vars(twin).update(vars(g), edges=pairs)

    assert g.edges == pairs and pairs == g.edges and not g.edges != pairs
    assert g.edges != pairs[:-1] and pairs[:-1] != g.edges and g.edges != list(pairs)
    assert hash(g.edges) == hash(pairs)
    assert g == twin and twin == g and hash(g) == hash(twin)
    assert g == graph_record(json.loads(text)) and hash(g) == hash(graph_record(json.loads(text)))
    assert g != replace(g, edges=pairs[:-1], edge_attrs=g.edge_attrs[:-1])
    for i in (0, 1, size // 2, size - 1, -1, -size):
        assert g.edges[i] == pairs[i] and type(g.edges[i]) is tuple
    with pytest.raises(IndexError):
        g.edges[size]
    for cut in (slice(3, 10), slice(None, None, -1), slice(-5, None), slice(7, 7)):
        assert g.edges[cut] == pairs[cut] and tuple(g.edges[cut]) == pairs[cut]
    assert tuple(g.edges) == pairs and list(iter(g.edges)) == list(pairs)
    assert pairs[5] in g.edges and (n, 0) not in g.edges
    assert repr(g.edges) == repr(pairs) and repr(g) == repr(twin)

    assert json.dumps(g.to_json()) == json.dumps(twin.to_json()) == text
    same = replace(g)  # keeps the columns as they are, where a tuple is rebuilt
    assert same == g and (same.edges is g.edges) == (stored is EdgeList)
    coded = g.with_node_attrs([[v % 5] for v in range(n)], [0])
    assert coded.edges is g.edges and coded.edge_attrs is g.edge_attrs
    assert csr_runs(adjacency(g)) == undirected_adjacency(n, pairs)


def test_a_record_owned_by_the_reader_is_freed_before_the_checks(tmp_path):
    # A preferential-attachment parent with one edge attribute, as perfbench's
    # ego parent. Tuples of pairs kept 123 bytes an edge, and the decoded
    # document's per-edge lists, alive through the checks, peaked at 407.
    g = power_law_graph(20_000, 2, 29)
    assert g.num_edges >= _COLUMN_MIN_EDGES
    rng = random.Random(29)
    doc = g.to_json()
    doc["edge_attrs"] = [[rng.randint(0, 3)] for _ in range(g.num_edges)]
    path = tmp_path / "parent.jsonl"
    write_jsonl(path, [doc])
    del doc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        (parsed,) = iter_graphs_jsonl(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.edges == g.edges and type(parsed.edges) is EdgeList
    assert (kept - before) / g.num_edges <= 48
    assert (peak - before) / g.num_edges <= 320


# --- a value of the wrong JSON kind ------------------------------------------

# Attribute rows two wide, so neither [1] nor [[1.5]] is a valid value of
# any array key below; a sample's root_nodes of [1] stays valid, with its
# graph unchanged.
_GRAPH_DOC = {
    "num_nodes": 3, "edges": [[0, 1], [1, 2]], "node_attrs": [[1, 0], [2, 0], [3, 0]],
    "edge_attrs": [[4, 1], [5, 1]], "attr_defaults": {"node": [0, 0], "edge": [0, 1]},
}
_SAMPLE_DOC = {"graph": _GRAPH_DOC, "root_nodes": [0, 1], "origin_ids": [7, 8, 9]}
_MUTANTS = (0, False, "", {}, 5, "x", None, [1], [[1.5]])
# Per array key, the word every refusal of a mutant there must hold: the
# key itself, or the name of the row or value at fault.
_NAMED_BY = {"edges": "edge", "node_attrs": "node", "edge_attrs": "edge", "node": "node attr_defaults",
             "edge": "edge attr_defaults", "root_nodes": "root", "origin_ids": "origin"}


def _array_paths(doc: dict, path: tuple = ()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _array_paths(value, (*path, key))
        elif isinstance(value, list):
            yield (*path, key)


def _mutated(doc: dict, path: tuple, value) -> str:
    """``doc`` as JSON text with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("doc, readers", [
    (_GRAPH_DOC, (AttributedGraph.from_json, graph_record)),
    (_SAMPLE_DOC, (SubgraphSample.from_json, graph_record)),
], ids=["graph", "sample"])
def test_every_array_key_refuses_a_value_of_another_kind_by_name(doc, readers):
    original = AttributedGraph.from_json(_GRAPH_DOC)
    paths = list(_array_paths(doc))
    assert len(paths) == (5 if doc is _GRAPH_DOC else 7)
    for path in paths:
        for value in _MUTANTS:
            for read in readers:
                try:
                    got = decode_json(_mutated(doc, path, value), read, line=2)
                except GraphFormatError as exc:
                    assert exc.line == 2 and _NAMED_BY[path[-1]] in str(exc), (path, value, str(exc))
                else:
                    assert getattr(got, "graph", got) == original, (path, value)


def test_a_large_records_edge_attrs_of_another_kind_are_refused_by_name():
    # graph_record swaps a large record's edge attribute rows for tuples
    # before construction; before, {} and "" swapped to no rows at all.
    n = _COLUMN_MIN_EDGES
    for value in _MUTANTS:
        doc = {"num_nodes": n + 1, "edges": [[v, v + 1] for v in range(n)], "edge_attrs": value}
        with pytest.raises(GraphFormatError, match="^edge"):
            graph_record(doc)
