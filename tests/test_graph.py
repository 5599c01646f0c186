import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphseq import AttributedGraph, GraphFormatError, adjacency, connected_components, load_graph
from graphseq.graph import (
    check_edges,
    graph_record,
    iter_graphs_jsonl,
    quantize_attrs,
    read_jsonl,
    undirected_adjacency,
    write_jsonl,
)

from conftest import random_graph


def test_load_json_path_graph(tmp_path):
    doc = {"directed": False, "num_nodes": 3, "edges": [[0, 1], [1, 2]]}
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(doc))
    g = load_graph(path)
    assert g.num_nodes == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.node_attr_width == 0 and g.edge_attr_width == 0


def test_load_edge_tsv(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n1\t2\n2\t3\n")
    g = load_graph(path, format="edge-tsv")
    assert g.num_nodes == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_edge_tsv_duplicate_row_is_an_error(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("0\t1\n0\t1\n")
    with pytest.raises(GraphFormatError, match="line 2.*duplicate edge"):
        load_graph(path, format="edge-tsv")


def test_load_molecule_fixture(molpcba_fixture):
    g = AttributedGraph.from_json(molpcba_fixture["graph"])
    assert g.num_nodes == 4
    assert g.num_edges == 3
    assert g.node_attr_width == 9
    assert g.edge_attr_width == 3
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


def test_adjacency_is_built_once_per_graph(two_triangles):
    adj = adjacency(two_triangles)
    assert adj is adjacency(two_triangles)
    assert adj == undirected_adjacency(6, two_triangles.edges)
    # replace() makes a new graph, which builds its own adjacency.
    chained = replace(two_triangles, edges=two_triangles.edges + ((2, 3),))
    assert adjacency(chained) == undirected_adjacency(6, chained.edges)
    assert adjacency(chained) is not adj
    assert connected_components(chained) == [set(range(6))]


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
