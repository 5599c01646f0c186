import hashlib
import json
import random
import sys

import pytest

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    build_multigraph,
    detokenize,
    extract_path,
    serialize_graph,
    tokenize,
)
from graphseq.tokenizer import LAYOUTS, TokenGrid
from graphseq.vocab import build_vocab

from conftest import random_graph, vocab_for
from oracle import isomorphic, prolonged_grid


def _roundtrip(g, layout, seed=0, cfg=None):
    cfg = cfg or ReindexConfig()
    vocab = vocab_for(g, cfg=cfg)
    grid = serialize_graph(g, vocab, layout, cfg, seed)
    return detokenize(
        grid,
        vocab,
        node_attr_width=g.node_attr_width,
        edge_attr_width=g.edge_attr_width,
        node_defaults=g.node_defaults or None,
        edge_defaults=g.edge_defaults or None,
    )


def test_triangle_roundtrip_is_clean(c3):
    report = _roundtrip(c3, "prolonged")
    assert isomorphic(report.graph, c3)
    assert report.dropped_jump_edges == 0
    assert report.deduplicated_edges == 0


def test_star_dedup_count_matches_minimal_eulerization(k13):
    # one edge is duplicated by the minimal repair (brute-force oracle in
    # test_euler), so exactly one traversal collapses
    report = _roundtrip(k13, "prolonged")
    assert isomorphic(report.graph, k13)
    assert report.deduplicated_edges == 1


def test_jump_edges_are_dropped(two_triangles):
    report = _roundtrip(two_triangles, "prolonged")
    assert report.dropped_jump_edges == 1
    assert isomorphic(report.graph, two_triangles)


def test_molecule_fixture_sequence(molpcba_fixture):
    expected = AttributedGraph.from_json(molpcba_fixture["graph"])
    vocab = build_vocab([expected], molpcba_fixture["dataset_tag"], ReindexConfig())
    grid = prolonged_grid(molpcba_fixture["tokens"], vocab)
    report = detokenize(grid, vocab, node_attr_width=9, edge_attr_width=3)
    assert report.graph.num_nodes == 4
    assert report.graph.num_edges == 3
    # tokens '1' and '2' become local nodes 0 and 1
    assert report.graph.edges[0] == (0, 1)
    assert report.graph.edge_attrs[0] == (1, 0, 0)
    assert report.deduplicated_edges == 1
    assert isomorphic(report.graph, expected)


def test_layout_agnostic_reconstruction():
    rng = random.Random(3)
    for i in range(25):
        g = random_graph(rng)
        cfg = ReindexConfig()
        vocab = vocab_for(g, cfg=cfg)
        mg = build_multigraph(g, i)
        path = extract_path(mg, i)
        kwargs = dict(
            node_attr_width=g.node_attr_width,
            edge_attr_width=g.edge_attr_width,
            node_defaults=g.node_defaults or None,
            edge_defaults=g.edge_defaults or None,
        )
        graphs = [
            detokenize(tokenize(path, mg, vocab, layout, cfg, i), vocab, **kwargs).graph
            for layout in ("short", "long", "prolonged")
        ]
        assert graphs[0] == graphs[1] == graphs[2]


def test_roundtrip_property_random_graphs():
    rng = random.Random(11)
    for i in range(80):
        g = random_graph(rng)
        layout = ("short", "long", "prolonged")[i % 3]
        report = _roundtrip(g, layout, seed=i)
        assert isomorphic(report.graph, g), f"roundtrip failed for case {i}"


def test_inline_style_roundtrip():
    g = AttributedGraph(
        num_nodes=3,
        edges=((0, 1), (1, 2)),
        node_attrs=[[17, 3], [20, 1], [17, 2]],
        node_defaults=(-1, -1),
    )
    cfg = ReindexConfig()
    vocab = build_vocab([g], "ppa", cfg, node_attr_style="inline")
    grid = serialize_graph(g, vocab, "prolonged", cfg, 5)
    report = detokenize(grid, vocab, node_attr_width=2, node_defaults=(-1, -1))
    assert isomorphic(report.graph, g)


# --- malformed grids ------------------------------------------------------


def _tiny_vocab():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[3], [0]])
    return vocab_for(g), g


def test_dangling_attribute_tokens_rejected():
    vocab, g = _tiny_vocab()
    marker = vocab.id("test#node#0#1")
    grid = TokenGrid.from_rows(
        "prolonged",
        1,
        ((marker,), (vocab.id("0"),)),
        (("node-attr",), ("node",)),
    )
    with pytest.raises(ValueError, match="dangling"):
        detokenize(grid, vocab)


def test_marker_without_digits_rejected():
    vocab, g = _tiny_vocab()
    marker = vocab.id("test#node#0#1")
    grid = TokenGrid.from_rows(
        "prolonged",
        1,
        ((vocab.id("0"),), (marker,), (vocab.id("1"),)),
        (("node",), ("node-attr",), ("node",)),
    )
    with pytest.raises(ValueError, match="marker without digits"):
        detokenize(grid, vocab)


def _node_block_grid(vocab, block):
    """Prolonged grid 0, block, 1 with ``block`` the first node's attribute run."""
    tokens = [vocab.id("0"), *map(vocab.id, block), vocab.id("1")]
    roles = ["node"] + ["node-attr"] * len(block) + ["node"]
    return TokenGrid.from_rows("prolonged", 1, zip(tokens), zip(roles))


@pytest.mark.parametrize("run", ["3.1", "-", "5-3", "--1"])
def test_decimal_point_in_a_digit_run_is_rejected(run):
    vocab, g = _tiny_vocab()
    grid = _node_block_grid(vocab, ["test#node#0#1", *(f"<{ch}>" for ch in run)])
    with pytest.raises(ValueError, match=f"^malformed attribute run: non-integer value '{run}'$"):
        detokenize(grid, vocab)


def test_repeated_dimension_in_a_block_is_rejected():
    vocab, g = _tiny_vocab()
    grid = _node_block_grid(vocab, ["test#node#0#1", "<5>", "test#node#0#1", "<9>"])
    with pytest.raises(ValueError, match="dimension 0 repeated in node block"):
        detokenize(grid, vocab)
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[5], [7]])
    vocab = vocab_for(g, node_attr_style="inline")
    grid = _node_block_grid(vocab, ["test#node#0#5", "test#node#0#7"])
    with pytest.raises(ValueError, match="dimension 0 repeated in node block"):
        detokenize(grid, vocab)


def test_an_attribute_dimension_past_the_given_width_is_rejected():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[3, 4], [0, 0]])
    vocab = vocab_for(g)
    grid = _node_block_grid(vocab, ["test#node#1#1", "<4>"])
    assert detokenize(grid, vocab).graph.node_attrs == ((0, 4), (0, 0))
    with pytest.raises(ValueError, match="^node attribute dimension 1 outside width 1$"):
        detokenize(grid, vocab, node_attr_width=1)


@pytest.mark.parametrize("sign", ["", "-"])
def test_a_digit_run_past_the_integer_limit_is_named_by_its_length(sign):
    vocab, g = _tiny_vocab()
    limit = sys.get_int_max_str_digits()
    grid = _node_block_grid(vocab, ["test#node#0#1", *(f"<{ch}>" for ch in sign + "7" * 5000)])
    want = f"malformed attribute run: 5000-digit value exceeds Python's {limit}-digit integer limit"
    with pytest.raises(ValueError) as exc:
        detokenize(grid, vocab)
    assert str(exc.value) == want


def test_leading_digit_in_prolonged_tokens_is_refused():
    vocab, g = _tiny_vocab()
    grid = prolonged_grid(["<5>", "0", "test#node#0#1", "<3>", "1"], vocab)
    with pytest.raises(ValueError, match="^dangling attribute tokens before any node token$"):
        detokenize(grid, vocab)
    grid = prolonged_grid(["0", "test#node#0#1", "<3>", "1"], vocab)
    assert detokenize(grid, vocab).graph.node_attrs == ((3,), (0,))


# --- lenient branches: kept first block, counts and warnings --------------


def _lenient_vocab():
    g = AttributedGraph(
        num_nodes=3, edges=((0, 1), (1, 2)), node_attrs=[[3], [0], [0]], edge_attrs=[[2], [0]]
    )
    return vocab_for(g)


def test_node_visits_with_different_blocks_keep_the_first():
    vocab = _lenient_vocab()
    tokens = ["0", "test#node#0#1", "<3>", "1", "0", "test#node#0#1", "<5>"]
    report = detokenize(prolonged_grid(tokens, vocab), vocab)
    assert report.graph.node_attrs == ((3,), (0,))
    assert report.graph.edges == ((0, 1),)
    assert (report.deduplicated_edges, report.dropped_jump_edges) == (1, 0)
    assert report.warnings == ("conflicting attribute blocks for node 0; keeping the first",)


def test_edge_traversals_with_different_blocks_keep_the_first():
    vocab = _lenient_vocab()
    tokens = ["0", "test#edge#0#1", "<2>", "1", "test#edge#0#1", "<4>", "0"]
    report = detokenize(prolonged_grid(tokens, vocab), vocab)
    assert report.graph.edges == ((0, 1),)
    assert report.graph.edge_attrs == ((2,),)
    assert (report.deduplicated_edges, report.dropped_jump_edges) == (1, 0)
    assert report.warnings == ("conflicting attribute blocks for edge (0, 1); keeping the first",)


def test_edge_block_on_a_jump_step_is_discarded():
    vocab = _lenient_vocab()
    tokens = ["0", "1", "[EDGE_JUMP]", "test#edge#0#1", "<2>", "2"]
    report = detokenize(prolonged_grid(tokens, vocab), vocab)
    assert report.graph.num_nodes == 3
    assert report.graph.edges == ((0, 1),)
    assert report.graph.edge_attrs == ((0,),)
    assert (report.deduplicated_edges, report.dropped_jump_edges) == (0, 1)
    assert report.warnings == ("attribute tokens on a jump edge were discarded",)


def test_special_token_in_node_cell_rejected():
    vocab, g = _tiny_vocab()
    grid = TokenGrid.from_rows(
        "prolonged",
        1,
        ((vocab.jump_id,),),
        (("node",),),
    )
    with pytest.raises(ValueError, match="edge-type token"):
        detokenize(grid, vocab)


def test_trailing_edge_tokens_rejected():
    vocab, g = _tiny_vocab()
    grid = TokenGrid.from_rows(
        "prolonged",
        1,
        ((vocab.id("0"),), (vocab.jump_id,)),
        (("node",), ("edge-type",)),
    )
    with pytest.raises(ValueError, match="after the final node"):
        detokenize(grid, vocab)


def _relabel(grid: TokenGrid, role: str, new_role, new_token) -> TokenGrid:
    """The grid with the second cell claiming ``role`` given a new role or token."""
    doc = json.loads(json.dumps(grid.to_json()))  # to_json shares the grid's tuples
    cells = [(r, c) for r, row in enumerate(doc["roles"]) for c, x in enumerate(row) if x == role]
    r, c = cells[1]
    if new_role is not None:
        doc["roles"][r][c] = new_role
    if new_token is not None:
        doc["tokens"][r][c] = new_token
    return TokenGrid.from_json(doc)


_MISFIT_CELLS = {  # case -> (role of the cell, its new role, its new token, error text)
    "node-as-pad": ("node", "pad", None, "in a pad cell"),
    "edge-type-as-pad": ("edge-type", "pad", None, "in a pad cell"),
    "index-in-edge-type": ("edge-type", None, "0", "in an edge-type cell"),
    # [p] has the first id past the structural ones.
    "pad-in-node": ("node", None, "[p]", r"token '\[p\]' in a node cell"),
    "unknown-role": ("node", "vertex", None, "unknown cell role"),
}


@pytest.mark.parametrize("layout", ["prolonged", "short", "long"])
@pytest.mark.parametrize("case", list(_MISFIT_CELLS))
def test_cell_whose_token_misfits_its_role_is_rejected(case, layout):
    # Unchecked, each misfit reads back as another graph: an edge lost, or
    # one reversed.
    g = AttributedGraph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), directed=True)
    cfg = ReindexConfig()
    vocab = vocab_for(g, cfg=cfg)
    grid = serialize_graph(g, vocab, layout, cfg, 3)
    assert isomorphic(detokenize(grid, vocab).graph, g)
    role, new_role, new_token, text = _MISFIT_CELLS[case]
    bad = _relabel(grid, role, new_role, new_token and vocab.id(new_token))
    with pytest.raises(ValueError, match=text):
        detokenize(bad, vocab)


@pytest.mark.parametrize("bad_id", [-2, "2", 10**6])
def test_token_id_outside_the_vocabulary_is_rejected(bad_id):
    # Unchecked, -2 indexes from the end and reads as the digit <9>; the
    # others raise TypeError or IndexError, which the CLI cannot place on a line.
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), edge_attrs=[[2]])
    vocab = vocab_for(g)
    grid = serialize_graph(g, vocab, "prolonged", ReindexConfig(), 0)
    digit = next(r for r, (role,) in enumerate(grid.roles) if role == "edge-attr") + 1
    doc = json.loads(json.dumps(grid.to_json()))  # to_json shares the grid's tuples
    doc["tokens"][digit] = [bad_id]
    with pytest.raises(ValueError, match="outside the vocabulary"):
        detokenize(TokenGrid.from_json(doc), vocab)


# SHA-256 of the decoded reports (graph, counts and warnings) of 150
# random graphs in every layout, under all four attribute style pairs and,
# for every other pair of draws, the widths and defaults roundtrip_report
# passes. Any change to decoded node or edge order, attribute vectors,
# defaults or counts changes it.
DECODED_REPORTS_DIGEST = "56d8f34dd336d44dcbc85f46a41a2c9307cf83bab71c4e15cc6fc56e5535b3ec"


def test_decoded_reports_are_pinned():
    rng = random.Random(1919)
    styles = ("digits", "inline")
    kinds = set()
    digest = hashlib.sha256()
    for i in range(150):
        g = random_graph(rng, n_max=16)
        cfg = ReindexConfig(seed=i)
        vocab = vocab_for(g, cfg=cfg, node_attr_style=styles[i % 2], edge_attr_style=styles[i // 2 % 2])
        explicit = {}
        if i // 4 % 2:
            explicit = {
                "node_attr_width": g.node_attr_width,
                "edge_attr_width": g.edge_attr_width,
                "node_defaults": g.node_defaults or None,
                "edge_defaults": g.edge_defaults or None,
            }
        for layout in LAYOUTS:
            report = detokenize(serialize_graph(g, vocab, layout, cfg, i), vocab, **explicit)
            kinds.add((g.directed, report.deduplicated_edges > 0, report.dropped_jump_edges > 0))
            digest.update(json.dumps(report.to_json()).encode() + b"\n")
    assert {k[0] for k in kinds} == {False, True}
    assert {k[1] for k in kinds} == {False, True}
    assert {k[2] for k in kinds} == {False, True}
    assert digest.hexdigest() == DECODED_REPORTS_DIGEST


# --- isomorphism oracle ---------------------------------------------------


def test_relabeled_triangle_is_isomorphic(c3):
    relabeled = AttributedGraph(num_nodes=3, edges=((2, 1), (0, 2), (1, 0)))
    assert isomorphic(c3, relabeled)


def test_path_equals_star_minus_edge(p3):
    other = AttributedGraph(num_nodes=3, edges=((1, 0), (1, 2)))
    assert isomorphic(p3, other)


def test_cycle_vs_star_differ():
    c4 = AttributedGraph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))
    k13 = AttributedGraph(num_nodes=4, edges=((0, 1), (0, 2), (0, 3)))
    assert not isomorphic(c4, k13)


def test_attribute_mismatch_breaks_isomorphism():
    a = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[1], [2]])
    b = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[1], [3]])
    assert not isomorphic(a, b)


def test_edge_attribute_mismatch_breaks_isomorphism():
    a = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), edge_attrs=[[1], [2]])
    b = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), edge_attrs=[[2], [1]])
    # still isomorphic: swapping the endpoints maps the attrs correctly
    assert isomorphic(a, b)
    c = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), edge_attrs=[[1], [1]])
    assert not isomorphic(a, c)


def test_direction_matters():
    a = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), directed=True)
    b = AttributedGraph(num_nodes=3, edges=((0, 1), (2, 1)), directed=True)
    assert not isomorphic(a, b)


def test_oracle_rejects_large_inputs():
    g = AttributedGraph(num_nodes=13, edges=tuple((i, i + 1) for i in range(12)))
    with pytest.raises(ValueError, match="limited"):
        isomorphic(g, g)


def test_directed_roundtrip_recovers_orientation():
    g = AttributedGraph(
        num_nodes=4, edges=((0, 1), (1, 2), (3, 1)), directed=True, edge_attrs=[[1], [2], [3]]
    )
    report = _roundtrip(g, "prolonged", seed=9)
    assert report.graph.directed
    assert isomorphic(report.graph, g)
