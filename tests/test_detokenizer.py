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
from graphseq.vocab import Vocabulary, build_vocab

from conftest import random_connected_graph, random_graph, vocab_for
from oracle import isomorphic, prolonged_grid


def _roundtrip(g, layout, seed=0, cfg=None):
    cfg = cfg or ReindexConfig()
    vocab = vocab_for(g, cfg=cfg)
    grid = serialize_graph(g, vocab, layout, cfg, seed)
    return detokenize(grid, vocab)


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
    report = detokenize(grid, vocab)
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
        graphs = [
            detokenize(tokenize(path, mg, vocab, layout, cfg, i), vocab).graph
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
    report = detokenize(grid, vocab)
    assert isomorphic(report.graph, g)


def _with_rows(rng, g, node_width, edge_width, node_defaults, edge_defaults):
    """``g``'s structure with rows of the given widths under the first of
    the defaults. Every dimension but the last of each kind draws its
    default half the time; the last always holds it."""
    def rows(count, width, defaults):
        return [[rng.choice((d, rng.randint(-9, 9))) for d in defaults[:width - 1]] + list(defaults[width - 1:width])
                for _ in range(count)] if width else ()
    return AttributedGraph(
        num_nodes=g.num_nodes, edges=g.edges, directed=g.directed,
        node_attrs=rows(g.num_nodes, node_width, node_defaults),
        edge_attrs=rows(g.num_edges, edge_width, edge_defaults),
        node_defaults=node_defaults[:node_width], edge_defaults=edge_defaults[:edge_width],
    )


@pytest.mark.parametrize("node_style, edge_style", [("digits", "digits"), ("inline", "digits"), ("digits", "inline")])
def test_a_corpus_vocabulary_decodes_each_full_width_graph_to_itself(node_style, edge_style):
    # Before, the vocabulary stored no defaults: the decoder took each width
    # from the highest dimension a semantic token names, so an always-default
    # last dimension was lost, and it decoded every omitted value as 0.
    rng = random.Random(733)
    node_defaults, edge_defaults = (3, -1, 0), (2, 0)
    corpus = []
    for i in range(24):
        g = random_connected_graph(rng, n_max=10, max_node_width=0, max_edge_width=0)
        # Every fourth graph is narrower, or has no attributes of a kind.
        widths = (rng.randint(0, 2), rng.randint(0, 1)) if i % 4 == 3 else (3, 2)
        corpus.append(_with_rows(rng, g, *widths, node_defaults, edge_defaults))
    cfg = ReindexConfig()
    vocab = build_vocab(corpus, "corpus", cfg, node_attr_style=node_style, edge_attr_style=edge_style)
    assert (vocab.node_defaults, vocab.edge_defaults) == (node_defaults, edge_defaults)
    for i, g in enumerate(corpus):
        # A narrower graph decodes with its rows padded by the defaults.
        full = AttributedGraph(
            num_nodes=g.num_nodes, edges=g.edges, directed=g.directed,
            node_attrs=[row + node_defaults[len(row):] for row in g.node_attrs or [()] * g.num_nodes],
            edge_attrs=[row + edge_defaults[len(row):] for row in g.edge_attrs or [()] * g.num_edges],
            node_defaults=node_defaults, edge_defaults=edge_defaults,
        )
        for layout in LAYOUTS:
            decoded = detokenize(serialize_graph(g, vocab, layout, cfg, i), vocab).graph
            assert isomorphic(decoded, full), (i, layout)
            assert (decoded.node_defaults, decoded.edge_defaults) == (node_defaults, edge_defaults)


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


def test_an_attribute_dimension_past_the_given_width_is_rejected(tmp_path):
    # The decoder reads its width from the vocabulary's defaults, so a
    # semantic token past them is refused where a vocabulary is made.
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[3, 4], [0, 0]])
    vocab = vocab_for(g)
    grid = _node_block_grid(vocab, ["test#node#1#1", "<4>"])
    assert detokenize(grid, vocab).graph.node_attrs == ((0, 4), (0, 0))
    tokens = [vocab.token(i) for i in range(len(vocab)) if vocab.class_of(i) == "semantic"]
    with pytest.raises(ValueError, match="^semantic token 'test#node#1#1' is past the vocabulary's 1 node"):
        Vocabulary(vocab.num_indices, tokens, "test", node_defaults=(0,))
    path = tmp_path / "v.tsv"
    vocab.save(path)
    path.write_text(path.read_text().replace("node_defaults=0,0", "node_defaults=0", 1))
    with pytest.raises(ValueError, match="^vocab line 278: semantic token 'test#node#1#1' is past the vocabulary's 1 node"):
        Vocabulary.load(path)


@pytest.mark.parametrize("sign", ["", "-"])
def test_a_digit_run_past_the_integer_limit_is_named_by_its_length(sign):
    vocab, g = _tiny_vocab()
    limit = sys.get_int_max_str_digits()
    grid = _node_block_grid(vocab, ["test#node#0#1", *(f"<{ch}>" for ch in sign + "7" * 5000)])
    want = f"malformed attribute run: 5000-digit value exceeds Python's {limit}-digit integer limit"
    with pytest.raises(ValueError) as exc:
        detokenize(grid, vocab)
    assert str(exc.value) == want


@pytest.mark.parametrize("limit_known", [True, False])
def test_a_long_digit_run_decodes_where_integers_have_no_limit(monkeypatch, limit_known):
    # The limit reads 0 when it is lifted, and does not exist before Python 3.10.7.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer-string limit")
    vocab, g = _tiny_vocab()
    grid = _node_block_grid(vocab, ["test#node#0#1", *(f"<{ch}>" for ch in "7" * 5000)])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if not limit_known:
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert detokenize(grid, vocab).graph.node_attrs[0] == (int("7" * 5000),)
    finally:
        sys.set_int_max_str_digits(limit)


def test_leading_digit_in_prolonged_tokens_is_refused():
    vocab, g = _tiny_vocab()
    grid = prolonged_grid(["<5>", "0", "test#node#0#1", "<3>", "1"], vocab)
    with pytest.raises(ValueError, match=r"^cell 0 \(row 0, column 0\): dangling attribute tokens before any node token$"):
        detokenize(grid, vocab)
    grid = prolonged_grid(["0", "test#node#0#1", "<3>", "1"], vocab)
    assert detokenize(grid, vocab).graph.node_attrs == ((3,), (0,))


# --- blocks the encoder never writes: refused at their first cell --------


def _attributed_path_vocab():
    g = AttributedGraph(
        num_nodes=3, edges=((0, 1), (1, 2)), node_attrs=[[3], [0], [0]], edge_attrs=[[2], [0]]
    )
    return vocab_for(g)


def test_a_node_with_a_second_block_is_refused():
    vocab = _attributed_path_vocab()
    for second in ("<5>", "<3>"):  # a different or an equal block alike
        tokens = ["0", "test#node#0#1", "<3>", "1", "0", "test#node#0#1", second]
        with pytest.raises(ValueError) as info:
            detokenize(prolonged_grid(tokens, vocab), vocab)
        assert str(info.value) == "cell 5 (row 5, column 0): second attribute block for node 0"


def test_an_edge_with_a_second_block_is_refused():
    vocab = _attributed_path_vocab()
    for second in ("<4>", "<2>"):
        tokens = ["0", "test#edge#0#1", "<2>", "1", "test#edge#0#1", second, "0"]
        with pytest.raises(ValueError) as info:
            detokenize(prolonged_grid(tokens, vocab), vocab)
        assert str(info.value) == "cell 4 (row 4, column 0): second attribute block for edge (0, 1)"


def test_a_block_on_a_jump_step_is_refused():
    vocab = _attributed_path_vocab()
    tokens = ["0", "1", "[EDGE_JUMP]", "test#edge#0#1", "<2>", "2"]
    with pytest.raises(ValueError) as info:
        detokenize(prolonged_grid(tokens, vocab), vocab)
    assert str(info.value) == "cell 3 (row 3, column 0): attribute block on a jump step"


def test_a_refused_block_is_named_by_its_row_and_column():
    # Short rows are [node, edge-type, edge-attr cells.., node-attr cells..].
    vocab = _attributed_path_vocab()
    ids = vocab.id
    pad, marker, three = vocab.pad_id, ids("test#node#0#1"), ids("<3>")
    rows = [(ids("0"), pad, pad, pad, marker, three), (ids("1"), pad, pad, pad, pad, pad),
            (ids("0"), pad, pad, pad, marker, three)]
    roles = [("node", "pad", "pad", "pad", "node-attr", "node-attr"), ("node",) + ("pad",) * 5,
             ("node", "pad", "pad", "pad", "node-attr", "node-attr")]
    with pytest.raises(ValueError) as info:
        detokenize(TokenGrid.from_rows("short", 6, rows, roles), vocab)
    assert str(info.value) == "cell 16 (row 2, column 4): second attribute block for node 0"


# --- node order and direction the encoder never writes: refused at their node cell


def _refusal(grid, vocab):
    with pytest.raises(ValueError) as info:
        detokenize(grid, vocab)
    return str(info.value)


def test_a_node_token_out_of_first_appearance_order_is_refused():
    vocab, g = _tiny_vocab()
    want = "new node token '2' breaks first-appearance order, which gives '1'"
    assert _refusal(prolonged_grid(["0", "2", "0"], vocab), vocab) == f"cell 1 (row 1, column 0): {want}"
    # A repeated visit is no first appearance, and the order wraps at the index count.
    assert detokenize(prolonged_grid(["0", "1", "0"], vocab), vocab).graph.num_nodes == 2
    assert detokenize(prolonged_grid(["255", "0", "255"], vocab), vocab).graph.num_nodes == 2
    assert _refusal(prolonged_grid(["255", "1"], vocab), vocab).startswith("cell 1 (row 1, column 0): new node token '1'")
    ids, pad = vocab.id, vocab.pad_id
    grid = TokenGrid.from_rows("short", 2, [(ids("3"), pad), (ids("4"), pad), (ids("3"), pad), (ids("6"), pad)],
                               [("node", "pad")] * 4)
    assert _refusal(grid, vocab) == "cell 6 (row 3, column 0): new node token '6' breaks first-appearance order, which gives '5'"


def test_a_step_typed_unlike_the_first_base_step_is_refused():
    # The tokenizer types every step of a directed graph and only the jumps of another.
    g = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), directed=True)
    vocab = vocab_for(g)
    grid = prolonged_grid(["0", "1", "[->]", "2"], vocab)
    assert _refusal(grid, vocab) == "cell 3 (row 3, column 0): directed step '[->]' after an untyped step"
    grid = prolonged_grid(["0", "[EDGE_JUMP]", "1", "[<-]", "2", "0"], vocab)
    assert _refusal(grid, vocab) == "cell 5 (row 5, column 0): untyped step after a directed step"
    # Jump steps are typed in either kind of graph.
    for tokens, directed in ((["0", "[EDGE_JUMP]", "1", "[<-]", "2", "[->]", "0"], True),
                             (["0", "[EDGE_JUMP]", "1", "2", "0"], False)):
        assert detokenize(prolonged_grid(tokens, vocab), vocab).graph.directed == directed


# --- seeded one-cell mutation fuzz -------------------------------------------

_ROLES = ("node", "edge-type", "edge-attr", "node-attr", "pad")


def _refused_cells(grid, vocab):
    """Cells of what no encoder writes: the first cell of a node's second
    block, of a base edge's second block and of any block on a jump step;
    the node cell of a new node token out of first-appearance order; and
    the node cell closing a step that is typed unlike the first step that
    is not a jump. The decoder refuses such a grid naming one of these
    cells. None when some cell's token does not fit its role or no cell is
    a node, which the decoder refuses by other checks."""
    steps = []  # per walk position: node token and cell, edge-type token, first cell of each block
    for cell, (tid, role) in enumerate(zip(grid.cells, (r for row in grid.roles for r in row))):
        if type(tid) is not int or not 0 <= tid < len(vocab):
            return None
        if role == "node" and tid < vocab.num_indices:
            steps.append({"node": tid, "cell": cell, "type": None})
        elif role == "pad" and tid == vocab.pad_id:
            continue
        elif not steps or role not in ("edge-type", "node-attr", "edge-attr"):
            return None
        elif role != "edge-type":
            steps[-1].setdefault(role, cell)
        elif tid in (vocab.jump_id, vocab.fwd_id, vocab.bwd_id):
            steps[-1]["type"] = tid
        else:
            return None
    if not steps:
        return None
    refused, seen, with_block, edges = set(), set(), set(), set()
    new_node = steps[0]["node"]
    for step in steps:
        if step["node"] not in seen:
            if step["node"] != new_node:
                refused.add(step["cell"])
            new_node = (step["node"] + 1) % vocab.num_indices
            seen.add(step["node"])
        if "node-attr" in step:
            if step["node"] in with_block:
                refused.add(step["node-attr"])
            with_block.add(step["node"])
    directed = None
    for step, following in zip(steps, steps[1:]):
        if step["type"] != vocab.jump_id:
            typed = step["type"] is not None
            if directed is None:
                directed = typed
            elif typed != directed:
                refused.add(following["cell"])
        if "edge-attr" not in step:
            continue
        ends = (step["node"], following["node"])[::-1 if step["type"] == vocab.bwd_id else 1]
        key = ends if directed else frozenset(ends)
        if step["type"] == vocab.jump_id or key in edges:
            refused.add(step["edge-attr"])
        edges.add(key)
    return refused


def _mutant(grid, vocab, rng, ids_of):
    """``grid`` with one cell changed: its token within its class, any
    token, any role, or a token with the role its class gives it."""
    cells, roles = list(grid.cells), [r for row in grid.roles for r in row]
    i = rng.randrange(len(cells))
    kind = rng.randrange(4)
    if kind == 0:
        cls = vocab.class_of(cells[i])
        if cls == "structural":  # most often a node the grid already holds
            held = sorted({tid for tid, role in zip(cells, roles) if role == "node"})
            cells[i] = rng.choice(held if rng.random() < 0.8 else ids_of[cls])
        else:
            cells[i] = rng.choice(ids_of[cls] if cls != "special" else
                                  (vocab.pad_id, vocab.jump_id, vocab.fwd_id, vocab.bwd_id))
    elif kind == 1:
        cells[i] = rng.randrange(-1, len(vocab) + 1)
    elif kind == 2:
        roles[i] = rng.choice(_ROLES)
    else:
        cells[i] = tid = rng.randrange(len(vocab))
        cls = vocab.class_of(tid)
        roles[i] = {
            "structural": "node",
            "special": "pad" if tid == vocab.pad_id else "edge-type",
            "semantic": f"{vocab.semantic[tid][0]}-attr" if cls == "semantic" else None,
            "digit": rng.choice(("node-attr", "edge-attr")),
        }[cls]
    return TokenGrid(layout=grid.layout, l=grid.l, cells=tuple(cells), roles=tuple(zip(*[iter(roles)] * grid.l)))


# Each kind of refusal the oracle predicts, by a phrase of its message.
_REFUSALS = {"node": "block for node", "edge": "block for edge", "jump": "on a jump step",
             "order": "first-appearance order", "direction": "after a"}


def test_one_cell_mutants_decode_or_refuse_the_blocks_no_encoder_writes():
    rng = random.Random(34)
    seen, refusals = set(), {}
    for i in range(60):
        g = random_graph(rng, max_node_width=2, max_edge_width=2)
        styles = dict(node_attr_style=rng.choice(("digits", "inline")), edge_attr_style=rng.choice(("digits", "inline")))
        vocab = vocab_for(g, **styles)
        ids_of = {}
        for tid in range(len(vocab)):
            ids_of.setdefault(vocab.class_of(tid), []).append(tid)
        for layout in LAYOUTS:
            grid = serialize_graph(g, vocab, layout, seed=i)
            report = detokenize(grid, vocab)
            assert report.warnings == () and _refused_cells(grid, vocab) == set()
            seen.update({layout, *styles.values(), "directed" if g.directed else "undirected"})
            seen.update({"jumps"} if report.dropped_jump_edges else ())
            for _ in range(40):
                mutant = _mutant(grid, vocab, rng, ids_of)
                refused = _refused_cells(mutant, vocab)
                try:  # any other exception fails the test
                    detokenize(mutant, vocab)
                    named = None
                except ValueError as exc:
                    named, _, why = str(exc).partition(": ")
                if refused:
                    assert named in {f"cell {c} (row {c // grid.l}, column {c % grid.l})" for c in refused}
                    [kind] = [kind for kind, text in _REFUSALS.items() if text in why]
                    refusals[kind] = refusals.get(kind, 0) + 1
                elif refused is not None:
                    assert named is None or not named.startswith("cell ")
    assert seen == {*LAYOUTS, "digits", "inline", "directed", "undirected", "jumps"}
    assert set(refusals) == set(_REFUSALS)
    assert min(refusals.values()) >= 10, refusals


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
# random graphs in every layout, under all four attribute style pairs.
# Any change to decoded node or edge order, attribute vectors, defaults
# or counts changes it.
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
        for layout in LAYOUTS:
            report = detokenize(serialize_graph(g, vocab, layout, cfg, i), vocab)
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
