import hashlib
import json
import random
import re
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    build_multigraph,
    build_ntp,
    build_smtp,
    derive_seed,
    extract_path,
    sequence_length,
    serialize_graph,
    tokenize,
)
from graphseq.euler import EulerizedMultigraph, EulerPath
from graphseq.tokenizer import (
    LAYOUTS,
    ROLE_EDGE_ATTR,
    ROLE_NODE,
    ROLE_NODE_ATTR,
    ROLE_PAD,
    ROLE_TYPE,
    TokenGrid,
    _index_map,
    _placements,
    _visits,
)
from graphseq.vocab import EDGE_BWD, EDGE_FWD, EDGE_JUMP

from conftest import random_graph, vocab_for
from oracle import cell_roles


def _walk(g, seed=0):
    mg = build_multigraph(g, seed)
    return mg, extract_path(mg, seed)


def _fake_path(nodes):
    return EulerPath(nodes=tuple(nodes), edges=tuple(range(len(nodes) - 1)))


# --- re-indexing --------------------------------------------------------


def test_first_appearance_indices():
    path = _fake_path([5, 2, 5, 7])
    idx = _index_map(_visits(path), ReindexConfig(num_indices=16, cyclic=False))
    assert idx == {5: 0, 2: 1, 7: 2}


def test_cyclic_shift_formula():
    path = _fake_path([0, 1, 2, 3])
    # find a seed whose drawn offset is 5
    seed = next(s for s in range(5000) if random.Random(s).randrange(256) == 5)
    idx = _index_map(_visits(path), ReindexConfig(num_indices=256, cyclic=True, seed=seed))
    assert idx[3] == (3 + 5) % 256 == 8


def test_cyclic_shift_wraparound():
    nodes = list(range(251)) + [251]
    path = _fake_path(nodes)
    seed = next(s for s in range(5000) if random.Random(s).randrange(256) == 10)
    idx = _index_map(_visits(path), ReindexConfig(num_indices=256, cyclic=True, seed=seed))
    assert idx[250] == (250 + 10) % 256 == 4


def test_reindex_rejects_oversized_graphs():
    path = _fake_path(list(range(9)))
    with pytest.raises(ValueError, match="exceed"):
        _index_map(_visits(path), ReindexConfig(num_indices=8))


def test_config_with_more_indices_than_the_vocabulary_is_rejected():
    # Unchecked, a 256-index shift fits a 64-index vocabulary for some seeds
    # only: seed 0 passes, seed 1 lands on token '103'.
    p5 = AttributedGraph(num_nodes=5, edges=tuple((i, i + 1) for i in range(4)))
    vocab = vocab_for(p5, cfg=ReindexConfig(num_indices=64))
    for seed in range(8):
        with pytest.raises(ValueError, match="256 indices exceeds the vocabulary's 64"):
            serialize_graph(p5, vocab, "prolonged", ReindexConfig(), seed)
    grid = serialize_graph(p5, vocab, "prolonged", ReindexConfig(num_indices=16), 1)
    assert max(tok for row in grid.tokens for tok in row) < 64


@pytest.mark.parametrize("num_nodes, num_indices", [(300, 2048), (5, 64)])
def test_without_a_config_the_vocabularys_index_space_is_used(num_nodes, num_indices):
    # Before, a missing config meant 256 indices whatever the vocabulary
    # held: 300 nodes exceeded them under 2,048, and 256 exceeded 64.
    path = AttributedGraph(num_nodes=num_nodes, edges=tuple((i, i + 1) for i in range(num_nodes - 1)))
    cfg = ReindexConfig(num_indices=num_indices)
    vocab = vocab_for(path, cfg=cfg)
    for seed in range(3):
        assert serialize_graph(path, vocab, seed=seed) == serialize_graph(path, vocab, "prolonged", cfg, seed)


def test_disabled_cyclic_always_starts_at_zero(c3):
    cfg = ReindexConfig(num_indices=256, cyclic=False)
    vocab = vocab_for(c3, cfg=cfg)
    for seed in range(25):
        grid = serialize_graph(c3, vocab, "prolonged", cfg, seed)
        first_node = next(
            tok for row, roles in zip(grid.tokens, grid.roles)
            for tok, role in zip(row, roles) if role == ROLE_NODE
        )
        assert vocab.token(first_node) == "0"


def test_cyclic_first_index_spreads_over_residues(c3):
    cfg = ReindexConfig(num_indices=256, cyclic=True)
    vocab = vocab_for(c3, cfg=cfg)
    mg, path = _walk(c3)
    seen = set()
    for seed in range(300):
        grid = tokenize(path, mg, vocab, "prolonged", replace(cfg, seed=seed), seed)
        seen.add(grid.tokens[0][0])
    assert len(seen) > 100


# --- layouts ------------------------------------------------------------


def test_attribute_free_triangle_short_grid(c3):
    vocab = vocab_for(c3)
    mg, path = _walk(c3)
    cfg = ReindexConfig(num_indices=16, cyclic=False)
    grid = tokenize(path, mg, vocab, "short", cfg, 0, edge_attr_width=1, node_attr_width=1)
    assert grid.num_rows == 4
    assert grid.l == 4
    for row, roles in zip(grid.tokens, grid.roles):
        assert roles[0] == ROLE_NODE
        # attribute columns hold nothing but padding
        assert all(r == ROLE_PAD for r in roles[1:])
        assert all(tok == vocab.pad_id for tok in row[1:])


def test_single_attr_graph_short_width_is_four():
    g = AttributedGraph(
        num_nodes=3,
        edges=((0, 1), (1, 2)),
        node_attrs=[[1], [2], [3]],
        edge_attrs=[[4], [5]],
    )
    vocab = vocab_for(g, node_attr_style="inline", edge_attr_style="inline")
    mg, path = _walk(g)
    grid = tokenize(path, mg, vocab, "short", ReindexConfig(cyclic=False), 0)
    assert grid.l == 2 + 1 + 1 == 4


def test_width_overflow_is_an_error():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), edge_attrs=[[164]])
    vocab = vocab_for(g)  # digits style: marker + 3 digit tokens
    mg, path = _walk(g)
    with pytest.raises(ValueError, match="capped"):
        tokenize(path, mg, vocab, "short", ReindexConfig(cyclic=False), 0, edge_attr_width=2)


def test_long_layout_puts_attrs_on_their_own_rows():
    g = AttributedGraph(
        num_nodes=2, edges=((0, 1),), node_attrs=[[3], [0]], edge_attrs=[[7]]
    )
    vocab = vocab_for(g)
    mg, path = _walk(g)
    grid = tokenize(path, mg, vocab, "long", ReindexConfig(cyclic=False), 0)
    kinds = [next((r for r in roles if r != ROLE_PAD), ROLE_PAD) for roles in grid.roles]
    assert kinds.count(ROLE_NODE) == 2
    assert kinds.count(ROLE_NODE_ATTR) == 1
    assert kinds.count(ROLE_EDGE_ATTR) == 1
    for roles in grid.roles:
        non_pad = {r for r in roles if r != ROLE_PAD}
        assert len(non_pad - {ROLE_NODE, ROLE_TYPE}) <= 1  # one attr kind per row


def test_prolonged_attaches_node_attrs_once():
    g = AttributedGraph(
        num_nodes=4,
        edges=((0, 1), (0, 2), (0, 3)),
        node_attrs=[[1], [2], [3], [4]],
    )
    vocab = vocab_for(g)
    mg, path = _walk(g)
    # center node is visited more than once after eulerization
    assert len(path.nodes) > len(set(path.nodes))
    grid = tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), 0)
    roles = [r for (r,) in grid.roles]
    assert roles.count(ROLE_NODE_ATTR) == 8  # 4 nodes x (marker + digit)


def test_attr_attachment_position_varies_with_seed():
    g = AttributedGraph(
        num_nodes=4,
        edges=((0, 1), (0, 2), (0, 3)),
        node_attrs=[[1], [2], [3], [4]],
    )
    vocab = vocab_for(g)
    mg, path = _walk(g)
    layouts = set()
    for seed in range(40):
        grid = tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), seed)
        layouts.add(tuple(r for (r,) in grid.roles))
    assert len(layouts) > 1


def test_only_a_node_visited_twice_draws_its_placement():
    # A 4-cycle walked from h back to h: h is the only node with two
    # visits, so its block lands where a fresh generator's first choice
    # puts it, whatever the ids of the nodes visited once.
    for h, *rest in permutations(range(4)):
        cycle = (h, *rest, h)
        g = AttributedGraph(
            num_nodes=4, edges=tuple(zip(cycle, cycle[1:])), node_attrs=[[v + 1] for v in range(4)]
        )
        path = EulerPath(nodes=cycle, edges=(0, 1, 2, 3))
        vocab = vocab_for(g)
        for seed in range(10):
            node_blocks, _, _ = _placements(path, EulerizedMultigraph(base=g), vocab, _visits(path), seed)
            assert [pos for pos in (0, 4) if node_blocks[pos]] == [random.Random(seed).choice((0, 4))]


def test_edge_placement_draws_first_without_node_attributes():
    # Edge (0, 1) is traversed twice along 2-1-0-1, the others once; with
    # no node attributes its traversal is the first draw of the generator.
    g = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), edge_attrs=[[1], [2]])
    mg = EulerizedMultigraph(base=g, duplications=(0,))
    path = EulerPath(nodes=(2, 1, 0, 1), edges=(1, 0, 0))
    vocab = vocab_for(g)
    for seed in range(20):
        _, _, edge_blocks = _placements(path, mg, vocab, _visits(path), seed)
        assert [step for step in (1, 2) if edge_blocks[step]] == [random.Random(seed).choice((1, 2))]
        assert edge_blocks[0]


def test_jump_edges_carry_the_jump_token(two_triangles):
    vocab = vocab_for(two_triangles)
    mg, path = _walk(two_triangles)
    grid = tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), 0)
    tokens = [vocab.token(t) for (t,) in grid.tokens]
    assert tokens.count(EDGE_JUMP) == 1


def test_directed_graphs_mark_traversal_direction():
    g = AttributedGraph(num_nodes=3, edges=((0, 1), (2, 1)), directed=True)
    vocab = vocab_for(g)
    mg, path = _walk(g)
    grid = tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), 0)
    tokens = [vocab.token(t) for (t,) in grid.tokens]
    arrows = [t for t in tokens if t in (EDGE_FWD, EDGE_BWD)]
    assert len(arrows) == 2
    assert set(arrows) == {EDGE_FWD, EDGE_BWD}  # 0->1 out, 2->1 against


def test_undirected_graphs_have_no_direction_tokens(c3):
    vocab = vocab_for(c3)
    mg, path = _walk(c3)
    grid = tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), 0)
    tokens = [vocab.token(t) for (t,) in grid.tokens]
    assert EDGE_FWD not in tokens and EDGE_BWD not in tokens


def test_tokenize_is_deterministic(c3):
    vocab = vocab_for(c3)
    mg, path = _walk(c3)
    cfg = ReindexConfig(seed=3)
    assert tokenize(path, mg, vocab, "short", cfg, 7) == tokenize(path, mg, vocab, "short", cfg, 7)


def test_unknown_attribute_value_is_an_error():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[3], [0]])
    poor = AttributedGraph(num_nodes=2, edges=((0, 1),))
    vocab = vocab_for(poor)  # lacks the semantic tokens for g
    mg, path = _walk(g)
    with pytest.raises(ValueError, match="not in vocabulary"):
        tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), 0)


# --- construction audit ---------------------------------------------------


def _expected_prolonged_length(g, mg, path, vocab):
    n_tokens = len(path.nodes)
    attr_tokens = 0
    for v in set(path.nodes):
        if g.node_attrs:
            for dim, value in enumerate(g.node_attrs[v]):
                if value != g.node_defaults[dim]:
                    attr_tokens += 1 if vocab.node_attr_style == "inline" else 1 + len(str(value))
    traversed = {eid for eid in path.edges if eid < mg.num_base_edges}
    for eid in traversed:
        if g.edge_attrs:
            for dim, value in enumerate(g.edge_attrs[eid]):
                if value != g.edge_defaults[dim]:
                    attr_tokens += 1 if vocab.edge_attr_style == "inline" else 1 + len(str(value))
    jumps = sum(1 for eid in path.edges if eid >= mg.num_base_edges)
    arrows = len(path.edges) - jumps if g.directed else 0
    return n_tokens + attr_tokens + jumps + arrows


def test_prolonged_token_count_audit():
    rng = random.Random(21)
    for i in range(60):
        g = random_graph(rng)
        vocab = vocab_for(g)
        mg = build_multigraph(g, i)
        path = extract_path(mg, i)
        grid = tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), i)
        assert grid.num_rows == _expected_prolonged_length(g, mg, path, vocab)


# --- counting without walking ---------------------------------------------


@st.composite
def _count_graphs(draw):
    """Graphs of 1-40 nodes, often disconnected, directed or not, with
    attribute rows around non-zero defaults."""
    n = draw(st.integers(1, 40))
    directed = draw(st.booleans())
    edges = []
    if n > 1:
        # The second endpoint skips the first, so no pair is a self-loop.
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
            lambda p: (p[0], p[1] + (p[1] >= p[0]))
        )
        edges = draw(st.lists(
            pairs, max_size=2 * n,
            unique_by=(lambda p: p) if directed else (lambda p: frozenset(p)),
        ))
    a_n, a_e = draw(st.integers(0, 3)), draw(st.integers(0, 2)) if edges else 0

    def rows(count, width):
        values = st.lists(st.integers(-3, 30), min_size=width, max_size=width)
        return [draw(values) for _ in range(count)]

    return AttributedGraph(
        num_nodes=n,
        edges=tuple(edges),
        directed=directed,
        node_attrs=rows(n, a_n) if a_n else (),
        edge_attrs=rows(len(edges), a_e) if a_e else (),
        node_defaults=draw(st.lists(st.integers(-3, 3), min_size=a_n, max_size=a_n)),
        edge_defaults=draw(st.lists(st.integers(-3, 3), min_size=a_e, max_size=a_e)),
    )


_STYLES = st.sampled_from(("digits", "inline"))
# Under seed 0 parity repair duplicates the jump edge (2, 3).
_JUMP_DUPLICATED = AttributedGraph(num_nodes=4, edges=((1, 2),))
# 14 odd leaves take the greedy pairing.
_STAR_14 = AttributedGraph(
    num_nodes=15,
    edges=tuple((0, i) for i in range(1, 15)),
    node_attrs=[[i % 3, 7] for i in range(15)],
    node_defaults=[1, 7],
)


@given(g=_count_graphs(), seed=st.integers(0, 2**32), node_style=_STYLES, edge_style=_STYLES)
@example(g=_JUMP_DUPLICATED, seed=0, node_style="digits", edge_style="digits")
@example(g=_STAR_14, seed=0, node_style="inline", edge_style="digits")
@example(g=AttributedGraph(num_nodes=1, node_attrs=[[5]]), seed=0, node_style="digits", edge_style="digits")
@settings(max_examples=300, deadline=None)
def test_sequence_length_is_the_prolonged_row_count(g, seed, node_style, edge_style):
    vocab = vocab_for(g, node_attr_style=node_style, edge_attr_style=edge_style)
    cfg = ReindexConfig()
    mg = build_multigraph(g, derive_seed(seed, "jump"))
    grid = serialize_graph(g, vocab, "prolonged", cfg, seed)
    assert sequence_length(mg, vocab, cfg) == grid.num_rows


_P10 = AttributedGraph(num_nodes=10, edges=tuple((i, i + 1) for i in range(9)))
_ATTRIBUTED = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[3], [0]])


@pytest.mark.parametrize("g, vocab, cfg, message", [
    (_P10, vocab_for(_P10), ReindexConfig(num_indices=8), "10 nodes exceed the index space of 8"),
    (_P10, vocab_for(_P10, cfg=ReindexConfig(num_indices=64)), ReindexConfig(),
     "re-indexing over 256 indices exceeds the vocabulary's 64"),
    (AttributedGraph(num_nodes=0), vocab_for(_P10), ReindexConfig(),
     "cannot extract a path from an empty graph"),
    (_ATTRIBUTED, vocab_for(_P10), ReindexConfig(), "token not in vocabulary: 'test#node#0#1'"),
], ids=["index-space", "vocab-indices", "empty", "unknown-attr"])
def test_sequence_length_raises_what_serialization_raises(g, vocab, cfg, message):
    raised = []
    for measure in (
        lambda: sequence_length(build_multigraph(g, derive_seed(0, "jump")), vocab, cfg),
        lambda: serialize_graph(g, vocab, "prolonged", cfg, 0),
    ):
        with pytest.raises(ValueError) as info:
            measure()
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == (ValueError, message)


def test_every_edge_attr_block_appears_exactly_once():
    rng = random.Random(8)
    for i in range(40):
        g = random_graph(rng, max_node_width=2, max_edge_width=2)
        vocab = vocab_for(g)
        mg = build_multigraph(g, i)
        path = extract_path(mg, i)
        grid = tokenize(path, mg, vocab, "prolonged", ReindexConfig(cyclic=False), i)
        roles = [r for (r,) in grid.roles]
        tokens = [t for (t,) in grid.tokens]
        # count dimension markers, one per non-default attr dimension
        expected_node = sum(
            1
            for v in range(g.num_nodes)
            for dim, value in enumerate(g.node_attrs[v] if g.node_attrs else ())
            if value != g.node_defaults[dim]
        )
        got_node = sum(
            1
            for t, r in zip(tokens, roles)
            if r == ROLE_NODE_ATTR and vocab.class_of(t) == "semantic"
        )
        assert got_node == expected_node


def test_grid_json_roundtrip(c3):
    vocab = vocab_for(c3)
    mg, path = _walk(c3)
    grid = tokenize(path, mg, vocab, "long", ReindexConfig(), 0)
    assert TokenGrid.from_json(grid.to_json()) == grid


def test_grid_needs_one_role_row_per_token_row(c3):
    vocab = vocab_for(c3)
    mg, path = _walk(c3)
    doc = tokenize(path, mg, vocab, "short", ReindexConfig(), 0).to_json()
    rows = len(doc["tokens"])
    with pytest.raises(ValueError, match=f"grid has {rows} token rows but 2 role rows"):
        TokenGrid.from_json({**doc, "roles": doc["roles"][:2]})
    with pytest.raises(ValueError, match=f"grid has {rows - 1} token rows but {rows} role rows"):
        TokenGrid.from_json({**doc, "tokens": doc["tokens"][1:]})


def test_row_width_must_be_one_the_layout_can_have():
    # Unchecked, each of these decoded: a prolonged grid cut into 2-cell
    # rows as a path (with multi-token NTP targets), and the others as the
    # grid they were cut from.
    p4 = AttributedGraph(num_nodes=4, edges=((0, 1), (1, 2), (2, 3)))
    vocab = vocab_for(p4)
    prolonged = serialize_graph(p4, vocab, "prolonged", ReindexConfig(), 0).to_json()
    short = serialize_graph(p4, vocab, "short", ReindexConfig(), 0).to_json()
    cells = [cell for row in prolonged["tokens"] for cell in row]
    assert len(cells) == 4 and short["l"] == 2
    pairs = {"layout": "prolonged", "l": 2, "tokens": [cells[:2], cells[2:]],
             "roles": [[ROLE_NODE, ROLE_NODE]] * 2}
    node_column = {**prolonged, "layout": "short"}
    bad = [
        (pairs, "a prolonged grid cannot have row width l=2"),
        (node_column, "a short grid cannot have row width l=1"),
        ({**node_column, "layout": "long"}, "a long grid cannot have row width l=1"),
        ({**prolonged, "l": True}, "a prolonged grid cannot have row width l=True"),
        ({**short, "l": 2.0}, "a short grid cannot have row width l=2.0"),
    ]
    for doc, message in bad:
        with pytest.raises(ValueError, match=f"^{message}$"):
            TokenGrid.from_json(doc)
    for doc in (prolonged, short):
        assert TokenGrid.from_json(doc).to_json() == doc


def test_grids_keep_flat_cells_and_cut_them_into_rows():
    # Every layout, and the inputs of SMTP and NTP examples.
    rng = random.Random(61)
    for i in range(30):
        g = random_graph(rng, n_max=16)
        vocab = vocab_for(g)
        for layout in LAYOUTS:
            grid = serialize_graph(g, vocab, layout, ReindexConfig(), i)
            for got in (grid, build_smtp(grid, 0.5, i, vocab).inputs, build_ntp(grid, vocab).inputs):
                assert type(got.cells) is tuple and {type(c) for c in got.cells} == {int}
                l = got.l
                assert got.tokens == tuple(got.cells[r * l : (r + 1) * l] for r in range(got.num_rows))
                assert got.flat() == list(got.cells)
                assert TokenGrid.from_rows(got.layout, l, got.tokens, got.roles) == got


ROLE_ROWS = ((ROLE_NODE, ROLE_TYPE),) * 3


@pytest.mark.parametrize("fields, message", [
    (dict(layout="short", l=2, cells=(0,) * 5, roles=ROLE_ROWS),
     "grid has 5 cells but 3 role rows of width l=2 hold 6"),
    (dict(layout="short", l=2, cells=(0,) * 7, roles=ROLE_ROWS),
     "grid has 7 cells but 3 role rows of width l=2 hold 6"),
    (dict(layout="long", l=2, cells=(0,) * 6, roles=ROLE_ROWS[:2] + ((ROLE_NODE,),)),
     "role row 2 has width 1, not l=2"),
    (dict(layout="diagonal", l=2, cells=(0,) * 6, roles=ROLE_ROWS), "unknown layout 'diagonal'"),
    (dict(layout="long", l=1, cells=(0,) * 3, roles=((ROLE_NODE,),) * 3),
     "a long grid cannot have row width l=1"),
    (dict(layout="prolonged", l=2, cells=(0,) * 6, roles=ROLE_ROWS),
     "a prolonged grid cannot have row width l=2"),
])
def test_grid_refuses_cells_and_roles_that_do_not_fit(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TokenGrid(**fields)


def test_grid_refuses_role_rows_that_are_not_tuples():
    # A list row would make the grid unhashable and unequal to from_rows'.
    roles = [ROLE_ROWS[0], list(ROLE_ROWS[1]), ROLE_ROWS[2]]
    with pytest.raises(TypeError, match="^role row 1 is a list, not a tuple$"):
        TokenGrid(layout="short", l=2, cells=(0,) * 6, roles=roles)
    grid = TokenGrid.from_rows("short", 2, [(0, 0)] * 3, roles)
    assert grid.roles == ROLE_ROWS and hash(grid) == hash(TokenGrid("short", 2, (0,) * 6, ROLE_ROWS))


def test_from_rows_names_the_token_row_of_another_width():
    doc = {"layout": "long", "l": 3, "tokens": [[1, 2, 3], [4, 5, 6, 7], [8, 9]],
           "roles": [[ROLE_NODE, ROLE_TYPE, ROLE_PAD]] * 3}
    with pytest.raises(ValueError, match=r"^token row 1 has width 4, not l=3$"):
        TokenGrid.from_json(doc)


def test_to_json_writes_the_bytes_of_list_rows():
    # to_json hands json.dumps tuples: token rows cut from the cells for
    # the call and the grid's own role rows. The bytes must be those of
    # the list copies it once made.
    rng = random.Random(21)
    for i in range(30):
        g = random_graph(rng)
        grid = serialize_graph(g, vocab_for(g), ("prolonged", "short", "long")[i % 3], ReindexConfig(), i)
        copied = {
            "layout": grid.layout,
            "l": grid.l,
            "tokens": [list(r) for r in grid.tokens],
            "roles": [list(r) for r in grid.roles],
        }
        assert json.dumps(grid.to_json()) == json.dumps(copied)


@pytest.mark.parametrize("style", ["digits", "inline"])
def test_recorded_roles_follow_from_the_tokens(style):
    # random_graph draws directed graphs and, with an edge dropped, disconnected ones.
    rng = random.Random(7)
    kinds = set()
    for i in range(200):
        g = random_graph(rng, n_max=40)
        mg = build_multigraph(g, i)
        kinds.add((g.directed, bool(mg.jump_edges)))
        vocab = vocab_for(g, node_attr_style=style, edge_attr_style=style)
        for layout in LAYOUTS:
            grid = serialize_graph(g, vocab, layout, ReindexConfig(), i)
            assert cell_roles(grid.flat(), vocab) == [r for row in grid.roles for r in row]
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


# SHA-256 of the grids, with their roles, and of the SMTP and NTP examples
# of 150 random graphs in every layout, under both attribute styles and,
# for every other graph, explicit attribute widths wider than the blocks.
# Any change to the cells, roles, attribute placement or masking changes it,
# and so does a change to the greedy repair some of the graphs take.
GRIDS_AND_EXAMPLES_DIGEST = "7ffdb716952965b2a76829197a116ae07075d2b4a3b609daceed4650745a7bb8"


def test_grids_and_examples_are_pinned():
    rng = random.Random(4242)
    styles = ("digits", "inline")
    kinds = set()
    digest = hashlib.sha256()
    for i in range(150):
        g = random_graph(rng, n_max=24)
        kinds.add(g.directed)
        vocab = vocab_for(g, node_attr_style=styles[i % 2], edge_attr_style=styles[i // 2 % 2])
        widths = {}
        if i % 2:
            widths = {
                "edge_attr_width": max((len(vocab.block_ids("edge", row, g.edge_defaults))
                                        for row in g.edge_attrs), default=0) + i % 3,
                "node_attr_width": max((len(vocab.block_ids("node", row, g.node_defaults))
                                        for row in g.node_attrs), default=0) + 1,
            }
        for layout in LAYOUTS:
            grid = serialize_graph(g, vocab, layout, ReindexConfig(), i, **widths)
            smtp = build_smtp(grid, max(rng.random(), 1e-6), i, vocab)
            for doc in (grid.to_json(), smtp.to_json(), build_ntp(grid, vocab).to_json()):
                digest.update(json.dumps(doc).encode() + b"\n")
    assert kinds == {False, True}
    assert digest.hexdigest() == GRIDS_AND_EXAMPLES_DIGEST
