import hashlib
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    build_ntp,
    build_smtp,
    build_vocab,
    draw_mask_fraction,
    pack,
    serialize_graph,
)
from graphseq.pretrain import PretrainExample
from graphseq.tokenizer import LAYOUTS, ROLE_EDGE_ATTR, ROLE_NODE, ROLE_NODE_ATTR, ROLE_PAD, TokenGrid

from conftest import random_connected_graph, random_graph, vocab_for
from oracle import cell_roles


def _prolonged_example(tokens, vocab):
    grid = TokenGrid.from_rows(
        "prolonged",
        1,
        tuple((t,) for t in tokens),
        tuple(("node",) for _ in tokens),
    )
    return grid


def _star_grid(layout="prolonged", seed=0):
    g = AttributedGraph(
        num_nodes=4,
        edges=((0, 1), (0, 2), (0, 3)),
        node_attrs=[[1], [2], [3], [4]],
    )
    vocab = vocab_for(g)
    grid = serialize_graph(g, vocab, layout, ReindexConfig(cyclic=False), seed)
    return g, vocab, grid


# --- NTP -------------------------------------------------------------------


def test_ntp_shift_by_one():
    vocab = vocab_for(AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2))))
    a, b, c = vocab.id("0"), vocab.id("1"), vocab.id("2")
    grid = _prolonged_example([a, b, c], vocab)
    ex = build_ntp(grid, vocab)
    assert ex.targets == ((0, b), (1, c))
    assert ex.task == "ntp"


def test_ntp_single_token_has_no_targets():
    vocab = vocab_for(AttributedGraph(num_nodes=1))
    grid = _prolonged_example([vocab.id("0")], vocab)
    assert build_ntp(grid, vocab).targets == ()


def test_ntp_grid_targets_skip_padding():
    g, vocab, grid = _star_grid("short")
    ex = build_ntp(grid, vocab)
    by_row = {}
    for pos, tok in ex.targets:
        by_row.setdefault(pos, []).append(tok)
    for t, toks in by_row.items():
        row = grid.tokens[t + 1]
        roles = grid.roles[t + 1]
        expected = [tok for tok, role in zip(row, roles) if role != ROLE_PAD]
        assert sorted(toks) == sorted(expected)
        assert vocab.pad_id not in toks


def test_ntp_target_completeness():
    rng = random.Random(31)
    for i in range(30):
        g = random_connected_graph(rng, n_max=8)
        vocab = vocab_for(g)
        layout = ("short", "long", "prolonged")[i % 3]
        grid = serialize_graph(g, vocab, layout, ReindexConfig(), i)
        ex = build_ntp(grid, vocab)
        got = Counter(ex.targets)
        expected = Counter()
        for t in range(1, grid.num_rows):
            for tok, role in zip(grid.tokens[t], grid.roles[t]):
                if role != ROLE_PAD:
                    expected[(t - 1, tok)] += 1
        assert got == expected


# --- SMTP ------------------------------------------------------------------


def test_smtp_masks_every_occurrence_of_a_node():
    g, vocab, grid = _star_grid("prolonged")
    # the star center appears several times; mask everything to catch them all
    ex = build_smtp(grid, 1.0, seed=0, vocab=vocab)
    flat = [t for row in ex.inputs.tokens for t in row]
    roles = [r for row in ex.inputs.roles for r in row]
    for tok, role in zip(flat, roles):
        if role in (ROLE_NODE, ROLE_NODE_ATTR):
            assert tok == vocab.mask_id
    # original tokens are recoverable from the targets
    original = [t for row in grid.tokens for t in row]
    for pos, tok in ex.targets:
        assert original[pos] == tok
        assert flat[pos] == vocab.mask_id


def test_smtp_partial_mask_has_no_leaks():
    # random_graph draws directed graphs and, with an edge dropped, disconnected ones.
    rng = random.Random(12)
    for i in range(40):
        g = random_graph(rng, n_max=10)
        vocab = vocab_for(g)
        for layout in LAYOUTS:
            grid = serialize_graph(g, vocab, layout, ReindexConfig(), i)
            ex = build_smtp(grid, max(rng.random(), 1e-6), seed=i, vocab=vocab)
            flat_roles = [r for row in grid.roles for r in row]
            flat_grid = grid.flat()
            flat_in = [t for row in ex.inputs.tokens for t in row]
            targets = dict(ex.targets)
            assert all(flat_in[pos] == vocab.mask_id and flat_grid[pos] == tok
                       for pos, tok in targets.items())
            masked_nodes = {tok for pos, tok in targets.items() if flat_roles[pos] == ROLE_NODE}
            assert not masked_nodes & set(flat_in), "masked node token survived"
            # A node's attribute cells follow its node cell: both are
            # targets exactly when the node is masked, and no other cell is.
            owner = None
            for pos, (tok, role) in enumerate(zip(flat_grid, flat_roles)):
                if role == ROLE_NODE:
                    owner = tok
                hidden = role in (ROLE_NODE, ROLE_NODE_ATTR) and owner in masked_nodes
                assert (pos in targets) == hidden
                if role == ROLE_EDGE_ATTR:
                    assert flat_in[pos] == tok


@pytest.mark.parametrize("task", ["ntp", "smtp"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_example_files_give_the_grid_roles_back(layout, task):
    # Example files carry no roles: with each SMTP target put back into its
    # cell, the token-class rule gives the tokenizer's roles.
    rng = random.Random(17)
    for i in range(40):
        g = random_graph(rng, n_max=30)
        vocab = vocab_for(g, **({"node_attr_style": "inline"} if i % 2 else {}))
        grid = serialize_graph(g, vocab, layout, ReindexConfig(), i)
        ex = build_smtp(grid, 0.5, i, vocab) if task == "smtp" else build_ntp(grid, vocab)
        doc = json.loads(json.dumps(ex.to_json()))
        flat = [tok for row in doc["inputs"] for tok in row]
        if task == "smtp":
            for pos, tok in doc["targets"]:
                assert flat[pos] == vocab.mask_id
                flat[pos] = tok
        assert cell_roles(flat, vocab) == [r for row in grid.roles for r in row]


def test_smtp_r_near_zero_masks_exactly_one_node():
    g, vocab, grid = _star_grid()
    ex = build_smtp(grid, 1e-9, seed=3, vocab=vocab)
    masked_nodes = {tok for pos, tok in ex.targets if grid.roles[pos][0] == ROLE_NODE}
    assert len(masked_nodes) == 1
    assert ex.mask_rate_drawn == 1e-9


def test_smtp_full_mask_leaves_structure_only():
    g = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), edge_attrs=[[7], [3]])
    vocab = vocab_for(g)
    grid = serialize_graph(g, vocab, "prolonged", ReindexConfig(cyclic=False), 1)
    ex = build_smtp(grid, 1.0, seed=0, vocab=vocab)
    flat = [t for row in ex.inputs.tokens for t in row]
    roles = [r for row in ex.inputs.roles for r in row]
    # edge attribute cells survive; node cells do not
    assert any(t != vocab.mask_id for t, r in zip(flat, roles) if r == "edge-attr")
    assert all(t == vocab.mask_id for t, r in zip(flat, roles) if r == ROLE_NODE)


def test_smtp_inputs_share_the_grids_roles():
    rng = random.Random(19)
    for i in range(12):
        g = random_graph(rng, n_max=16)
        vocab = vocab_for(g)
        for layout in LAYOUTS:
            grid = serialize_graph(g, vocab, layout, ReindexConfig(), i)
            inputs = build_smtp(grid, 0.5, i, vocab).inputs
            assert inputs.roles is grid.roles
            assert type(inputs.cells) is tuple and len(inputs.cells) == len(grid.cells)


# Bytes that a kept prolonged SMTP example of a 10-30 node attributed graph
# may hold, its roles shared with the grid's: 7.2-7.3 KB with cells held
# in one tuple, 16.5-16.6 KB with a 1-tuple per cell (Python 3.10, 3.11
# and 3.13).
SMTP_EXAMPLE_BYTES_BOUND = 10_000


def test_kept_smtp_examples_hold_no_tuple_per_cell():
    rng = random.Random(300)
    graphs = [random_graph(rng, n_min=10, n_max=30) for _ in range(300)]
    vocab = build_vocab(graphs, "test", ReindexConfig())
    # A first pass fills each graph's own caches, which no example holds.
    for i, g in enumerate(graphs):
        serialize_graph(g, vocab, "prolonged", ReindexConfig(), i)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        examples = [
            build_smtp(serialize_graph(g, vocab, "prolonged", ReindexConfig(), i), 0.5, i, vocab)
            for i, g in enumerate(graphs)
        ]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / len(examples) < SMTP_EXAMPLE_BYTES_BOUND


def test_smtp_rejects_out_of_range_fraction():
    g, vocab, grid = _star_grid()
    with pytest.raises(ValueError):
        build_smtp(grid, 0.0, seed=0, vocab=vocab)
    with pytest.raises(ValueError):
        build_smtp(grid, 1.5, seed=0, vocab=vocab)


def test_linear_schedule_statistics():
    rng = random.Random(77)
    draws = [draw_mask_fraction(rng) for _ in range(4000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.03
    assert all(0 < r <= 1 for r in draws)


# --- packing ---------------------------------------------------------------


def _dummy_example(vocab, length):
    tokens = tuple((vocab.id("0"),) for _ in range(length))
    roles = tuple(("node",) for _ in range(length))
    grid = TokenGrid.from_rows("prolonged", 1, tokens, roles)
    return PretrainExample(inputs=grid, targets=((0, vocab.id("0")),), task="ntp")


def test_pack_two_examples_with_separator():
    vocab = vocab_for(AttributedGraph(num_nodes=1))
    batches = pack([_dummy_example(vocab, 10), _dummy_example(vocab, 10)], 32, vocab)
    assert len(batches) == 1
    batch = batches[0]
    assert len(batch.tokens) == 21  # 10 + separator + 10
    assert batch.boundaries == ((0, 10), (11, 21))
    assert batch.tokens[10][0] == vocab.eos_id


def test_pack_oversized_example_fails():
    vocab = vocab_for(AttributedGraph(num_nodes=1))
    with pytest.raises(ValueError, match="exceeds context"):
        pack([_dummy_example(vocab, 33)], 32, vocab)


@pytest.mark.parametrize("other", ["short", "prolonged"])
def test_pack_refuses_mixed_layouts_or_widths(other):
    g, vocab, grid = _star_grid("short")
    narrow = AttributedGraph(num_nodes=2, edges=((0, 1),))
    mixed = serialize_graph(narrow, vocab, other, ReindexConfig(), 0)
    assert (mixed.layout, mixed.l) != (grid.layout, grid.l)
    with pytest.raises(ValueError, match="^cannot pack mixed layouts or widths$"):
        pack([build_ntp(grid, vocab), build_ntp(mixed, vocab)], 64, vocab)


def test_pack_empty_stream():
    vocab = vocab_for(AttributedGraph(num_nodes=1))
    assert pack([], 32, vocab) == []


def test_pack_rebases_target_positions():
    vocab = vocab_for(AttributedGraph(num_nodes=1))
    batches = pack([_dummy_example(vocab, 5), _dummy_example(vocab, 5)], 16, vocab)
    (batch,) = batches
    assert batch.targets[0][0] == (0, vocab.id("0"))
    assert batch.targets[1][0] == (6, vocab.id("0"))  # shifted past 5 rows + separator


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=8), st.integers(12, 40))
def test_pack_conserves_tokens(lengths, context):
    vocab = vocab_for(AttributedGraph(num_nodes=1))
    examples = [_dummy_example(vocab, n) for n in lengths]
    batches = pack(examples, context, vocab)
    packed = Counter()
    separators = 0
    for b in batches:
        for (tok,) in b.tokens:
            if tok == vocab.eos_id:
                separators += 1
            else:
                packed[tok] += 1
        # spans partition the non-separator rows
        covered = set()
        for s, e in b.boundaries:
            span = set(range(s, e))
            assert not span & covered
            covered |= span
        sep_rows = {i for i, (tok,) in enumerate(b.tokens) if tok == vocab.eos_id}
        assert covered | sep_rows == set(range(len(b.tokens)))
    original = Counter()
    for ex in examples:
        for (tok,) in ex.inputs.tokens:
            original[tok] += 1
    assert packed == original
    assert separators == sum(max(0, len(b.boundaries) - 1) for b in batches)


def test_to_json_writes_the_bytes_of_list_copies():
    # Examples and batches hand json.dumps tuples, their token rows cut
    # from the cells for the call; the bytes must be those of the list
    # copies they once made.
    rng = random.Random(22)
    examples = []
    for i in range(12):
        g = random_connected_graph(rng, max_edge_width=0)
        vocab = vocab_for(g)
        grid = serialize_graph(g, vocab, "prolonged", ReindexConfig(), i)
        ex = build_smtp(grid, 0.5, i, vocab) if i % 2 else build_ntp(grid, vocab)
        copied = {
            "task": ex.task,
            "inputs": [list(r) for r in ex.inputs.tokens],
            "targets": [list(t) for t in ex.targets],
            **({"r": ex.mask_rate_drawn} if ex.task == "smtp" else {}),
            "layout": ex.inputs.layout,
            "l": ex.inputs.l,
        }
        assert json.dumps(ex.to_json()) == json.dumps(copied)
        examples.append(ex)
    batches = pack(examples, 256, vocab)
    assert len(batches) > 1
    for b in batches:
        copied = {
            "layout": b.layout,
            "l": b.l,
            "tokens": [list(r) for r in b.tokens],
            "boundaries": [list(x) for x in b.boundaries],
            "tasks": list(b.tasks),
            "targets": [[list(t) for t in seq] for seq in b.targets],
        }
        assert json.dumps(b.to_json()) == json.dumps(copied)


def _seeded_packing_corpus():
    """SMTP examples of 120 seeded graphs in the prolonged layout and NTP
    examples of the same graphs in the short layout, at attribute widths
    one wider than the corpus's widest blocks, under one vocabulary."""
    rng = random.Random(2026)
    graphs = [random_graph(rng, n_max=12) for _ in range(120)]
    vocab = build_vocab(graphs, "test", ReindexConfig())
    smtp = [
        build_smtp(serialize_graph(g, vocab, "prolonged", ReindexConfig(), i), max(rng.random(), 1e-6), i, vocab)
        for i, g in enumerate(graphs)
    ]
    widths = {
        "edge_attr_width": 1 + max(
            len(vocab.block_ids("edge", row, g.edge_defaults)) for g in graphs for row in g.edge_attrs
        ),
        "node_attr_width": 1 + max(
            len(vocab.block_ids("node", row, g.node_defaults)) for g in graphs for row in g.node_attrs
        ),
    }
    ntp = [
        build_ntp(serialize_graph(g, vocab, "short", ReindexConfig(), i, **widths), vocab)
        for i, g in enumerate(graphs)
    ]
    return vocab, ((smtp, 256), (ntp, 64))


# SHA-256 of the packed batches of ``_seeded_packing_corpus``: 29 batches of
# prolonged SMTP examples, then 23 of short NTP examples. Any change to the
# member rows, separator rows, spans or target re-basing changes it.
PACKED_BATCHES_DIGEST = "ca3cad108680f444f743fe0d97e33a0f1453600f8a357d16dec941aab0db5c0c"


def test_packed_batches_are_pinned():
    vocab, corpora = _seeded_packing_corpus()
    digest = hashlib.sha256()
    counts = []
    for examples, context in corpora:
        batches = pack(examples, context, vocab)
        counts.append(len(batches))
        for b in batches:
            digest.update(json.dumps(b.to_json()).encode() + b"\n")
    assert counts == [29, 23]
    assert digest.hexdigest() == PACKED_BATCHES_DIGEST


def test_packed_rows_are_the_members_rows_between_separator_rows():
    vocab, corpora = _seeded_packing_corpus()
    for examples, context in corpora:
        batches = pack(examples, context, vocab)
        width = examples[0].inputs.l
        sep_row = (vocab.eos_id,) + (vocab.pad_id,) * (width - 1)
        spans = []
        for b in batches:
            rows = b.tokens
            assert b.l == width and len(b.cells) == width * len(rows)
            assert rows == tuple(zip(*[iter(b.cells)] * width))
            ends = [0] + [e + 1 for _, e in b.boundaries]
            assert [s for s, _ in b.boundaries] == ends[:-1]
            assert ends[-1] == len(rows) + 1
            assert all(rows[e] == sep_row for _, e in b.boundaries[:-1])
            spans += [rows[s:e] for s, e in b.boundaries]
        assert sorted(spans) == sorted(ex.inputs.tokens for ex in examples)
