import hashlib
import json
import random

import pytest

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    SamplerConfig,
    build_codebook,
    build_vocab,
    encode_node,
    format_edge_task,
    format_graph_task,
    format_node_task,
    sample,
    serialize_graph,
    with_identity_attrs,
)
from graphseq.vocab import GSUM

from conftest import random_connected_graph, vocab_for


def _grid(g, vocab, layout="prolonged", seed=0):
    return serialize_graph(g, vocab, layout, ReindexConfig(cyclic=False), seed)


def _identity_setup(seed=0):
    parent = AttributedGraph(
        num_nodes=12, edges=tuple((i, (i + 1) % 12) for i in range(12))
    )
    cb = build_codebook(parent, k=2, strategy="bfs-partition", max_cluster=4, dataset_tag="t")
    cfg = SamplerConfig(mode="edge-ego", depth=2, neighbors=2, max_seq_len=256, seed=seed)
    sub = with_identity_attrs(sample(parent, (3, 4), cfg), cb)
    vocab = build_vocab([sub.graph], "t", ReindexConfig(), node_attr_style="inline")
    return parent, cb, sub, vocab


def test_graph_task_appends_summary_token(c3):
    vocab = vocab_for(c3)
    ts = format_graph_task(_grid(c3, vocab), vocab)
    assert ts.tokens[-1] == vocab.id(GSUM)
    assert ts.readout_position == len(ts.tokens) - 1
    assert ts.task == "graph"


def test_graph_task_on_single_node_graph():
    g = AttributedGraph(num_nodes=1)
    vocab = vocab_for(g)
    ts = format_graph_task(_grid(g, vocab), vocab)
    assert [vocab.token(t) for t in ts.tokens] == ["0", GSUM]


def test_graph_task_readout_is_always_last():
    rng = random.Random(2)
    for i in range(20):
        g = random_connected_graph(rng, n_max=8)
        vocab = vocab_for(g)
        ts = format_graph_task(_grid(g, vocab, seed=i), vocab)
        assert ts.readout_position == len(ts.tokens) - 1


def test_edge_task_suffix_is_src_then_dst():
    parent, cb, sub, vocab = _identity_setup()
    grid = _grid(sub.graph, vocab)
    src = encode_node(cb, sub.origin_ids[0])
    dst = encode_node(cb, sub.origin_ids[1])
    ts = format_edge_task(grid, vocab, src, dst, label=1)
    suffix = [vocab.token(t) for t in ts.tokens[len(grid.flat()):]]
    assert suffix == list(src) + list(dst)
    assert ts.readout_position == len(ts.tokens) - 1
    assert vocab.token(ts.tokens[ts.readout_position]) == dst[-1]
    assert ts.label == 1


def test_edge_task_rejects_self_link():
    parent, cb, sub, vocab = _identity_setup()
    grid = _grid(sub.graph, vocab)
    src = encode_node(cb, sub.origin_ids[0])
    with pytest.raises(ValueError, match="must differ"):
        format_edge_task(grid, vocab, src, src)


def test_edge_task_rejects_unresolvable_tokens():
    parent, cb, sub, vocab = _identity_setup()
    grid = _grid(sub.graph, vocab)
    outside = [g for g in range(parent.num_nodes) if g not in sub.origin_ids]
    vocab_all = build_vocab(
        [with_identity_attrs(
            sample(parent, (0,), SamplerConfig(mode="node-ego", depth=12, neighbors=4, max_seq_len=999, seed=1)),
            cb,
        ).graph],
        "t",
        ReindexConfig(),
        node_attr_style="inline",
    )
    grid_all = _grid(sub.graph, vocab_all)
    missing = encode_node(cb, outside[0])
    src = encode_node(cb, sub.origin_ids[0])
    with pytest.raises(ValueError, match="do not occur"):
        format_edge_task(grid_all, vocab_all, src, missing)


def test_negative_pair_formats_identically():
    parent, cb, sub, vocab = _identity_setup()
    grid = _grid(sub.graph, vocab)
    src = encode_node(cb, sub.origin_ids[0])
    dst = encode_node(cb, sub.origin_ids[1])
    pos = format_edge_task(grid, vocab, src, dst, label=1)
    neg = format_edge_task(grid, vocab, src, dst, label=0)
    assert pos.tokens == neg.tokens
    assert pos.readout_position == neg.readout_position
    assert (pos.label, neg.label) == (1, 0)


def test_node_task_suffix_and_readout():
    parent, cb, sub, vocab = _identity_setup(seed=5)
    grid = _grid(sub.graph, vocab)
    target = encode_node(cb, sub.origin_ids[0])
    ts = format_node_task(grid, vocab, target, label=[0, 1])
    assert [vocab.token(t) for t in ts.tokens[-len(target):]] == list(target)
    assert ts.readout_position == len(ts.tokens) - 1
    assert ts.task == "node"


def test_node_task_single_node_graph():
    g = AttributedGraph(num_nodes=1, node_attrs=[[4]], node_defaults=(-1,))
    vocab = build_vocab([g], "t", ReindexConfig(), node_attr_style="inline")
    grid = _grid(g, vocab)
    ts = format_node_task(grid, vocab, ["t#node#0#4"])
    assert ts.readout_position == len(ts.tokens) - 1


def test_node_task_rejects_absent_target():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[1], [2]], node_defaults=(-1,))
    vocab = build_vocab([g], "t", ReindexConfig(), node_attr_style="inline")
    grid = _grid(g, vocab)
    with pytest.raises(ValueError, match="not in vocabulary"):
        format_node_task(grid, vocab, ["t#node#0#9"])


def test_suffix_stripping_recovers_sequence():
    rng = random.Random(9)
    for i in range(20):
        g = random_connected_graph(rng, n_max=8)
        vocab = vocab_for(g)
        layout = ("short", "long", "prolonged")[i % 3]
        grid = _grid(g, vocab, layout, seed=i)
        flat = grid.flat()
        ts = format_graph_task(grid, vocab)
        assert list(ts.tokens[: len(flat)]) == flat
        # suffix is exactly one row
        assert len(ts.tokens) == len(flat) + grid.l


def test_grid_layout_task_suffix_is_padded_row():
    g = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), node_attrs=[[1], [2], [3]])
    vocab = vocab_for(g)
    grid = _grid(g, vocab, "short")
    ts = format_graph_task(grid, vocab)
    suffix = ts.tokens[len(grid.flat()):]
    assert vocab.token(suffix[0]) == GSUM
    assert all(t == vocab.pad_id for t in suffix[1:])
    assert ts.readout_position == len(grid.flat())


def test_to_json_writes_the_bytes_of_a_list_copy():
    # TaskSequence.to_json hands json.dumps its token tuple; the bytes must
    # be those of the list copy it once made.
    _, cb, sub, vocab = _identity_setup()
    grid = _grid(sub.graph, vocab)
    src, dst = (encode_node(cb, v) for v in sub.origin_ids[:2])
    for ts in (format_graph_task(grid, vocab, label=3), format_edge_task(grid, vocab, src, dst, label=1)):
        copied = {
            "task": ts.task,
            "tokens": list(ts.tokens),
            "readout": ts.readout_position,
            "label": ts.label,
        }
        assert json.dumps(ts.to_json()) == json.dumps(copied)


def _reference_outcomes(seed: int):
    """Edge and node tasks on random grids, as JSON lines or error messages.

    References are spans of the grid itself, of one to three tokens
    (their first token often occurs earlier too), plus a pair of
    vocabulary tokens drawn at random, which here never occurs.
    """
    rng = random.Random(seed)
    for i in range(120):
        g = random_connected_graph(rng, n_max=14, max_node_width=3)
        vocab = vocab_for(g, node_attr_style="inline")
        grid = _grid(g, vocab, ("prolonged", "short", "long")[i % 3], seed=i)
        flat = grid.flat()
        names = [vocab.token(t) for t in flat]

        def span():
            width = rng.randint(1, 3)
            start = rng.randrange(len(names) - width + 1)
            return names[start : start + width]

        stray = [vocab.token(rng.randrange(len(vocab))) for _ in range(2)]
        for src, dst in ((span(), span()), (span(), stray), (stray, span())):
            try:
                yield json.dumps(format_edge_task(grid, vocab, src, dst, label=i % 2).to_json())
            except ValueError as exc:
                yield str(exc)
        for target in (span(), stray):
            try:
                yield json.dumps(format_node_task(grid, vocab, target).to_json())
            except ValueError as exc:
                yield str(exc)


def test_reference_search_output_and_errors_are_pinned():
    # Digest taken from a search that compared a slice at every offset:
    # skipping to occurrences of the first id must change no output or
    # message.
    outcomes = list(_reference_outcomes(31))
    misses = [o for o in outcomes if o.endswith("do not occur in the sequence")]
    assert (len(outcomes), len(misses)) == (600, 360)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "6c9a1fa0edf13074bc9399e23629fb44d228a95f275c30c3ac9518c1d63dc2ce"
