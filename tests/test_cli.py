import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphseq import AttributedGraph, Vocabulary, build_multigraph
from graphseq import cli
from graphseq.cli import main

from conftest import random_graph
from oracle import isomorphic


@pytest.fixture
def corpus(tmp_path):
    graphs = [
        {
            "num_nodes": 4,
            "edges": [[0, 1], [1, 2], [1, 3]],
            "node_attrs": [[7, 1], [5, 3], [5, 4], [5, 4]],
            "edge_attrs": [[1], [0], [2]],
        },
        {"num_nodes": 3, "edges": [[0, 1], [1, 2]]},
        {"num_nodes": 5, "edges": [[0, 1], [2, 3], [3, 4]]},
    ]
    path = tmp_path / "graphs.jsonl"
    path.write_text("".join(json.dumps(g) + "\n" for g in graphs))
    return path


def _vocab(tmp_path, corpus, *extra):
    vocab = tmp_path / "vocab.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--dataset-tag", "t",
                 "--output", str(vocab), *extra]) == 0
    return vocab


def test_ingest_normalizes_tsv(tmp_path):
    raw = tmp_path / "edges.tsv"
    raw.write_text("0\t1\n1\t2\n")
    out = tmp_path / "g.jsonl"
    assert main(["ingest", "--input", str(raw), "--format", "edge-tsv",
                 "--output", str(out)]) == 0
    g = AttributedGraph.from_json(json.loads(out.read_text()))
    assert g.num_nodes == 3 and g.num_edges == 2


def test_ingest_names_the_line_of_a_negative_node_id(tmp_path, capsys):
    raw = tmp_path / "edges.tsv"
    raw.write_text("0\t1\n1\t2\n1\t-2\n")
    assert main(["ingest", "--input", str(raw), "--format", "edge-tsv",
                 "--output", str(tmp_path / "g.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] == 3
    assert err["message"] == "line 3: node id out of range in edge (1, -2)"


def test_ingest_skips_blank_and_comment_lines_and_names_a_misshapen_one(tmp_path, capsys):
    raw = tmp_path / "edges.tsv"
    raw.write_text("# src\tdst\n\n0\t1\n   \n1 2\n")
    out = tmp_path / "g.jsonl"
    assert main(["ingest", "--input", str(raw), "--format", "edge-tsv", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["edges"] == [[0, 1], [1, 2]]
    raw.write_text("0\t1\n# a comment\n1\t2\t5\n")
    assert main(["ingest", "--input", str(raw), "--format", "edge-tsv", "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GraphFormatError", "message": "line 3: expected 'src<TAB>dst'", "line": 3}


def test_ingest_quantizes_edge_attrs(tmp_path):
    raw = tmp_path / "g.json"
    raw.write_text(json.dumps({
        "num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [[0.165]]
    }))
    out = tmp_path / "q.jsonl"
    assert main(["ingest", "--input", str(raw), "--edge-scale", "1000",
                 "--edge-offset", "-1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["edge_attrs"] == [[164]]


def test_ingest_of_float_attributes_points_to_the_scale_flags(tmp_path, capsys):
    raw = tmp_path / "g.json"
    raw.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [[0.165]]}))
    out = tmp_path / "q.jsonl"
    assert main(["ingest", "--input", str(raw), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GraphFormatError"
    assert err["message"].startswith("edge 0: attribute 0.165 is not an integer")
    assert "--edge-scale/--edge-offset" in err["message"]
    assert not out.exists()
    # Either flag alone quantizes, the other taking scale 1 or offset 0.
    assert main(["ingest", "--input", str(raw), "--edge-scale", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["edge_attrs"] == [[0]]
    assert main(["ingest", "--input", str(raw), "--edge-offset", "2", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["edge_attrs"] == [[2]]


def test_non_integer_graph_fails_with_its_line(tmp_path, corpus, capsys):
    # Before, this record was truncated into a directed graph with edge
    # (0, 1) and node attribute 1, and tokenize exited 0.
    vocab = _vocab(tmp_path, corpus)
    graphs = tmp_path / "floats.jsonl"
    graphs.write_text(corpus.read_text() + json.dumps({
        "num_nodes": 3, "edges": [[0, 1.7], [1, 2]], "node_attrs": [[1.9], [2], [3]],
        "directed": "false",
    }) + "\n")
    assert main(["tokenize", "--graphs", str(graphs), "--vocab", str(vocab),
                 "--output", str(tmp_path / "grids.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["line"] == 4
    assert err["message"] == "line 4: edge 0: node id 1.7 is not an integer"


def test_repeated_partition_node_fails_naming_both_lines(tmp_path, capsys):
    # Before, the last line won and node 0 silently moved to cluster 2.
    parent = tmp_path / "parent.jsonl"
    parent.write_text(json.dumps({"num_nodes": 3, "edges": [[0, 1], [1, 2]]}) + "\n")
    part = tmp_path / "part.tsv"
    part.write_text("0\t1\n1\t1\n0\t2\n2\t2\n")
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego", "--identity-k", "2",
                 "--partition-file", str(part), "--output", str(tmp_path / "s.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "partition line 3: node 0 is already assigned on line 1"


@pytest.mark.parametrize("text, line, message", [
    ("0\t1\n1\t1\n0\t2\n2\t2\n", 3, "node 0 is already assigned on line 1"),
    ("0\t1\n1\tx\n2\t2\n", 2, "invalid literal for int() with base 10: 'x'"),
    ("0\t1\n\n# c\n1\t1\t1\n", 4, "expected 'global_id<TAB>cluster'"),
], ids=["repeated-node", "non-integer", "three-fields"])
def test_partition_file_errors_carry_their_line(tmp_path, capsys, text, line, message):
    # Before, they were ValueErrors whose error object had no "line".
    parent = tmp_path / "parent.jsonl"
    parent.write_text(json.dumps({"num_nodes": 3, "edges": [[0, 1], [1, 2]]}) + "\n")
    part = tmp_path / "part.tsv"
    part.write_text(text)
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego", "--identity-k", "2",
                 "--partition-file", str(part), "--output", str(tmp_path / "s.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GraphFormatError", "message": f"partition line {line}: {message}", "line": line}


@pytest.mark.parametrize("lines", [2, 9])
def test_partition_file_of_the_wrong_size_fails_before_sampling(tmp_path, capsys, lines):
    # Too few lines would fail mid-run at the first node left out; too many
    # would pass unnoticed.
    parent = tmp_path / "parent.jsonl"
    parent.write_text(json.dumps({"num_nodes": 5, "edges": [[i, i + 1] for i in range(4)]}) + "\n")
    part = tmp_path / "part.tsv"
    part.write_text("".join(f"{v}\t{v // 2}\n" for v in range(lines)))
    out = tmp_path / "s.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego", "--count", "5",
                 "--identity-k", "2", "--partition-file", str(part), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == f"label column has {lines} labels for 5 nodes"
    assert not out.exists()


def test_negative_partition_cluster_fails_before_sampling(tmp_path, capsys):
    # Cluster -1 is the identity slots' default: its token would never be
    # written, and an edge task's suffix would name the wrong nodes.
    parent = tmp_path / "parent.jsonl"
    parent.write_text(json.dumps({"num_nodes": 12, "edges": [[i, (i + 1) % 12] for i in range(12)]}) + "\n")
    part = tmp_path / "part.tsv"
    part.write_text("".join(f"{v}\t{-1 if v < 6 else 0}\n" for v in range(12)))
    out = tmp_path / "s.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "edge-ego", "--count", "4", "--negatives",
                 "--identity-k", "2", "--partition-file", str(part), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "node 0 has negative cluster -1; clusters must be >= 0"}
    assert not out.exists()


def test_a_partition_file_keeps_the_max_cluster_cap(tmp_path, capsys):
    # Before, --max-cluster was dropped for label partitions, so one
    # 30-node cluster passed a cap of 8.
    parent = tmp_path / "ring.jsonl"
    parent.write_text(json.dumps({"num_nodes": 30, "edges": [[i, (i + 1) % 30] for i in range(30)]}) + "\n")
    part = tmp_path / "part.tsv"
    part.write_text("".join(f"{v}\t0\n" for v in range(30)))
    out = tmp_path / "s.jsonl"
    argv = ["sample", "--graph", str(parent), "--mode", "edge-ego", "--count", "3", "--identity-k", "2",
            "--partition-file", str(part), "--output", str(out)]
    assert main([*argv, "--max-cluster", "8"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "label cluster of 30 nodes exceeds max_cluster=8"}
    assert not out.exists()
    assert main([*argv, "--max-cluster", "30"]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_tokenize_detokenize_roundtrip(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--seed", "3", "--output", str(grids)]) == 0
    back = tmp_path / "back.jsonl"
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                 "--output", str(back)]) == 0
    lines = [json.loads(l) for l in back.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["graph"]["num_nodes"] == 4
    assert lines[2]["dropped_jump_edges"] == 1  # third corpus graph is disconnected


def test_edgeless_graphs_decode_under_an_edge_attributed_vocabulary(tmp_path):
    # The decoder gave graphs without edges the vocabulary's edge defaults,
    # which a graph without edge rows cannot hold: a single atom, or two
    # nodes joined only by a jump edge, failed to decode.
    graphs = [
        {"num_nodes": 2, "edges": [[0, 1]], "node_attrs": [[5], [3]], "edge_attrs": [[2]]},
        {"num_nodes": 1, "node_attrs": [[4]]},
        {"num_nodes": 2, "node_attrs": [[4], [1]]},
    ]
    path = tmp_path / "graphs.jsonl"
    path.write_text("".join(json.dumps(g) + "\n" for g in graphs))
    vocab = _vocab(tmp_path, path)
    grids, back = tmp_path / "grids.jsonl", tmp_path / "back.jsonl"
    assert main(["tokenize", "--graphs", str(path), "--vocab", str(vocab),
                 "--output", str(grids)]) == 0
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                 "--output", str(back)]) == 0
    lines = [json.loads(line) for line in back.read_text().splitlines()]
    assert [line["dropped_jump_edges"] for line in lines] == [0, 0, 1]
    for doc, line in zip(graphs, lines, strict=True):
        decoded = AttributedGraph.from_json(line["graph"])
        assert isomorphic(decoded, AttributedGraph.from_json(doc))
        assert decoded.edge_defaults == (() if decoded.num_edges == 0 else (0,))


def test_tokenize_is_byte_deterministic(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
            "--seed", "11"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pretrain_smtp_emits_one_example_per_graph(tmp_path):
    import random

    rng = random.Random(0)
    graphs = []
    for _ in range(10):
        n = rng.randint(3, 7)
        edges = [[i, i + 1] for i in range(n - 1)]
        graphs.append({"num_nodes": n, "edges": edges,
                       "node_attrs": [[rng.randint(0, 3)] for _ in range(n)]})
    corpus = tmp_path / "ten.jsonl"
    corpus.write_text("".join(json.dumps(g) + "\n" for g in graphs))
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "pt.jsonl"
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--task", "smtp", "--output", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 10
    for doc in lines:
        # No roles and no edge count: the tokens give both back.
        assert set(doc) == {"task", "inputs", "targets", "r", "layout", "l"}
        assert doc["task"] == "smtp"
        assert 0 < doc["r"] <= 1
        assert doc["targets"]


def test_pretrain_ntp_lines_hold_no_mask_fraction(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "ntp.jsonl"
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--task", "ntp", "--output", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3
    for doc in lines:
        # Only smtp draws a mask fraction, so ntp lines leave "r" out.
        assert set(doc) == {"task", "inputs", "targets", "layout", "l"}
        assert doc["task"] == "ntp"


def test_pretrain_packs_when_asked(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "packed.jsonl"
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--task", "ntp", "--pack-context", "128",
                 "--output", str(out)]) == 0
    (doc,) = [json.loads(l) for l in out.read_text().splitlines()]
    assert set(doc) == {"layout", "l", "tokens", "boundaries", "tasks", "targets"}
    assert len(doc["boundaries"]) == 3


def test_pretrain_names_the_line_of_an_example_too_long_to_pack(tmp_path, capsys):
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text("".join(json.dumps(g) + "\n" for g in _MIXED_WIDTHS))
    vocab = _vocab(tmp_path, corpus)
    capsys.readouterr()
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab), "--task", "ntp",
                 "--pack-context", "5", "--output", str(tmp_path / "pt.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] == 1
    assert err["message"] == "line 1: example of 26 rows exceeds context 5"


# Short rows of these two graphs are 9 and 8 cells wide.
_MIXED_WIDTHS = [
    {"num_nodes": 4, "edges": [[0, 1], [1, 2], [0, 2], [2, 3]],
     "node_attrs": [[6, 0], [8, 1], [6, 0], [7, 12]], "edge_attrs": [[1], [2], [1], [1]]},
    {"num_nodes": 5, "directed": True, "edges": [[0, 1], [2, 1], [3, 4]],
     "node_attrs": [[6, 0], [0, 0], [8, 3], [6, 0], [0, 1]], "edge_attrs": [[2], [0], [1]]},
]


@pytest.mark.parametrize("task", ["ntp", "smtp"])
@pytest.mark.parametrize("layout", ["short", "long"])
def test_pretrain_packs_grids_whose_blocks_differ_in_width(tmp_path, layout, task):
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text("".join(json.dumps(g) + "\n" for g in _MIXED_WIDTHS * 3))
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "packed.jsonl"
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab), "--task", task,
                 "--layout", layout, "--pack-context", "20", "--output", str(out)]) == 0
    batches = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(batches) > 1
    assert sum(len(b["boundaries"]) for b in batches) == 6
    for b in batches:
        assert b["l"] == 9
        assert {len(row) for row in b["tokens"]} == {9}
        for (start, end), targets in zip(b["boundaries"], b["targets"], strict=True):
            assert targets
            lo, hi = (start, end) if task == "ntp" else (start * 9, end * 9)
            assert all(lo <= pos < hi for pos, _ in targets)


def test_pretrain_output_is_unchanged_where_widths_are_not_pinned(tmp_path):
    # Unpacked short grids keep their own widths; packed prolonged ones are width 1.
    corpus = tmp_path / "mixed.jsonl"
    corpus.write_text("".join(json.dumps(g) + "\n" for g in _MIXED_WIDTHS))
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "pt.jsonl"
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab), "--task", "ntp",
                 "--layout", "short", "--output", str(out)]) == 0
    assert [json.loads(l)["l"] for l in out.read_text().splitlines()] == [9, 8]
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab), "--task", "ntp",
                 "--pack-context", "64", "--output", str(out)]) == 0
    assert [json.loads(l)["l"] for l in out.read_text().splitlines()] == [1]


def test_sample_command(tmp_path):
    parent = tmp_path / "parent.jsonl"
    n = 30
    edges = [[i, (i + 1) % n] for i in range(n)] + [[i, (i + 7) % n] for i in range(0, n, 3)]
    parent.write_text(json.dumps({"num_nodes": n, "edges": edges}) + "\n")
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego",
                 "--depth", "2", "--neighbors", "3", "--count", "5",
                 "--seed", "2", "--output", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 5
    for doc in lines:
        assert doc["root_nodes"] == [0]


def test_sample_of_an_empty_graph_file_fails(tmp_path, capsys):
    parent = tmp_path / "parent.jsonl"
    parent.write_text("\n")
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego", "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GraphFormatError", "message": f"{parent} holds no graph"}
    assert not out.exists()


def test_sample_of_a_second_parent_graph_names_its_line(tmp_path, capsys):
    parent = tmp_path / "parent.jsonl"
    record = json.dumps({"num_nodes": 3, "edges": [[0, 1], [1, 2]]})
    parent.write_text(f"{record}\n{record}\n")
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego", "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GraphFormatError" and err["line"] == 2
    assert err["message"] == "line 2: extra record: --graph holds one parent graph"
    assert not out.exists()


def test_sample_with_identity_and_codebook(tmp_path):
    parent = tmp_path / "parent.jsonl"
    n = 24
    parent.write_text(json.dumps({
        "num_nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)]
    }) + "\n")
    out = tmp_path / "samples.jsonl"
    cb = tmp_path / "cb.tsv"
    assert main(["sample", "--graph", str(parent), "--mode", "edge-ego",
                 "--depth", "1", "--neighbors", "4", "--count", "3", "--negatives",
                 "--identity-k", "2", "--max-cluster", "6", "--codebook-out", str(cb),
                 "--dataset-tag", "t", "--seed", "5", "--output", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [d["label"] for d in lines] == [1, 1, 1, 0, 0, 0]
    assert all(len(d["graph"]["node_attrs"][0]) == 2 for d in lines)
    assert len(cb.read_text().splitlines()) == n


def test_node_ego_negatives_are_an_error(tmp_path, capsys):
    parent = tmp_path / "parent.jsonl"
    parent.write_text(json.dumps({"num_nodes": 6, "edges": [[i, i + 1] for i in range(5)]}) + "\n")
    out, cb = tmp_path / "samples.jsonl", tmp_path / "cb.tsv"
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego", "--count", "3",
                 "--negatives", "--identity-k", "2", "--max-cluster", "3", "--codebook-out", str(cb),
                 "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "ValueError",
                   "message": "negatives are drawn for edge-ego roots only, not node-ego"}
    assert not out.exists() and not cb.exists()


def test_taskfmt_graph_edge_node(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "ts.jsonl"
    assert main(["taskfmt", "--task", "graph", "--graphs", str(corpus),
                 "--vocab", str(vocab),
                 "--output", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3
    for doc in lines:
        assert doc["task"] == "graph"
        assert doc["readout"] == len(doc["tokens"]) - 1

    # node-level over identity-encoded samples
    parent = tmp_path / "parent.jsonl"
    n = 20
    parent.write_text(json.dumps({
        "num_nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)]
    }) + "\n")
    samples = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego",
                 "--depth", "3", "--neighbors", "2", "--count", "4",
                 "--identity-k", "2", "--max-cluster", "5", "--dataset-tag", "t",
                 "--seed", "1", "--output", str(samples)]) == 0
    svocab = tmp_path / "sv.tsv"
    assert main(["vocab", "--graphs", str(samples), "--dataset-tag", "t",
                 "--node-attr-style", "inline", "--output", str(svocab)]) == 0
    nt = tmp_path / "nt.jsonl"
    assert main(["taskfmt", "--task", "node", "--samples", str(samples),
                 "--vocab", str(svocab), "--output", str(nt)]) == 0
    docs = [json.loads(l) for l in nt.read_text().splitlines()]
    assert len(docs) == 4
    assert all(d["readout"] == len(d["tokens"]) - 1 for d in docs)


@pytest.mark.parametrize(("task", "flag"), [
    ("graph", "--graphs"), ("edge", "--samples"), ("node", "--samples"),
])
def test_taskfmt_names_its_missing_input_flag(tmp_path, corpus, capsys, task, flag):
    vocab = _vocab(tmp_path, corpus)
    capsys.readouterr()
    out = tmp_path / "out.jsonl"
    assert main(["taskfmt", "--task", task, "--vocab", str(vocab), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"taskfmt --task {task} needs {flag}"}
    assert not out.exists()


@pytest.mark.parametrize(("task", "flag", "other"), [
    ("graph", "--graphs", "--samples"), ("edge", "--samples", "--graphs"),
])
def test_taskfmt_refuses_the_input_flag_its_task_does_not_read(tmp_path, corpus, capsys, task, flag, other):
    # The unread flag names a file that does not exist: the refusal comes
    # before any input is read.
    vocab = _vocab(tmp_path, corpus)
    capsys.readouterr()
    out = tmp_path / "out.jsonl"
    assert main(["taskfmt", "--task", task, flag, str(corpus), other, str(tmp_path / "missing.jsonl"),
                 "--vocab", str(vocab), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"taskfmt --task {task} does not read {other}"}
    assert not out.exists()


def test_taskfmt_graph_keeps_each_records_label(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    labels = [4.5, 0, None]
    labelled = tmp_path / "labelled.jsonl"
    with open(corpus) as src, open(labelled, "w") as out:
        for line, label in zip(src, labels):
            doc = json.loads(line)
            if label is not None:
                doc["label"] = label
            out.write(json.dumps(doc) + "\n")
    ts = tmp_path / "ts.jsonl"
    assert main(["taskfmt", "--task", "graph", "--graphs", str(labelled),
                 "--vocab", str(vocab), "--output", str(ts)]) == 0
    assert [json.loads(l)["label"] for l in ts.read_text().splitlines()] == labels


def test_taskfmt_uses_the_vocab_files_tag(tmp_path):
    # suffix tokens must match the tag embedded in the vocabulary file even
    # when --dataset-tag is left at its default
    parent = tmp_path / "parent.jsonl"
    n = 16
    parent.write_text(json.dumps({
        "num_nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)]
    }) + "\n")
    samples = tmp_path / "s.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "node-ego",
                 "--depth", "2", "--neighbors", "2", "--count", "2",
                 "--identity-k", "2", "--max-cluster", "4", "--dataset-tag", "net",
                 "--seed", "0", "--output", str(samples)]) == 0
    vocab = tmp_path / "v.tsv"
    assert main(["vocab", "--graphs", str(samples), "--dataset-tag", "net",
                 "--node-attr-style", "inline", "--output", str(vocab)]) == 0
    out = tmp_path / "nt.jsonl"
    assert main(["taskfmt", "--task", "node", "--samples", str(samples),
                 "--vocab", str(vocab),
                 "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_verify_100_random_graphs(capsys, monkeypatch):
    graphs = []

    def recorded(rng, **kwargs):
        graphs.append(random_graph(rng, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(cli, "random_graph", recorded)
    assert main(["verify", "--random", "100", "--seed", "4", "--layout", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "100/100 ok"
    rows = [json.loads(line) for line in out[:-1]]
    assert set(rows[0]) == {"id", "ok", "dedup", "jumps"}
    # The draws reach direction tokens, jump repair and the greedy pairing.
    assert len(graphs) == 100
    assert any(g.directed for g in graphs)
    assert any(row["jumps"] > 0 for row in rows)
    assert any(not build_multigraph(g, 0).minimality_guaranteed for g in graphs)


def test_verify_reads_graph_file(tmp_path, corpus, capsys):
    assert main(["verify", "--graphs", str(corpus), "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3/3 ok"


def test_verify_checks_graphs_of_any_size(tmp_path, capsys):
    # 20 nodes is past the isomorphism oracle, 300 past the default 256 indices.
    path = tmp_path / "paths.jsonl"
    path.write_text("".join(
        json.dumps({"num_nodes": n, "edges": [[i, i + 1] for i in range(n - 1)]}) + "\n"
        for n in (20, 300)
    ))
    assert main(["verify", "--graphs", str(path), "--layout", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in out[:-1]] == [
        {"id": 0, "ok": True, "dedup": 0, "jumps": 0},
        {"id": 1, "ok": True, "dedup": 0, "jumps": 0},
    ]
    assert out[-1] == "2/2 ok"


def test_verify_accepts_edgeless_directed_graphs(tmp_path, capsys):
    # Direction is carried by edge tokens, so without an edge there is none to check.
    path = tmp_path / "edgeless.jsonl"
    path.write_text('{"num_nodes": 1, "directed": true}\n'
                    '{"num_nodes": 3, "directed": true, "edges": []}\n')
    assert main(["verify", "--graphs", str(path), "--layout", "all"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2/2 ok"


def test_errors_are_machine_readable(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["vocab", "--graphs", str(missing), "--dataset-tag", "t",
                 "--output", str(tmp_path / "v.tsv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_ingest_of_a_json_value_that_is_no_object_fails(tmp_path, capsys):
    raw = tmp_path / "list.json"
    raw.write_text("[1, 2]\n")
    assert main(["ingest", "--input", str(raw), "--output", str(tmp_path / "g.jsonl")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "GraphFormatError", "message": "expected a JSON object, not list"}


@pytest.mark.parametrize("argv", [
    ["vocab", "--graphs"],
    ["sample", "--mode", "edge-ego", "--graph"],
], ids=["vocab", "sample"])
def test_a_jsonl_line_that_is_no_object_fails_with_its_line(tmp_path, capsys, argv):
    raw = tmp_path / "list.jsonl"
    raw.write_text("[1, 2]\n")
    assert main([*argv, str(raw), "--output", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "GraphFormatError", "message": "line 1: expected a JSON object, not list", "line": 1}


@pytest.fixture
def jsonl_inputs(tmp_path, corpus):
    """A graphs, a grids and an edge-sample file of at least three lines,
    with the vocabularies the commands reading them need."""
    vocab = _vocab(tmp_path, corpus)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--output", str(grids)]) == 0
    parent = tmp_path / "parent.jsonl"
    n = 24
    parent.write_text(json.dumps({
        "num_nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)]
    }) + "\n")
    samples = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "edge-ego",
                 "--depth", "1", "--neighbors", "4", "--count", "2", "--negatives",
                 "--identity-k", "2", "--max-cluster", "6", "--dataset-tag", "t",
                 "--seed", "5", "--output", str(samples)]) == 0
    svocab = tmp_path / "sv.tsv"
    assert main(["vocab", "--graphs", str(samples), "--dataset-tag", "t",
                 "--node-attr-style", "inline", "--output", str(svocab)]) == 0
    return {"graphs": corpus, "grids": grids, "samples": samples,
            "vocab": vocab, "svocab": svocab}


_BAD_RECORD = {  # key to delete, then fields that make the record invalid
    "graphs": ("num_nodes", {"edges": [[1, 1]]}),
    "grids": ("roles", {"layout": "diagonal"}),
    "samples": ("root_nodes", {"root_nodes": [0, 999]}),
}

_FAILS_IN_STEP = {  # a record that parses but fails the per-item step, and its error text
    "graphs": (lambda doc: {"num_nodes": 300, "edges": [[i, i + 1] for i in range(299)]},
               "300 nodes exceed the index space of 256"),
    "grids": (lambda doc: dict(doc, tokens=[], roles=[]),
              "grid contains no node tokens"),
    "samples": (lambda doc: dict(doc, graph={k: v for k, v in doc["graph"].items()
                                             if k not in ("node_attrs", "attr_defaults")}),
                "samples carry no node identity tokens"),
}

_COMMANDS = {  # command -> (input kind, argv with placeholders, writes per item)
    "vocab": ("graphs", ["vocab", "--graphs", "IN", "--dataset-tag", "t"], False),
    "tokenize": ("graphs", ["tokenize", "--graphs", "IN", "--vocab", "VOCAB"], True),
    "pretrain": ("graphs", ["pretrain", "--graphs", "IN", "--vocab", "VOCAB",
                            "--task", "smtp"], True),
    "detokenize": ("grids", ["detokenize", "--grids", "IN", "--vocab", "VOCAB"], True),
    "taskfmt": ("samples", ["taskfmt", "--task", "edge", "--samples", "IN",
                            "--vocab", "SVOCAB"], True),
}


@pytest.mark.parametrize(("command", "defect"), [
    (command, defect) for command in _COMMANDS for defect in ("json", "key", "invalid")
] + [(command, "step") for command in _COMMANDS if command != "vocab"])
def test_bad_record_fails_with_its_line(tmp_path, jsonl_inputs, capsys, command, defect):
    kind, argv, per_item = _COMMANDS[command]
    good = jsonl_inputs[kind].read_text().splitlines(keepends=True)
    if defect == "json":
        bad = "{oops"
    elif defect == "step":
        make, text = _FAILS_IN_STEP[kind]
        bad = json.dumps(make(json.loads(good[0])))
    else:
        missing, invalid = _BAD_RECORD[kind]
        doc = json.loads(good[0])
        if defect == "key":
            del doc[missing]
        else:
            doc.update(invalid)
        bad = json.dumps(doc)
    prefix, broken = tmp_path / "prefix.jsonl", tmp_path / "broken.jsonl"
    prefix.write_text("".join(good[:2]))
    broken.write_text("".join(good[:2]) + bad + "\n" + good[2])

    def run(path, out):
        paths = {"IN": path, "VOCAB": jsonl_inputs["vocab"], "SVOCAB": jsonl_inputs["svocab"]}
        args = [str(paths.get(a, a)) for a in argv]
        return main(args + ["--output", str(out)])

    expected, out = tmp_path / "expected.jsonl", tmp_path / "out.jsonl"
    assert run(prefix, expected) == 0
    capsys.readouterr()
    assert run(broken, out) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "GraphFormatError"
    assert err["line"] == 3
    assert err["message"].startswith("line 3: ")
    if defect == "step":
        assert err["message"].startswith("line 3: " + text)
    if per_item:
        assert len(expected.read_text().splitlines()) == 2
        assert out.read_text() == expected.read_text()
    else:
        assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("graph", 5, "graph must be a JSON object, not 5"),
    ("root_nodes", 0, "root_nodes must be a JSON array, not 0"),
    ("origin_ids", 7, "origin_ids must be a JSON array, not 7"),
])
def test_a_sample_field_of_another_json_kind_is_refused_by_its_key(
    tmp_path, jsonl_inputs, capsys, key, value, message
):
    # Before, Python's own message: "'int' object has no attribute 'get'" or "is not iterable".
    lines = jsonl_inputs["samples"].read_text().splitlines(keepends=True)
    samples = tmp_path / "bad-samples.jsonl"
    samples.write_text(lines[0] + json.dumps({**json.loads(lines[1]), key: value}) + "\n")
    assert main(["taskfmt", "--task", "edge", "--samples", str(samples),
                 "--vocab", str(jsonl_inputs["svocab"]), "--output", str(tmp_path / "ts.jsonl")]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": "GraphFormatError", "message": f"line 2: {message}", "line": 2
    }


@pytest.mark.parametrize(("key", "index", "value", "text"), [
    ("root_nodes", 1, 1.7, "root node 1.7"),
    ("root_nodes", 1, True, "root node True"),
    ("root_nodes", 1, "1", "root node '1'"),
    ("origin_ids", 0, "+0.9", "origin id"),
])
def test_sample_ids_that_are_not_integers_fail_with_their_line(
    tmp_path, jsonl_inputs, capsys, key, index, value, text
):
    # Coercing these would read 1.7 or "1" as node 1, a different sample.
    lines = jsonl_inputs["samples"].read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])
    doc[key][index] = doc[key][index] + 0.9 if value == "+0.9" else value
    samples = tmp_path / "bad-samples.jsonl"
    samples.write_text(lines[0] + json.dumps(doc) + "\n" + "".join(lines[2:]))
    assert main(["taskfmt", "--task", "edge", "--samples", str(samples),
                 "--vocab", str(jsonl_inputs["svocab"]), "--output", str(tmp_path / "ts.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["line"] == 2
    assert err["message"].startswith(f"line 2: {text}")
    assert err["message"].endswith(" is not an integer")


def test_detokenize_names_the_line_of_a_repeated_dimension(tmp_path, corpus, capsys):
    vocab = _vocab(tmp_path, corpus)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--layout", "prolonged", "--output", str(grids)]) == 0
    ids = Vocabulary.load(vocab).id
    marker = ids("t#node#0#1")
    # An older grid file's "m" key is not read.
    repeated = {"layout": "prolonged", "m": 1, "l": 1,
                "tokens": [[ids("0")], [marker], [ids("<5>")], [marker], [ids("<9>")], [ids("1")]],
                "roles": [["node"]] + [["node-attr"]] * 4 + [["node"]]}
    first = grids.read_text().splitlines()[0]
    grids.write_text(first + "\n" + json.dumps(repeated) + "\n")
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                 "--output", str(tmp_path / "back.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["line"] == 2
    assert err["message"] == "line 2: malformed attribute run: dimension 0 repeated in node block"


def test_detokenize_refuses_a_grid_with_fewer_role_rows_than_token_rows(tmp_path, capsys):
    # Decoding zipped tokens with roles, so a truncated roles list read
    # the 4-node path back as a 2-node graph.
    path = tmp_path / "path.jsonl"
    path.write_text(json.dumps({"num_nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]]}) + "\n")
    vocab = _vocab(tmp_path, path)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(path), "--vocab", str(vocab),
                 "--layout", "short", "--output", str(grids)]) == 0
    doc = json.loads(grids.read_text())
    rows = len(doc["tokens"])
    doc["roles"] = doc["roles"][:2]
    grids.write_text(json.dumps(doc) + "\n")
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                 "--output", str(tmp_path / "back.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["line"] == 1
    assert err["message"] == f"line 1: grid has {rows} token rows but 2 role rows"


def test_detokenize_refuses_a_row_width_the_layout_cannot_have(tmp_path, capsys):
    # Unchecked, a 4-node path's prolonged grid cut into 2-cell rows
    # decoded with exit 0.
    path = tmp_path / "path.jsonl"
    path.write_text(json.dumps({"num_nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]]}) + "\n")
    vocab = _vocab(tmp_path, path)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(path), "--vocab", str(vocab),
                 "--layout", "prolonged", "--output", str(grids)]) == 0
    doc = json.loads(grids.read_text())
    cells = [cell for row in doc["tokens"] for cell in row]
    assert len(cells) == 4
    doc.update(l=2, tokens=[cells[:2], cells[2:]], roles=[["node", "node"]] * 2)
    grids.write_text(json.dumps(doc) + "\n")
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                 "--output", str(tmp_path / "back.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["line"] == 1
    assert err["message"] == "line 1: a prolonged grid cannot have row width l=2"


def test_taskfmt_names_the_missing_identity_flag(tmp_path, capsys):
    parent = tmp_path / "parent.jsonl"
    n = 24
    parent.write_text(json.dumps({
        "num_nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)]
    }) + "\n")
    samples = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "edge-ego",
                 "--depth", "1", "--neighbors", "4", "--count", "2", "--negatives",
                 "--seed", "5", "--output", str(samples)]) == 0
    vocab = tmp_path / "v.tsv"
    assert main(["vocab", "--graphs", str(samples), "--dataset-tag", "t",
                 "--output", str(vocab)]) == 0
    capsys.readouterr()
    assert main(["taskfmt", "--task", "edge", "--samples", str(samples),
                 "--vocab", str(vocab), "--output", str(tmp_path / "out.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] == 1
    assert "no node identity tokens" in err["message"]
    assert "--identity-k" in err["message"]


@pytest.mark.parametrize(("task", "drawn", "wanted"), [
    ("edge", "node-ego", "edge-ego"),
    ("node", "edge-ego", "node-ego"),
])
def test_taskfmt_needs_the_root_count_of_its_task(tmp_path, capsys, task, drawn, wanted):
    parent = tmp_path / "parent.jsonl"
    n = 20
    parent.write_text(json.dumps({
        "num_nodes": n, "edges": [[i, (i + 1) % n] for i in range(n)]
    }) + "\n")
    samples = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", drawn,
                 "--depth", "2", "--neighbors", "2", "--count", "2",
                 "--identity-k", "2", "--max-cluster", "5", "--dataset-tag", "t",
                 "--seed", "1", "--output", str(samples)]) == 0
    vocab = tmp_path / "v.tsv"
    assert main(["vocab", "--graphs", str(samples), "--dataset-tag", "t",
                 "--node-attr-style", "inline", "--output", str(vocab)]) == 0
    capsys.readouterr()
    assert main(["taskfmt", "--task", task, "--samples", str(samples),
                 "--vocab", str(vocab), "--output", str(tmp_path / "out.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] == 1
    assert f"graphseq sample --mode {wanted}" in err["message"]


_INLINE_CORPUS = [
    {"num_nodes": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [1, 3]],
     "node_attrs": [[17, 1], [20, 0], [1, 3], [0, 0], [17, 2]],
     "edge_attrs": [[3], [1], [0], [12], [1]]},
    {"num_nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
     "node_attrs": [[1, 1], [2, 2], [3, 3], [4, 4]], "edge_attrs": [[5], [6], [7], [8]]},
    {"num_nodes": 3, "edges": [[0, 1], [1, 2]],
     "node_attrs": [[9, 0], [0, 9], [1, 0]], "edge_attrs": [[1], [2]]},
]


def test_inline_vocabulary_round_trips_without_style_flags(tmp_path):
    corpus = tmp_path / "graphs.jsonl"
    corpus.write_text("".join(json.dumps(g) + "\n" for g in _INLINE_CORPUS))
    vocab = tmp_path / "v.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--dataset-tag", "t",
                 "--node-attr-style", "inline", "--edge-attr-style", "inline",
                 "--output", str(vocab)]) == 0
    digest = hashlib.sha256()
    for layout in ("prolonged", "short", "long"):
        grids, back = tmp_path / f"{layout}.jsonl", tmp_path / f"{layout}-back.jsonl"
        assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                     "--layout", layout, "--seed", "5", "--output", str(grids)]) == 0
        assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                     "--output", str(back)]) == 0
        for line in grids.read_text().splitlines():
            doc = json.loads(line)
            digest.update(json.dumps([doc["layout"], doc["l"], doc["tokens"]]).encode() + b"\n")
        for doc, original in zip(map(json.loads, back.read_text().splitlines()), _INLINE_CORPUS):
            assert isomorphic(AttributedGraph.from_json(doc["graph"]),
                              AttributedGraph.from_json(original))
    # Layout, row width and tokens of each grid line, the cells the two
    # styles spell, and nothing else a grid file stores (roles, say).
    assert digest.hexdigest() == "be21b644f1b0fd083d44060368bbb70cfb36847bfa7d284b041b06bdc3871eb5"


def test_headerless_vocabulary_is_rejected(tmp_path, corpus, capsys):
    vocab = _vocab(tmp_path, corpus)
    headerless = tmp_path / "headerless.tsv"
    headerless.write_text("".join(vocab.read_text().splitlines(keepends=True)[1:]))
    capsys.readouterr()
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(headerless),
                 "--output", str(tmp_path / "grids.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith("vocab line 1: ")


@pytest.mark.parametrize("count", ["0", "-5"])
def test_vocab_refuses_an_index_space_below_one(tmp_path, corpus, capsys, count):
    vocab = tmp_path / "vocab.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--num-indices", count,
                 "--output", str(vocab)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"num_indices must be >= 1, not {count}"}
    assert not vocab.exists()


def test_num_indices_defaults_to_the_vocabulary_and_must_match_it(tmp_path, corpus, capsys):
    vocab = _vocab(tmp_path, corpus, "--num-indices", "64")
    grids = tmp_path / "grids.jsonl"
    for extra in ([], ["--num-indices", "64"]):
        assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                     "--seed", "1", *extra, "--output", str(grids)]) == 0
    capsys.readouterr()
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                 "--num-indices", "256", "--output", str(tmp_path / "back.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "--num-indices 256" in err["message"] and "64" in err["message"]


_SHARED_FLAGS = ("--config", "--seed", "--dataset-tag", "--num-indices", "--cyclic",
                 "--node-attr-style", "--edge-attr-style", "--layout")
_SERIALIZING = {"--num-indices", "--cyclic", "--layout"}


def test_each_command_takes_only_the_shared_flags_it_reads(capsys):
    takes = {
        "ingest": set(),
        "vocab": {"--dataset-tag", "--num-indices", "--node-attr-style", "--edge-attr-style"},
        "tokenize": _SERIALIZING,
        "detokenize": {"--num-indices"},
        "sample": {"--dataset-tag"},
        "pretrain": _SERIALIZING,
        "taskfmt": _SERIALIZING,
        "verify": {"--layout"},
    }
    count = 0
    for command, flags in takes.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        listed = {flag for flag in _SHARED_FLAGS if flag in text}
        seed = set() if command in ("ingest", "vocab") else {"--seed"}
        assert listed == {"--config"} | seed | flags, command
        count += len(listed)
    assert count == 30


@pytest.mark.parametrize("argv", [
    ["vocab", "--graphs", "g.jsonl", "--output", "v.tsv", "--layout", "long"],
    ["tokenize", "--graphs", "g.jsonl", "--vocab", "v.tsv", "--output", "o", "--dataset-tag", "t"],
    ["detokenize", "--grids", "g.jsonl", "--vocab", "v.tsv", "--output", "o",
     "--node-attr-style", "inline"],
    ["pretrain", "--graphs", "g.jsonl", "--vocab", "v.tsv", "--task", "ntp", "--output", "o",
     "--edge-attr-style", "digits"],
    ["taskfmt", "--task", "graph", "--graphs", "g.jsonl", "--vocab", "v.tsv", "--output", "o",
     "--dataset-tag", "t"],
    ["verify", "--num-indices", "64"],
    ["sample", "--graph", "g.jsonl", "--mode", "node-ego", "--output", "o",
     "--identity-strategy", "bfs-partition"],
    ["sample", "--graph", "g.jsonl", "--mode", "node-ego", "--output", "o", "--max-seq-len", "96"],
    ["ingest", "--input", "g.tsv", "--output", "o", "--seed", "1"],
    ["vocab", "--graphs", "g.jsonl", "--output", "v.tsv", "--seed", "1"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_a_flag_the_command_ignores_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("task", ["edge", "node"])
def test_taskfmt_needs_an_inline_node_vocabulary(tmp_path, jsonl_inputs, capsys, task):
    digits_vocab = tmp_path / "digits.tsv"
    assert main(["vocab", "--graphs", str(jsonl_inputs["samples"]), "--dataset-tag", "t",
                 "--output", str(digits_vocab)]) == 0
    out = tmp_path / "tasks.jsonl"
    capsys.readouterr()
    assert main(["taskfmt", "--task", task, "--samples", str(jsonl_inputs["samples"]),
                 "--vocab", str(digits_vocab), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "graphseq vocab --node-attr-style inline" in err["message"]
    assert "line" not in err
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_tag": "fromcfg", "num_indices": 32, "seed": 9}))
    vocab = tmp_path / "v.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--config", str(cfg),
                 "--output", str(vocab)]) == 0
    text = vocab.read_text()
    assert "fromcfg#node#0#1" in text
    assert Vocabulary.load(vocab).token(32) == "[p]"  # 32 structural ids from config
    # flag overrides config
    vocab2 = tmp_path / "v2.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--config", str(cfg),
                 "--dataset-tag", "flagwins", "--output", str(vocab2)]) == 0
    assert "flagwins#node#0#1" in vocab2.read_text()


def _edge_samples(tmp_path, *flags):
    parent = tmp_path / "ring.jsonl"
    edges = [[i, (i + 1) % 30] for i in range(30)] + [[0, 15], [4, 22], [9, 27], [13, 20]]
    parent.write_text(json.dumps({"num_nodes": 30, "edges": edges}) + "\n")
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(parent), "--mode", "edge-ego", *flags, "--output", str(out)]) == 0
    return out.read_bytes()


def test_config_file_sets_switches_as_the_flag_does(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"negatives": True, "count": 3, "identity_k": 2, "max_cluster": 8}))
    from_file = _edge_samples(tmp_path, "--config", str(cfg))
    assert len(from_file.splitlines()) == 6
    assert from_file == _edge_samples(
        tmp_path, "--count", "3", "--negatives", "--identity-k", "2", "--max-cluster", "8")
    # Explicit flags still win over the file.
    assert from_file != _edge_samples(tmp_path, "--config", str(cfg), "--max-cluster", "4")
    assert len(_edge_samples(tmp_path, "--config", str(cfg), "--count", "2").splitlines()) == 4


def test_a_flag_turns_off_a_switch_the_config_file_set(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"negatives": True, "count": 3, "identity_k": 2, "max_cluster": 8}))
    positives = _edge_samples(tmp_path, "--config", str(cfg), "--no-negatives")
    assert len(positives.splitlines()) == 3
    assert positives == _edge_samples(tmp_path, "--count", "3", "--identity-k", "2", "--max-cluster", "8")


def test_a_config_key_of_another_commands_flag_is_ignored(tmp_path, corpus):
    # One file can serve several commands; a key naming no flag of any command is refused.
    vocab = _vocab(tmp_path, corpus)
    cfg, short, from_file = tmp_path / "cfg.json", tmp_path / "short.jsonl", tmp_path / "from-file.jsonl"
    cfg.write_text(json.dumps({"layout": "short", "identity_k": 2, "negatives": True, "task": "smtp"}))
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab), "--layout", "short",
                 "--output", str(short)]) == 0
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab), "--config", str(cfg),
                 "--output", str(from_file)]) == 0
    assert from_file.read_bytes() == short.read_bytes()


def test_config_string_values_go_through_the_flag_type(tmp_path, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_indices": "32"}))
    vocab = tmp_path / "v.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--config", str(cfg), "--output", str(vocab)]) == 0
    assert Vocabulary.load(vocab).num_indices == 32


@pytest.mark.parametrize("config, error, message", [
    ({"negatives": "false"}, "ValueError", 'config negatives: "false" is not a value of --negatives'),
    ({"count": 2.5}, "ValueError", "config count: 2.5 is not a value of --count"),
    ({"count": True}, "ValueError", "config count: true is not a value of --count"),
    ({"seed": "x"}, "ValueError", 'config seed: "x" is not a value of --seed'),
    ([{"count": 2}], "GraphFormatError", "cfg.json: expected a JSON object, not list"),
    ({"seeed": 5, "layuot": "short"}, "ValueError", "config seeed: no graphseq command has a --seeed flag"),
], ids=["switch-text", "fraction", "bool-count", "text-seed", "list", "typo"])
def test_config_values_the_flag_would_refuse_are_errors(tmp_path, capsys, config, error, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--graph", str(tmp_path / "absent.jsonl"), "--mode", "edge-ego",
                 "--config", str(cfg), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and message in err["message"]
    assert not out.exists()


def test_a_config_that_is_no_json_object_fails_as_a_graph_file_does(tmp_path, capsys):
    # Before, a syntax error escaped as a bare JSONDecodeError with no line,
    # and a list as a ValueError worded unlike the graph readers' error.
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "samples.jsonl"
    for text, message, line in [
        ("[1, 2]", "expected a JSON object, not list", None),
        ('{"count": 2,\n "seed": }\n', "line 2: invalid JSON: Expecting value", 2),
    ]:
        cfg.write_text(text)
        assert main(["sample", "--graph", str(tmp_path / "absent.jsonl"), "--mode", "edge-ego",
                     "--config", str(cfg), "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GraphFormatError"
        assert err["message"] == f"config {cfg}: {message}"
        assert err.get("line") == line
        assert not out.exists()


@pytest.mark.parametrize("key, rows, flag, message", [
    ("node_attrs", [[True], [2]], "--node-scale", "node 0: attribute True is not a number"),
    ("node_attrs", [[1], ["2.5"]], "--node-scale", "node 1: attribute '2.5' is not a number"),
    ("edge_attrs", [[0.5, False]], "--edge-offset", "edge 0: attribute False is not a number"),
], ids=["boolean", "numeric-string", "edge-boolean-after-a-float"])
def test_a_boolean_or_numeric_string_under_a_scale_flag_is_refused(tmp_path, capsys, key, rows, flag, message):
    # Before, float() read true as 1 and "2.5" as 2.5, and ingest exited 0.
    raw = tmp_path / "g.json"
    raw.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]], key: rows}))
    out = tmp_path / "g.jsonl"
    assert main(["ingest", "--input", str(raw), flag, "1", "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GraphFormatError", "message": message}
    assert not out.exists()


def test_a_non_numeric_value_under_a_scale_flag_fails_as_a_graph_file_error(tmp_path, capsys):
    # Before, float("high") escaped as a bare ValueError, then as Python's
    # own message, which named no row.
    raw = tmp_path / "g.json"
    raw.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]], "node_attrs": [[0.5], ["high"]]}))
    out = tmp_path / "g.jsonl"
    assert main(["ingest", "--input", str(raw), "--node-scale", "10", "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GraphFormatError", "message": "node 1: attribute 'high' is not a number"}
    assert not out.exists()


@pytest.mark.parametrize("value, scale, message", [
    ("Infinity", "2", "node 1: attribute inf times scale 2.0 is not finite"),
    ("1e400", "2", "node 1: attribute inf times scale 2.0 is not finite"),
    ("-Infinity", "2", "node 1: attribute -inf times scale 2.0 is not finite"),
    ("NaN", "2", "node 1: attribute nan times scale 2.0 is not finite"),
    ("1" + "0" * 400, "2", f"node 1: attribute {10 ** 400} times scale 2.0 is not finite"),
    ("null", "2", "node 1: attribute None is not a number"),
    ("[2]", "2", "node 1: attribute [2] is not a number"),
    ('"abc"', "2", "node 1: attribute 'abc' is not a number"),
    ("3", "inf", "node 0: attribute 0.5 times scale inf is not finite"),
    ("3", "nan", "node 0: attribute 0.5 times scale nan is not finite"),
], ids=["infinity", "float-past-range", "minus-infinity", "nan", "int-past-float-range",
        "null", "list", "string", "scale-inf", "scale-nan"])
def test_a_value_that_does_not_quantize_is_refused_by_row(tmp_path, capsys, value, scale, message):
    # Before, an infinity exited as a bare OverflowError, and a NaN, a null,
    # a list or a string failed with Python's own message, naming no row.
    raw = tmp_path / "g.json"
    raw.write_text('{"num_nodes": 2, "edges": [[0, 1]], "node_attrs": [[0.5], [%s]]}' % value)
    out = tmp_path / "g.jsonl"
    assert main(["ingest", "--input", str(raw), "--node-scale", scale, "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GraphFormatError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    (["ingest", "--format", "edge-tsv", "--input", "{tsv}"], "--node-scale"),
    (["ingest", "--format", "edge-tsv", "--input", "{tsv}"], "--node-offset"),
    (["ingest", "--format", "edge-tsv", "--input", "{tsv}"], "--edge-scale"),
    (["ingest", "--format", "edge-tsv", "--input", "{tsv}"], "--edge-offset"),
    (["sample", "--graph", "{absent}", "--mode", "edge-ego"], "--partition-file"),
    (["sample", "--graph", "{absent}", "--mode", "edge-ego"], "--codebook-out"),
], ids=["ingest-node-scale", "ingest-node-offset", "ingest-edge-scale", "ingest-edge-offset",
        "sample-partition-file", "sample-codebook-out"])
def test_a_flag_the_command_would_not_read_fails_before_any_input(tmp_path, capsys, command, flag):
    # Before, each exited 0: ingest ignored the scale flags of an edge list,
    # and sample without --identity-k never opened the partition file.
    tsv = tmp_path / "edges.tsv"
    tsv.write_text("0\t1\n")
    paths = {"tsv": tsv, "absent": tmp_path / "absent.jsonl"}
    out = tmp_path / "out.jsonl"
    value = "3" if flag.endswith(("scale", "offset")) else str(tmp_path / "absent.tsv")
    argv = [arg.format(**paths) for arg in command] + [flag, value, "--output", str(out)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].endswith(f"does not read {flag}")
    assert not out.exists() and not (tmp_path / "absent.tsv").exists()


def test_a_config_layout_outside_the_flags_choices_is_an_error(tmp_path, corpus, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layout": "wide"}))
    vocab = _vocab(tmp_path, corpus)
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab), "--config", str(cfg),
                 "--output", str(tmp_path / "grids.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == 'config layout: "wide" is not a value of --layout'


@pytest.mark.parametrize("count", ["0", "-5"])
def test_verify_refuses_fewer_than_one_random_graph(capsys, count):
    assert main(["verify", "--random", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": f"--random must be >= 1, not {count}"}


def test_pretrain_refuses_a_negative_pack_context_before_reading(tmp_path, capsys):
    out = tmp_path / "pt.jsonl"
    assert main(["pretrain", "--graphs", str(tmp_path / "absent.jsonl"), "--vocab", str(tmp_path / "absent.tsv"),
                 "--task", "ntp", "--pack-context", "-1", "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "--pack-context must be >= 0, not -1"}
    assert not out.exists()


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "graphseq.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "graphseq" in proc.stdout


def _graphseq_c_locale(cwd, *argv) -> subprocess.CompletedProcess:
    """The CLI run as a process under the C locale with UTF-8 mode off, where
    open() without an encoding reads ASCII; EncodingWarning, made an error,
    catches any open() that leaves the encoding to the locale."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "graphseq.cli", *argv],
        capture_output=True, text=True, encoding="utf-8", cwd=cwd, env=env,
    )


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale with UTF-8 mode off, open() without an encoding
    # reads ASCII: before, `vocab` on a record labelled "café" exited with
    # a UnicodeDecodeError, and an edge list saved with a byte-order mark
    # failed at "line 1: node ids must be integers". EncodingWarning, made
    # an error, catches any open() that leaves the encoding to the locale.
    bom = "\ufeff"
    graphs = tmp_path / "graphs.jsonl"
    graphs.write_text(bom + "".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in [
        {"num_nodes": 3, "edges": [[0, 1], [1, 2]], "node_attrs": [[1], [2], [1]], "label": "café"},
        {"num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [[3]], "label": "naïve"},
    ]), encoding="utf-8")
    raw = tmp_path / "raw.json"
    raw.write_text(bom + '{"num_nodes": 2, "edges": [[0, 1]], "node_attrs": [[0.5], [1.5]], "note": "é"}',
                   encoding="utf-8")
    (tmp_path / "edges.tsv").write_text(bom + "0\t1\n1\t2\n2\t3\n3\t0\n0\t2\n", encoding="utf-8")
    (tmp_path / "config.json").write_text(bom + '{"dataset_tag": "é"}', encoding="utf-8")

    def graphseq(*argv):
        proc = _graphseq_c_locale(tmp_path, *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv

    graphseq("ingest", "--input", "raw.json", "--node-scale", "2", "--output", "ingested.jsonl")
    graphseq("ingest", "--format", "edge-tsv", "--input", "edges.tsv", "--output", "parent.jsonl")
    graphseq("vocab", "--graphs", "graphs.jsonl", "--config", "config.json", "--output", "vocab.tsv")
    graphseq("tokenize", "--graphs", "graphs.jsonl", "--vocab", "vocab.tsv", "--output", "grids.jsonl")
    graphseq("detokenize", "--grids", "grids.jsonl", "--vocab", "vocab.tsv", "--output", "decoded.jsonl")
    graphseq("pretrain", "--task", "smtp", "--graphs", "graphs.jsonl", "--vocab", "vocab.tsv", "--output", "smtp.jsonl")
    graphseq("sample", "--graph", "parent.jsonl", "--mode", "edge-ego", "--count", "2", "--output", "samples.jsonl")
    graphseq("taskfmt", "--task", "graph", "--graphs", "graphs.jsonl", "--vocab", "vocab.tsv",
             "--output", "tasks.jsonl")
    ingested = json.loads((tmp_path / "ingested.jsonl").read_text(encoding="utf-8"))
    assert ingested["node_attrs"] == [[1], [3]]
    parent = json.loads((tmp_path / "parent.jsonl").read_text(encoding="utf-8"))
    assert parent["edges"] == [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]
    assert Vocabulary.load(tmp_path / "vocab.tsv").dataset_tag == "é"
    with open(tmp_path / "tasks.jsonl", encoding="utf-8") as fh:
        assert [json.loads(line)["label"] for line in fh] == ["café", "naïve"]


# Per input kind: the file given a byte that is not UTF-8 on its line 2,
# and the command reading it.
_NOT_UTF8_INPUTS = {
    "vocab-graphs": ("graphs", ["vocab", "--graphs", "BAD", "--output", "out.tsv"]),
    "taskfmt-samples": ("samples", ["taskfmt", "--task", "edge", "--samples", "BAD", "--vocab", "sv.tsv",
                                    "--output", "out.jsonl"]),
    "detokenize-grids": ("grids", ["detokenize", "--grids", "BAD", "--vocab", "vocab.tsv",
                                   "--output", "out.jsonl"]),
    "ingest-edge-tsv": (b"0\t1\n1\t2\xff\n", ["ingest", "--format", "edge-tsv", "--input", "BAD",
                                              "--output", "out.jsonl"]),
    "sample-partition-file": (b"0\t0\n1\t\xff0\n", ["sample", "--graph", "parent.jsonl", "--mode", "edge-ego",
                                                  "--identity-k", "2", "--partition-file", "BAD",
                                                  "--output", "out.jsonl"]),
    "tokenize-vocab": ("vocab", ["tokenize", "--graphs", "graphs.jsonl", "--vocab", "BAD",
                                 "--output", "out.jsonl"]),
    "config": (b'{"dataset_tag":\n "\xff"}\n', ["vocab", "--graphs", "graphs.jsonl", "--config", "BAD",
                                            "--output", "out.tsv"]),
    "ingest-json": (b'{"num_nodes": 2,\n "note": "\xff"}\n', ["ingest", "--input", "BAD",
                                                          "--output", "out.jsonl"]),
}


@pytest.mark.parametrize("kind", _NOT_UTF8_INPUTS)
def test_a_line_that_is_not_utf8_fails_with_its_number(tmp_path, jsonl_inputs, kind):
    # Before, each exited with a bare UnicodeDecodeError (or, for the
    # vocabulary, a ValueError) that named no line.
    source, argv = _NOT_UTF8_INPUTS[kind]
    if isinstance(source, str):  # line 1 of a good file, then a line holding \xff
        first = jsonl_inputs[source].read_bytes().splitlines(keepends=True)[0]
        source = first + b"\xff" + first
    (tmp_path / "bad").write_bytes(source)
    proc = _graphseq_c_locale(tmp_path, *[a.replace("BAD", "bad") for a in argv])
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "GraphFormatError" and err["line"] == 2
    assert err["message"].endswith("line 2: byte 0xff is not UTF-8")


def test_a_vocabulary_error_carries_its_line(tmp_path, corpus, capsys):
    # Before, {"error": "ValueError", "message": "vocab line 1: ..."}, with no "line".
    vocab = _vocab(tmp_path, corpus)
    vocab.write_text(vocab.read_text().replace("#graphseq-vocab", "#vocab", 1))
    capsys.readouterr()
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--output", str(tmp_path / "grids.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GraphFormatError" and err["line"] == 1
    assert err["message"].startswith("vocab line 1: expected a #graphseq-vocab header")


@pytest.mark.parametrize("old, new, message", [
    ("node_defaults=0,0", "node_defaults=0",
     "semantic token 'data#node#1#1' is past the vocabulary's 1 node attribute dimensions, one per default"),
    ("data#node#1#1", "data#node#x#1", "semantic token 'data#node#x#1' is not TAG#KIND#DIM#VALUE"),
], ids=["past-the-width", "not-semantic"])
def test_a_semantic_token_the_vocabulary_refuses_names_its_line(tmp_path, capsys, old, new, message):
    # Before, {"error": "ValueError", "message": "semantic token ..."}, with no "line".
    # A semantic token's line is its id plus 2: line 1 is the header.
    graphs = tmp_path / "graphs.jsonl"
    graphs.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]], "node_attrs": [[1, 2], [0, 0]]}) + "\n")
    vocab = tmp_path / "vocab.tsv"
    assert main(["vocab", "--graphs", str(graphs), "--output", str(vocab)]) == 0
    assert Vocabulary.load(vocab).id("data#node#1#1") == 276
    assert old in vocab.read_text()
    vocab.write_text(vocab.read_text().replace(old, new, 1))
    capsys.readouterr()
    assert main(["tokenize", "--graphs", str(graphs), "--vocab", str(vocab),
                 "--output", str(tmp_path / "grids.jsonl")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GraphFormatError", "message": f"vocab line 278: {message}", "line": 278}


@pytest.mark.parametrize("doc, flag, message", [
    ({"num_nodes": 3, "edges": [[0, 1], 5]}, None, "edge 1: expected a [src, dst] pair, not 5"),
    ({"num_nodes": 3, "edges": [[0, 1], [1, 2, 0]]}, None, "edge 1: expected a [src, dst] pair, not [1, 2, 0]"),
    ({"num_nodes": 3, "node_attrs": [[1], 2, [3]]}, None, "node 1: expected a list of attribute values, not 2"),
    ({"num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [7]}, None,
     "edge 0: expected a list of attribute values, not 7"),
    ({"num_nodes": 3, "node_attrs": [[1], 2, [3]]}, "--node-scale",
     "node 1: expected a list of attribute values, not 2"),
    ({"num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [7]}, "--edge-scale",
     "edge 0: expected a list of attribute values, not 7"),
    *[({"num_nodes": 2, "edges": value}, None, f"edges must be a JSON array, not {value!r}")
      for value in (5, "", {}, None)],
    *[({"num_nodes": 2, "node_attrs": value}, None, f"node_attrs must be a JSON array, not {value!r}")
      for value in (0, False, "")],
    ({"num_nodes": 2, "edge_attrs": {}}, None, "edge_attrs must be a JSON array, not {}"),
    *[({"num_nodes": 2, "attr_defaults": value}, None, f"attr_defaults must be a JSON object, not {value!r}")
      for value in (5, [])],
    ({"num_nodes": 2, "attr_defaults": {"node": 0}}, None, "node attr_defaults must be a JSON array, not 0"),
], ids=["edge-not-a-list", "edge-of-three-ids", "node-row-not-a-list", "edge-row-not-a-list",
        "node-row-not-a-list-under-node-scale", "edge-row-not-a-list-under-edge-scale",
        "edges-5", "edges-empty-string", "edges-object", "edges-null",
        "node-attrs-0", "node-attrs-false", "node-attrs-empty-string", "edge-attrs-object",
        "attr-defaults-5", "attr-defaults-array", "node-defaults-0"])
def test_a_malformed_edge_or_attribute_row_is_refused_by_index(tmp_path, capsys, doc, flag, message):
    # Before, Python's own message: "cannot unpack non-iterable int object",
    # "too many values to unpack (expected 2)", "'int' object is not iterable";
    # a key holding "", {}, 0, false or null for an array read as empty.
    raw, graphs = tmp_path / "g.json", tmp_path / "graphs.jsonl"
    raw.write_text(json.dumps(doc))
    graphs.write_text(json.dumps({"num_nodes": 1}) + "\n" + json.dumps(doc) + "\n")
    scale = [flag, "2"] if flag else []
    assert main(["ingest", "--input", str(raw), *scale, "--output", str(tmp_path / "g.jsonl")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "GraphFormatError", "message": message}
    if flag is None:  # in JSONL, the error names the line too
        assert main(["vocab", "--graphs", str(graphs), "--output", str(tmp_path / "v.tsv")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "GraphFormatError", "message": f"line 2: {message}", "line": 2
        }


# Two records whose widths or defaults the vocabulary lost before it
# stored the defaults: node and edge dimensions that always hold their
# default 0, and a non-zero node default.
_TRAILING_DEFAULTS = {"num_nodes": 3, "edges": [[0, 1], [1, 2]],
                      "node_attrs": [[5, 0], [1, 0], [7, 0]], "edge_attrs": [[0], [0]]}
_DEFAULT_FIVE = {"num_nodes": 3, "edges": [[0, 1], [1, 2]], "node_attrs": [[5], [0], [7]],
                 "attr_defaults": {"node": [5], "edge": []}}


@pytest.mark.parametrize("record", [_TRAILING_DEFAULTS, _DEFAULT_FIVE], ids=["trailing-defaults", "default-five"])
@pytest.mark.parametrize("layout", ["prolonged", "short", "long"])
def test_widths_and_defaults_survive_the_cli_round_trip(tmp_path, capsys, record, layout):
    # Before, the first came back with width-1 node rows and no edge
    # attributes, the second with its 5s as 0 and node default [0]; verify,
    # which decoded with the graph's own widths and defaults, printed ok.
    path = tmp_path / "graphs.jsonl"
    path.write_text(json.dumps(record) + "\n")
    vocab = _vocab(tmp_path, path)
    grids, back = tmp_path / "grids.jsonl", tmp_path / "back.jsonl"
    assert main(["tokenize", "--graphs", str(path), "--vocab", str(vocab), "--layout", layout,
                 "--output", str(grids)]) == 0
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab), "--output", str(back)]) == 0
    decoded = AttributedGraph.from_json(json.loads(back.read_text())["graph"])
    g = AttributedGraph.from_json(record)
    assert isomorphic(decoded, g)
    assert (decoded.node_defaults, decoded.edge_defaults) == (g.node_defaults, g.edge_defaults)
    assert main(["verify", "--graphs", str(path), "--layout", layout]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1/1 ok"


_DISAGREEING = "line 2: node attr_defaults [5] do not begin the vocabulary's [0, 0]; " \
               "graphs that share a vocabulary share their defaults"


def test_vocab_refuses_a_corpus_whose_defaults_disagree_naming_the_line(tmp_path, capsys):
    path = tmp_path / "graphs.jsonl"
    path.write_text(json.dumps(_TRAILING_DEFAULTS) + "\n" + json.dumps(_DEFAULT_FIVE) + "\n")
    assert main(["vocab", "--graphs", str(path), "--output", str(tmp_path / "vocab.tsv")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "GraphFormatError", "message": _DISAGREEING, "line": 2}


@pytest.mark.parametrize("argv", [
    ["tokenize"], ["pretrain", "--task", "ntp"], ["taskfmt", "--task", "graph"],
], ids=["tokenize", "pretrain", "taskfmt"])
def test_a_graph_whose_defaults_the_vocabulary_does_not_hold_fails_with_its_line(tmp_path, capsys, argv):
    # Its grid would decode under the vocabulary's defaults, as another graph.
    first = tmp_path / "first.jsonl"
    first.write_text(json.dumps(_TRAILING_DEFAULTS) + "\n")
    vocab = _vocab(tmp_path, first)
    path = tmp_path / "graphs.jsonl"
    path.write_text(json.dumps(_TRAILING_DEFAULTS) + "\n" + json.dumps(_DEFAULT_FIVE) + "\n")
    assert main([*argv, "--graphs", str(path), "--vocab", str(vocab), "--output", str(tmp_path / "out.jsonl")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "GraphFormatError", "message": _DISAGREEING, "line": 2}


def _path_grid_doc(tmp_path, layout) -> dict:
    path = tmp_path / "path.jsonl"
    path.write_text(json.dumps({"num_nodes": 3, "edges": [[0, 1], [1, 2]]}) + "\n")
    vocab = _vocab(tmp_path, path)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(path), "--vocab", str(vocab), "--layout", layout,
                 "--output", str(grids)]) == 0
    return json.loads(grids.read_text())


@pytest.mark.parametrize("layout, edit, message", [
    ("prolonged", lambda d: {**d, "tokens": 5}, "tokens must be a JSON array, not 5"),
    ("prolonged", lambda d: {**d, "tokens": "", "roles": ""}, "tokens must be a JSON array, not ''"),
    ("prolonged", lambda d: {**d, "tokens": {}, "roles": {}}, "tokens must be a JSON array, not {}"),
    ("prolonged", lambda d: {**d, "roles": ""}, "roles must be a JSON array, not ''"),
    ("prolonged", lambda d: {**d, "roles": {}}, "roles must be a JSON array, not {}"),
    ("prolonged", lambda d: {**d, "roles": ["n", *d["roles"][1:]]},
     "role row 0: expected an array of roles, not 'n'"),
    ("short", lambda d: {**d, "roles": [d["roles"][0], "ab", *d["roles"][2:]]},
     "role row 1: expected an array of roles, not 'ab'"),
    ("short", lambda d: {**d, "tokens": [d["tokens"][0], 7, *d["tokens"][2:]]},
     "token row 1: expected an array of token ids, not 7"),
], ids=["tokens-5", "both-empty-strings", "both-objects", "roles-empty-string", "roles-object",
        "role-row-n", "role-row-ab", "token-row-7"])
def test_a_grid_record_of_another_json_kind_is_refused_by_its_key_or_row(tmp_path, capsys, layout, edit, message):
    # Before, "tokens": 5 failed with "'int' object is not iterable", an
    # empty string or object under both keys read as an empty grid, and a
    # role row "n" or "ab" read as its characters.
    doc = _path_grid_doc(tmp_path, layout)
    grids = tmp_path / "bad.jsonl"
    grids.write_text(json.dumps(doc) + "\n" + json.dumps(edit(doc)) + "\n")
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(tmp_path / "vocab.tsv"),
                 "--output", str(tmp_path / "back.jsonl")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "GraphFormatError", "message": f"line 2: {message}", "line": 2
    }
