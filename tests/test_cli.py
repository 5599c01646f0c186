import json
import subprocess
import sys

import pytest

from graphseq import AttributedGraph
from graphseq.cli import main


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


def test_ingest_quantizes_edge_attrs(tmp_path):
    raw = tmp_path / "g.json"
    raw.write_text(json.dumps({
        "num_nodes": 2, "edges": [[0, 1]], "edge_attrs": [[0.165]]
    }))
    out = tmp_path / "q.jsonl"
    assert main(["ingest", "--input", str(raw), "--edge-scale", "1000",
                 "--edge-offset", "-1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["edge_attrs"] == [[164]]


def test_tokenize_detokenize_roundtrip(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--dataset-tag", "t", "--seed", "3", "--output", str(grids)]) == 0
    back = tmp_path / "back.jsonl"
    assert main(["detokenize", "--grids", str(grids), "--vocab", str(vocab),
                 "--dataset-tag", "t", "--output", str(back)]) == 0
    lines = [json.loads(l) for l in back.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["graph"]["num_nodes"] == 4
    assert lines[2]["dropped_jump_edges"] == 1  # third corpus graph is disconnected


def test_tokenize_is_byte_deterministic(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
            "--dataset-tag", "t", "--seed", "11"]
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
                 "--dataset-tag", "t", "--task", "smtp", "--output", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 10
    for doc in lines:
        assert doc["task"] == "smtp"
        assert 0 < doc["r"] <= 1
        assert doc["targets"]


def test_pretrain_packs_when_asked(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "packed.jsonl"
    assert main(["pretrain", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--dataset-tag", "t", "--task", "ntp", "--pack-context", "128",
                 "--output", str(out)]) == 0
    (doc,) = [json.loads(l) for l in out.read_text().splitlines()]
    assert doc["attention_contract"] == "no-cross-sequence-visibility"
    assert len(doc["boundaries"]) == 3


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


def test_taskfmt_graph_edge_node(tmp_path, corpus):
    vocab = _vocab(tmp_path, corpus)
    out = tmp_path / "ts.jsonl"
    assert main(["taskfmt", "--task", "graph", "--graphs", str(corpus),
                 "--vocab", str(vocab), "--dataset-tag", "t",
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
                 "--vocab", str(svocab), "--dataset-tag", "t",
                 "--node-attr-style", "inline", "--output", str(nt)]) == 0
    docs = [json.loads(l) for l in nt.read_text().splitlines()]
    assert len(docs) == 4
    assert all(d["readout"] == len(d["tokens"]) - 1 for d in docs)


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
                 "--vocab", str(vocab), "--node-attr-style", "inline",
                 "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_verify_100_random_graphs(capsys):
    assert main(["verify", "--random", "100", "--seed", "4", "--layout", "all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "100/100 ok"
    first = json.loads(out[0])
    assert set(first) == {"id", "ok", "dedup", "jumps"}


def test_verify_reads_graph_file(tmp_path, corpus, capsys):
    assert main(["verify", "--graphs", str(corpus), "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3/3 ok"


def test_errors_are_machine_readable(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["vocab", "--graphs", str(missing), "--dataset-tag", "t",
                 "--output", str(tmp_path / "v.tsv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


@pytest.fixture
def jsonl_inputs(tmp_path, corpus):
    """A graphs, a grids and an edge-sample file of at least three lines,
    with the vocabularies the commands reading them need."""
    vocab = _vocab(tmp_path, corpus)
    grids = tmp_path / "grids.jsonl"
    assert main(["tokenize", "--graphs", str(corpus), "--vocab", str(vocab),
                 "--dataset-tag", "t", "--output", str(grids)]) == 0
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

_COMMANDS = {  # command -> (input kind, argv with placeholders, writes per item)
    "vocab": ("graphs", ["vocab", "--graphs", "IN"], False),
    "tokenize": ("graphs", ["tokenize", "--graphs", "IN", "--vocab", "VOCAB"], True),
    "pretrain": ("graphs", ["pretrain", "--graphs", "IN", "--vocab", "VOCAB",
                            "--task", "smtp"], True),
    "detokenize": ("grids", ["detokenize", "--grids", "IN", "--vocab", "VOCAB"], True),
    "taskfmt": ("samples", ["taskfmt", "--task", "edge", "--samples", "IN",
                            "--vocab", "SVOCAB", "--node-attr-style", "inline"], True),
}


@pytest.mark.parametrize("defect", ["json", "key", "invalid"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_bad_record_fails_with_its_line(tmp_path, jsonl_inputs, capsys, command, defect):
    kind, argv, per_item = _COMMANDS[command]
    good = jsonl_inputs[kind].read_text().splitlines(keepends=True)
    if defect == "json":
        bad = "{oops"
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
        return main(args + ["--dataset-tag", "t", "--output", str(out)])

    expected, out = tmp_path / "expected.jsonl", tmp_path / "out.jsonl"
    assert run(prefix, expected) == 0
    capsys.readouterr()
    assert run(broken, out) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "GraphFormatError"
    assert err["line"] == 3
    assert err["message"].startswith("line 3: ")
    if per_item:
        assert len(expected.read_text().splitlines()) == 2
        assert out.read_text() == expected.read_text()
    else:
        assert not out.exists()


def test_config_file_with_flag_override(tmp_path, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_tag": "fromcfg", "num_indices": 32, "seed": 9}))
    vocab = tmp_path / "v.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--config", str(cfg),
                 "--output", str(vocab)]) == 0
    text = vocab.read_text()
    assert "fromcfg#node#0#1" in text
    assert text.splitlines()[32].startswith("[p]")  # 32 structural ids from config
    # flag overrides config
    vocab2 = tmp_path / "v2.tsv"
    assert main(["vocab", "--graphs", str(corpus), "--config", str(cfg),
                 "--dataset-tag", "flagwins", "--output", str(vocab2)]) == 0
    assert "flagwins#node#0#1" in vocab2.read_text()


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "graphseq.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "graphseq" in proc.stdout
