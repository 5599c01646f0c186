import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    SubgraphSample,
    Vocabulary,
    build_codebook,
    build_vocab,
    digits,
    with_identity_attrs,
)
from graphseq.vocab import (
    CLASS_DIGIT,
    CLASS_SEMANTIC,
    CLASS_SPECIAL,
    CLASS_STRUCTURAL,
    DIGIT_TOKENS,
    SPECIAL_TOKENS,
    parse_semantic,
    semantic_token,
)

from conftest import random_connected_graph
from oracle import semantic_tokens


def test_digits_of_decimal_string():
    # Values are integers; a decimal is quantized at ingest, never spelled.
    # The <.> token stays so the decoder can name a point it rejects.
    assert "<.>" in DIGIT_TOKENS
    for value in ("3.14", 3.14):
        with pytest.raises(TypeError):
            digits(value)


def test_digits_of_zero():
    assert digits(0) == ["<0>"]


def test_digits_of_scaled_protein_weight():
    # 0.165 scaled by x1000 - 1 at ingest
    assert digits(164) == ["<1>", "<6>", "<4>"]


def test_digits_of_negative():
    assert digits(-37) == ["<->", "<3>", "<7>"]


@given(st.integers(-10**9, 10**9))
def test_digits_never_emit_leading_zeros(value):
    toks = digits(value)
    stripped = [t for t in toks if t != "<->"]
    if len(stripped) > 1:
        assert stripped[0] != "<0>"


def test_digits_reject_garbage():
    for value in ("12a", "12", None):
        with pytest.raises(TypeError):
            digits(value)


def test_vocab_size_without_attributes():
    cfg = ReindexConfig(num_indices=256)
    vocab = build_vocab([AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)))], "bare", cfg)
    assert len(vocab) == 256 + len(SPECIAL_TOKENS) + 12


def test_digit_class_has_exactly_twelve_members():
    assert len(DIGIT_TOKENS) == 12
    vocab = Vocabulary(num_indices=4)
    assert sum(1 for i in range(len(vocab)) if vocab.class_of(i) == CLASS_DIGIT) == 12


def test_structural_token_ids_match_indices():
    vocab = Vocabulary(num_indices=300)
    for i in (0, 1, 42, 299):
        assert vocab.id(str(i)) == i
        assert vocab.class_of(i) == CLASS_STRUCTURAL


def test_marker_token_present_for_observed_value():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[1], [0]])
    vocab = build_vocab([g], "ogbg-molpcba", ReindexConfig())
    assert "ogbg-molpcba#node#0#1" in vocab


def test_inline_tokens_enumerate_values():
    g = AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)), node_attrs=[[17], [20], [0]])
    vocab = build_vocab([g], "ppa", ReindexConfig(), node_attr_style="inline")
    assert "ppa#node#0#17" in vocab
    assert "ppa#node#0#20" in vocab
    assert "ppa#node#0#0" not in vocab  # default values stay untokenized


def test_classes_are_disjoint_and_ids_dense():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), edge_attrs=[[3]])
    vocab = build_vocab([g], "t", ReindexConfig(num_indices=8))
    classes = [vocab.class_of(i) for i in range(len(vocab))]
    assert set(classes) == {CLASS_STRUCTURAL, CLASS_SPECIAL, CLASS_DIGIT, CLASS_SEMANTIC}
    tokens = {vocab.token(i) for i in range(len(vocab))}
    assert len(tokens) == len(vocab)


def test_vocab_file_is_deterministic(tmp_path):
    g = AttributedGraph(
        num_nodes=3,
        edges=((0, 1), (1, 2)),
        node_attrs=[[2, 1], [0, 3], [1, 1]],
        edge_attrs=[[5], [0]],
    )
    cfg = ReindexConfig(num_indices=16)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    build_vocab([g], "t", cfg).save(a)
    build_vocab([g], "t", cfg).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_vocab_save_load_roundtrip(tmp_path):
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[4], [1]])
    vocab = build_vocab([g], "t", ReindexConfig(num_indices=8))
    path = tmp_path / "v.tsv"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert len(loaded) == len(vocab)
    assert loaded.dataset_tag == "t"
    for i in range(len(vocab)):
        assert loaded.token(i) == vocab.token(i)
        assert loaded.class_of(i) == vocab.class_of(i)


def _vocab_corpus(rng: random.Random) -> list[AttributedGraph]:
    """Graphs with zero and non-zero defaults, undirected and directed,
    and identity-coded samples of one parent (default -1 per slot)."""
    corpus = []
    for directed in (False, True, None):
        g = random_connected_graph(rng, directed=directed)
        corpus.append(g)
        corpus.append(AttributedGraph(
            num_nodes=g.num_nodes, edges=g.edges, directed=g.directed,
            node_attrs=g.node_attrs, edge_attrs=g.edge_attrs,
            node_defaults=[rng.randint(0, 5) for _ in range(g.node_attr_width)],
            edge_defaults=[rng.randint(0, 5) for _ in range(g.edge_attr_width)],
        ))
    parent = random_connected_graph(rng, n_min=8, n_max=40)
    cb = build_codebook(parent, k=rng.randint(1, 3), strategy="bfs-partition",
                        max_cluster=rng.randint(1, 6), seed=rng.randrange(100), dataset_tag="t")
    for _ in range(2):
        origin = rng.sample(range(parent.num_nodes), parent.num_nodes)
        corpus.append(with_identity_attrs(SubgraphSample(parent, (0,), origin), cb).graph)
    return corpus


@pytest.mark.parametrize("node_style", ["digits", "inline"])
@pytest.mark.parametrize("edge_style", ["digits", "inline"])
def test_build_vocab_matches_the_row_wise_spelling(tmp_path, node_style, edge_style):
    cfg = ReindexConfig(num_indices=16)
    for seed in range(30):
        corpus = _vocab_corpus(random.Random(seed))
        vocab = build_vocab(corpus, "t", cfg, node_attr_style=node_style, edge_attr_style=edge_style)
        expected = semantic_tokens(corpus, "t", node_style, edge_style)
        assert {vocab.token(i) for i in range(len(vocab)) if vocab.class_of(i) == CLASS_SEMANTIC} == expected
        got, want = tmp_path / "got.tsv", tmp_path / "want.tsv"
        vocab.save(got)
        Vocabulary(16, expected, "t", node_style, edge_style).save(want)
        assert got.read_bytes() == want.read_bytes(), seed


def test_unknown_token_lookup_is_an_error():
    vocab = Vocabulary(num_indices=4)
    with pytest.raises(ValueError, match="not in vocabulary"):
        vocab.id("t#node#0#9")


def test_parse_semantic_roundtrip():
    token = semantic_token("a#b", "node", 3, 17)
    assert parse_semantic(token) == ("a#b", "node", 3, 17)


@pytest.mark.parametrize("token", ["foo", "t#node#x#1", "t#node#0#1.5"])
def test_semantic_token_that_does_not_parse_is_rejected(token):
    with pytest.raises(ValueError, match="is not TAG#KIND#DIM#VALUE"):
        Vocabulary(num_indices=4, semantic_tokens=[token])


def _mixed_vocab(tmp_path):
    g = AttributedGraph(
        num_nodes=3, edges=((0, 1), (1, 2)), node_attrs=[[4], [1], [9]], edge_attrs=[[2], [7]]
    )
    vocab = build_vocab([g], "t", ReindexConfig(num_indices=8), node_attr_style="inline")
    path = tmp_path / "v.tsv"
    vocab.save(path)
    return vocab, path


def test_vocab_file_records_its_encoding(tmp_path):
    _, path = _mixed_vocab(tmp_path)
    header = path.read_text().splitlines()[0]
    assert header == "#graphseq-vocab\tdataset_tag=t\tnode_attr_style=inline\tedge_attr_style=digits"
    loaded = Vocabulary.load(path)
    assert (loaded.dataset_tag, loaded.node_attr_style, loaded.edge_attr_style) == (
        "t", "inline", "digits"
    )
    assert loaded.num_indices == 8


def test_vocab_load_rejects_a_headerless_file(tmp_path):
    _, path = _mixed_vocab(tmp_path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    with pytest.raises(ValueError, match="^vocab line 1: "):
        Vocabulary.load(path)


def test_vocab_load_rejects_an_unknown_style(tmp_path):
    _, path = _mixed_vocab(tmp_path)
    path.write_text(path.read_text().replace("node_attr_style=inline", "node_attr_style=hex", 1))
    with pytest.raises(ValueError, match="^vocab line 1: node_attr_style"):
        Vocabulary.load(path)


def test_vocab_load_checks_the_styles_it_is_given(tmp_path):
    _, path = _mixed_vocab(tmp_path)
    assert len(Vocabulary.load(path, node_attr_style="inline", edge_attr_style="digits"))
    with pytest.raises(ValueError, match="node_attr_style 'inline', not 'digits'"):
        Vocabulary.load(path, node_attr_style="digits")
    with pytest.raises(ValueError, match="edge_attr_style 'digits', not 'inline'"):
        Vocabulary.load(path, edge_attr_style="inline")


def test_vocab_load_rejects_swapped_semantic_ids(tmp_path):
    vocab, path = _mixed_vocab(tmp_path)
    lines = path.read_text().splitlines()
    a, b = [n for n, line in enumerate(lines) if line.endswith("\tsemantic")][:2]
    tok_a, id_a, _ = lines[a].split("\t")
    tok_b, id_b, _ = lines[b].split("\t")
    lines[a] = f"{tok_a}\t{id_b}\tsemantic"
    lines[b] = f"{tok_b}\t{id_a}\tsemantic"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^vocab line {a + 1}: "):
        Vocabulary.load(path)


def test_vocab_load_rejects_a_wrong_special_line(tmp_path):
    _, path = _mixed_vocab(tmp_path)
    lines = path.read_text().splitlines()
    n = lines.index(f"[GSUM]\t{8 + 2}\tspecial")
    lines[n] = f"[GSUM]\t{8 + 2}\tdigit"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^vocab line {n + 1}: "):
        Vocabulary.load(path)
