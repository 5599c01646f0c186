"""The vocabulary's id tables against the token spellings they replace.

``_block_ids_by_spelling`` and ``_parse_block_by_spelling`` are the block
encoder and decoder that built and parsed token strings for every cell.
They stay here as references: tokenizing through them must give the same
grids, and decoding through them the same (dimension, value) pairs.
"""
import sys
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    Vocabulary,
    build_multigraph,
    build_vocab,
    detokenize,
    extract_path,
    serialize_graph,
)
from graphseq.detokenizer import _collect_steps, _parse_block
from graphseq.pipeline import derive_seed
from graphseq.tokenizer import LAYOUTS, _index_map, _placements, _spelled, _visits
from graphseq.vocab import (
    CLASS_DIGIT,
    CLASS_SEMANTIC,
    digits,
    marker_token,
    parse_semantic,
    semantic_token,
)

from oracle import isomorphic


def _block_ids_by_spelling(vocab, kind, style, attrs, defaults):
    tag = vocab.dataset_tag
    ids: list[int] = []
    for dim, value in enumerate(attrs):
        if value == defaults[dim]:
            continue
        if style == "inline":
            ids.append(vocab.id(semantic_token(tag, kind, dim, value)))
        else:
            ids.append(vocab.id(marker_token(tag, kind, dim)))
            for t in digits(value):
                ids.append(vocab.id(t))
    return ids


def _parse_block_by_spelling(ids, vocab, kind, style):
    out = []
    i = 0
    while i < len(ids):
        tid = ids[i]
        if vocab.class_of(tid) != CLASS_SEMANTIC:
            raise ValueError(
                f"malformed attribute run: expected a semantic token, got {vocab.token(tid)!r}"
            )
        _, token_kind, dim, value = parse_semantic(vocab.token(tid))
        if token_kind != kind:
            raise ValueError(f"malformed attribute run: {token_kind} token in {kind} block")
        i += 1
        if style == "digits":
            chars = []
            while i < len(ids) and vocab.class_of(ids[i]) == CLASS_DIGIT:
                chars.append(vocab.digit_chars[ids[i]])
                i += 1
            if not chars:
                raise ValueError("malformed attribute run: dimension marker without digits")
            text = "".join(chars)
            try:
                value = int(text)
            except ValueError:
                digits_only = text.removeprefix("-")
                if digits_only.isdigit():
                    raise ValueError(
                        f"malformed attribute run: {len(digits_only)}-digit value exceeds "
                        f"Python's {sys.get_int_max_str_digits()}-digit integer limit"
                    ) from None
                raise ValueError(f"malformed attribute run: non-integer value {text!r}") from None
        out.append((dim, value))
    return out


def _spelled_blocks(vocab):
    """Patch the vocabulary to spell blocks through the string reference."""
    styles = {"node": vocab.node_attr_style, "edge": vocab.edge_attr_style}

    def block_ids(vocab, kind, attrs, defaults):
        return _block_ids_by_spelling(vocab, kind, styles[kind], attrs, defaults)

    return mock.patch.object(Vocabulary, "block_ids", block_ids)


_STYLES = st.sampled_from(("digits", "inline"))
# Small values hit the defaults; wide ones give negative and multi-digit values.
_VALUES = st.one_of(st.integers(-3, 3), st.integers(-1200, 1200))


@st.composite
def _graphs(draw):
    n = draw(st.integers(2, 12))
    directed = draw(st.booleans())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    # Few edges leave the graph disconnected, so jump edges appear too.
    edges = draw(st.lists(
        pairs, max_size=2 * n,
        unique_by=(lambda p: p) if directed else (lambda p: frozenset(p)),
    ))
    a_n, a_e = draw(st.integers(0, 3)), draw(st.integers(0, 2)) if edges else 0

    def rows(count, width):
        return [draw(st.lists(_VALUES, min_size=width, max_size=width)) for _ in range(count)]

    return AttributedGraph(
        num_nodes=n,
        edges=tuple(edges),
        directed=directed,
        node_attrs=rows(n, a_n) if a_n else (),
        edge_attrs=rows(len(edges), a_e) if a_e else (),
        node_defaults=draw(st.lists(st.integers(-3, 3), min_size=a_n, max_size=a_n)),
        edge_defaults=draw(st.lists(st.integers(-3, 3), min_size=a_e, max_size=a_e)),
    )


@settings(max_examples=120, deadline=None)
@given(_graphs(), _STYLES, _STYLES, st.integers(0, 2**16), st.booleans())
def test_table_grids_and_decoding_match_the_spellings(g, node_style, edge_style, seed, cyclic):
    # A '#' in the tag checks that the tables split semantic tokens from the right.
    cfg = ReindexConfig(num_indices=16, cyclic=cyclic, seed=seed)
    vocab = build_vocab([g], "h#t", cfg, node_attr_style=node_style, edge_attr_style=edge_style)
    # The tokenizer's lists, under the sub-seeds serialize_graph derives.
    mg = build_multigraph(g, derive_seed(seed, "jump"))
    path = extract_path(mg, derive_seed(seed, "path"))
    visits = _visits(path)
    index = _index_map(visits, replace(cfg, seed=derive_seed(seed, "shift", cfg.seed)))
    node_blocks, types, edge_blocks = _placements(
        path, mg, vocab, visits, derive_seed(seed, "attrs"), *_spelled(g, vocab)
    )
    # A row of defaults spells an empty block, which no cell records.
    wrote = (
        [index[v] for v in path.nodes],
        [block or () for block in node_blocks],
        types,
        [block or () for block in edge_blocks],
    )
    for layout in LAYOUTS:
        grid = serialize_graph(g, vocab, layout, cfg, seed)
        with _spelled_blocks(vocab):
            assert grid == serialize_graph(g, vocab, layout, cfg, seed)
        # Decoding collects exactly the lists every layout was written from.
        collected = _collect_steps(grid, vocab)
        assert collected == wrote
        for kind, blocks, style in (
            ("node", collected[1], node_style),
            ("edge", collected[3], edge_style),
        ):
            for block in blocks:
                want = _parse_block_by_spelling(block, vocab, kind, style)
                assert _parse_block(tuple(block), vocab, kind, style) == want
        report = detokenize(
            grid, vocab, g.node_attr_width, g.edge_attr_width,
            g.node_defaults or None, g.edge_defaults or None,
        )
        # Directedness is read from direction tokens, which need an edge.
        assert isomorphic(report.graph, replace(g, directed=g.directed and bool(g.edges)))


def _decode(parse, ids, vocab, kind, style):
    try:
        return parse(ids, vocab, kind, style)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data(), _STYLES)
def test_table_decoding_of_any_run_matches_the_spelling(data, style):
    g = AttributedGraph(
        num_nodes=3, edges=((0, 1), (1, 2)),
        node_attrs=[[5, -12], [0, 3], [7, 0]], edge_attrs=[[2], [-40]],
    )
    vocab = build_vocab([g], "t", ReindexConfig(num_indices=4), node_attr_style=style, edge_attr_style=style)
    ids = data.draw(st.lists(st.integers(0, len(vocab) - 1), max_size=8))
    kind = data.draw(st.sampled_from(("node", "edge")))
    want = _decode(_parse_block_by_spelling, ids, vocab, kind, style)
    got = _decode(_parse_block, tuple(ids), vocab, kind, style)
    if isinstance(want, list) and len({dim for dim, _ in want}) < len(want):
        assert got.startswith("malformed attribute run: dimension ")
        assert got.endswith(f" repeated in {kind} block")
    else:
        assert got == want


def test_attribute_ids_are_memoised_per_value():
    g = AttributedGraph(num_nodes=2, edges=((0, 1),), node_attrs=[[-17], [0]])
    vocab = build_vocab([g], "t", ReindexConfig(num_indices=4))
    ids = vocab.attr_ids("node", 0, -17)
    assert [vocab.token(t) for t in ids] == ["t#node#0#1", "<->", "<1>", "<7>"]
    assert vocab.attr_ids("node", 0, -17) is ids
    assert vocab.semantic[ids[0]] == ("node", 0, 1)
    assert [vocab.digit_chars[t] for t in ids[1:]] == ["-", "1", "7"]
    assert vocab.attr_width("node") == 1 and vocab.attr_width("edge") == 0
