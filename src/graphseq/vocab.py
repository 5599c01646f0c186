"""Token vocabulary: structural node indices, special/digit tokens, and
dataset-scoped semantic tokens for attribute and identity values.

Two attribute spellings exist, chosen per attribute kind:

* ``digits``  - one announcement token per dimension, ``TAG#kind#DIM#1``,
  followed by digit tokens spelling the value. Compact for wide-ranged
  integer attributes.
* ``inline``  - one token per (dimension, value), ``TAG#kind#DIM#VALUE``.
  Required for node identity codes, where each slot must stay one token.
"""
from __future__ import annotations

import operator
from itertools import zip_longest
from pathlib import Path
from typing import Iterable

from .graph import AttributedGraph, GraphFormatError, read_lines

PAD = "[p]"
EDGE_JUMP = "[EDGE_JUMP]"
GSUM = "[GSUM]"
EOS = "<eos>"
MASK = "<mask>"
EDGE_FWD = "[->]"
EDGE_BWD = "[<-]"

SPECIAL_TOKENS = (PAD, EDGE_JUMP, GSUM, EOS, MASK, EDGE_FWD, EDGE_BWD)
DIGIT_TOKENS = ("<->", "<.>") + tuple(f"<{d}>" for d in "0123456789")

CLASS_STRUCTURAL = "structural"
CLASS_SPECIAL = "special"
CLASS_DIGIT = "digit"
CLASS_SEMANTIC = "semantic"

ATTR_STYLES = ("digits", "inline")

# First line of a vocabulary file: this marker, then key=value fields.
VOCAB_HEADER = "#graphseq-vocab"
_HEADER_KEYS = ("dataset_tag", "node_attr_style", "edge_attr_style")

_DIGIT_FOR_CHAR = {"-": "<->", ".": "<.>", **{d: f"<{d}>" for d in "0123456789"}}


def digits(value: int) -> list[str]:
    """Digit-wise spelling of an integer: sign, then decimal digit tokens,
    with no leading zeros (zero itself is a single ``<0>``)."""
    return [_DIGIT_FOR_CHAR[ch] for ch in str(operator.index(value))]


def semantic_token(tag: str, kind: str, dim: int, value: int) -> str:
    return f"{tag}#{kind}#{dim}#{value}"


def marker_token(tag: str, kind: str, dim: int) -> str:
    """Dimension announcement used by the ``digits`` attribute style."""
    return semantic_token(tag, kind, dim, 1)


def _head_token(tag: str, kind: str, style: str, dim: int, value: int) -> str:
    """First token spelling ``value`` at dimension ``dim``: the inline
    token, or the dimension marker that the value's digits follow."""
    return semantic_token(tag, kind, dim, value) if style == "inline" else marker_token(tag, kind, dim)


def parse_semantic(token: str) -> tuple[str, str, int, int]:
    tag, kind, dim, value = token.rsplit("#", 3)
    return tag, kind, int(dim), int(value)


def _semantic_entry(token: str) -> tuple[str, int, int]:
    try:
        return parse_semantic(token)[1:]
    except ValueError:
        raise ValueError(f"semantic token {token!r} is not TAG#KIND#DIM#VALUE") from None


class Vocabulary:
    """Bidirectional token<->id map with dense ids and disjoint classes.

    Id layout: structural indices ``0..N-1`` map to ids ``0..N-1``, then
    the fixed special tokens, the twelve digit tokens, and finally the
    semantic tokens in lexicographic order.

    Tables built once per vocabulary let both directions work on ids:
    ``semantic[id]`` is a semantic token's ``(kind, dim, value)`` (None for
    other classes), ``digit_chars`` maps each digit id to its character,
    ``attr_ids`` memoises the ids spelling each attribute value and
    ``block_ids`` spells a whole attribute row. ``pad_id`` and the other
    special-token ids the pipeline writes are attributes.
    """

    def __init__(
        self,
        num_indices: int,
        semantic_tokens: Iterable[str] = (),
        dataset_tag: str = "",
        node_attr_style: str = "digits",
        edge_attr_style: str = "digits",
    ):
        if node_attr_style not in ATTR_STYLES or edge_attr_style not in ATTR_STYLES:
            raise ValueError(f"attribute style must be one of {ATTR_STYLES}")
        self.num_indices = num_indices
        self.dataset_tag = dataset_tag
        self.node_attr_style = node_attr_style
        self.edge_attr_style = edge_attr_style
        tokens: list[tuple[str, str]] = []
        tokens += [(str(i), CLASS_STRUCTURAL) for i in range(num_indices)]
        tokens += [(t, CLASS_SPECIAL) for t in SPECIAL_TOKENS]
        tokens += [(t, CLASS_DIGIT) for t in DIGIT_TOKENS]
        tokens += [(t, CLASS_SEMANTIC) for t in sorted(set(semantic_tokens))]
        self._id_to_token = tuple(t for t, _ in tokens)
        self._id_to_class = tuple(c for _, c in tokens)
        self._token_to_id = {t: i for i, (t, _) in enumerate(tokens)}
        if len(self._token_to_id) != len(tokens):
            raise ValueError("token classes overlap")
        ids = self._token_to_id
        self.pad_id, self.jump_id, self.eos_id = ids[PAD], ids[EDGE_JUMP], ids[EOS]
        self.mask_id, self.fwd_id, self.bwd_id = ids[MASK], ids[EDGE_FWD], ids[EDGE_BWD]
        # Id tables read by the tokenizer and detokenizer instead of spellings.
        self.semantic: tuple[tuple[str, int, int] | None, ...] = tuple(
            _semantic_entry(t) if c == CLASS_SEMANTIC else None for t, c in tokens
        )
        char_of = {tok: ch for ch, tok in _DIGIT_FOR_CHAR.items()}
        self.digit_chars: dict[int, str] = {
            i: char_of[t] for i, (t, c) in enumerate(tokens) if c == CLASS_DIGIT
        }
        self._attr_width: dict[str, int] = {}
        for entry in self.semantic:
            if entry is not None:
                kind, dim, _ = entry
                self._attr_width[kind] = max(self._attr_width.get(kind, 0), dim + 1)
        self._attr_ids: dict[tuple[str, int, int], tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id(self, token: str) -> int:
        try:
            return self._token_to_id[token]
        except KeyError:
            raise ValueError(f"token not in vocabulary: {token!r}") from None

    def token(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def class_of(self, token_id: int) -> str:
        return self._id_to_class[token_id]

    def attr_width(self, kind: str) -> int:
        """1 + highest attribute dimension mentioned by semantic tokens."""
        return self._attr_width.get(kind, 0)

    def attr_ids(self, kind: str, dim: int, value: int) -> tuple[int, ...]:
        """Ids spelling ``value`` at dimension ``dim`` in ``kind``'s style:
        one inline token, or a marker and the value's digits. Each triple
        is spelled once and memoised; a spelling the vocabulary lacks
        raises and is not stored."""
        key = (kind, dim, value)
        ids = self._attr_ids.get(key)
        if ids is None:
            style = self.node_attr_style if kind == "node" else self.edge_attr_style
            ids = (self.id(_head_token(self.dataset_tag, kind, style, dim, value)),)
            if style == "digits":
                ids += tuple(map(self.id, digits(value)))
            self._attr_ids[key] = ids
        return ids

    def block_ids(self, kind: str, row, defaults) -> list[int]:
        """Ids spelling one node or edge attribute row: ``attr_ids`` of
        each dimension whose value is not its default, in dimension order."""
        ids: list[int] = []
        for dim, value in enumerate(row):
            if value != defaults[dim]:
                ids += self.attr_ids(kind, dim, value)
        return ids

    def _lines(self) -> list[str]:
        header = "\t".join([VOCAB_HEADER] + [f"{key}={getattr(self, key)}" for key in _HEADER_KEYS])
        return [header] + [
            f"{tok}\t{i}\t{cls}"
            for i, (tok, cls) in enumerate(zip(self._id_to_token, self._id_to_class))
        ]

    def save(self, path: str | Path):
        Path(path).write_text("\n".join(self._lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(
        cls,
        path: str | Path,
        node_attr_style: str | None = None,
        edge_attr_style: str | None = None,
    ) -> "Vocabulary":
        """Rebuild a saved vocabulary; the file is the only source of its
        encoding. The header gives the tag and the attribute styles, the
        structural lines the index count and the semantic lines the rest;
        every line must then equal the rebuilt vocabulary's. A style passed
        here is a check: it must equal the file's. A file line that breaks
        these rules raises ``GraphFormatError`` ``vocab line N: ...``."""
        try:
            lines = [line.rstrip("\n") for _, line in read_lines(path)]
            header = lines[0].split("\t") if lines else []
            settings = dict(field.partition("=")[::2] for field in header[1:])
            if header[:1] != [VOCAB_HEADER] or sorted(settings) != sorted(_HEADER_KEYS):
                raise GraphFormatError(f"expected a {VOCAB_HEADER} header with {', '.join(_HEADER_KEYS)}", 1)
            for key, wanted in (("node_attr_style", node_attr_style), ("edge_attr_style", edge_attr_style)):
                if settings[key] not in ATTR_STYLES:
                    raise GraphFormatError(f"{key} must be one of {ATTR_STYLES}, not {settings[key]!r}", 1)
                if wanted is not None and wanted != settings[key]:
                    raise ValueError(f"vocabulary {path} has {key} {settings[key]!r}, not {wanted!r}")
            rows = [raw.split("\t") for raw in lines[1:]]
            vocab = cls(
                sum(row[-1] == CLASS_STRUCTURAL for row in rows),
                [row[0] for row in rows if row[-1] == CLASS_SEMANTIC],
                **settings,
            )
            for lineno, (got, want) in enumerate(zip_longest(lines, vocab._lines()), 1):
                if got != want:
                    raise GraphFormatError(f"expected {want!r}, found {got!r}", lineno)
        except GraphFormatError as exc:
            exc.args = (f"vocab {exc}",)
            raise
        return vocab


def build_vocab(
    corpus: Iterable[AttributedGraph],
    dataset_tag: str,
    cfg,
    node_attr_style: str = "digits",
    edge_attr_style: str = "digits",
) -> Vocabulary:
    """Close the vocabulary over a graph corpus.

    Structural and special/digit tokens are fixed by ``cfg.num_indices``;
    semantic tokens are collected from every non-default attribute value
    observed in the corpus. Rebuilding from the same corpus is
    byte-identical.
    """
    # Distinct (kind, dim, value) triples first, so each is spelled once;
    # a graph's values are collected one column at a time.
    triples: set[tuple[str, int, int]] = set()
    for g in corpus:
        for kind, rows, defaults in (
            ("node", g.node_attrs, g.node_defaults),
            ("edge", g.edge_attrs, g.edge_defaults),
        ):
            for dim, default in enumerate(defaults):
                values = set(map(operator.itemgetter(dim), rows))
                values.discard(default)
                triples.update((kind, dim, v) for v in values)
    styles = {"node": node_attr_style, "edge": edge_attr_style}
    return Vocabulary(
        num_indices=cfg.num_indices,
        semantic_tokens={_head_token(dataset_tag, k, styles[k], dim, v) for k, dim, v in triples},
        dataset_tag=dataset_tag,
        node_attr_style=node_attr_style,
        edge_attr_style=edge_attr_style,
    )
