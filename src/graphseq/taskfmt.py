"""Fine-tuning sequence formatting for graph-, edge-, and node-level tasks.

A serialized (sub)graph gets a task suffix drawn from its own vocabulary:
a summary token for graph-level readout, or the source/destination
(respectively target) node's identity tokens for edge and node tasks. The
readout position marks the final suffix token, whose representation feeds
the downstream head. Stripping the suffix recovers the serialized
sequence exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .tokenizer import TokenGrid
from .vocab import GSUM, Vocabulary


@dataclass(frozen=True)
class TaskSequence:
    tokens: tuple[int, ...]
    readout_position: int
    task: str
    label: object = None

    def to_json(self) -> dict:
        """The sequence as a JSON document; ``tokens`` is the shared tuple."""
        return {
            "task": self.task,
            "tokens": self.tokens,
            "readout": self.readout_position,
            "label": self.label,
        }


def _with_suffix(flat: list[int], l: int, suffix_ids: Sequence[int], task: str, label, vocab: Vocabulary):
    """Append one suffix token per row of width ``l`` (padded) to the
    grid's row-major ``flat`` list, which it extends; the readout lands
    on the last suffix token."""
    readout = None
    for tid in suffix_ids:
        readout = len(flat)
        flat.extend([tid] + [vocab.pad_id] * (l - 1))
    return TaskSequence(tokens=tuple(flat), readout_position=readout, task=task, label=label)


def _flat(grid: TokenGrid) -> list[int]:
    """The cells of a grid, which must not be empty, as a new list."""
    if not grid.cells:
        raise ValueError("cannot format an empty grid")
    return grid.flat()


def format_graph_task(grid: TokenGrid, vocab: Vocabulary, label=None) -> TaskSequence:
    """Graph-level readout: append the summary token."""
    return _with_suffix(_flat(grid), grid.l, [vocab.id(GSUM)], "graph", label, vocab)


def _resolve(flat: list[int], vocab: Vocabulary, tokens: Sequence[str], what: str) -> list[int]:
    """Token ids for a node reference, required to occur contiguously in
    the flattened grid ``flat``.

    Identity blocks are emitted as adjacent slot tokens, so a contiguous
    match pins down one in-sequence node; single tokens shared across
    nodes (same cluster, same local index) are not enough.
    """
    ids = [vocab.id(t) for t in tokens]
    if not ids:
        raise ValueError(f"{what} node reference is empty")
    first, rest = ids[0], ids[1:]
    # Only offsets holding the first id can start a match.
    stop = len(flat) - len(rest)
    i = -1
    try:
        while True:
            i = flat.index(first, i + 1, stop)
            if flat[i + 1 : i + len(ids)] == rest:
                return ids
    except ValueError:
        raise ValueError(f"{what} tokens {list(tokens)!r} do not occur in the sequence") from None


def format_edge_task(
    grid: TokenGrid,
    vocab: Vocabulary,
    src_tokens: Sequence[str],
    dst_tokens: Sequence[str],
    label=None,
) -> TaskSequence:
    """Edge-level readout: append the source then destination node tokens.

    The appended tokens must already occur in the sequence so attention
    can bind them to their in-graph occurrences. Positive and negative
    pairs format identically; only the label differs.
    """
    flat = _flat(grid)
    if tuple(src_tokens) == tuple(dst_tokens):
        raise ValueError("source and destination nodes must differ")
    ids = _resolve(flat, vocab, src_tokens, "source") + _resolve(flat, vocab, dst_tokens, "destination")
    return _with_suffix(flat, grid.l, ids, "edge", label, vocab)


def format_node_task(
    grid: TokenGrid, vocab: Vocabulary, target_tokens: Sequence[str], label=None
) -> TaskSequence:
    """Node-level readout: append the target node's tokens."""
    flat = _flat(grid)
    ids = _resolve(flat, vocab, target_tokens, "target")
    return _with_suffix(flat, grid.l, ids, "node", label, vocab)
