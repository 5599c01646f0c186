"""Self-supervised example construction: NTP targets, scheduled node
masking, and context-window packing.

Grid rows are the model's time steps. NTP targets pair a predicting row
index with each non-padding token of the following row (multi-token
prediction for short/long layouts; plain shift-by-one for prolonged).
Masked-prediction targets pair the flat cell index of every masked cell
with the token it hid.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq
from typing import Iterable

from .tokenizer import ROLE_NODE, ROLE_NODE_ATTR, ROLE_PAD, TokenGrid, rows_of
from .vocab import Vocabulary


def draw_mask_fraction(rng: random.Random) -> float:
    """A Uniform(0, 1] draw: 1 - random() is never 0, so at least one
    node is always masked."""
    return 1.0 - rng.random()


@dataclass(frozen=True)
class PretrainExample:
    inputs: TokenGrid
    targets: tuple[tuple[int, int], ...]
    task: str
    mask_rate_drawn: float | None = None

    def to_json(self) -> dict:
        """The example as a JSON document of shared tuples and the input
        rows built for this call; copy before editing. Roles are left out:
        the token classes give them back.
        Only ``smtp`` examples carry the drawn mask fraction ``r``."""
        doc = {"task": self.task, "inputs": self.inputs.tokens, "targets": self.targets}
        if self.task == "smtp":
            doc["r"] = self.mask_rate_drawn
        doc["layout"] = self.inputs.layout
        doc["l"] = self.inputs.l
        return doc


def build_ntp(grid: TokenGrid) -> PretrainExample:
    """Next-row prediction targets.

    Each row index t gets one target per non-padding token of row t+1;
    padding cells never contribute targets.
    """
    cells, l = grid.cells, grid.l
    targets = []
    for t, roles in enumerate(grid.roles[1:]):
        start = (t + 1) * l
        for tok, role in zip(cells[start : start + l], roles):
            if role != ROLE_PAD:
                targets.append((t, tok))
    return PretrainExample(inputs=grid, targets=tuple(targets), task="ntp")


def build_smtp(
    grid: TokenGrid, schedule_draw: float, seed: int, vocab: Vocabulary
) -> PretrainExample:
    """Scheduled masked-node prediction.

    ``ceil(schedule_draw * #distinct nodes)`` nodes are drawn without
    replacement; every visit of a chosen node and every cell of its
    attribute/identity block turns into ``<mask>``, so no occurrence can
    leak the answer. Edge attribute cells are never masked.
    """
    if not 0.0 < schedule_draw <= 1.0:
        raise ValueError("mask fraction must lie in (0, 1]")
    cells = list(grid.cells)
    roles = list(chain.from_iterable(grid.roles))
    nodes = set(compress(cells, map(eq, roles, repeat(ROLE_NODE))))
    if not nodes:
        raise ValueError("grid contains no node tokens")
    count = math.ceil(schedule_draw * len(nodes))
    masked = set(random.Random(seed).sample(sorted(nodes), count))

    # Attribute cells belong to the last node cell before them.
    mask_id = vocab.mask_id
    targets = []
    masking = False
    for pos, role in enumerate(roles):
        if role == ROLE_NODE:
            masking = cells[pos] in masked
        elif role != ROLE_NODE_ATTR:
            continue
        if masking:
            targets.append((pos, cells[pos]))
            cells[pos] = mask_id
    inputs = TokenGrid(layout=grid.layout, l=grid.l, cells=cells, roles=grid.roles)
    return PretrainExample(
        inputs=inputs,
        targets=tuple(targets),
        task="smtp",
        mask_rate_drawn=schedule_draw,
    )


@dataclass(frozen=True)
class PackedBatch:
    """Several examples in one context window, separated by ``<eos>`` rows.

    ``cells`` holds the token ids row-major, like ``TokenGrid.cells``,
    and ``tokens`` cuts them into rows of width ``l`` on each access.
    ``boundaries`` are [start, end) row spans of the member sequences.
    Members never attend across them, and separator rows belong to no
    span.
    """

    layout: str
    l: int
    cells: tuple[int, ...]
    boundaries: tuple[tuple[int, int], ...]
    tasks: tuple[str, ...]
    targets: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def tokens(self) -> tuple[tuple[int, ...], ...]:
        return rows_of(self.cells, self.l)

    def to_json(self) -> dict:
        """The batch as a JSON document of shared tuples and the rows built
        for this call; copy before editing."""
        return {
            "layout": self.layout,
            "l": self.l,
            "tokens": self.tokens,
            "boundaries": self.boundaries,
            "tasks": self.tasks,
            "targets": self.targets,
        }


def check_fits(ex: PretrainExample, context: int) -> None:
    """Raise unless the example fits ``context`` rows on its own."""
    rows = ex.inputs.num_rows
    if rows > context:
        raise ValueError(f"example of {rows} rows exceeds context {context}")


def pack(
    examples: Iterable[PretrainExample], context: int, vocab: Vocabulary
) -> list[PackedBatch]:
    """Greedy first-fit packing of examples into ``context`` rows.

    Each example must fit the context on its own. Target positions are
    re-based onto the packed entry (row indices shift by the span start;
    flat cell indices by start * l).
    """
    bins: list[list[PretrainExample]] = []
    used: list[int] = []
    layout: str | None = None
    width: int | None = None
    for ex in examples:
        check_fits(ex, context)
        rows = ex.inputs.num_rows
        if layout is None:
            layout, width = ex.inputs.layout, ex.inputs.l
        elif ex.inputs.layout != layout or ex.inputs.l != width:
            raise ValueError("cannot pack mixed layouts or widths")
        placed = False
        for i, load in enumerate(used):
            if load + 1 + rows <= context:
                bins[i].append(ex)
                used[i] = load + 1 + rows
                placed = True
                break
        if not placed:
            bins.append([ex])
            used.append(rows)

    width = width or 1
    sep_row = (vocab.eos_id,) + (vocab.pad_id,) * (width - 1)
    batches = []
    for members in bins:
        cells: list[int] = []
        boundaries = []
        tasks = []
        targets = []
        for ex in members:
            if cells:
                cells += sep_row
            start = len(cells) // width
            cells += ex.inputs.cells
            boundaries.append((start, len(cells) // width))
            tasks.append(ex.task)
            offset = start if ex.task == "ntp" else start * width
            targets.append(tuple((pos + offset, tok) for pos, tok in ex.targets))
        batches.append(
            PackedBatch(
                layout=layout or "prolonged",
                l=width,
                cells=tuple(cells),
                boundaries=tuple(boundaries),
                tasks=tuple(tasks),
                targets=tuple(targets),
            )
        )
    return batches

