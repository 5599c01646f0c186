import json
import random
from pathlib import Path

import pytest

from graphseq import AttributedGraph, ReindexConfig, build_vocab
# The seeded generators live in the library; test files import them from here.
from graphseq.graph import random_connected_graph, random_graph  # noqa: F401

DATA_DIR = Path(__file__).parent / "data"


def vocab_for(g: AttributedGraph, tag: str = "test", cfg: ReindexConfig | None = None, **styles):
    return build_vocab([g], tag, cfg or ReindexConfig(), **styles)


def power_law_graph(n, m, seed):
    """Preferential attachment: each new node links to ``m`` earlier ones,
    80% by degree, 20% uniformly."""
    rng = random.Random(seed)
    edges = set()
    repeated = []
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            pick = rng.choice(repeated) if repeated and rng.random() < 0.8 else rng.randrange(v)
            chosen.add(pick)
        for u in chosen:
            edges.add((u, v))
            repeated += [u, v]
        if len(repeated) > 200000:
            repeated = repeated[-100000:]
    return AttributedGraph(num_nodes=n, edges=tuple(sorted(edges)))


@pytest.fixture
def p3():
    return AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2)))


@pytest.fixture
def c3():
    return AttributedGraph(num_nodes=3, edges=((0, 1), (1, 2), (0, 2)))


@pytest.fixture
def k13():
    return AttributedGraph(num_nodes=4, edges=((0, 1), (0, 2), (0, 3)))


@pytest.fixture
def two_triangles():
    return AttributedGraph(
        num_nodes=6, edges=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    )


@pytest.fixture
def molpcba_fixture():
    return json.loads((DATA_DIR / "molpcba_fixture.json").read_text())
