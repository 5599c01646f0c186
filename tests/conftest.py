import json
from pathlib import Path

import pytest

from graphseq import AttributedGraph, ReindexConfig, build_vocab
# The seeded generators live in the library; test files import them from here.
from graphseq.graph import random_connected_graph, random_graph  # noqa: F401

DATA_DIR = Path(__file__).parent / "data"


def vocab_for(g: AttributedGraph, tag: str = "test", cfg: ReindexConfig | None = None, **styles):
    return build_vocab([g], tag, cfg or ReindexConfig(), **styles)


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
