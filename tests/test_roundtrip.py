"""``roundtrip_report`` checks the serializer's own bijection: decoded
node k must be the k-th distinct node of the walk. That check has no size
limit, and it is at least as strict as the isomorphism oracle."""
import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphseq import AttributedGraph, ReindexConfig, build_vocab, detokenize, roundtrip_report
from graphseq.euler import add_jump_edges
from graphseq.pipeline import _matches_witness, _serialize
from graphseq.tokenizer import LAYOUTS, ROLE_NODE, TokenGrid

from conftest import random_graph
from oracle import isomorphic


def _large_graph(n, components, directed, seed):
    """Random trees (many leaves, so many odd nodes) over ``components``
    node sets, plus a few extra edges, with random attributes."""
    rng = random.Random(seed)
    nodes = list(range(n))
    rng.shuffle(nodes)
    cuts = sorted(rng.sample(range(1, n), components - 1))
    edges = set()

    def add(u, v):
        if not directed:
            u, v = min(u, v), max(u, v)
        elif rng.random() < 0.5:
            u, v = v, u
        edges.add((u, v))

    for part in (nodes[a:b] for a, b in zip([0, *cuts], [*cuts, n])):
        for i in range(1, len(part)):
            add(part[rng.randrange(i)], part[i])
        for _ in range(rng.randint(0, len(part) // 4) if len(part) > 1 else 0):
            add(*rng.sample(part, 2))
    edges = sorted(edges)
    a_n, a_e = rng.randint(0, 2), rng.randint(0, 2)
    return AttributedGraph(
        num_nodes=n,
        edges=edges,
        directed=directed,
        node_attrs=[[rng.randint(0, 3) for _ in range(a_n)] for _ in range(n)] if a_n else (),
        edge_attrs=[[rng.randint(0, 3) for _ in range(a_e)] for _ in edges] if a_e else (),
        node_defaults=[rng.randint(0, 1) for _ in range(a_n)],
        edge_defaults=[rng.randint(0, 1) for _ in range(a_e)],
    )


def test_large_graph_examples_reach_jumps_and_greedy_pairing():
    # The explicit examples below: directed and undirected, several
    # components, and more than 12 odd nodes (past the exact pairing).
    for n, components, directed, seed in ((200, 3, True, 1), (150, 4, False, 2)):
        g = _large_graph(n, components, directed, seed)
        mg = add_jump_edges(g, 0)
        assert g.directed == directed and mg.jump_edges
        assert len(mg.odd_nodes()) > 12


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(13, 200),
    components=st.integers(1, 4),
    directed=st.booleans(),
    cyclic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=200, components=3, directed=True, cyclic=True, seed=1)
@example(n=150, components=4, directed=False, cyclic=False, seed=2)
def test_roundtrip_report_is_ok_above_the_oracle_limit(n, components, directed, cyclic, seed):
    g = _large_graph(n, components, directed, seed)
    cfg = ReindexConfig(cyclic=cyclic, seed=seed)
    for layout in LAYOUTS:
        assert roundtrip_report(g, layout, seed=seed, cfg=cfg)["ok"]


def _swap_repeated_node_tokens(grid: TokenGrid) -> TokenGrid | None:
    """Swap two node cells holding different tokens, the second in the
    walk's later half, or None without such a pair. Each cell comes after
    both tokens' first visits, so first appearances keep their order, and
    no step of the swapped walk is a self loop. Swapping the only visits
    of two nodes would merely rename them."""
    tokens = [list(row) for row in grid.tokens]
    cells = [(r, c) for r, row in enumerate(grid.roles) for c, role in enumerate(row) if role == ROLE_NODE]
    nodes = [tokens[r][c] for r, c in cells]
    first = {}
    for k, tok in enumerate(nodes):
        first.setdefault(tok, k)
    for i in range(len(nodes)):
        for j in range(max(i + 1, len(nodes) // 2), len(nodes)):
            x, y = nodes[i], nodes[j]
            if x == y or max(first[x], first[y]) >= i:
                continue
            swapped = [*nodes[:i], y, *nodes[i + 1:j], x, *nodes[j + 1:]]
            if any(swapped[k] == swapped[k + 1] for k in (i - 1, i, j - 1, j) if 0 <= k < len(nodes) - 1):
                continue
            (r1, c1), (r2, c2) = cells[i], cells[j]
            tokens[r1][c1], tokens[r2][c2] = y, x
            return TokenGrid.from_rows(grid.layout, grid.l, tokens, grid.roles)
    return None


def _serialized(g, layout, seed):
    """The grid, vocabulary and witness order ``roundtrip_report`` uses."""
    cfg = ReindexConfig()
    vocab = build_vocab([g], "roundtrip", cfg)
    grid, path = _serialize(g, vocab, layout, cfg, seed)
    return grid, vocab, tuple(dict.fromkeys(path.nodes))


def _decode(grid, vocab):
    return detokenize(grid, vocab).graph


def test_swapped_node_tokens_fail_the_witness():
    g = _large_graph(60, 1, False, 5)
    for layout in LAYOUTS:
        grid, vocab, order = _serialized(g, layout, 3)
        assert _matches_witness(_decode(grid, vocab), g, order)
        swapped = _decode(_swap_repeated_node_tokens(grid), vocab)
        assert not _matches_witness(swapped, g, order)


def test_witness_acceptance_implies_isomorphism():
    # On small graphs, with and without swapped tokens, every graph the
    # witness accepts the oracle accepts too.
    rng = random.Random(17)
    accepted = rejected = 0
    for i in range(150):
        g = random_graph(rng, n_min=3, n_max=12)
        grid, vocab, order = _serialized(g, LAYOUTS[i % 3], i)
        for candidate in (grid, _swap_repeated_node_tokens(grid)):
            if candidate is None:
                continue
            try:
                decoded = _decode(candidate, vocab)
            except ValueError:  # the swap gave a node or an edge a second block
                continue
            if _matches_witness(decoded, g, order):
                accepted += 1
                assert isomorphic(decoded, g)
            else:
                rejected += 1
    assert accepted >= 150 and rejected > 0


def test_witness_rejects_each_field_that_differs():
    g = AttributedGraph(
        num_nodes=4, edges=((0, 1), (1, 2), (2, 3), (1, 3)), directed=True,
        node_attrs=[[1, 0], [2, 1], [0, 0], [3, 1]], edge_attrs=[[1], [2], [0], [1]],
    )
    grid, vocab, order = _serialized(g, "prolonged", 0)
    decoded = _decode(grid, vocab)
    assert _matches_witness(decoded, g, order)
    rows = decoded.node_attrs
    s, d = decoded.edges[0]
    for changed in (
        {"node_attrs": (rows[1], rows[0], *rows[2:])},
        {"edge_attrs": ((9,), *decoded.edge_attrs[1:])},
        {"node_defaults": (9, 9)},
        {"edge_defaults": (9,)},
        {"edges": ((d, s), *decoded.edges[1:])},
        {"directed": False},
    ):
        assert not _matches_witness(replace(decoded, **changed), g, order), changed
    # As if the walk had missed a node: the input has one more.
    missed = replace(g, num_nodes=5, node_attrs=(*g.node_attrs, (0, 0)))
    assert not _matches_witness(decoded, missed, order)

