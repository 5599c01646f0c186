"""References the tests compare graphseq against.

``isomorphic`` is attribute-preserving isomorphism by backtracking
search, the reference for decoded graphs. ``graphseq`` checks its own
round trips against the serializer's node order, which names one
bijection. This oracle searches for any bijection, so it is independent
of that order, and exponential: it refuses graphs above
``ISO_NODE_LIMIT`` nodes.

``cell_roles`` derives every cell's role from the token ids alone, the
reference for the roles the tokenizer records. ``prolonged_grid`` lifts
a raw prolonged token list, such as a published sequence, into a grid
with those roles.

``validate_path`` checks a walk against its multigraph edge by edge, the
reference for ``extract_path``; ``edge_ends`` reads each edge id's
endpoints from the multigraph's fields.

``bfs_tree`` is a breadth-first search over a dict parent map, the
reference for the shortest paths ``graph.bfs`` finds.
"""
from graphseq import AttributedGraph, EulerizedMultigraph, EulerPath, TokenGrid, Vocabulary
from graphseq.vocab import CLASS_DIGIT, CLASS_SEMANTIC, CLASS_STRUCTURAL

ISO_NODE_LIMIT = 12


def _signature(g: AttributedGraph):
    """Per-node invariant used to prune candidate bijections."""
    indeg = [0] * g.num_nodes
    outdeg = [0] * g.num_nodes
    for s, d in g.edges:
        outdeg[s] += 1
        indeg[d] += 1
    sigs = []
    for v in range(g.num_nodes):
        attrs = g.node_attrs[v] if g.node_attrs else ()
        if g.directed:
            sigs.append((indeg[v], outdeg[v], attrs))
        else:
            sigs.append((indeg[v] + outdeg[v], attrs))
    return sigs


def _edge_attr_map(g: AttributedGraph):
    out = {}
    for i, (s, d) in enumerate(g.edges):
        key = (s, d) if g.directed else (min(s, d), max(s, d))
        out[key] = g.edge_attrs[i] if g.edge_attrs else ()
    return out


def isomorphic(g1: AttributedGraph, g2: AttributedGraph) -> bool:
    """Attribute-preserving isomorphism by pruned backtracking search.

    A test oracle, not a general solver: inputs above ``ISO_NODE_LIMIT``
    nodes are rejected.
    """
    if g1.num_nodes > ISO_NODE_LIMIT or g2.num_nodes > ISO_NODE_LIMIT:
        raise ValueError(f"isomorphism oracle is limited to {ISO_NODE_LIMIT} nodes")
    if (
        g1.num_nodes != g2.num_nodes
        or g1.num_edges != g2.num_edges
        or g1.directed != g2.directed
        or g1.node_attr_width != g2.node_attr_width
        or g1.edge_attr_width != g2.edge_attr_width
    ):
        return False
    sig1, sig2 = _signature(g1), _signature(g2)
    if sorted(sig1) != sorted(sig2):
        return False
    edges1, edges2 = _edge_attr_map(g1), _edge_attr_map(g2)

    candidates = [
        [u for u in range(g2.num_nodes) if sig2[u] == sig1[v]] for v in range(g1.num_nodes)
    ]
    order = sorted(range(g1.num_nodes), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    adj1: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(g1.num_nodes)}
    for s, d in g1.edges:
        adj1[s].append((d, s, d))
        adj1[d].append((s, s, d))

    def consistent(v: int, u: int) -> bool:
        for w, s, d in adj1[v]:
            if w not in mapping:
                continue
            ms, md = (u, mapping[w]) if s == v else (mapping[w], u)
            key1 = (s, d) if g1.directed else (min(s, d), max(s, d))
            key2 = (ms, md) if g1.directed else (min(ms, md), max(ms, md))
            if key2 not in edges2 or edges2[key2] != edges1[key1]:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for u in candidates[v]:
            if u in used or not consistent(v, u):
                continue
            mapping[v] = u
            used.add(u)
            if search(i + 1):
                return True
            del mapping[v]
            used.discard(u)
        return False

    return search(0)


def cell_roles(flat_ids, vocab: Vocabulary) -> list[str]:
    """The role of each cell of a row-major grid, from its token alone.

    A structural token is a node and ``[p]`` is padding; any other special
    token (a jump or a direction) is an edge type. A semantic token takes
    its kind's attribute role, and a digit the role of the latest semantic
    token. No layout is needed.
    """
    roles = []
    latest = None
    for tid in flat_ids:
        cls = vocab.class_of(tid)
        if cls == CLASS_STRUCTURAL:
            roles.append("node")
        elif cls == CLASS_SEMANTIC:
            latest = f"{vocab.semantic[tid][0]}-attr"
            roles.append(latest)
        elif cls == CLASS_DIGIT:
            roles.append(latest)
        else:
            roles.append("pad" if tid == vocab.pad_id else "edge-type")
    return roles


def prolonged_grid(tokens, vocab: Vocabulary) -> TokenGrid:
    """The prolonged grid of a token list, each cell's role read from its
    token by ``cell_roles``. A digit before any semantic token gets no
    role, which the decoder refuses."""
    ids = [vocab.id(tok) for tok in tokens]
    return TokenGrid(layout="prolonged", l=1, tokens=zip(ids), roles=zip(cell_roles(ids, vocab)))


def edge_ends(mg: EulerizedMultigraph) -> tuple[tuple[int, int], ...]:
    """Endpoints per edge id: the base edges, then the jump edges."""
    return mg.base.edges + mg.jump_edges


def validate_path(mg: EulerizedMultigraph, path: EulerPath) -> bool:
    """True iff the walk takes every edge as often as the multigraph has
    instances of it and every consecutive node pair is joined by its
    claimed edge."""
    if sorted(path.edges) != list(mg.edge_instances()):
        return False
    ends = edge_ends(mg)
    for i, eid in enumerate(path.edges):
        u, v = ends[eid]
        a, b = path.nodes[i], path.nodes[i + 1]
        if {a, b} != {u, v}:
            return False
    return True


def bfs_tree(adj, start: int) -> dict:
    """Breadth-first search from ``start`` over sorted adjacency.

    Maps each node reached, in discovery order, to the (node, edge id)
    that first reached it; ``start`` maps to None.
    """
    parent = {start: None}
    queue = [start]
    for u in queue:
        for v, eid in adj[u]:
            if v not in parent:
                parent[v] = (u, eid)
                queue.append(v)
    return parent
