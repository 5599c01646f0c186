"""Output checks written from the file formats and the documented rules,
not from graphseq's own code. They run outside the timed phase; each
returns None when the output is right and a short reason when it is not.
"""
from __future__ import annotations

import math
from collections import Counter


# -- round trip: attribute-aware Weisfeiler-Lehman colour refinement ---------

def _wl_view(doc: dict):
    """Node labels and labelled neighbour lists of a graph JSON document."""
    n = doc["num_nodes"]
    defaults = doc.get("attr_defaults") or {}
    node_rows = doc.get("node_attrs") or []
    edge_rows = doc.get("edge_attrs") or []
    node_default = tuple(defaults.get("node") or ())
    edge_default = tuple(defaults.get("edge") or ())
    labels = [tuple(node_rows[v]) if node_rows else node_default for v in range(n)]
    nbrs: list[list] = [[] for _ in range(n)]
    directed = bool(doc.get("directed"))
    for i, (s, d) in enumerate(doc["edges"]):
        attr = tuple(edge_rows[i]) if edge_rows else edge_default
        nbrs[s].append((attr, 1 if directed else 0, d))
        nbrs[d].append((attr, -1 if directed else 0, s))
    return (n, len(doc["edges"]), directed), labels, nbrs


def _refine(colours, nbrs, table):
    return [
        table.setdefault(
            (colours[v], tuple(sorted((a, k, colours[w]) for a, k, w in nbrs[v]))), len(table)
        )
        for v in range(len(colours))
    ]


def wl_mismatch(expected: dict, actual: dict) -> str | None:
    """Compare two graph documents by colour refinement.

    Colours are interned in one table shared by both graphs, so equal
    histograms after every round mean the graphs cannot be told apart by
    1-WL with node attributes, edge attributes and directions. This is a
    necessary condition for isomorphism that works at any size.
    """
    shape_a, colours_a, nbrs_a = _wl_view(expected)
    shape_b, colours_b, nbrs_b = _wl_view(actual)
    if shape_a != shape_b:
        return f"shape {shape_b} != {shape_a}"
    table: dict = {}
    colours_a = [table.setdefault(c, len(table)) for c in colours_a]
    colours_b = [table.setdefault(c, len(table)) for c in colours_b]
    for _ in range(shape_a[0] + 1):
        if Counter(colours_a) != Counter(colours_b):
            return "colour histograms differ"
        next_a = _refine(colours_a, nbrs_a, table)
        next_b = _refine(colours_b, nbrs_b, table)
        if len(set(next_a)) == len(set(colours_a)) and len(set(next_b)) == len(set(colours_b)):
            return None if Counter(next_a) == Counter(next_b) else "colour histograms differ"
        colours_a, colours_b = next_a, next_b
    return None


# -- prolonged sequences ----------------------------------------------------

def prolonged_roles(ids, names: list[str], num_indices: int) -> list[str]:
    """Cell roles of a prolonged sequence from the token spellings alone.

    Ids below ``num_indices`` are node indices; ``TAG#node#..`` and
    ``TAG#edge#..`` open node and edge attribute runs, and digit tokens
    continue the open run; bracketed specials are edge types.
    """
    roles = []
    current = None
    for tid in ids:
        token = names[tid]
        if tid < num_indices:
            roles.append("node")
        elif "#" in token:
            current = "node-attr" if token.rsplit("#", 3)[1] == "node" else "edge-attr"
            roles.append(current)
        elif token.startswith("<") and token not in ("<eos>", "<mask>"):
            roles.append(current)
        else:
            roles.append("edge-type")
    return roles


def smtp_mismatch(grid_ids, roles, masked_ids, targets, rate: float, mask_id: int) -> str | None:
    """Scheduled masked-node prediction on one flattened width-1 grid.

    ceil(rate * distinct nodes) nodes are chosen; every visit of a chosen
    node and every cell of its attribute run must be masked, nothing else
    may change, and the targets list exactly the hidden cells in order.
    """
    if len(masked_ids) != len(grid_ids):
        return "masked sequence changed length"
    nodes = {tok for tok, role in zip(grid_ids, roles) if role == "node"}
    chosen = {tok for pos, tok in targets if roles[pos] == "node"}
    if len(chosen) != math.ceil(rate * len(nodes)):
        return f"{len(chosen)} masked nodes, expected ceil({rate} * {len(nodes)})"
    expected_targets = []
    owner = None
    for pos, (tok, role) in enumerate(zip(grid_ids, roles)):
        if role == "node":
            owner = tok
        hidden = (role == "node" and tok in chosen) or (role == "node-attr" and owner in chosen)
        if hidden:
            expected_targets.append((pos, tok))
        if masked_ids[pos] != (mask_id if hidden else tok):
            return f"cell {pos} is {masked_ids[pos]}, expected {'mask' if hidden else tok}"
    if [tuple(t) for t in targets] != expected_targets:
        return "targets do not list the masked cells"
    visible = chosen & set(masked_ids)
    if visible:
        return f"masked node tokens still visible: {sorted(visible)}"
    return None


def pack_mismatch(batches: list[dict], examples, context: int, eos_id: int, pad_id: int) -> str | None:
    """Packed entries cover every example exactly once.

    ``examples`` holds (input rows, targets) pairs. Member spans must tile
    each entry with one ``<eos>`` separator row between neighbours, fit the
    context, and carry their example's rows and re-based targets.
    """
    members = Counter()
    for b in batches:
        rows, width = b["tokens"], b["l"]
        if len(rows) > context:
            return f"entry of {len(rows)} rows exceeds context {context}"
        sep = [eos_id] + [pad_id] * (width - 1)
        cursor = 0
        for k, (start, end) in enumerate(b["boundaries"]):
            if k and (start != cursor + 1 or rows[cursor] != sep):
                return f"no separator row before span {start}"
            if (k == 0 and start != 0) or end <= start:
                return f"bad span [{start}, {end})"
            base = start * width
            targets = tuple((pos - base, tok) for pos, tok in b["targets"][k])
            members[(tuple(map(tuple, rows[start:end])), targets)] += 1
            cursor = end
        if cursor != len(rows):
            return "rows after the last span"
    want = Counter((tuple(map(tuple, rows)), tuple(map(tuple, t))) for rows, t in examples)
    if members != want:
        return "packed spans do not match the examples one to one"
    return None


def suffix_mismatch(task: dict, grid_ids, suffix_ids) -> str | None:
    """Stripping the task suffix from a width-1 sequence gives back the
    grid, the suffix is the root identities, and the readout sits on the
    last suffix token."""
    tokens = task["tokens"]
    body = len(grid_ids)
    if tokens[:body] != list(grid_ids):
        return "task prefix differs from the grid"
    if tokens[body:] != list(suffix_ids):
        return "suffix differs from the root identity tokens"
    if task["readout"] != len(tokens) - 1:
        return "readout is not on the last suffix token"
    return None


# -- ego samples ------------------------------------------------------------

def induced_mismatch(sample: dict, roots, parent_nbrs, parent_attr, fanout: int) -> str | None:
    """A depth-1 edge-ego sample is the subgraph of the parent induced on
    its nodes: the roots first, then at most ``fanout`` neighbours of each
    root, with every parent edge among them and their attributes."""
    origin = sample["origin_ids"]
    graph = sample["graph"]
    if len(set(origin)) != len(origin) or tuple(origin[:2]) != tuple(roots):
        return "origin ids do not start with the roots"
    if len(origin) > 2 + 2 * fanout:
        return f"{len(origin)} nodes exceed the depth-1 fanout cap"
    for v in origin[2:]:
        if not (v in parent_nbrs[roots[0]] or v in parent_nbrs[roots[1]]):
            return f"node {v} is not adjacent to a root"
    members = set(origin)
    want = {
        (min(u, w), max(u, w)) for u in origin for w in parent_nbrs[u] if w in members
    }
    got = {}
    for (s, d), attr in zip(graph["edges"], graph["edge_attrs"]):
        u, w = origin[s], origin[d]
        got[(min(u, w), max(u, w))] = tuple(attr)
    if set(got) != want:
        return f"{len(got)} edges, parent induces {len(want)}"
    for key, attr in got.items():
        if attr != parent_attr[key]:
            return f"edge {key} attribute {attr} != {parent_attr[key]}"
    return None
