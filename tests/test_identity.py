import hashlib
import json
import math
import random
from dataclasses import replace

import pytest

from graphseq import (
    AttributedGraph,
    NodeIdentityCodebook,
    ReindexConfig,
    SamplerConfig,
    build_codebook,
    build_vocab,
    codebook_from_partition,
    detokenize,
    encode_node,
    load_partition,
    sample,
    serialize_graph,
    with_identity_attrs,
)

from conftest import power_law_graph, random_connected_graph, random_graph, slot_sizes
from oracle import isomorphic


def _ring(n):
    return AttributedGraph(num_nodes=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


def test_nine_nodes_three_clusters():
    g = _ring(9)
    labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    cb = build_codebook(g, k=2, strategy="given-labels", labels=labels, dataset_tag="t")
    codes = {cb.code(v) for v in range(9)}
    assert len(codes) == 9
    assert slot_sizes(cb) == (3, 3)


def test_k1_gives_unique_token_per_node():
    g = _ring(5)
    cb = build_codebook(g, k=1, strategy="given-labels", labels=[0] * 5, dataset_tag="t")
    tokens = {encode_node(cb, v) for v in range(5)}
    assert len(tokens) == 5
    assert all(len(t) == 1 for t in tokens)


def test_species_style_labels_and_token_format():
    g = _ring(6)
    labels = [17, 17, 20, 17, 27, 20]
    cb = build_codebook(g, k=2, strategy="given-labels", labels=labels, dataset_tag="ogbl-ppa")
    assert encode_node(cb, 0) == ("ogbl-ppa#node#0#17", "ogbl-ppa#node#1#0")
    # local indices run in ascending global-id order within a cluster
    assert encode_node(cb, 3) == ("ogbl-ppa#node#0#17", "ogbl-ppa#node#1#2")
    assert slot_sizes(cb) == (3, 3)
    assert len({encode_node(cb, v) for v in range(6)}) == 6


def test_capacity_check():
    # 2 label clusters capped at 2 local indices cannot cover 5 nodes;
    # the cap alone rules this out, and the oversized cluster is named.
    g = _ring(5)
    with pytest.raises(ValueError, match="exceeds max_cluster"):
        build_codebook(
            g,
            k=2,
            strategy="given-labels",
            labels=[0, 0, 0, 1, 1],
            max_cluster=2,
            dataset_tag="t",
        )


def test_oversized_label_cluster_rejected():
    g = _ring(6)
    with pytest.raises(ValueError, match="exceeds max_cluster"):
        build_codebook(
            g,
            k=2,
            strategy="given-labels",
            labels=[0, 0, 0, 0, 1, 1],
            max_cluster=3,
            dataset_tag="t",
        )


def test_bfs_partition_respects_cluster_cap():
    rng = random.Random(1)
    g = random_connected_graph(rng, n_min=40, n_max=60, max_node_width=0, max_edge_width=0)
    cb = build_codebook(g, k=2, strategy="bfs-partition", max_cluster=8, seed=3, dataset_tag="t")
    sizes = {}
    for v in range(g.num_nodes):
        sizes[cb.partition[v]] = sizes.get(cb.partition[v], 0) + 1
    assert max(sizes.values()) <= 8
    assert sum(sizes.values()) == g.num_nodes
    cb2 = build_codebook(g, k=2, strategy="bfs-partition", max_cluster=8, seed=3, dataset_tag="t")
    assert cb2 == cb


# sha256 prefixes of the JSON partitions. The partition fixes every
# node's identity code, so a change to these digests changes output.
PARTITION_DIGESTS = {
    1: {"ring": "47ccd4ae1f739155", "random": "604003a80a7968eb", "power-law": "c24030f18f5aa7e8"},
    8: {"ring": "f288b8231b35566e", "random": "753f334629523a42", "power-law": "0b32299c5b99569e"},
    64: {"ring": "5c32f9c43f03356e", "random": "c8ecc98d25a53564", "power-law": "25dcf2e06d9f8618"},
}


def test_bfs_partition_clusters_are_pinned():
    rng = random.Random(3)
    families = {
        "ring": [_ring(50)],
        "random": [random_graph(rng, n_max=60) for _ in range(40)],
        "power-law": [power_law_graph(2000, 2, 0)],
    }
    for cap, expected in PARTITION_DIGESTS.items():
        for name, graphs in families.items():
            partitions = [
                build_codebook(g, k=2, strategy="bfs-partition", max_cluster=cap, seed=cap).partition
                for g in graphs
            ]
            digest = hashlib.sha256(json.dumps(partitions).encode()).hexdigest()[:16]
            assert digest == expected[name], (cap, name)


def test_codes_are_injective_and_slots_cover_every_node():
    rng = random.Random(8)
    # One cluster whose largest local index sits at or just below a power:
    # 999 and 1,000 around 10**3 (k=4), 1,023 and 1,024 around 32**2 (k=3),
    # 4,096 = 16**3 = 64**2.
    partitions = [[0] * size for size in (1000, 1001, 1024, 1025, 4097)]
    for _ in range(30):
        n = rng.randint(1, 300)
        clusters = rng.randint(1, n)
        partitions.append([rng.randrange(clusters) for _ in range(n)])
    for partition in partitions:
        for k in (1, 2, 3, 4):
            cb = codebook_from_partition(partition, k=k)
            codes = {cb.code(v) for v in range(len(partition))}
            assert len(codes) == len(partition), (k, len(partition))
            assert math.prod(slot_sizes(cb)) >= len(partition)


def test_local_base_is_exact_where_the_float_root_falls_short():
    # sqrt(b*b + 1) rounds to b in floating point, so base b would fold
    # local index b*b onto 0.
    b = 2**27 + 1
    cb = NodeIdentityCodebook(dataset_tag="t", k=3, partition=(0, 0), local_index=(0, b * b))
    assert cb.code(0) != cb.code(1)


def test_negative_clusters_are_rejected_above_k1():
    # -1 is the identity slots' default value, whose token is never written.
    with pytest.raises(ValueError, match="node 2 has negative cluster -1"):
        codebook_from_partition([0, 0, -1, 1], k=2)
    with pytest.raises(ValueError, match="node 0 has negative cluster -5"):
        build_codebook(_ring(3), k=3, strategy="given-labels", labels=[-5, 0, 0])
    assert codebook_from_partition([-1, -1], k=1).partition == (0, 1)


def test_k3_decomposition_is_injective():
    g = _ring(30)
    cb = build_codebook(g, k=3, strategy="bfs-partition", max_cluster=10, seed=0, dataset_tag="t")
    codes = {cb.code(v) for v in range(30)}
    assert len(codes) == 30
    assert all(len(c) == 3 for c in codes)


def test_given_labels_requires_labels():
    with pytest.raises(ValueError, match="label column"):
        build_codebook(_ring(3), k=2, strategy="given-labels")
    for k in (1, 2):
        with pytest.raises(ValueError, match="label column has 3 labels for 4 nodes"):
            build_codebook(_ring(4), k=k, strategy="given-labels", labels=[0, 0, 1])


def test_partition_file_roundtrip(tmp_path):
    path = tmp_path / "part.tsv"
    path.write_text("0\t5\n1\t5\n2\t7\n")
    labels = load_partition(path)
    assert labels == [5, 5, 7]
    cb = codebook_from_partition(labels, k=2, dataset_tag="t")
    assert slot_sizes(cb) == (2, 2)


def test_partition_file_must_be_dense(tmp_path):
    path = tmp_path / "part.tsv"
    path.write_text("0\t1\n2\t1\n")
    with pytest.raises(ValueError, match="cover node ids"):
        load_partition(path)


def test_partition_file_rejects_a_repeated_node(tmp_path):
    # Keeping the last line would load [2, 1].
    path = tmp_path / "part.tsv"
    path.write_text("0\t1\n1\t1\n0\t2\n")
    with pytest.raises(ValueError, match="partition line 3: node 0 is already assigned on line 1"):
        load_partition(path)


def test_partition_file_names_the_line_of_a_non_integer_field(tmp_path):
    path = tmp_path / "part.tsv"
    path.write_text("0\t1\n1\tx\n")
    with pytest.raises(ValueError, match="partition line 2: invalid literal for int"):
        load_partition(path)


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_partition_clusters_must_be_integers(bad):
    with pytest.raises(ValueError, match=f"cluster {bad!r} is not an integer"):
        codebook_from_partition([0, bad])


def test_codebook_file_format(tmp_path):
    g = _ring(4)
    cb = build_codebook(g, k=2, strategy="given-labels", labels=[1, 1, 2, 2], dataset_tag="t")
    path = tmp_path / "cb.tsv"
    cb.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "0\tt#node#0#1\tt#node#1#0"
    assert len(lines) == 4


def test_identity_attrs_replace_node_attrs():
    parent = _ring(12)
    cb = build_codebook(parent, k=2, strategy="bfs-partition", max_cluster=4, dataset_tag="t")
    cfg = SamplerConfig(mode="node-ego", depth=2, neighbors=2, max_seq_len=256, seed=0)
    sub = with_identity_attrs(sample(parent, (3,), cfg), cb)
    assert sub.graph.node_attr_width == 2
    assert sub.graph.node_defaults == (-1, -1)
    for local, gid in enumerate(sub.origin_ids):
        assert sub.graph.node_attrs[local] == cb.code(gid)


def test_identity_encoded_sample_roundtrips_with_unique_nodes():
    parent = _ring(20)
    cb = build_codebook(parent, k=2, strategy="bfs-partition", max_cluster=5, dataset_tag="t")
    cfg = SamplerConfig(mode="node-ego", depth=3, neighbors=2, max_seq_len=256, seed=4)
    sub = with_identity_attrs(sample(parent, (7,), cfg), cb)
    rcfg = ReindexConfig()
    vocab = build_vocab([sub.graph], "t", rcfg, node_attr_style="inline")
    grid = serialize_graph(sub.graph, vocab, "prolonged", rcfg, 2)
    report = detokenize(grid, vocab, node_attr_width=2, node_defaults=(-1, -1))
    assert isomorphic(report.graph, sub.graph)
    # every decoded node keeps its own identity block
    assert len(set(report.graph.node_attrs)) == len(sub.origin_ids)


def test_label_only_ablation_still_roundtrips_structure():
    parent = _ring(16)
    labels = [v % 3 for v in range(16)]
    cfg = SamplerConfig(mode="node-ego", depth=3, neighbors=2, max_seq_len=256, seed=9)
    # The ablation keeps only each node's coarse label as its attribute.
    sub = sample(parent, (5,), cfg)
    sub = replace(sub, graph=replace(
        sub.graph, node_attrs=[(labels[gid],) for gid in sub.origin_ids], node_defaults=(-1,)
    ))
    assert sub.graph.node_attr_width == 1
    rcfg = ReindexConfig()
    vocab = build_vocab([sub.graph], "t", rcfg, node_attr_style="inline")
    grid = serialize_graph(sub.graph, vocab, "prolonged", rcfg, 3)
    report = detokenize(grid, vocab, node_attr_width=1, node_defaults=(-1,))
    # labels no longer identify nodes uniquely, but the structure (and the
    # coarse labels themselves) still come back isomorphic
    assert isomorphic(report.graph, sub.graph)


def test_slot_vocab_growth_is_bounded():
    g = _ring(64)
    cb = build_codebook(g, k=2, strategy="bfs-partition", max_cluster=8, seed=0, dataset_tag="t")
    assert sum(slot_sizes(cb)) <= 2 * 8 + 2 * (64 // 8)
