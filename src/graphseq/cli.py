"""Command-line pipeline: ingest, vocab, tokenize, detokenize, sample,
pretrain, taskfmt, and verify.

A single JSON config document may supply any flag value; explicit flags
override it. All randomness flows through ``--seed`` with per-item seeds
derived from the item index, so outputs are byte-stable. Errors exit
non-zero with one machine-readable JSON object on stderr; a malformed
input record is reported with its file line under ``"line"``. Output is
written item by item, so a failed run leaves the complete lines before the
failing item; ``pretrain --pack-context`` writes only at the end, once
every example is packed. The only environment knob is ``GRAPHSEQ_LOG``
(log verbosity).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from pathlib import Path

from . import __version__
from .detokenizer import detokenize
from .graph import (
    AttributedGraph,
    SubgraphSample,
    adjacency,
    iter_graphs_jsonl,
    load_graph,
    read_jsonl,
    write_jsonl,
)
from .identity import (
    build_codebook,
    codebook_from_partition,
    load_partition,
    with_identity_attrs,
)
from .pipeline import derive_seed, roundtrip_report, serialize_graph
from .pretrain import build_ntp, build_smtp, draw_mask_fraction, pack
from .sampler import SamplerConfig, draw_roots, sample
from .taskfmt import format_edge_task, format_graph_task, format_node_task
from .tokenizer import ReindexConfig, TokenGrid
from .vocab import Vocabulary, build_vocab, semantic_token

log = logging.getLogger("graphseq")


def _setup_logging():
    level = os.environ.get("GRAPHSEQ_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _random_graph(rng: random.Random, directed=False) -> AttributedGraph:
    """Small random connected attributed graph for self-contained verify runs."""
    n = rng.randint(2, 12)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if not directed:
            u, v = min(u, v), max(u, v)
        if (u, v) not in edges:
            edges.add((u, v))
    a_n = rng.randint(0, 4)
    a_e = rng.randint(0, 3)
    edges = sorted(edges)
    return AttributedGraph(
        num_nodes=n,
        edges=tuple(edges),
        directed=directed,
        node_attrs=[[rng.randint(0, 5) for _ in range(a_n)] for _ in range(n)] if a_n else (),
        edge_attrs=[[rng.randint(0, 5) for _ in range(a_e)] for _ in range(len(edges))] if a_e else (),
    )


def _reindex_cfg(args) -> ReindexConfig:
    return ReindexConfig(
        num_indices=args.num_indices, cyclic=args.cyclic, seed=args.seed
    )


def _load_vocab(args) -> Vocabulary:
    # semantic tokens embed their tag, so a populated file wins over the flag
    vocab = Vocabulary.load(
        args.vocab,
        node_attr_style=args.node_attr_style,
        edge_attr_style=args.edge_attr_style,
    )
    if not vocab.dataset_tag:
        vocab.dataset_tag = args.dataset_tag
    return vocab


def cmd_ingest(args) -> int:
    g = load_graph(
        args.input,
        format=args.format,
        node_scale=args.node_scale,
        node_offset=args.node_offset,
        edge_scale=args.edge_scale,
        edge_offset=args.edge_offset,
    )
    write_jsonl(args.output, [g.to_json()])
    log.info("ingested %s: %d nodes, %d edges", args.input, g.num_nodes, g.num_edges)
    return 0


def cmd_vocab(args) -> int:
    vocab = build_vocab(
        iter_graphs_jsonl(args.graphs),
        args.dataset_tag,
        _reindex_cfg(args),
        node_attr_style=args.node_attr_style,
        edge_attr_style=args.edge_attr_style,
    )
    vocab.save(args.output)
    log.info("vocabulary of %d tokens written to %s", len(vocab), args.output)
    return 0


def cmd_tokenize(args) -> int:
    vocab = _load_vocab(args)
    cfg = _reindex_cfg(args)
    write_jsonl(args.output, (
        serialize_graph(g, vocab, args.layout, cfg, derive_seed(args.seed, i)).to_json()
        for i, g in enumerate(iter_graphs_jsonl(args.graphs))
    ))
    return 0


def cmd_detokenize(args) -> int:
    vocab = _load_vocab(args)
    write_jsonl(args.output, (
        detokenize(grid, vocab).to_json()
        for grid in read_jsonl(args.grids, TokenGrid.from_json)
    ))
    return 0


def _build_identity(args, g: AttributedGraph):
    if args.partition_file:
        labels = load_partition(args.partition_file)
        return codebook_from_partition(labels, k=args.identity_k, dataset_tag=args.dataset_tag)
    return build_codebook(
        g,
        k=args.identity_k,
        strategy=args.identity_strategy,
        max_cluster=args.max_cluster,
        seed=derive_seed(args.seed, "partition"),
        dataset_tag=args.dataset_tag,
    )


def cmd_sample(args) -> int:
    g = next(iter_graphs_jsonl(args.graph))
    adj = adjacency(g)
    codebook = _build_identity(args, g) if args.identity_k else None
    if codebook is not None and args.codebook_out:
        codebook.save(args.codebook_out)
    roots = draw_roots(
        g, args.mode, args.count, derive_seed(args.seed, "roots"), negatives=args.negatives
    )

    def docs():
        for i, r in enumerate(roots):
            cfg = SamplerConfig(
                mode=args.mode,
                depth=args.depth,
                neighbors=args.neighbors,
                max_seq_len=args.max_seq_len,
                seed=derive_seed(args.seed, "sample", i),
            )
            sub = sample(g, r, cfg, adj=adj)
            if codebook is not None:
                sub = with_identity_attrs(sub, codebook)
            doc = sub.to_json()
            if args.negatives:
                doc["label"] = 1 if i < args.count else 0
            yield doc

    write_jsonl(args.output, docs())
    return 0


def cmd_pretrain(args) -> int:
    vocab = _load_vocab(args)
    cfg = _reindex_cfg(args)

    def examples():
        for i, g in enumerate(iter_graphs_jsonl(args.graphs)):
            grid = serialize_graph(g, vocab, args.layout, cfg, derive_seed(args.seed, i))
            if args.task == "ntp":
                yield build_ntp(grid, vocab)
            else:
                rng = random.Random(derive_seed(args.seed, "rate", i))
                rate = draw_mask_fraction(rng)
                yield build_smtp(grid, rate, derive_seed(args.seed, "mask", i), vocab)

    # First-fit packing needs every bin, so packed output is written at the end.
    records = pack(examples(), args.pack_context, vocab) if args.pack_context else examples()
    write_jsonl(args.output, (r.to_json() for r in records))
    return 0


def cmd_taskfmt(args) -> int:
    vocab = _load_vocab(args)
    cfg = _reindex_cfg(args)

    def grid_of(g, i):
        return serialize_graph(g, vocab, args.layout, cfg, derive_seed(args.seed, i))

    def node_tokens(g, local):
        # Node identity blocks double as the appended task tokens.
        return [
            semantic_token(vocab.dataset_tag, "node", dim, value)
            for dim, value in enumerate(g.node_attrs[local])
            if value != g.node_defaults[dim]
        ]

    def sequences():
        if args.task == "graph":
            for i, g in enumerate(iter_graphs_jsonl(args.graphs)):
                yield format_graph_task(grid_of(g, i), vocab)
            return
        samples = read_jsonl(args.samples, lambda d: (SubgraphSample.from_json(d), d.get("label")))
        for i, (sub, label) in enumerate(samples):
            g = sub.graph
            grid = grid_of(g, i)
            if args.task == "edge":
                src, dst = sub.root_nodes
                yield format_edge_task(
                    grid, vocab, node_tokens(g, src), node_tokens(g, dst), label=label
                )
            else:
                yield format_node_task(grid, vocab, node_tokens(g, sub.root_nodes[0]), label=label)

    write_jsonl(args.output, (ts.to_json() for ts in sequences()))
    return 0


def cmd_verify(args) -> int:
    if args.graphs:
        graphs = list(iter_graphs_jsonl(args.graphs))
    else:
        rng = random.Random(args.seed)
        graphs = [_random_graph(rng) for _ in range(args.random)]
    layouts = ("prolonged", "short", "long") if args.layout == "all" else (args.layout,)
    ok_count = 0
    for i, g in enumerate(graphs):
        ok = True
        dedup = jumps = 0
        for layout in layouts:
            report = roundtrip_report(g, layout, seed=derive_seed(args.seed, i, layout))
            ok = ok and report["ok"]
            dedup, jumps = report["dedup"], report["jumps"]
        ok_count += ok
        print(json.dumps({"id": i, "ok": ok, "dedup": dedup, "jumps": jumps}))
    print(f"{ok_count}/{len(graphs)} ok")
    return 0 if ok_count == len(graphs) else 1


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--dataset-tag", help="vocabulary tag for semantic tokens")
    p.add_argument("--num-indices", type=int, help="structural index space (default 256)")
    p.add_argument("--cyclic", action=argparse.BooleanOptionalAction, help="cyclic re-indexing (default on)")
    p.add_argument("--node-attr-style", choices=("digits", "inline"))
    p.add_argument("--edge-attr-style", choices=("digits", "inline"))
    p.add_argument("--layout", choices=("short", "long", "prolonged", "all"))


_DEFAULTS = {
    "seed": 0,
    "dataset_tag": "data",
    "num_indices": 256,
    "cyclic": True,
    "node_attr_style": "digits",
    "edge_attr_style": "digits",
    "layout": "prolonged",
    "format": "json",
    "node_scale": 1.0,
    "node_offset": 0,
    "edge_scale": 1.0,
    "edge_offset": 0,
    "depth": 1,
    "neighbors": 1,
    "count": 1,
    "max_seq_len": 1024,
    "negatives": False,
    "identity_k": 0,
    "identity_strategy": "bfs-partition",
    "max_cluster": 1024,
    "partition_file": None,
    "codebook_out": None,
    "task": None,
    "pack_context": 0,
    "random": 100,
    "graphs": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphseq",
        description="Reversible graph-token serialization pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a graph file to graph JSON")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "edge-tsv"))
    p.add_argument("--node-scale", type=float, help="quantization scale for node attrs")
    p.add_argument("--node-offset", type=int)
    p.add_argument("--edge-scale", type=float, help="quantization scale for edge attrs")
    p.add_argument("--edge-offset", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("vocab", help="build a vocabulary over a graph corpus")
    _add_common(p)
    p.add_argument("--graphs", required=True, help="graph JSONL corpus")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("tokenize", help="serialize graphs to token grids")
    _add_common(p)
    p.add_argument("--graphs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("detokenize", help="reconstruct graphs from token grids")
    _add_common(p)
    p.add_argument("--grids", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_detokenize)

    p = sub.add_parser("sample", help="extract ego subgraphs from a large graph")
    _add_common(p)
    p.add_argument("--graph", required=True, help="parent graph JSON/JSONL")
    p.add_argument("--mode", choices=("node-ego", "edge-ego"), required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--neighbors", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--max-seq-len", type=int)
    p.add_argument("--negatives", action="store_true", help="add equal non-edge roots (edge-ego)")
    p.add_argument("--identity-k", type=int, help="encode node identity with k tokens")
    p.add_argument("--identity-strategy", choices=("given-labels", "bfs-partition"))
    p.add_argument("--max-cluster", type=int)
    p.add_argument("--partition-file", help="node<TAB>cluster TSV overriding the partitioner")
    p.add_argument("--codebook-out", help="write the identity codebook TSV here")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pretrain", help="build NTP/SMTP examples from graphs")
    _add_common(p)
    p.add_argument("--graphs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--task", choices=("ntp", "smtp"), required=True)
    p.add_argument("--pack-context", type=int, help="pack examples into entries of this many rows")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("taskfmt", help="format fine-tuning task sequences")
    _add_common(p)
    p.add_argument("--task", choices=("graph", "edge", "node"), required=True)
    p.add_argument("--graphs", help="graph JSONL (graph-level tasks)")
    p.add_argument("--samples", help="sample JSONL (edge/node-level tasks)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_taskfmt)

    p = sub.add_parser("verify", help="round-trip check; prints one JSON line per graph")
    _add_common(p)
    p.add_argument("--graphs", help="graph JSONL to verify; omit to generate random graphs")
    p.add_argument("--random", type=int, help="number of random graphs (default 100)")
    p.set_defaults(func=cmd_verify)

    return parser


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    config = {}
    if getattr(args, "config", None):
        config = json.loads(Path(args.config).read_text())
    for key, fallback in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, fallback))
    return args


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except Exception as exc:  # contract: machine-readable error, nonzero exit
        err = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "line", None) is not None:
            err["line"] = exc.line
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
