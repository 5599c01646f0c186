"""Command-line pipeline: ingest, vocab, tokenize, detokenize, sample,
pretrain, taskfmt, and verify.

A JSON config file may supply any optional flag's value; explicit flags
override it. Each command takes only the flags it reads, except that
``detokenize`` accepts ``--seed`` and ignores it. The vocabulary file
carries the encoding: ``vocab`` records the dataset tag, attribute styles,
index count and attribute defaults in it, and every later command takes them
from there, so a grid can only be read back under the vocabulary that wrote it.
All randomness flows through ``--seed`` with per-item seeds derived from
the item index, so outputs are byte-stable. Errors exit non-zero with one
machine-readable JSON object on stderr; a malformed input record is
reported with its file line under ``"line"``. Output is written item by
item, so a failed run leaves the complete lines before the failing item;
``pretrain --pack-context`` writes only at the end, once every example is
packed.
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .detokenizer import detokenize
from .graph import (
    AttributedGraph,
    GraphFormatError,
    SubgraphSample,
    decode_json,
    graph_record,
    iter_graphs_jsonl,
    load_graph,
    random_graph,
    read_jsonl,
    read_lines,
    write_jsonl,
)
from .identity import build_codebook, load_partition, with_identity_attrs
from .pipeline import derive_seed, roundtrip_report, serialize_graph
from .pretrain import build_ntp, build_smtp, check_fits, draw_mask_fraction, pack
from .sampler import MODE_ROOTS, SamplerConfig, draw_roots, sample
from .taskfmt import format_edge_task, format_graph_task, format_node_task
from .tokenizer import LAYOUTS, ReindexConfig, TokenGrid, widest_blocks
from .vocab import ATTR_STYLES, Vocabulary, build_vocab

def _load_vocab(args) -> Vocabulary:
    """The vocabulary ``--vocab`` names; ``--num-indices``, when given, must
    agree with its index count."""
    vocab = Vocabulary.load(args.vocab)
    if args.num_indices not in (None, vocab.num_indices):
        raise ValueError(
            f"--num-indices {args.num_indices} disagrees with the vocabulary's {vocab.num_indices} indices"
        )
    return vocab


def _reindex_cfg(args, vocab: Vocabulary) -> ReindexConfig:
    return ReindexConfig(num_indices=vocab.num_indices, cyclic=args.cyclic, seed=args.seed)


def _per_record(records, step):
    """Yield ``step(i, item)`` for the i-th ``(line, item)`` record. A
    ValueError from the step names the record's line, as a parse error does."""
    for i, (line, item) in enumerate(records):
        try:
            out = step(i, item)
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=line) from exc
        yield out


def _refuse_unread(args, what: str, *dests: str) -> None:
    """Refuse the first flag of ``dests`` that holds a value: ``what`` does not read it."""
    if given := [dest for dest in dests if getattr(args, dest) is not None]:
        raise ValueError(f"{what} does not read --{given[0].replace('_', '-')}")


def cmd_ingest(args) -> int:
    if args.format == "edge-tsv":  # its graphs have no attributes to quantize
        _refuse_unread(args, "ingest --format edge-tsv",
                       "node_scale", "node_offset", "edge_scale", "edge_offset")
    g = load_graph(args.input, format=args.format, node_scale=args.node_scale, node_offset=args.node_offset,
                   edge_scale=args.edge_scale, edge_offset=args.edge_offset)
    write_jsonl(args.output, [g.to_json()])
    return 0


def cmd_vocab(args) -> int:
    cfg = ReindexConfig(num_indices=args.num_indices)
    line = [None]  # each graph's line as build_vocab reads it, to name when it refuses its defaults
    try:
        vocab = build_vocab((g for line[0], g in read_jsonl(args.graphs, graph_record)), args.dataset_tag, cfg,
                            node_attr_style=args.node_attr_style, edge_attr_style=args.edge_attr_style)
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc), line=line[0]) from exc
    vocab.save(args.output)
    return 0


def cmd_tokenize(args) -> int:
    vocab = _load_vocab(args)
    cfg = _reindex_cfg(args, vocab)
    write_jsonl(args.output, _per_record(
        read_jsonl(args.graphs, graph_record),
        lambda i, g: serialize_graph(g, vocab, args.layout, cfg, derive_seed(args.seed, i)).to_json(),
    ))
    return 0


def cmd_detokenize(args) -> int:
    vocab = _load_vocab(args)
    write_jsonl(args.output, _per_record(
        read_jsonl(args.grids, TokenGrid.from_json),
        lambda _, grid: detokenize(grid, vocab).to_json(),
    ))
    return 0


def _build_identity(args, g: AttributedGraph):
    labels = load_partition(args.partition_file) if args.partition_file else None
    strategy = "bfs-partition" if labels is None else "given-labels"
    return build_codebook(g, k=args.identity_k, strategy=strategy, max_cluster=args.max_cluster,
                          seed=derive_seed(args.seed, "partition"), labels=labels, dataset_tag=args.dataset_tag)


def cmd_sample(args) -> int:
    if not args.identity_k:
        _refuse_unread(args, "sample without --identity-k", "partition_file", "codebook_out")
    records = read_jsonl(args.graph, graph_record)
    _, g = next(records, (None, None))
    if g is None:
        raise GraphFormatError(f"{args.graph} holds no graph")
    extra = next(records, None)
    if extra:
        raise GraphFormatError("extra record: --graph holds one parent graph", line=extra[0])
    roots = draw_roots(
        g, args.mode, args.count, derive_seed(args.seed, "roots"), negatives=args.negatives
    )
    codebook = _build_identity(args, g) if args.identity_k else None
    if codebook is not None and args.codebook_out:
        codebook.save(args.codebook_out)

    def docs():
        for i, r in enumerate(roots):
            cfg = SamplerConfig(mode=args.mode, depth=args.depth, neighbors=args.neighbors,
                                seed=derive_seed(args.seed, "sample", i))
            sub = sample(g, r, cfg)
            if codebook is not None:
                sub = with_identity_attrs(sub, codebook)
            doc = sub.to_json()
            if args.negatives:
                doc["label"] = 1 if i < args.count else 0
            yield doc

    write_jsonl(args.output, docs())
    return 0


def cmd_pretrain(args) -> int:
    if args.pack_context < 0:
        raise ValueError(f"--pack-context must be >= 0, not {args.pack_context}")
    vocab = _load_vocab(args)
    cfg = _reindex_cfg(args, vocab)
    # Packed rows share one width, so short and long grids take the corpus's widest blocks.
    widths = {}
    if args.pack_context and args.layout != "prolonged":
        per_graph = _per_record(read_jsonl(args.graphs, graph_record), lambda _, g: widest_blocks(g, vocab))
        widths = dict(zip(("edge_attr_width", "node_attr_width"), map(max, zip(*per_graph))))

    def example(i, g):
        grid = serialize_graph(g, vocab, args.layout, cfg, derive_seed(args.seed, i), **widths)
        if args.task == "ntp":
            ex = build_ntp(grid)
        else:
            rng = random.Random(derive_seed(args.seed, "rate", i))
            rate = draw_mask_fraction(rng)
            ex = build_smtp(grid, rate, derive_seed(args.seed, "mask", i), vocab)
        if args.pack_context:
            check_fits(ex, args.pack_context)  # here, so the error names the line
        return ex

    examples = _per_record(read_jsonl(args.graphs, graph_record), example)
    # First-fit packing needs every bin, so packed output is written at the end.
    records = pack(examples, args.pack_context, vocab) if args.pack_context else examples
    write_jsonl(args.output, (r.to_json() for r in records))
    return 0


def cmd_taskfmt(args) -> int:
    flag, other = ("graphs", "samples") if args.task == "graph" else ("samples", "graphs")
    _refuse_unread(args, f"taskfmt --task {args.task}", other)
    inputs = getattr(args, flag)
    if not inputs:
        raise ValueError(f"taskfmt --task {args.task} needs --{flag}")
    vocab = _load_vocab(args)
    cfg = _reindex_cfg(args, vocab)
    # Identity tokens are spelled inline. Under digits, a value-1 identity
    # token would resolve to a dimension marker, so refuse before any item.
    if args.task != "graph" and vocab.node_attr_style != "inline" and vocab.node_defaults:
        raise ValueError(
            f"{args.task} tasks append inline node identity tokens, but the vocabulary spells "
            "node attributes as digits; build it with `graphseq vocab --node-attr-style inline`"
        )

    def grid_of(g, i):
        return serialize_graph(g, vocab, args.layout, cfg, derive_seed(args.seed, i))

    def node_tokens(g, local):
        # Node identity blocks double as the appended task tokens.
        if not g.node_attrs:
            raise ValueError(
                "samples carry no node identity tokens; draw them with `graphseq sample --identity-k`"
            )
        return [vocab.token(t) for t in vocab.block_ids("node", g.node_attrs[local], g.node_defaults)]

    # A node or edge task reads the samples of the mode named after it.
    mode = f"{args.task}-ego"
    roots = MODE_ROOTS.get(mode)

    def sample_task(i, record):
        sub, label = record
        if len(sub.root_nodes) != roots:
            raise ValueError(
                f"{args.task} tasks need samples with {roots} root node(s), not "
                f"{len(sub.root_nodes)}; draw them with `graphseq sample --mode {mode}`"
            )
        g = sub.graph
        grid = grid_of(g, i)
        if args.task == "edge":
            src, dst = sub.root_nodes
            return format_edge_task(grid, vocab, node_tokens(g, src), node_tokens(g, dst), label=label)
        return format_node_task(grid, vocab, node_tokens(g, sub.root_nodes[0]), label=label)

    def graph_task(i, record):
        g, label = record
        return format_graph_task(grid_of(g, i), vocab, label=label)

    # Graph and sample records alike may carry a top-level label.
    parse, step = (graph_record, graph_task) if args.task == "graph" else (SubgraphSample.from_json, sample_task)
    records = read_jsonl(inputs, lambda d: (parse(d), d.get("label")))
    write_jsonl(args.output, (ts.to_json() for ts in _per_record(records, step)))
    return 0


def cmd_verify(args) -> int:
    if args.random < 1:
        raise ValueError(f"--random must be >= 1, not {args.random}")
    if args.graphs:
        graphs = list(iter_graphs_jsonl(args.graphs))
    else:
        # Up to 40 nodes, so some draws have more than 12 odd nodes and take
        # the greedy pairing; the generator also draws directed graphs and
        # disconnected ones, which need jump edges.
        rng = random.Random(args.seed)
        graphs = [random_graph(rng, n_max=40) for _ in range(args.random)]
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


# Flags several commands read; each command names the ones it takes.
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=0, help="master seed (default %(default)s)"),
    "--dataset-tag": dict(default="data", help="tag for semantic tokens (default %(default)s)"),
    "--num-indices": dict(type=int, help="structural index space; must equal the vocabulary's"),
    "--cyclic": dict(action=argparse.BooleanOptionalAction, default=True,
                     help="cyclic re-indexing (default %(default)s)"),
    "--layout": dict(choices=LAYOUTS, default="prolonged", help="grid layout (default %(default)s)"),
}


def _command(sub, name: str, func, help: str, *shared: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, parser=p)
    p.add_argument("--config", help="JSON config file of optional flag values; flags override them")
    for flag in shared:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphseq",
        description="Reversible graph-token serialization pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    serializing = ("--seed", "--num-indices", "--cyclic", "--layout")

    p = _command(sub, "ingest", cmd_ingest, "normalize a graph file to graph JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "edge-tsv"), default="json",
                   help="input format (default %(default)s)")
    p.add_argument("--node-scale", type=float, help="quantize node attrs: round(v * scale) + offset")
    p.add_argument("--node-offset", type=int, help="node attr offset; either flag alone quantizes")
    p.add_argument("--edge-scale", type=float, help="quantize edge attrs: round(v * scale) + offset")
    p.add_argument("--edge-offset", type=int, help="edge attr offset; either flag alone quantizes")
    p.add_argument("--output", required=True)

    p = _command(sub, "vocab", cmd_vocab, "build a vocabulary over a graph corpus", "--dataset-tag")
    p.add_argument("--num-indices", type=int, default=ReindexConfig.num_indices,
                   help="structural index space (default %(default)s)")
    p.add_argument("--node-attr-style", choices=ATTR_STYLES, default="digits",
                   help="node attribute spelling (default %(default)s)")
    p.add_argument("--edge-attr-style", choices=ATTR_STYLES, default="digits",
                   help="edge attribute spelling (default %(default)s)")
    p.add_argument("--graphs", required=True, help="graph JSONL corpus")
    p.add_argument("--output", required=True)

    p = _command(sub, "tokenize", cmd_tokenize, "serialize graphs to token grids", *serializing)
    p.add_argument("--graphs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)

    p = _command(sub, "detokenize", cmd_detokenize, "reconstruct graphs from token grids",
                 "--seed", "--num-indices")
    p.add_argument("--grids", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)

    p = _command(sub, "sample", cmd_sample, "extract ego subgraphs from a large graph",
                 "--seed", "--dataset-tag")
    p.add_argument("--graph", required=True,
                   help="file holding one parent graph as one JSONL record, as `graphseq ingest` writes")
    p.add_argument("--mode", choices=tuple(MODE_ROOTS), required=True)
    p.add_argument("--depth", type=int, default=1, help="hops from the roots (default %(default)s)")
    p.add_argument("--neighbors", type=int, default=1,
                   help="neighbours drawn per node and hop (default %(default)s)")
    p.add_argument("--count", type=int, default=1, help="roots to draw (default %(default)s)")
    p.add_argument("--negatives", action=argparse.BooleanOptionalAction, default=False,
                   help="add equal non-edge roots (edge-ego; default %(default)s)")
    p.add_argument("--identity-k", type=int, default=0,
                   help="encode node identity with k tokens (default %(default)s)")
    p.add_argument("--max-cluster", type=int, default=1024,
                   help="largest partition region (default %(default)s)")
    p.add_argument("--partition-file", help="node<TAB>cluster TSV overriding the partitioner")
    p.add_argument("--codebook-out", help="write the identity codebook TSV here")
    p.add_argument("--output", required=True)

    p = _command(sub, "pretrain", cmd_pretrain, "build NTP/SMTP examples from graphs", *serializing)
    p.add_argument("--graphs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--task", choices=("ntp", "smtp"), required=True)
    p.add_argument("--pack-context", type=int, default=0,
                   help="pack examples into entries of this many rows; 0 packs none (default %(default)s)")
    p.add_argument("--output", required=True)

    p = _command(sub, "taskfmt", cmd_taskfmt, "format fine-tuning task sequences", *serializing)
    p.add_argument("--task", choices=("graph", "edge", "node"), required=True)
    p.add_argument("--graphs", help="graph JSONL (graph-level tasks)")
    p.add_argument("--samples", help="sample JSONL (edge/node-level tasks)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)

    p = _command(sub, "verify", cmd_verify, "round-trip check; prints one JSON line per graph", "--seed")
    p.add_argument("--layout", choices=(*LAYOUTS, "all"), default="prolonged",
                   help="layout to check, or all (default %(default)s)")
    p.add_argument("--graphs", help="graph JSONL to verify; omit to generate random graphs")
    p.add_argument("--random", type=int, default=100, help="number of random graphs (default %(default)s)")

    return parser


def _config_value(action: argparse.Action, given):
    """A config file's value for ``action``'s flag, checked as the flag
    checks its text; a switch takes true or false."""
    try:
        # A switch (no argument) keeps its bool; any other value is read as the flag's text.
        value = given if action.nargs == 0 else (action.type or str)(str(given))
        if isinstance(value, bool) == (action.nargs == 0) and value in (action.choices or [value]):
            return value
    except ValueError:
        pass
    raise ValueError(f"config {action.dest}: {json.dumps(given)} is not a value of {action.option_strings[0]}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's values for the command's flags become their defaults; given flags still win.
            try:
                config = decode_json("".join(line for _, line in read_lines(args.config)), dict)
            except GraphFormatError as exc:
                exc.args = (f"config {args.config}: {exc}",)
                raise
            # A key of another command's flag is ignored, so one file can serve several commands.
            commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
            known = {a.dest for p in commands.values() for a in p._actions}
            if typo := next((k for k in config if k not in known), None):
                raise ValueError(f"config {typo}: no graphseq command has a --{typo.replace('_', '-')} flag")
            flags = {a.dest: a for a in args.parser._actions if a.option_strings}
            args.parser.set_defaults(**{k: _config_value(flags[k], v) for k, v in config.items() if k in flags})
            args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # contract: machine-readable error, nonzero exit
        err = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "line", None) is not None:
            err["line"] = exc.line
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
