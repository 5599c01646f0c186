"""The three benchmark workloads.

Each workload generates its corpus from the workload seed, sets up the way
the CLI would (vocabulary built, saved and loaded again), and then
processes one item at a time in a closed loop with one caller. Per-item
seeds follow the CLI: ``derive_seed(seed, i)`` for item ``i`` of a file.

Untraced runs call ``serialize_graph`` and ``fit_sample`` as users do. A
traced run composes them from their public layer calls with the same
derived seeds, so spans can attribute time inside them; its output must
match the untraced output byte for byte.
"""
from __future__ import annotations

import itertools
import json
import random
import resource
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from graphseq import (
    AttributedGraph,
    ReindexConfig,
    SamplerConfig,
    SubgraphSample,
    TokenGrid,
    Vocabulary,
    add_jump_edges,
    adjacency,
    build_codebook,
    build_smtp,
    build_vocab,
    derive_seed,
    detokenize,
    draw_mask_fraction,
    draw_roots,
    encode_node,
    eulerize,
    extract_path,
    fit_sample,
    format_edge_task,
    pack,
    sample,
    serialize_graph,
    tokenize,
    with_identity_attrs,
)
from graphseq.cli import main as cli_main
from graphseq.graph import iter_graphs_jsonl

import checks
import corpora
from tracing import Tracer, span

LAYOUTS = ("short", "long", "prolonged")


class Sink:
    """One JSONL output file; keeps the lines for the checks. ``side`` is
    a second file for workloads that write two (the detokenized graphs)."""

    def __init__(self, path: Path, side: "Sink | None" = None):
        self.fh = open(path, "w")
        self.side = side
        self.lines: list[str] = []
        self.bytes = 0
        self.tokens = 0

    def write(self, line: str, tokens: int = 0) -> None:
        self.fh.write(line)
        self.lines.append(line)
        self.bytes += len(line.encode())
        self.tokens += tokens

    def close(self) -> None:
        self.fh.close()
        if self.side is not None:
            self.side.close()


@dataclass
class Loop:
    """Records, item times and failures of one closed-loop run, over one or
    more passes; ``records[n]`` is None when item n raised. Times are
    ``perf_counter`` readings: ``items[n]`` is item n's (start, end) and
    ``span`` the whole run's, pass ends included.
    """

    records: list = field(default_factory=list)
    items: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)
    span: tuple = (0.0, 0.0)
    # Process high-water mark when the first pass ended: later passes only
    # repeat its items, so this does not depend on how fast the host is.
    # On ego-edge-task the run ends inside the first pass.
    first_pass_rss_mb: float | None = None

    @property
    def wall(self) -> float:
        return self.span[1] - self.span[0]


def serialize(tr: Tracer | None, g, vocab, layout, cfg, seed):
    """``serialize_graph``, or under a tracer the same calls one by one."""
    if tr is None:
        return serialize_graph(g, vocab, layout, cfg, seed)
    with tr.span("pipeline.serialize"):
        with tr.span("euler.jump"):
            connected = add_jump_edges(g, derive_seed(seed, "jump"))
        with tr.span("euler.parity"):
            mg = eulerize(connected)
        with tr.span("euler.walk"):
            path = extract_path(mg, derive_seed(seed, "path"))
        with tr.span("tokenizer.tokenize"):
            step_cfg = replace(cfg, seed=derive_seed(seed, "shift", cfg.seed))
            grid = tokenize(path, mg, vocab, layout, step_cfg, derive_seed(seed, "attrs"))
    odd = len(connected.odd_nodes())
    tr.count("euler.odd_nodes", odd)
    tr.count("euler.jump_edges", len(connected.jump_edges))
    tr.count("euler.dup_edges", len(mg.duplications))
    if odd > 2:
        tr.count("euler.exact", mg.minimality_guaranteed)
    tr.count("tokenizer.cells", grid.num_rows * grid.l)
    tr.count("tokenizer.pad_cells", sum(row.count(vocab.pad_id) for row in grid.tokens))
    return grid


def drive(wl, ctx, tr, sink, source, deadline=None, limit=None) -> Loop:
    """Closed loop: read, process and write one item before the next.

    Passes over ``source`` repeat until ``deadline`` or ``limit`` items;
    with neither, one pass. The deadline is checked after every item, or
    only at the end of a pass when ``wl.whole_passes`` is set.
    """
    loop = Loop()
    start = perf_counter()

    def stop(pass_end: bool) -> bool:
        if limit is not None and len(loop.records) >= limit:
            return True
        late = deadline is not None and perf_counter() >= deadline
        return late and (pass_end or not wl.whole_passes)

    while True:
        state = wl.begin_pass()
        items = iter(source())
        first = len(loop.records)
        for i in itertools.count():
            t0 = perf_counter()
            raw = next(items, None)
            if raw is None:
                break
            if tr is not None:
                tr.item = len(loop.records)
            try:
                with span(tr, "bench.item"):
                    record = wl.process(ctx, tr, state, sink, i, raw)
            except Exception as exc:  # counted in failed, the run goes on
                record = None
                loop.failed[len(loop.records)] = f"{type(exc).__name__}: {exc}"
            loop.items.append((t0, perf_counter()))
            loop.records.append(record)
            if stop(pass_end=False):
                break
        if tr is not None:
            tr.item = None
        try:
            with span(tr, "bench.pass_end"):
                wl.end_pass(ctx, tr, state, sink)
        except Exception as exc:  # the whole pass's output is lost
            for n in range(first, len(loop.records)):
                loop.failed.setdefault(n, f"{type(exc).__name__}: {exc}")
        if loop.first_pass_rss_mb is None:
            loop.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        one_pass = deadline is None and limit is None
        if one_pass or stop(pass_end=True) or len(loop.records) == first:
            break
    loop.span = (start, perf_counter())
    return loop


def _save_and_load(tr, vocab: Vocabulary, path: Path) -> Vocabulary:
    with span(tr, "vocab.load"):
        vocab.save(path)
        return Vocabulary.load(
            path, node_attr_style=vocab.node_attr_style, edge_attr_style=vocab.edge_attr_style
        )


class Workload:
    """A corpus written as JSONL from the seed; by default its items are
    the corpus lines, set up like ``graphseq vocab``."""

    tag = "data"
    num_indices = 256
    whole_passes = False
    parity_status = "identical"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.corpus = workdir / "corpus.jsonl"
        corpora.write_jsonl(self.generate(seed), self.corpus)
        self.cfg = ReindexConfig(num_indices=self.num_indices, seed=seed)

    def setup(self, tr):
        with span(tr, "graph.setup_parse"):
            graphs = list(iter_graphs_jsonl(self.corpus))
        with span(tr, "vocab.build"):
            vocab = build_vocab(graphs, self.tag, self.cfg)
        return {"vocab": _save_and_load(tr, vocab, self.workdir / "vocab.tsv")}

    def source(self, path=None):
        def lines():
            with open(path or self.corpus) as fh:
                yield from fh

        return lines

    def sink(self, path: Path) -> Sink:
        return Sink(path)

    def begin_pass(self):
        return {}

    def end_pass(self, ctx, tr, state, sink):
        pass

    def parse(self, tr, line: str) -> AttributedGraph:
        with span(tr, "graph.parse"):
            return AttributedGraph.from_json(json.loads(line))

    def cli(self, *args) -> None:
        code = cli_main([*map(str, args), "--seed", str(self.seed),
                         "--num-indices", str(self.num_indices)])
        if code != 0:
            raise RuntimeError(f"graphseq {args[0]} exited with {code}")


class MolPretrain(Workload):
    """``graphseq pretrain --task smtp --pack-context 1024`` on 1,000
    molecule-like graphs: small items where exact parity repair dominates.
    The layout is prolonged because ``pack`` rejects the mixed widths that
    auto-fit short and long grids produce. One pass takes 5-10 s on a
    2-vCPU VM, so the first pass ends well inside a 20 s run."""

    name = "mol-pretrain"
    tag = "mol"
    tail_percentile = 99.0
    count = 1000
    context = 1024
    parity_slice = 40

    def generate(self, seed):
        return corpora.molecule_graphs(seed, self.count)

    def begin_pass(self):
        return {"examples": [], "batch_lines": []}

    def process(self, ctx, tr, state, sink, i, line):
        vocab = ctx["vocab"]
        g = self.parse(tr, line)
        grid = serialize(tr, g, vocab, "prolonged", self.cfg, derive_seed(self.seed, i))
        with span(tr, "pretrain.smtp"):
            rate = draw_mask_fraction(random.Random(derive_seed(self.seed, "rate", i)))
            ex = build_smtp(grid, rate, derive_seed(self.seed, "mask", i), vocab)
        state["examples"].append(ex)
        return {"grid": grid, "example": ex, "seq_tokens": grid.num_rows * grid.l,
                "batch": state}

    def end_pass(self, ctx, tr, state, sink):
        if not state["examples"]:
            return
        with span(tr, "pretrain.pack"):
            batches = pack(state["examples"], self.context, ctx["vocab"])
        for b in batches:
            with span(tr, "cli.encode"):
                line = json.dumps(b.to_json()) + "\n"
                sink.write(line, len(b.tokens) * b.l)
            state["batch_lines"].append(line)
        if tr is not None:
            tr.count("pretrain.batches", len(batches))
            tr.count("pretrain.rows", sum(len(b.tokens) for b in batches))

    def check(self, ctx, loop: Loop) -> dict:
        vocab = ctx["vocab"]
        names = [vocab.token(t) for t in range(len(vocab))]
        bad = {}
        passes = {}
        for n, rec in enumerate(loop.records):
            if rec is None:
                continue
            reason = self._smtp_mismatch(vocab, names, rec["grid"].flat(), rec["example"])
            if reason:
                bad[n] = f"smtp: {reason}"
            passes.setdefault(id(rec["batch"]), (rec["batch"], []))[1].append(n)
        for state, members in passes.values():
            reason = checks.pack_mismatch(
                [json.loads(line) for line in state["batch_lines"]],
                [(ex.inputs.tokens, ex.targets) for ex in state["examples"]],
                self.context, vocab.eos_id, vocab.pad_id,
            )
            if reason:
                bad.update({n: f"pack: {reason}" for n in members})
        return bad

    def _smtp_mismatch(self, vocab, names, grid_ids, ex, masked_ids=None) -> str | None:
        return checks.smtp_mismatch(
            grid_ids, checks.prolonged_roles(grid_ids, names, self.num_indices),
            ex.inputs.flat() if masked_ids is None else masked_ids,
            ex.targets, ex.mask_rate_drawn, vocab.mask_id,
        )

    def negative_control(self, ctx, loop: Loop) -> bool:
        """An SMTP example with one masked node cell put back must fail."""
        rec = next(r for r in loop.records if r is not None)
        ex = rec["example"]
        leaked = ex.inputs.flat()
        pos, tok = ex.targets[0]
        leaked[pos] = tok
        vocab = ctx["vocab"]
        names = [vocab.token(t) for t in range(len(vocab))]
        return self._smtp_mismatch(vocab, names, rec["grid"].flat(), ex, leaked) is not None

    def cli_parity(self, ctx) -> str | None:
        """``graphseq pretrain`` on a corpus slice writes what the loop writes."""
        sliced = self.workdir / "slice.jsonl"
        with open(self.corpus) as src, open(sliced, "w") as dst:
            dst.writelines(line for _, line in zip(range(self.parity_slice), src))
        ours = self.sink(self.workdir / "slice-bench.jsonl")
        drive(self, ctx, None, ours, self.source(sliced))
        ours.close()
        theirs = self.workdir / "slice-cli.jsonl"
        self.cli("pretrain", "--graphs", sliced, "--vocab", self.workdir / "vocab.tsv",
                 "--task", "smtp", "--pack-context", self.context, "--layout", "prolonged",
                 "--output", theirs)
        if theirs.read_text() != "".join(ours.lines):
            return "graphseq pretrain output differs from the benchmark's"
        return None


class SparseRoundtrip(Workload):
    """``graphseq tokenize`` then ``detokenize`` on 15 sparse graphs of
    200-1,000 nodes, layouts rotating short/long/prolonged: greedy parity
    repair, long walks, every layout and the read direction.

    Item costs span two orders of magnitude, so a run stops only at the end
    of a pass: every run then times whole copies of the same corpus, and
    its median and p75 land inside the repeats of one graph (the 8th and
    12th of 15 by size) instead of moving with the stopping point.
    """

    name = "sparse-roundtrip"
    tag = "sparse"
    tail_percentile = 75.0
    num_indices = 2048
    count = 15
    whole_passes = True
    parity_slice = 3

    def generate(self, seed):
        return corpora.sparse_graphs(seed, self.count)

    def sink(self, path: Path) -> Sink:
        return Sink(path, side=Sink(path.with_suffix(".detok.jsonl")))

    def tokenize_line(self, ctx, tr, i, line, layout):
        g = self.parse(tr, line)
        grid = serialize(tr, g, ctx["vocab"], layout, self.cfg, derive_seed(self.seed, i))
        with span(tr, "cli.encode"):
            return grid, json.dumps(grid.to_json()) + "\n"

    def detokenize_line(self, ctx, tr, grid_line):
        with span(tr, "cli.decode"):
            grid = TokenGrid.from_json(json.loads(grid_line))
        with span(tr, "detokenizer.detokenize"):
            report = detokenize(grid, ctx["vocab"])
        if tr is not None:
            tr.count("detokenizer.dedup_edges", report.deduplicated_edges)
        with span(tr, "cli.encode"):
            return json.dumps({
                "graph": report.graph.to_json(),
                "dropped_jump_edges": report.dropped_jump_edges,
                "deduplicated_edges": report.deduplicated_edges,
                "warnings": list(report.warnings),
            }) + "\n"

    def process(self, ctx, tr, state, sink, i, line):
        grid, grid_line = self.tokenize_line(ctx, tr, i, line, LAYOUTS[i % 3])
        sink.write(grid_line, grid.num_rows * grid.l)
        out = self.detokenize_line(ctx, tr, grid_line)
        sink.side.write(out)
        return {"input": line, "grid_line": grid_line, "detok_line": out,
                "seq_tokens": grid.num_rows * grid.l}

    def check(self, ctx, loop: Loop) -> dict:
        bad = {}
        for n, rec in enumerate(loop.records):
            if rec is None:
                continue
            reason = checks.wl_mismatch(
                json.loads(rec["input"]), json.loads(rec["detok_line"])["graph"]
            )
            if reason:
                bad[n] = f"round trip: {reason}"
        return bad

    def negative_control(self, ctx, loop: Loop) -> bool:
        """A grid with two node tokens swapped must fail the round-trip check.

        Both tokens occur more than once: swapping the only visits of two
        nodes would merely rename them.
        """
        rec = next(r for r in loop.records if r is not None)
        doc = json.loads(rec["grid_line"])
        tokens = doc["tokens"]
        cells = [(r, c) for r, row in enumerate(doc["roles"])
                 for c, role in enumerate(row) if role == "node"]
        visits = Counter(tokens[r][c] for r, c in cells)
        repeated = [(r, c) for r, c in cells if visits[tokens[r][c]] > 1]
        (r1, c1) = repeated[0]
        (r2, c2) = next((r, c) for r, c in repeated[len(repeated) // 2:]
                        if tokens[r][c] != tokens[r1][c1])
        tokens[r1][c1], tokens[r2][c2] = tokens[r2][c2], tokens[r1][c1]
        try:
            out = self.detokenize_line(ctx, None, json.dumps(doc))
        except ValueError:  # the swap made a self loop, which detokenize rejects
            return True
        return checks.wl_mismatch(json.loads(rec["input"]), json.loads(out)["graph"]) is not None

    def cli_parity(self, ctx) -> str | None:
        """``graphseq tokenize`` (each layout) and ``graphseq detokenize`` on
        the smallest graphs write what the loop writes for them."""
        with open(self.corpus) as fh:
            lines = fh.readlines()
        sliced = sorted(lines, key=len)[: self.parity_slice]
        path = self.workdir / "slice.jsonl"
        path.write_text("".join(sliced))
        vocab_path = self.workdir / "vocab.tsv"
        for layout in LAYOUTS:
            grids = self.workdir / f"slice-{layout}.jsonl"
            graphs = self.workdir / f"slice-{layout}-detok.jsonl"
            self.cli("tokenize", "--graphs", path, "--vocab", vocab_path, "--layout", layout,
                     "--output", grids)
            self.cli("detokenize", "--grids", grids, "--vocab", vocab_path, "--output", graphs)
            ours = [self.tokenize_line(ctx, None, i, line, layout)[1]
                    for i, line in enumerate(sliced)]
            if grids.read_text() != "".join(ours):
                return f"graphseq tokenize --layout {layout} output differs"
            back = [self.detokenize_line(ctx, None, line) for line in ours]
            if graphs.read_text() != "".join(back):
                return f"graphseq detokenize ({layout}) output differs"
        return None


class EgoEdgeTask(Workload):
    """Edge-ego samples of a 10^5-node power-law parent: ``fit_sample`` to a
    96-token budget, identity attributes, serialization and edge-task
    formatting. Exercises the sampler, identity, taskfmt and the budget-fit
    retries, and has a real setup (parent parse, adjacency, codebook).

    A tenth of the samples take about 70% of the time, so a run should hold
    as many distinct samples as it can: 3,000 roots are more than a 20 s
    run reaches, and no root repeats within a run."""

    name = "ego-edge-task"
    tag = "ego"
    tail_percentile = 98.0
    parent_nodes = 100_000
    roots = 1500
    fanout = 12
    budget = 96
    k = 2
    max_cluster = 1024

    def generate(self, seed):
        return [corpora.power_law_parent(seed, self.parent_nodes)]

    def setup(self, tr):
        with span(tr, "graph.setup_parse"):
            g = next(iter_graphs_jsonl(self.corpus))
        with span(tr, "graph.adjacency"):
            adj = adjacency(g)
        with span(tr, "identity.codebook"):
            cb = build_codebook(g, k=self.k, strategy="bfs-partition",
                                max_cluster=self.max_cluster,
                                seed=derive_seed(self.seed, "partition"), dataset_tag=self.tag)
        with span(tr, "vocab.build"):
            # The vocabulary must hold every node's identity tokens.
            everyone = SubgraphSample(graph=g, root_nodes=(0,), origin_ids=range(g.num_nodes))
            coded = with_identity_attrs(everyone, cb).graph
            vocab = build_vocab([coded], self.tag, self.cfg, node_attr_style="inline")
        vocab = _save_and_load(tr, vocab, self.workdir / "vocab.tsv")
        with span(tr, "sampler.draw_roots"):
            roots = draw_roots(g, "edge-ego", self.roots, derive_seed(self.seed, "roots"),
                               negatives=True)
        return {"graph": g, "adj": adj, "codebook": cb, "vocab": vocab, "roots": roots}

    def source(self, path=None):
        # Alternate positive and negative roots so any prefix holds both.
        order = [k for pair in zip(range(self.roots), range(self.roots, 2 * self.roots))
                 for k in pair]
        return lambda: iter(order)

    def fit(self, ctx, tr, roots, cfg, seed) -> SubgraphSample:
        """``fit_sample``, or under a tracer the same draws one by one."""
        g, adj, vocab = ctx["graph"], ctx["adj"], ctx["vocab"]
        if tr is None:
            return fit_sample(g, roots, cfg, vocab, self.cfg, seed, adj)[0]
        with tr.span("pipeline.fit"):
            for attempt, fanout in enumerate(range(cfg.neighbors, 0, -1)):
                draw = replace(cfg, neighbors=fanout, seed=derive_seed(cfg.seed, "retry", attempt))
                with tr.span("sampler.sample"):
                    sub = sample(g, roots, draw, adj=adj)
                grid = serialize(tr, sub.graph, vocab, "prolonged", self.cfg, seed)
                if grid.num_rows <= cfg.max_seq_len:
                    tr.count("pipeline.fit_attempts", attempt + 1)
                    return sub
        raise ValueError(f"sequence exceeds max_seq_len={cfg.max_seq_len} even at fanout 1")

    def process(self, ctx, tr, state, sink, i, k):
        vocab, cb = ctx["vocab"], ctx["codebook"]
        roots = ctx["roots"][k]
        cfg = SamplerConfig(mode="edge-ego", depth=1, neighbors=self.fanout,
                            max_seq_len=self.budget, seed=derive_seed(self.seed, "sample", k))
        sub = self.fit(ctx, tr, roots, cfg, derive_seed(self.seed, k))
        with span(tr, "identity.attach"):
            coded = with_identity_attrs(sub, cb)
            src, dst = (encode_node(cb, v) for v in sub.origin_ids[:2])
        grid = serialize(tr, coded.graph, vocab, "prolonged", self.cfg, derive_seed(self.seed, k))
        with span(tr, "taskfmt.format"):
            task = format_edge_task(grid, vocab, src, dst, label=int(k < self.roots))
        with span(tr, "cli.encode"):
            line = json.dumps(task.to_json()) + "\n"
            sink.write(line, len(task.tokens))
        return {"roots": roots, "sample": sub, "grid": grid, "line": line,
                "suffix": src + dst, "seq_tokens": len(task.tokens),
                "over_budget": len(task.tokens) > self.budget}

    def _parent_index(self, ctx):
        if "nbrs" not in ctx:
            doc = json.loads(self.corpus.read_text())
            nbrs = [set() for _ in range(doc["num_nodes"])]
            attrs = {}
            for (u, w), attr in zip(doc["edges"], doc["edge_attrs"]):
                nbrs[u].add(w)
                nbrs[w].add(u)
                attrs[(min(u, w), max(u, w))] = tuple(attr)
            ctx["nbrs"], ctx["attrs"] = nbrs, attrs
        return ctx["nbrs"], ctx["attrs"]

    def check(self, ctx, loop: Loop) -> dict:
        nbrs, attrs = self._parent_index(ctx)
        bad = {}
        for n, rec in enumerate(loop.records):
            if rec is None:
                continue
            reason = checks.induced_mismatch(rec["sample"].to_json(), rec["roots"], nbrs,
                                             attrs, self.fanout)
            if reason:
                bad[n] = f"induced: {reason}"
                continue
            suffix = [ctx["vocab"].id(t) for t in rec["suffix"]]
            reason = checks.suffix_mismatch(json.loads(rec["line"]), rec["grid"].flat(), suffix)
            if reason:
                bad[n] = f"suffix: {reason}"
        return bad

    def negative_control(self, ctx, loop: Loop) -> bool:
        """A sample with one parent edge dropped must fail the induced check."""
        nbrs, attrs = self._parent_index(ctx)
        rec = next(r for r in loop.records if r is not None)
        doc = rec["sample"].to_json()
        doc["graph"]["edges"].pop()
        doc["graph"]["edge_attrs"].pop()
        return checks.induced_mismatch(doc, rec["roots"], nbrs, attrs, self.fanout) is not None

    parity_status = ("not run: no CLI path fits, `graphseq sample` ignores --max-seq-len"
                     " and never calls fit_sample")

    def cli_parity(self, ctx) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (MolPretrain, SparseRoundtrip, EgoEdgeTask)}
