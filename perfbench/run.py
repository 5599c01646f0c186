#!/usr/bin/env python3
"""graphseq benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload mol-pretrain --seed 1 --seconds 20 --trace 0

The workload's corpus is generated from ``--seed``; the program under test
is imported from ``src/`` of the current directory and only sees the
generated JSONL. The run sets up like the CLI, processes items in a closed
loop for ``--seconds`` (timings scaled to a nominal host speed by
``hostspeed``), runs a CLI parity check, checks every output
outside the timed phase, and prints a report line followed by one JSON
result line (end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced replay of the same items with ``--trace 1``).

Scratch files go to ``.perfbench_out/`` and are removed at exit; the
trace spans of a traced run and every run's report stay there.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

# Setup is repeated and its median reported: at least three times, and
# until two seconds are spent, so a cheap setup gets more samples.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_SECONDS = 2.0
# The tail percentile is the highest rung with at least ten samples beyond
# it. Each workload names the rung its runs reach even on a slow host, so
# the rung does not flip between runs; it steps down only when a run has
# fewer samples than that rung needs.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def _import_program(root: Path):
    src = root / "src"
    if not (src / "graphseq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src}/graphseq not found; run from a graphseq checkout")
    sys.path.insert(0, str(src))
    import graphseq

    if Path(graphseq.__file__).resolve().parent != (src / "graphseq").resolve():
        raise SystemExit(f"perfbench: imported graphseq from {graphseq.__file__}, not {src}")


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def _tail(latencies: list[float], highest: float) -> tuple[float, float]:
    """(percentile, seconds) for the highest ladder rung up to ``highest``
    that has at least ten samples beyond it; the median when none does."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        if q <= highest and n * (1 - q / 100) >= 10:
            break
    return q, ordered[max(math.ceil(q / 100 * n) - 1, 0)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, loop, sink, setup_times, speed) -> tuple[dict, dict]:
    """Metrics from the timed loop, its times scaled by ``speed``."""
    n = len(loop.records)
    done = [r for r in loop.records if r is not None]
    latencies = [speed.seconds(*item) for item in loop.items]
    wall = speed.seconds(*loop.span)
    q, tail = _tail(latencies, wl.tail_percentile)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "items_per_s": _metric(n / wall, "items/s"),
        "tokens_per_s": _metric(sink.tokens / wall, "tokens/s"),
        "item_ms.p50": _metric(1000 * statistics.median(latencies), "ms"),
        "item_ms.tail": _metric(1000 * tail, "ms"),
        "peak_rss_mb": _metric(loop.first_pass_rss_mb, "MB"),
        "out_bytes_per_item": _metric(sink.bytes / n, "bytes"),
        "seq_tokens_mean": _metric(
            statistics.fmean(r["seq_tokens"] for r in done) if done else 0.0, "tokens"),
    }
    extra = {
        "item_ms.tail_percentile": q,
        "latency_samples": n,
        "setup_samples": len(setup_times),
        "timed_wall_s": loop.wall,
        "host_slowdown": speed.factor(),
        "host_samples": len(speed.kernel_s),
        "raw_items_per_s": n / speed.raw_seconds(*loop.span),
        "raw_item_ms.p50": 1000 * statistics.median(speed.raw_seconds(*t) for t in loop.items),
    }
    if done and "over_budget" in done[0]:
        extra["over_budget_share"] = sum(r["over_budget"] for r in done) / len(done)
    return metrics, extra


# Layers every workload runs: absolute self seconds.
COMMON_LAYERS = (
    "graph.setup_parse", "vocab.build", "vocab.load", "euler.jump", "euler.parity",
    "euler.walk", "tokenizer.tokenize", "cli.encode",
)
# Layers only some workloads run: share of the traced wall time, so a
# workload that skips the layer reports a share of 0 rather than a time.
WORKLOAD_LAYERS = (
    "graph.parse", "graph.adjacency", "cli.decode", "detokenizer.detokenize",
    "pretrain.smtp", "pretrain.pack", "sampler.draw_roots", "sampler.sample",
    "identity.codebook", "identity.attach", "taskfmt.format",
)


def _roles_share(lines: list[str]) -> float:
    roles = total = 0
    for line in lines:
        total += len(line.encode())
        doc = json.loads(line)
        if "roles" in doc:
            roles += len(json.dumps(doc["roles"]).encode())
    return roles / total if total else 0.0


def per_layer(wl, ctx, tr, untraced_wall, traced, sink, traced_setup_s) -> tuple[dict, dict]:
    self_times = tr.self_times()
    wall = traced_setup_s + traced.wall
    n = len(traced.records)
    metrics = {f"{name}_s": _metric(self_times.get(name, 0.0), "s") for name in COMMON_LAYERS}
    metrics.update(
        {f"{name}_share": _metric(self_times.get(name, 0.0) / wall, "ratio")
         for name in WORKLOAD_LAYERS}
    )
    attempts = tr.total("pipeline.fit_attempts")
    batches = tr.total("pretrain.batches")
    done = [r for r in traced.records if r is not None]
    cells = tr.total("tokenizer.cells")
    metrics.update({
        "trace.wall_s": _metric(wall, "s"),
        "trace.overhead_share": _metric((traced.wall - untraced_wall) / untraced_wall, "ratio"),
        "trace.unattributed_share": _metric((wall - sum(self_times.values())) / wall, "ratio"),
        "bench.glue_share": _metric(
            sum(t for k, t in self_times.items() if k.startswith("bench.")) / wall, "ratio"),
        "trace.items": _metric(n, "count"),
        "vocab.size": _metric(len(ctx["vocab"]), "count"),
        "euler.odd_nodes": _metric(tr.mean("euler.odd_nodes"), "count"),
        "euler.exact_share": _metric(tr.mean("euler.exact"), "ratio"),
        "euler.dup_edges": _metric(tr.mean("euler.dup_edges"), "count"),
        "euler.jump_edges": _metric(tr.mean("euler.jump_edges"), "count"),
        "tokenizer.cells": _metric(tr.mean("tokenizer.cells"), "count"),
        "tokenizer.pad_share": _metric(
            tr.total("tokenizer.pad_cells") / cells if cells else 0.0, "ratio"),
        "cli.bytes_out": _metric(sink.bytes / n, "bytes"),
        "cli.roles_byte_share": _metric(_roles_share(sink.lines), "ratio"),
        "detokenizer.dedup_edges": _metric(tr.mean("detokenizer.dedup_edges"), "count"),
        "pretrain.batches": _metric(batches, "count"),
        "pretrain.pack_fill": _metric(
            tr.total("pretrain.rows") / (batches * wl.context) if batches else 0.0, "ratio"),
        "pipeline.fit_attempts": _metric(tr.mean("pipeline.fit_attempts"), "count"),
        "pipeline.fit_yield": _metric(
            tr.samples("pipeline.fit_attempts") / attempts if attempts else 0.0, "ratio"),
        "pipeline.over_budget_share": _metric(
            sum(r.get("over_budget", False) for r in done) / max(len(done), 1), "ratio"),
    })
    extra = {
        "self_s": dict(sorted(self_times.items(), key=lambda kv: -kv[1])),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced.wall,
    }
    return metrics, extra


def run(args, root: Path) -> tuple[dict, dict]:
    from hostspeed import HostSpeed
    from tracing import Tracer
    from workloads import WORKLOADS, drive

    out_dir = root / ".perfbench_out"
    work = out_dir / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setup_times, raw_setup_times = [], []
        while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS
        ):
            ctx = None
            with HostSpeed() as speed:
                t0 = perf_counter()
                ctx = wl.setup(None)
                t1 = perf_counter()
            setup_times.append(speed.seconds(t0, t1))
            raw_setup_times.append(speed.raw_seconds(t0, t1))
        tr = None
        if args.trace:
            ctx = None
            tr = Tracer()
            t0 = perf_counter()
            ctx = wl.setup(tr)
            traced_setup_s = perf_counter() - t0
        try:
            parity = wl.cli_parity(ctx)
        except Exception as exc:  # reported as a problem; the run goes on
            parity = f"raised {type(exc).__name__}: {exc}"

        sink = wl.sink(work / "out.jsonl")
        with HostSpeed() as speed:
            loop = drive(wl, ctx, None, sink, wl.source(), deadline=perf_counter() + args.seconds)
        sink.close()

        problems = []
        if parity:
            problems.append(f"cli parity: {parity}")
        if args.trace:
            tsink = wl.sink(work / "traced.jsonl")
            traced = drive(wl, ctx, tr, tsink, wl.source(), limit=len(loop.records))
            tsink.close()
            same = tsink.lines == sink.lines and (
                sink.side is None or tsink.side.lines == sink.side.lines)
            if not same:
                problems.append("traced output differs from the untraced output")
            tr.write(out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl")

        failed = dict(loop.failed)
        for n, reason in wl.check(ctx, loop).items():
            failed.setdefault(n, reason)
        if len(failed) == len(loop.records):
            problems.append("no item succeeded, so the negative control was not run")
        elif not wl.negative_control(ctx, loop):
            problems.append("negative control passed the output check")

        if args.trace:
            metrics, extra = per_layer(wl, ctx, tr, speed.raw_seconds(*loop.span), traced, tsink,
                                       traced_setup_s)
        else:
            metrics, extra = end_to_end(wl, loop, sink, setup_times, speed)
            extra["raw_setup_s"] = statistics.median(raw_setup_times)
        attempted = len(loop.records)
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": _commit(root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_lines": _src_lines(root),
            "failed_share": len(failed) / attempted,
            "cli_parity": parity or wl.parity_status,
            "problems": problems,
            "failures": dict(list(sorted(failed.items()))[:5]),
            **extra,
            "metrics": metrics,
        }
        result = {
            "correct": not failed and not problems,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": metrics,
        }
        (out_dir / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n")
        return report, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mol-pretrain", "sparse-roundtrip", "ego-edge-task"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    _import_program(root)
    report, result = run(args, root)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
