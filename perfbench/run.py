"""paxml benchmark: one command, four workloads, end-to-end or per layer.

Run from the root of a paxml source tree::

    python3 perfbench/run.py --workload tc_batch --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` first runs the workload untraced for half the window, then
installs the per-layer wrappers (:mod:`tracer`) and runs it again on the
same inputs; it reports per-layer calls, self time and ratios, the time no
wrapped layer covered, and the traced-versus-untraced difference as
tracing overhead.

Every answer is checked against a reference the benchmark computes itself.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the machine stamp, sample counts, tail percentiles and the metrics
under the names of the workload's own domain.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    "tc_batch": ("wl_tc_batch", "BENCH_pr6 e4, BENCH_pr4 e3"),
    "portal_lazy": ("wl_portal_lazy", "BENCH_pr10 lazy_speedup/fire_once"),
    "serve_batch": ("wl_serve_batch",
                    "BENCH_pr7 many_tenants/fanout, BENCH_pr8 overhead"),
    "shard_batch": ("wl_shard_batch", "BENCH_pr9 batch, BENCH_pr9 codec"),
}

UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "op_p50_ms": "ms", "op_tail_ms": "ms", "throughput": "1/s",
         "peak_rss_mb": "MB"}
# The end-to-end metrics BENCHMARK.json gates.  The medians and the
# throughput are printed in the report only: on a host whose speed
# switches between two levels for tens of seconds at a time, a run's
# median (or mean) lands on either level, while its p75 stays on the
# level that holds most of the time (NOTES.md has the measurements).
GATED = ("setup_s", "latency_tail_ms", "op_tail_ms", "peak_rss_mb")

# A run may overrun its window to reach its minimum sample counts, but it
# stops measuring after this many seconds whatever the counts.
CAP_SECONDS = 120.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _per_layer(traced: dict, untraced: dict, snapshot: dict,
               extra: dict) -> dict:
    import tracer
    stats, counts = snapshot["stats"], snapshot["counts"]
    metrics = {}
    for name, *_ in tracer.LAYERS:
        calls, self_s, total_s = stats.get(name, [0, 0.0, 0.0])
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["shard.round_s"] = (stats.get("shard.round", [0, 0, 0])[2], "s")
    metrics["shard.finish_s"] = (stats.get("shard.finish", [0, 0, 0])[2],
                                 "s")

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    assignments = counts.get("query.match.assignments", 0)
    metrics["query.match.assignments"] = (assignments, "count")
    metrics["query.match.useful_frac"] = (
        ratio(counts.get("query.match.answers", 0), assignments), "ratio")
    metrics["tree.antichain.accept_frac"] = (
        ratio(counts.get("tree.antichain.accepted", 0),
              stats.get("tree.antichain.insert", [0])[0]), "ratio")
    metrics["kernel.core.productive_frac"] = (
        ratio(counts.get("kernel.core.productive_grafts", 0),
              stats.get("kernel.core.apply_graft", [0])[0]), "ratio")
    for key in ("kernel.graft.encode_batch.bytes",
                "kernel.graft.decode_batch.bytes",
                "kernel.core.checkpoint.bytes",
                "kernel.checkpoint.resume.bytes"):
        metrics[key] = (counts.get(key, 0), "bytes")
    perf = snapshot.get("perf", {})
    metrics["kernel.scheduler.skipped_unneeded"] = (
        perf.get("calls_skipped_unneeded", 0), "count")
    metrics["kernel.scheduler.dormant_promotions"] = (
        perf.get("dormant_promotions", 0), "count")
    metrics["kernel.scheduler.fire_once_retired"] = (
        perf.get("fire_once_retired", 0), "count")
    caches = snapshot.get("caches", {})
    for key in ("store_rows", "index_entries", "subsumption_entries"):
        metrics[f"tree.cache.{key}"] = (caches.get(key, 0), "count")
    for key, unit in (("shard.rounds", "count"),
                      ("shard.records_shipped", "count"),
                      ("shard.batch_bytes", "bytes"),
                      ("shard.worker_cpu_max_s", "s")):
        metrics[key] = (extra.get(key, 0), unit)
    wall = snapshot["wall_s"]
    covered = min(snapshot.get("top_s", 0.0), wall)
    metrics["bench.unattributed_s"] = (wall - covered, "s")
    metrics["bench.unattributed_frac"] = (ratio(wall - covered, wall),
                                          "ratio")
    metrics["bench.trace_overhead_frac"] = (
        ratio(traced["primary_p50"], untraced["primary_p50"]) - 1.0, "ratio")
    return metrics


def _check_contract(root: str, names, key: str) -> None:
    """Fail loudly if the printed metrics drift from BENCHMARK.json."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as handle:
        declared = [entry["name"] for entry in json.load(handle)[key]]
    if sorted(declared) != sorted(names):
        missing = sorted(set(declared) - set(names))
        extra = sorted(set(names) - set(declared))
        raise SystemExit(_fail(f"{key} drifted from BENCHMARK.json: "
                               f"missing {missing}, undeclared {extra}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "paxml", "__init__.py")):
        return _fail(f"no paxml sources under {src}; run from the root of "
                     "a paxml source tree")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    module_name, supersedes = WORKLOADS[args.workload]
    workload = importlib.import_module(module_name)
    import common

    workdir = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.trace:
            import tracer
            half = args.seconds / 2.0
            untraced = workload.run(args.seed, half, workdir, CAP_SECONDS / 2)
            tracer.install()
            traced = workload.run(args.seed, half, workdir, CAP_SECONDS / 2,
                                  traced=True, mark=tracer.reset)
            snapshot = tracer.snapshot()
            for path in traced.get("worker_span_files", ()):
                with open(path) as handle:
                    tracer.merge(snapshot, json.load(handle))
            metrics = _per_layer(traced, untraced, snapshot,
                                 traced.get("extra", {}))
            _check_contract(root, metrics, "per_layer")
            results = [untraced, traced]
        else:
            result = workload.run(args.seed, args.seconds, workdir,
                                  CAP_SECONDS)
            metrics = {name: (result["e2e"][name], UNITS[name])
                       for name in GATED}
            _check_contract(root, metrics, "end_to_end")
            results = [result]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass        # another run still uses it

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    last = results[-1]
    report = {
        "workload": args.workload,
        "supersedes": supersedes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": common.machine_stamp(),
        "commit": common.source_commit(root),
        "run_wall_s": time.perf_counter() - started,
        "failed_frac": failed / attempted if attempted else 1.0,
        "mismatches": [m for r in results for m in r["mismatches"]][:10],
        "e2e": {key: {"value": value, "unit": UNITS[key]}
                for key, value in last["e2e"].items()},
        "named": {key: {"value": value, "unit": unit}
                  for key, (value, unit) in last["named"].items()},
        "samples": last["samples"],
        "input": last["input"],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
