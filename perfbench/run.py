#!/usr/bin/env python3
"""Benchmark for the kgqa pipeline: one workload, one seed, one process.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 36 --trace 0

Run from the repository root. The program is imported from ``src/``; inputs
are generated from ``--seed`` into ``.perfbench-work/`` under the root, which
is removed on exit. Preprocessing runs serially (``--jobs 1``) and BLAS is
capped at one thread, so the figures measure the program, not the scheduler.

With ``--trace 0`` rounds of the workload repeat until ``--seconds`` have
passed, three rounds at least, and the end-to-end metrics are reported. With ``--trace 1`` the
workload runs three rounds -- a warm-up, an untraced one and one with spans
around every layer -- and the per-layer metrics are reported, together with
the tracing overhead and the top self-time entries.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, whatever the machine offers.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True

END_TO_END = {
    "setup_s": "s",
    "kge_triples_per_s": "1/s",
    "preprocess_cand_per_s": "1/s",
    "cache_hit_cand_per_s": "1/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_CALLS = (
    "ground.recognize", "kg.neighbors", "paths.find_paths", "kge.triple_confidence",
    "io_utils.canonical_json", "network.forward", "layers.bilstm.forward",
    "layers.softmax", "layers.sigmoid", "network.backward", "optim.adam_step",
)
SPAN_SELF = (
    "io_utils.read_container", "ground.recognize", "kg.neighbors", "paths.find_paths",
    "paths.build_schema_graph", "paths.rebuild_cover", "kge.prune_schema_graph",
    "kge.train_transe", "network.instance_from_schema_graph", "network.forward",
    "layers.normalized_adjacency", "layers.gcn.forward", "layers.bilstm.forward",
    "layers.mlp.forward", "layers.sigmoid", "statement.encoder.forward",
    "network.backward", "layers.gcn.backward", "layers.bilstm.backward",
    "layers.mlp.backward", "statement.encoder.backward", "optim.adam_step",
)
PER_LAYER = {
    "kg.load_s": "s",
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    "paths.paths_found": "count",
    "paths.pairs_truncated": "count",
    "kge.paths_kept_ratio": "ratio",
    "pipeline.cache.hits": "count",
    "pipeline.cache.misses": "count",
    "pipeline.cache.files": "count",
    "pipeline.cache.bytes_written": "bytes",
    "network.nodes_per_instance": "count",
    "network.paths_per_instance": "count",
    "stage.ingest_s": "s",
    "stage.train_epoch_s": "s",
    "stage.checkpoint_s": "s",
    "stage.predict_q_per_s": "1/s",
    "stage.predict_q_p50_ms": "ms",
    "stage.predict_q_p90_ms": "ms",
    "stage.explain_p50_ms": "ms",
    "stage.explain_p90_ms": "ms",
    "quality.dev_accuracy": "ratio",
    "quality.evidence_top_path_rate": "ratio",
    "workload.degree_max": "count",
    "workload.degree_p99": "count",
    "workload.degree_median": "count",
    "workload.hub_question_share": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Scorer spans; instance building lives in the network module but is part of
# preprocessing, so it runs in every workload.
SCORER_SPANS = ("network.", "layers.", "optim.", "statement.")
INSTANCE_SPAN = "network.instance_from_schema_graph"
TOP_SELF = 15
MIN_ROUNDS = 3      # a median needs three samples to drop one outlier


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def import_program():
    """Import kgqa from this checkout's src/, refusing any other copy."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import kgqa
        from perfbench import spans, stopwatch, workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if not Path(kgqa.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: kgqa imported from {kgqa.__file__}, not from this checkout")
    return spans, stopwatch, workloads


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": 1, "nproc": os.cpu_count(), "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_block(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def layer_metrics(tracer, profile: dict, untraced_s: float, traced_s: float) -> dict:
    values = {"kg.load_s": tracer.total_inclusive("kg.load")}
    values.update({f"{n}.calls": tracer.total_calls(n) for n in SPAN_CALLS})
    values.update({f"{n}.self_s": tracer.total_self(n) for n in SPAN_SELF})
    c = tracer.counters
    forwards = tracer.total_calls("network.forward")
    values.update({
        "paths.paths_found": c["paths.paths_found"],
        "paths.pairs_truncated": c["paths.pairs_truncated"],
        "kge.paths_kept_ratio": (c["kge.paths_after"] / c["kge.paths_before"]
                                 if c["kge.paths_before"] else 1.0),
        "pipeline.cache.hits": c["pipeline.cache.hits"],
        "pipeline.cache.misses": c["pipeline.cache.misses"],
        "pipeline.cache.files": c["pipeline.cache.files"],
        "pipeline.cache.bytes_written": c["pipeline.cache.bytes_written"],
        "network.nodes_per_instance": c["network.nodes"] / forwards if forwards else 0.0,
        "network.paths_per_instance": c["network.paths"] / forwards if forwards else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    })
    values.update({f"workload.{k}": v for k, v in profile.items()})
    return values


def trace_problems(tracer, workload) -> list[str]:
    """Layers that ran where the workload says they must not."""
    problems = []
    for name in {nm for _, nm in tracer.calls}:
        stages = tracer.stages_with_calls(name)
        scorer = name.startswith(SCORER_SPANS) and name != INSTANCE_SPAN
        if not workload.network and scorer and stages:
            problems.append(f"{name} ran in the network-free workload ({sorted(stages)})")
        if name in ("network.backward", "optim.adam_step") and stages - {"train"}:
            problems.append(f"{name} ran outside the train stage ({sorted(stages)})")
    if workload.network and "train" not in tracer.stages_with_calls("network.backward"):
        problems.append("network.backward never ran in the train stage")
    return problems


def print_report(args, env, bench, rounds: int, extra: list[str], calibrations: dict) -> None:
    rec = bench.rec
    print(f"perfbench workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} rounds={rounds}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("workload " + json.dumps(bench.profile, sort_keys=True))
    for stage, times in rec.stage_s.items():
        print(f"  stage {stage:<16} n={len(times):<3} median={sorted(times)[len(times) // 2]:.4f}s")
    for stage, per_q in rec.per_q.items():
        print(f"  per-question {stage:<16} questions={len(per_q):<4} "
              f"pass={rec.pass_seconds(stage):.4f}s p50={rec.q_percentile_ms(stage, 50):.3f}ms "
              f"p90={rec.q_percentile_ms(stage, 90):.3f}ms")
    for name, vals in rec.values.items():
        print(f"  {name} = {sorted(vals)[len(vals) // 2]:.6g} (n={len(vals)})")
    for kind, (_, ref_s) in calibrations.items():
        cal = sorted(c[kind] for c in bench.clock.calibrations if kind in c)
        if cal:
            print(f"calibration {kind}: {len(cal)} samples, median "
                  f"{1000 * cal[len(cal) // 2]:.3f} ms, p10 {1000 * cal[len(cal) // 10]:.3f} ms, "
                  f"p90 {1000 * cal[9 * len(cal) // 10]:.3f} ms (reference {1000 * ref_s:.3f} ms)")
    for line in extra:
        print(line)
    for problem in rec.problems:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spans, stopwatch, workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    env = environment()

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = workloads.Bench(workload, args.seed, args.size, work)
        bench.prepare()
        extra = []
        if bench.digest is not None:
            want = reference["schema_graph_digest"][workload.name]
            if bench.digest != want:
                bench.rec.problems.append(
                    f"unpruned schema-graph digest {bench.digest} != reference {want}")
            extra.append(f"schema-graph digest {bench.digest} "
                         f"({'matches' if bench.digest == want else 'DIFFERS FROM'} reference)")
        if args.trace:
            bench.repeat = False
            bench.run_round(0)                       # warm-up, not reported
            bench.rec = workloads.Record(problems=bench.rec.problems,
                                         attempted=bench.rec.attempted,
                                         failed=bench.rec.failed)
            untraced_s = bench.run_round(1)      # scaled seconds, like traced_s
            stage_values = bench.stage_metrics()
            tracer = spans.Tracer()
            bench.tracer = tracer
            with spans.instrument(tracer):
                traced_s = bench.run_round(2)
            bench.tracer = None
            bench.rec.problems.extend(trace_problems(tracer, workload))
            values = layer_metrics(tracer, bench.profile, untraced_s, traced_s)
            values.update(stage_values)
            units = PER_LAYER
            rounds = 3
            extra.append(f"tracing overhead: untraced round {untraced_s:.3f}s, "
                         f"traced round {traced_s:.3f}s (scaled) "
                         f"({100 * (traced_s / untraced_s - 1):+.1f}%)")
            extra.append(f"top {TOP_SELF} self-time entries (python {env['python']}, "
                         f"numpy {env['numpy']}, {env['blas']}, 1 BLAS thread):")
            for name, calls, self_s in tracer.top_self(TOP_SELF):
                extra.append(f"  {self_s:10.4f}s {calls:>10} calls  {name}")
            for name in ("network.forward", "network.backward", "optim.adam_step"):
                by_stage = {st: n for (st, nm), n in sorted(tracer.calls.items())
                            if nm == name}
                extra.append(f"  {name}.calls by stage: {json.dumps(by_stage)}")
        else:
            deadline = time.perf_counter() + args.seconds
            rounds = 0
            while True:
                t0 = time.perf_counter()
                bench.run_round(rounds)
                rounds += 1
                now = time.perf_counter()
                if rounds >= MIN_ROUNDS and 2 * now - t0 > deadline:
                    break
            values = bench.end_to_end(peak_rss_mb())
            units = END_TO_END
        metrics = metric_block(values, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print_report(args, env, bench, rounds, extra, stopwatch.CALIBRATIONS)
    rec = bench.rec
    print(json.dumps({"correct": rec.failed == 0 and not rec.problems,
                      "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
