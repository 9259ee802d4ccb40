"""The repository benchmark: cold hgtrace CLI passes, timed, traced and gated.

Run from the repository root:

    python3 perfbench/run.py --workload trace-large --seed 0 --seconds 20 --trace 0

One client runs the workload's operations one after another (a closed loop).
Each operation runs in a fresh worker process, so every pass pays the cold
caches a CLI user pays; the worker's import of hgtrace.cli is setup and is
reported apart from the pass. Passes repeat until the next one would end past
--seconds (at least MIN_PASSES). Operation times are given at a reference
speed of the shared host: each worker times a speed probe while its operation
runs, and the operation's times are scaled by PROBE_REF_S over the probe's
mean (see worker.SpeedProbe); set-up is not scaled. Every output is checked
against its recorded sha256 digest and the workload's independent checks. The last line of stdout is
the JSON result; the lines before it list every metric with its unit, the gate
result and the provenance. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import CLI_ROOT, layer_totals  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
MIN_PASSES = 2
# Import-only workers before the first pass: they warm the file cache and give
# set-up samples to workloads with few operations in a pass.
SETUP_WORKERS = 4
# A run stops its workers at this limit, even when the program hangs.
RUN_LIMIT_S = 150

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "snap_headroom_min_log10": "log10"}

# per-layer metric -> (span name, 0 for self seconds or 1 for the work count)
PER_LAYER = {
    "field_core.build_ctx_s": ("field_core.build_ctx", 0),
    "field_core.build_ctx_calls": ("field_core.build_ctx", 1),
    "character_sums.datum_table_s": ("character_sums.datum_table", 0),
    "character_sums.datum_table_calls": ("character_sums.datum_table", 1),
    "character_sums.sweep_s": ("character_sums.sweep", 0),
    "character_sums.sweep_lambdas": ("character_sums.sweep", 1),
    "character_sums.np_sum_s": ("character_sums.np_sum", 0),
    "character_sums.np_sum_calls": ("character_sums.np_sum", 1),
    "character_sums.snap_s": ("character_sums.snap", 0),
    "character_sums.snap_calls": ("character_sums.snap", 1),
    "character_sums.elliptic_square_s": ("character_sums.elliptic_square", 0),
    "trace_engine.a_gamma_sweep_self_s": ("trace_engine.a_gamma_sweep", 0),
    "trace_engine.fm_eval_s": ("trace_engine.fm_eval", 0),
    "trace_engine.fm_eval_calls": ("trace_engine.fm_eval", 1),
    "trace_engine.hecke_trace_self_s": ("trace_engine.hecke_trace", 0),
    "trace_engine.hecke_trace_calls": ("trace_engine.hecke_trace", 1),
    "modform_oracle.level1_hecke_trace_s": ("modform_oracle.level1_hecke_trace", 0),
    "modform_oracle.level6_weight8_ap_s": ("modform_oracle.level6_weight8_ap", 0),
    "modform_oracle.fixture_load_s": ("modform_oracle.fixture_load", 0),
    "modform_oracle.fixture_load_calls": ("modform_oracle.fixture_load", 1),
    "curve_lab.count_points_s": ("curve_lab.count_points", 0),
    "curve_lab.count_points_calls": ("curve_lab.count_points", 1),
    "curve_lab.legendre_trace_sweep_s": ("curve_lab.legendre_trace_sweep", 0),
    "curve_lab.count_via_characters_s": ("curve_lab.count_via_characters", 0),
    "curve_lab.genus2_fp_s": ("curve_lab.genus2_fp", 0),
    "curve_lab.genus2_fp2_s": ("curve_lab.genus2_fp2", 0),
    "cli.self_s": (CLI_ROOT, 0),
}
TRACE_UNITS = {"cli.stdout_bytes": "bytes", "trace.pass_s": "s",
               "trace.untraced_pass_s": "s", "trace.overhead_s": "s",
               "trace.self_sum_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def run_worker(job: dict, deadline: float | None = None) -> dict:
    """Run one job in a fresh worker, stopping it at the deadline."""
    if deadline is None:
        deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker stopped at the {RUN_LIMIT_S} s run limit"]}
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failures": [f"worker exited {proc.returncode} without a result: "
                             f"{proc.stderr.strip()[-500:]}"]}
    if "fatal" in res:
        raise BenchmarkError(res["fatal"])
    return res


def op_job(op, traced: bool, pass_id: int) -> dict:
    return {"op": {"kind": op.kind, "args": list(op.args), "check": list(op.check)},
            "trace": traced, "pass_id": pass_id}


def run_pass(ops, traced, pass_id, digests, cross_check, deadline) -> dict:
    results = [run_worker(op_job(op, traced, pass_id), deadline) for op in ops]
    failures = []
    for op, res in zip(ops, results):
        fails = list(res.get("failures", []))
        want = digests.get(op.key)
        if "sha256" in res and res["sha256"] != want:
            fails.append(f"stdout sha256 {res['sha256'][:12]} != recorded "
                         f"{(want or 'none')[:12]}")
        failures += [f"{op.key}: {f}" for f in fails]
        res["failed"] = bool(fails)
        res["scale"] = PROBE_REF_S / res["probe_s"] if "probe_s" in res else 1.0
    checks = cross_check(ops, results) if cross_check else []
    failures += checks
    return {
        "pass_id": pass_id, "traced": traced, "results": results,
        "attempted": len(ops) + (cross_check is not None),
        "failed": sum(r["failed"] for r in results) + (1 if checks else 0),
        "failures": failures,
        "pass_s": sum(r.get("op_s", 0.0) * r["scale"] for r in results),
        "wall_s": sum(r.get("op_s", 0.0) for r in results),
        "probe_s": statistics.median(r.get("probe_s", PROBE_REF_S) for r in results),
        "peak_rss_mb": max(r.get("maxrss_mb", 0.0) for r in results),
        "stdout_bytes": sum(r.get("stdout_bytes", 0) for r in results),
    }


def run_passes(ops, seconds, trace, digests, cross_check, deadline) -> list:
    """Passes until the next would end past seconds; traced runs alternate
    untraced and traced passes."""
    start = time.perf_counter()
    passes, walls = [], []
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, traced, len(passes), digests, cross_check, deadline))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return passes


def tail_note(n: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    q = math.floor(100 * (1 - 10 / n)) if n > 10 else None
    return f"p{q}" if q else f"none (needs more than 10 samples, have {n})"


def end_to_end_metrics(passes, headroom, warmups) -> dict:
    workers = warmups + [r for ps in passes for r in ps["results"]]
    setups = [r["setup_s"] for r in workers if "setup_s" in r]
    return {
        "pass_s": statistics.median(ps["pass_s"] for ps in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(ps["peak_rss_mb"] for ps in passes),
        "snap_headroom_min_log10": math.log10(headroom),
    }


def per_layer_metrics(passes) -> dict:
    """Layer figures of the median traced pass, so that its self times add up
    to its pass time; the overhead compares median traced and untraced passes."""
    traced = sorted((ps for ps in passes if ps["traced"]), key=lambda ps: ps["pass_s"])
    mid = traced[(len(traced) - 1) // 2]
    totals = layer_totals((res.get("spans", []), res["scale"]) for res in mid["results"])
    out = {m: totals.get(span, [0.0, 0])[i] for m, (span, i) in PER_LAYER.items()}
    out["cli.stdout_bytes"] = mid["stdout_bytes"]
    out["trace.pass_s"] = mid["pass_s"]
    out["trace.self_sum_s"] = sum(own for own, _ in totals.values())
    out["trace.untraced_pass_s"] = statistics.median(
        ps["pass_s"] for ps in passes if not ps["traced"])
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    return out


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric in TRACE_UNITS:
        return TRACE_UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload, seed: int, seconds: int, trace: bool, digests: dict):
    """Run one benchmark; returns (result JSON, report lines)."""
    ops = workload.ops(seed)
    load_start = os.getloadavg()
    deadline = time.perf_counter() + RUN_LIMIT_S
    warmups = [run_worker({"setup": True}, deadline) for _ in range(SETUP_WORKERS)]
    passes = run_passes(ops, seconds, trace, digests, workload.cross_check, deadline)
    attempted = SETUP_WORKERS + sum(ps["attempted"] for ps in passes)
    failed = sum(bool(w["failures"]) for w in warmups) + sum(ps["failed"] for ps in passes)
    failures = [f"set-up worker: {f}" for w in warmups for f in w["failures"]]
    failures += [f for ps in passes for f in ps["failures"]]
    if trace:
        metrics = per_layer_metrics(passes)
    else:
        hr = run_worker({"headroom": [list(op.args) for op in ops if op.kind == "cli"]},
                        deadline)
        attempted += 1
        if hr.get("failures") or not math.isfinite(hr.get("headroom_min", math.inf)):
            failed += 1
            failures += hr.get("failures") or ["no finite snap headroom measured"]
            hr["headroom_min"] = 1.0
        metrics = end_to_end_metrics(passes, hr["headroom_min"], warmups)
    provs = {json.dumps(r["provenance"], sort_keys=True)
             for ps in passes for r in ps["results"] if "provenance" in r}
    if len(provs) != 1:
        raise BenchmarkError(f"workers disagree on their environment: {provs}")
    provenance = dict(
        json.loads(provs.pop()), workload=workload.name, seed=seed, seconds=seconds,
        trace=int(trace), seed_use=workload.seed_note, commit=git_commit(),
        source_sha256=source_digest(), nproc=len(os.sched_getaffinity(0)),
        loadavg_start=load_start, loadavg_end=os.getloadavg(),
        commands=[op.key for op in ops])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": unit_of(m)}
                          for m, v in sorted(metrics.items())}}
    n = len(passes)
    lines = [json.dumps({"provenance": provenance}, sort_keys=True)]
    lines += [f"{m:<40} {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
    lines.append(f"{'passes':<40} {n} (median reported; tail percentile: {tail_note(n)}); "
                 f"pass_s samples {[round(ps['pass_s'], 4) for ps in passes]}")
    lines.append(f"{'speed':<40} probe median "
                 f"{statistics.median(ps['probe_s'] for ps in passes):.4g} s (reference "
                 f"{PROBE_REF_S} s); unscaled pass_s median "
                 f"{statistics.median(ps['wall_s'] for ps in passes):.6g} s")
    lines.append(f"{'fail_ratio':<40} {failed / attempted:.6g} ratio "
                 f"({failed} failed of {attempted} attempted)")
    lines += [f"FAILED {f}" for f in failures]
    lines.append(f"gate: {'PASS' if failed == 0 else 'FAIL'}")
    return result, lines


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), load_digests())
    except BenchmarkError as exc:
        sys.exit(f"benchmark cannot run: {exc}")
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
