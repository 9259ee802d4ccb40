"""Smoke test of the benchmark itself, on operations at tiny primes.

Run from the repository root (about half a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import TRACED  # noqa: E402
from workloads import Op, Workload, cli, headline_identity  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# One operation per layer, each small enough to take well under a second.
TINY_OPS = [
    cli("trace", "--group", "2,4,6", "--weight", 8, "--prime", 13,
        check=("residual_zero", (13,))),
    cli("trace", "--group", "2,3,oo", "--weight", 12, "--prime-range", "7:13"),
    cli("trace", "--group", "2,4,6", "--weight", 8, "--prime", 37,
        check=("report_total", 37)),
    Op("call", ("hgtrace.modform_oracle", "level6_weight8_ap", 37)),
    cli("verify", "clausen", "--prime", 7, check=("verify_passed",)),
    cli("verify", "genlegendre", "--prime", 7, check=("verify_passed",)),
    cli("verify", "qm", "--prime", 29, check=("verify_passed",)),
    cli("verify", "legendre", "--max-prime", 13, check=("verify_passed",)),
    cli("count", "legendre", "--prime", 13, "--lambda", "all"),
]
TINY = Workload("tiny", "tiny primes", "ignores the seed", lambda seed: TINY_OPS,
                cross_check=headline_identity)


def _digests():
    return {op.key: bench.run_worker(bench.op_job(op, False, 0))["sha256"]
            for op in TINY_OPS}


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_every_end_to_end_metric_and_a_corrupted_digest_fails():
    digests = _digests()
    corrupted = TINY_OPS[-1].key
    digests[corrupted] = "0" * 64
    result, lines = bench.run(TINY, 0, 1, False, digests)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == _names("end_to_end")
    passes = (result["attempted"] - bench.SETUP_WORKERS - 1) // (len(TINY_OPS) + 1)
    assert passes >= bench.MIN_PASSES
    # the corrupted digest fails once per pass; everything else passes
    assert result["failed"] == passes and result["correct"] is False
    assert sum(corrupted in line for line in lines if line.startswith("FAILED")) == passes
    assert lines[-1] == "gate: FAIL"
    for name in result["metrics"]:
        assert any(line.startswith(name + " ") for line in lines)


def test_traced_run_yields_every_per_layer_metric():
    result, _ = bench.run(TINY, 0, 1, True, _digests())
    assert result["correct"], result
    metrics = result["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == _names("per_layer")
    # every wrapped layer recorded spans on the tiny operations
    assert {span for span, _ in bench.PER_LAYER.values()} >= {t[0] for t in TRACED}
    for name in bench.PER_LAYER:
        assert metrics[name]["value"] > 0, name
    # the layers' self times partition the traced pass
    layers = sum(metrics[m]["value"] for m, (_, i) in bench.PER_LAYER.items() if i == 0)
    assert abs(layers - metrics["trace.self_sum_s"]["value"]) < 1e-6
    assert abs(layers - metrics["trace.pass_s"]["value"]) < 1e-3


def test_fails_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "trace-large",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
