"""The names and outputs the benchmark in perfbench/ relies on still hold.

perfbench/tracing.py wraps the layers listed in TRACED, and
perfbench/worker.py::sweep_headroom reads a row's lambda chart fields. A rename
in src/ would otherwise break only the traced benchmark run. tracing.py is
executed from source (no bytecode is written under perfbench/). The stdout
bytes of every command the benchmark runs are checked against
perfbench/digests.json, which is only read here.
"""

import hashlib
import importlib
import json
import runpy
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hgtrace
from hgtrace import trace_engine
from hgtrace.cli import main
# sweep_headroom calls these two
from hgtrace.character_sums import datum_table, snap_tolerance  # noqa: F401
from hgtrace.field_core import cached_ctx
from hgtrace.hgm_data import TriangleGroupRow, level, triangle_table
from hgtrace.modform_oracle import level6_weight8_ap
from hgtrace.trace_engine import a_gamma_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# Runs the smoke test's tiny operations as worker.py runs them, all in one
# process under one tracing.Recorder, and prints the names of the spans
# recorded and the operations that failed. argv[1] is the perfbench directory.
_TRACED_TINY_OPS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import worker
from test_smoke import TINY_OPS
from tracing import Recorder

_setup_s, fatal = worker._import_hgtrace()
if fatal:
    sys.exit(fatal)
recorder = Recorder(0)
recorder.install()
failed = []
for op in TINY_OPS:
    if op.kind == "cli":
        _stdout, code, error, _op_s = worker._run_cli(op.args, recorder)
    else:
        _stdout, code, error, _op_s, _value = worker._run_call(op.args)
    if error or code != 0:
        failed.append([op.key, code, error])
print(json.dumps({"spans": sorted({span[0] for span in recorder.spans}), "failed": failed}))
"""


def test_traced_names_resolve():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    missing = []
    for _metric, modname, attr, _count in traced:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            ok = meth in vars(getattr(mod, cls_name, object))
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(f"{modname}.{attr}")
    assert not missing, missing


def test_tiny_ops_reach_every_traced_layer():
    """perfbench/test_smoke.py's tiny operations, run under tracing.py's
    Recorder, record a span for every name in TRACED: a change that stops
    calling a traced name fails here, not only in the half-minute smoke test.
    One fresh process runs them all, since Recorder.install rewraps hgtrace's
    module namespaces; -B keeps bytecode out of perfbench/."""
    proc = subprocess.run([sys.executable, "-B", "-c", _TRACED_TINY_OPS, str(PERFBENCH)],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == []
    traced = {name for name, *_ in runpy.run_path(str(TRACING))["TRACED"]}
    assert sorted(traced - set(out["spans"])) == []


def test_sweep_headroom_inputs():
    names = {f.name for f in fields(TriangleGroupRow)}
    assert {"a_rule", "hp_sign", "hp_weight", "hd"} <= names
    assert callable(TriangleGroupRow.finite_specials_mod_p)
    # sweep_headroom reads "cusp_row" as 1/lam and anything else as -3/lam
    assert {row.a_rule for row in triangle_table()} == {"cusp_row", "row_246"}


def test_kernel_backend_label():
    assert hgtrace.kernel_backend == "pure"


def test_sweep_headroom_reads_the_production_sweep():
    """sweep_headroom's chart, written as in worker.py, scales the public
    datum_table(...).sweep(args) into exactly a_gamma_sweep's (lams, a) arrays,
    so the headroom metric measures the values the program snaps."""
    for p in (13, 37, 61, 1009):
        ctx = cached_ctx(p)
        for row in triangle_table():
            if (p - 1) % level(row.hd):
                continue
            specials = row.finite_specials_mod_p(p)
            lams = [lam for lam in range(p) if lam not in specials]
            if row.a_rule == "cusp_row":
                args = [ctx.inv(lam) for lam in lams]
                chis = [ctx.legendre(1 - a) for a in args]
                scale = row.hp_sign / p ** row.hp_weight
            else:
                args = [(-3 * ctx.inv(lam)) % p for lam in lams]
                chis = [ctx.legendre(-3 * (1 + 3 * ctx.inv(lam))) for lam in lams]
                scale = row.hp_sign * p / p ** row.hp_weight
            raw = datum_table(row.hd, ctx).sweep(np.array(args, dtype=np.int64))
            assert isinstance(raw, np.ndarray) and raw.dtype == np.complex128
            assert raw.shape == (len(args),)
            vals = raw * np.array(chis) * scale
            snapped = np.round(vals.real).astype(np.int64).tolist()
            got_lams, got_a = a_gamma_sweep(row, ctx)
            assert (got_lams.tolist(), got_a.tolist()) == (lams, snapped), (row.name, p)


@pytest.mark.parametrize("command", [
    "trace --group 2,4,6 --weight 8 --prime 13",
    "verify legendre --max-prime 13",
    "verify weil --max-prime 13",
])
def test_commands_call_the_traced_a_gamma_sweep(monkeypatch, command):
    """trace, verify legendre and verify weil reach a_Gamma through the name
    trace_engine.a_gamma_sweep, which tracing.py wraps: a counting wrapper,
    installed in every hgtrace module namespace as Recorder.install does, sees
    each command call it."""
    original = trace_engine.a_gamma_sweep
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("hgtrace") and \
                vars(mod).get("a_gamma_sweep") is original:
            monkeypatch.setattr(mod, "a_gamma_sweep", counting)
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == 0, res.output
    assert calls, command


DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())["digests"]


@pytest.mark.parametrize("command", sorted(key.removeprefix("hgtrace ")
                                           for key in DIGESTS if key.startswith("hgtrace ")))
def test_trace_stdout_matches_recorded_digest(command):
    """Every CLI command of the benchmark, at every seed, prints exactly the
    bytes whose sha256 the benchmark recorded."""
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == DIGESTS["hgtrace " + command]


def test_level6_oracle_matches_recorded_digest():
    """oracle-check's direct call: the digest of level6_weight8_ap(109) as the
    benchmark records a call's result, one JSON value and a newline."""
    text = json.dumps(level6_weight8_ap(109)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DIGESTS["hgtrace.modform_oracle.level6_weight8_ap(109)"]
