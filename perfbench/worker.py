"""Run one benchmark job in a fresh process and print its result as JSON.

The job arrives as JSON on stdin: {"op": ..., "trace": bool, "pass_id": int}
runs one operation, {"headroom": [argv, ...]} measures snap headroom over the
a_Gamma sweeps those commands perform, and {"setup": true} only imports. hgtrace is imported from this checkout's
src/ and the import time is reported as setup_s. The operation runs under a
SpeedProbe, whose mean is reported with it as probe_s. Exit code 3 means hgtrace
could not be imported from there.
"""

from __future__ import annotations

import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from importlib import import_module, metadata
from pathlib import Path

from tracing import CLI_ROOT, Recorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The speed probe: PROBE_LOOPS of interpreter work (under a millisecond), timed
# every PROBE_PERIOD_S while an operation runs, and PROBE_EDGE times just before
# and after it, so that even a short operation has samples.
# PROBE_REF_S is the probe's time at the reference speed, its median on the
# 2-core machine the bounds were set on.
PROBE_LOOPS = 5_000
PROBE_PERIOD_S = 0.05
PROBE_EDGE = 5
PROBE_REF_S = 0.00065


def _probe() -> float:
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_LOOPS):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the probe in the process and on the CPU of the work it wraps.

    SIGALRM interrupts the work every PROBE_PERIOD_S and the handler runs the
    probe, so the samples follow the shared host's speed as the work sees it;
    run.py scales the work's times by PROBE_REF_S over their mean.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(_probe())

    def __enter__(self):
        self.samples += [_probe() for _ in range(PROBE_EDGE)]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples += [_probe() for _ in range(PROBE_EDGE)]

    def mean(self) -> float:
        return statistics.fmean(self.samples)


# The primes at which `verify legendre` calibrates its cover map, each with a sweep.
LEGENDRE_CALIBRATION_PRIMES = (7, 11, 13)


def _import_hgtrace():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import hgtrace.cli  # noqa: F401
    except ImportError as exc:
        return None, f"cannot import hgtrace from {SRC}: {exc}"
    setup_s = time.perf_counter() - t0
    import hgtrace
    if SRC not in Path(hgtrace.__file__).resolve().parents:
        return None, f"hgtrace was imported from {hgtrace.__file__}, not {SRC}"
    return setup_s, None


def _run_cli(argv, recorder):
    from hgtrace import cli
    entry = recorder.span(CLI_ROOT, cli.main.main) if recorder else cli.main.main
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            entry(args=list(argv), prog_name="hgtrace", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # any crash of the program is a failed operation
            error = traceback.format_exc(limit=5)
        op_s = time.perf_counter() - t0
    out.flush()
    return buf.getvalue(), code, error, op_s


def _run_call(args):
    modname, fn, *params = args
    func = getattr(import_module(modname), fn)
    t0 = time.perf_counter()
    try:
        value = func(*params)
    except Exception:
        return b"", None, traceback.format_exc(limit=5), time.perf_counter() - t0, None
    op_s = time.perf_counter() - t0
    return (json.dumps(value) + "\n").encode(), 0, None, op_s, value


def _reports(stdout: bytes):
    return {r["p"]: r for r in json.loads(stdout)["reports"]}


def _check(check, stdout: bytes, facts: dict) -> list:
    """Apply an independent check to the output; returns failure messages."""
    if not check:
        return []
    kind, *params = check
    if kind == "verify_passed":
        bad = [r["suite"] for r in json.loads(stdout)["results"] if r["passed"] is not True]
        return [f"verify suites not passed: {bad}"] if bad else []
    if kind == "residual_zero":
        reports = _reports(stdout)
        bad = [p for p in params[0] if p not in reports or reports[p]["partial"]
               or reports[p]["residual"] != 0]
        return [f"fixture residual not 0 or report partial at p = {bad}"] if bad else []
    if kind == "report_total":
        rep = _reports(stdout).get(params[0])
        if rep is None or rep["partial"]:
            return [f"no complete report at p = {params[0]}"]
        facts["total"] = rep["total"]
        return []
    return [f"unknown check {kind!r}"]


def run_op(job) -> dict:
    op = job["op"]
    recorder = None
    if job.get("trace"):
        recorder = Recorder(job.get("pass_id", 0))
        recorder.install()
    facts = {}
    with SpeedProbe() as probe:
        if op["kind"] == "cli":
            stdout, code, error, op_s = _run_cli(op["args"], recorder)
        else:
            stdout, code, error, op_s, value = _run_call(op["args"])
            facts["value"] = value
    failures = []
    if error:
        failures.append(f"exception: {error}")
    elif code != 0:
        failures.append(f"exit code {code}")
    else:
        try:
            failures += _check(op.get("check"), stdout, facts)
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"check {op.get('check')} could not read the output: {exc!r}")
    res = {"op_s": op_s, "exit_code": code, "failures": failures, "facts": facts,
           "sha256": sha256(stdout).hexdigest(), "stdout_bytes": len(stdout),
           "probe_s": probe.mean()}
    if recorder:
        res["spans"] = recorder.spans
    return res


def sweeps_of(argv) -> list:
    """The (row, p) pairs whose a_Gamma sweep the command performs."""
    from hgtrace.field_core import is_prime
    from hgtrace.hgm_data import OO, level, row_by_signature
    opts = {a: argv[i + 1] for i, a in enumerate(argv[:-1]) if a.startswith("--")}
    if argv[0] == "trace":
        row = row_by_signature(opts["--group"].split(","))
        if "--prime" in opts:
            primes = [int(opts["--prime"])]
        else:
            lo, hi = (int(x) for x in opts["--prime-range"].split(":"))
            primes = [p for p in range(lo, hi + 1) if is_prime(p)]
        return [(row, p) for p in primes if p > 5 and (p - 1) % level(row.hd) == 0]
    if argv[:2] == ["verify", "legendre"]:
        row = row_by_signature((2, OO, OO))
        top = int(opts["--max-prime"])
        primes = set(LEGENDRE_CALIBRATION_PRIMES)
        primes.update(p for p in range(7, top + 1) if is_prime(p))
        return [(row, p) for p in sorted(primes)]
    return []


def sweep_headroom(row, ctx) -> float:
    """Snap tolerance over the worst distance from an integer of the row's
    a_Gamma sweep, computed the way a_gamma_sweep computes it."""
    import numpy as np
    from hgtrace.character_sums import datum_table, snap_tolerance
    p = ctx.p
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
    vals = datum_table(row.hd, ctx).sweep(np.array(args, dtype=np.int64)) \
        * np.array(chis) * scale
    worst = float(np.max(np.maximum(np.abs(vals.imag),
                                    np.abs(vals.real - np.round(vals.real)))))
    return snap_tolerance(p, row.hd.n) / worst if worst else math.inf


def run_headroom(commands) -> dict:
    from hgtrace.field_core import cached_ctx
    pairs = {(row.signature, p): row for argv in commands for row, p in sweeps_of(argv)}
    worst = min((sweep_headroom(row, cached_ctx(p)) for (_, p), row in pairs.items()),
                default=math.inf)
    return {"sweeps": len(pairs), "headroom_min": worst, "failures": []}


def provenance() -> dict:
    import hgtrace
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "click": metadata.version("click"),
            "kernel_backend": hgtrace.kernel_backend}


def main():
    job = json.load(sys.stdin)
    real_stdout = sys.stdout
    setup_s, fatal = _import_hgtrace()
    if fatal:
        print(json.dumps({"fatal": fatal}), file=real_stdout)
        sys.exit(3)
    if "headroom" in job:
        res = run_headroom(job["headroom"])
    elif job.get("setup"):
        res = {"failures": []}
    else:
        res = run_op(job)
    res["setup_s"] = setup_s
    res["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    res["provenance"] = provenance()
    print(json.dumps(res), file=real_stdout)


if __name__ == "__main__":
    main()
