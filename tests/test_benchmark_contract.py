"""The names the benchmark in perfbench/ relies on still exist.

perfbench/tracing.py wraps the layers listed in TRACED, and
perfbench/worker.py::sweep_headroom reads a row's lambda chart fields. A rename
in src/ would otherwise break only the traced benchmark run. tracing.py is
executed from source (no bytecode is written under perfbench/).
"""

import importlib
import runpy
from dataclasses import fields
from pathlib import Path

import numpy as np

import hgtrace
# sweep_headroom calls these two
from hgtrace.character_sums import datum_table, snap_tolerance  # noqa: F401
from hgtrace.field_core import cached_ctx
from hgtrace.hgm_data import TriangleGroupRow, level, triangle_table
from hgtrace.trace_engine import a_gamma_sweep

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    datum_table(...).sweep(args) into exactly a_gamma_sweep's integers, so the
    headroom metric measures the values the program snaps."""
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
            assert dict(zip(lams, snapped)) == a_gamma_sweep(row, ctx), (row.name, p)
