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

import hgtrace
# sweep_headroom calls these two
from hgtrace.character_sums import datum_table, snap_tolerance  # noqa: F401
from hgtrace.hgm_data import TriangleGroupRow, triangle_table

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
