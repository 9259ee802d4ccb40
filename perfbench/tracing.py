"""Spans around the public names of each hgtrace layer, for the traced run.

Each traced name is wrapped once, and the wrapper replaces the original in every
hgtrace module namespace that imported it (and on the class, for methods), so
calls through any import path are recorded. A span is
[name, start, end, parent index, pass id, work count]. Spans stay in memory until
the worker exits. A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute, work counter or None). The counter maps the
# call's positional arguments to the work it does; by default a call counts 1.
TRACED = (
    ("field_core.build_ctx", "hgtrace.field_core", "build_ctx", None),
    ("character_sums.datum_table", "hgtrace.character_sums", "datum_table", None),
    ("character_sums.sweep", "hgtrace.character_sums", "BracketTable.sweep",
     lambda args: len(args[1])),
    ("character_sums.np_sum", "hgtrace.character_sums", "np_sum", None),
    ("character_sums.snap", "hgtrace.character_sums", "AlgebraicValue.from_complex",
     None),
    ("character_sums.elliptic_square", "hgtrace.character_sums",
     "elliptic_square_value", None),
    ("trace_engine.a_gamma_sweep", "hgtrace.trace_engine", "a_gamma_sweep", None),
    ("trace_engine.fm_eval", "hgtrace.trace_engine", "SymPolyFm.evaluate", None),
    ("trace_engine.hecke_trace", "hgtrace.trace_engine", "hecke_trace", None),
    ("modform_oracle.level1_hecke_trace", "hgtrace.modform_oracle",
     "level1_hecke_trace", None),
    ("modform_oracle.level6_weight8_ap", "hgtrace.modform_oracle",
     "level6_weight8_ap", None),
    ("modform_oracle.fixture_load", "hgtrace.modform_oracle", "load_fixture", None),
    ("curve_lab.count_points", "hgtrace.curve_lab", "count_points", None),
    ("curve_lab.legendre_trace_sweep", "hgtrace.curve_lab", "legendre_trace_sweep",
     None),
    ("curve_lab.count_via_characters", "hgtrace.curve_lab", "count_via_characters",
     None),
    ("curve_lab.genus2_fp", "hgtrace.curve_lab", "count_genus2_fp", None),
    ("curve_lab.genus2_fp2", "hgtrace.curve_lab", "count_genus2_fp2", None),
)

# The root span of each CLI operation; its self time is parsing, the report
# loop and JSON emission.
CLI_ROOT = "cli"


class Recorder:
    """In-memory span log of one worker process."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []
        self._stack = []

    def span(self, name: str, fn, count=None):
        """fn wrapped so that each call records one span named name."""
        spans, stack, clock, pass_id = self.spans, self._stack, time.perf_counter, self.pass_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, pass_id,
                   count(args) if count else 1]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return traced

    def install(self):
        """Wrap every name in TRACED wherever hgtrace modules refer to it."""
        for name, modname, attr, count in TRACED:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.span(name, raw.__func__, count)))
                else:
                    setattr(cls, meth, self.span(name, raw, count))
                continue
            original = getattr(mod, attr)
            wrapped = self.span(name, original, count)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("hgtrace") and \
                        vars(other).get(attr) is original:
                    setattr(other, attr, wrapped)


def layer_totals(span_lists) -> dict:
    """{name: [self seconds, work count]} over (spans, scale) pairs of several
    workers; each worker's seconds are multiplied by its scale."""
    out = {}
    for spans, scale in span_lists:
        self_s = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        for s, own in zip(spans, self_s):
            tot = out.setdefault(s[0], [0.0, 0])
            tot[0] += own * scale
            tot[1] += s[5]
    return out
