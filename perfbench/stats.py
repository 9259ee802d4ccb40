"""Summarise saved benchmark outputs, and compare two sets of them.

Save each run's stdout to a file, then:

    python3 perfbench/stats.py RUN.txt...                     # spread per metric
    python3 perfbench/stats.py HEAD.txt... --against BASE.txt...

For each workload and metric this prints the median, the quartiles and the
spread (quartile distance over median). With --against it also prints the
change of each median against the base set and, for end-to-end metrics,
whether it stays within the bound in BENCHMARK.json. Results measured on
different kernel backends are never compared: the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """{(workload, trace): {metric: [values]}} and the set of backends."""
    groups, backends = defaultdict(lambda: defaultdict(list)), set()
    for path in paths:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
        prov = next(json.loads(l)["provenance"] for l in lines if l.startswith('{"provenance"'))
        result = json.loads(lines[-1])
        backends.add(prov["kernel_backend"])
        for name, m in result["metrics"].items():
            groups[(prov["workload"], prov["trace"])][name].append(m["value"])
        groups[(prov["workload"], prov["trace"])]["failed"].append(result["failed"])
    return groups, backends


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="+")
    ap.add_argument("--against", nargs="+", default=None)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    head, head_backends = load(args.runs)
    base, base_backends = load(args.against) if args.against else ({}, set())
    if args.against and head_backends != base_backends:
        print(f"refusing to compare kernel backends {sorted(head_backends)} "
              f"against {sorted(base_backends)}")
        sys.exit(2)
    worst_ok = True
    for key in sorted(head):
        print(f"== {key[0]} (trace {key[1]})")
        for name, values in sorted(head[key].items()):
            med, q1, q3, spread = summary(values)
            line = (f"  {name:<40} n={len(values):<3} median={med:<12.6g} "
                    f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}")
            if name in e2e:
                line += f" bound={e2e[name]['bound']}"
            if key in base and name in base[key]:
                bmed = statistics.median(base[key][name])
                change = (med - bmed) / abs(bmed) if bmed else 0.0
                line += f" change={change:+.4f}"
                if name in e2e:
                    worse = change if e2e[name]["better"] == "lower" else -change
                    ok = worse <= e2e[name]["bound"]
                    worst_ok &= ok
                    line += " ok" if ok else " REGRESSION"
            print(line)
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
