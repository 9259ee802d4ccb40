"""Record the sha256 of the stdout of every operation any seed can generate.

Run from the repository root:

    python3 perfbench/record_digests.py

Each operation runs once, in a fresh worker, and must exit 0 and pass its
independent checks; otherwise nothing is written. The digests go to
perfbench/digests.json with the source digest and kernel backend they were
recorded under. Re-record only when a change is meant to alter an output.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, op_job, run_worker, source_digest
from workloads import WORKLOADS, all_ops


def main():
    digests, backends, bad = {}, set(), []
    for wl in WORKLOADS.values():
        for op in all_ops(wl):
            res = run_worker(op_job(op, False, 0))
            if res.get("failures"):
                bad.append(f"{op.key}: {res['failures']}")
                continue
            digests[op.key] = res["sha256"]
            backends.add(res["provenance"]["kernel_backend"])
            print(f"{res['sha256'][:16]}  {res['op_s']:8.3f} s  {op.key}", flush=True)
    if bad:
        sys.exit("not recorded, operations failed:\n" + "\n".join(bad))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"source_sha256": source_digest(), "kernel_backend": backends.pop(),
                   "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
