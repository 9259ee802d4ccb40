"""The benchmark's four workloads: seed -> the operations of one pass.

An operation is either a CLI invocation (``argv`` after the ``hgtrace`` program
name) or a call of one public library function. Each operation runs in its own
fresh worker process, so every pass pays the cold caches a CLI user pays.

Seeds pick among primes of the same size and residue mod 12 as the reference
command, so a seed changes the inputs and barely the amount of work. The choice is
``candidates[seed % len(candidates)]`` with the reference first, so seed 0
gives the reference command. A command with a single candidate ignores the
seed; the reasons are given next to each candidate list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ROWS = ("2,oo,oo", "2,3,oo", "2,4,oo", "2,6,oo", "2,4,6")

# Every prime = 1 (mod 12) in [10009, 10100]: the pass costs O(p^2), so the
# window spans 3.4% of work. All have p - 1 > 10000, where OpenBLAS runs the
# sweep's complex dot products on threads, and the first threaded call of a
# process costs about 1 s here; primes below 10001 would skip that cost.
TRACE_LARGE_PRIMES = (10009, 10069, 10093)

# The clausen sweep costs about p^4: 19 and 29 take half and twice as long as
# 23, so it is fixed.
CLAUSEN_PRIMES = (23,)
# genlegendre needs p = 1 (mod 6); 199 and 211 are the primes = 7 (mod 12)
# within 6%.
GENLEGENDRE_PRIMES = (199, 211)
# The qm scan costs p^3 and the nearest primes = 5 (mod 12) are 173 and 233,
# so it is fixed.
QM_PRIMES = (197,)
# Bounds that drop or add the primes 293 and 307 (the largest prime <= 290 is 283).
LEGENDRE_MAX_PRIMES = (300, 290, 310)
# Every prime = 1 (mod 12) within 3% of 1009.
COUNT_LEGENDRE_PRIMES = (1009, 997, 1021, 1033)

# Fixture primes at which the (2,4,6) weight-8 report must be complete with
# residual 0; all are <= 600, so the sweep reaches every one of them.
FIXTURE_PRIMES = (13, 37, 61, 73, 97)
# The headline identity past the fixture, checked against the in-repo oracle.
ORACLE_PRIME = 109


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    kind is "cli" (args is the argv after the program name) or "call" (args is
    (module, function, *arguments)). check names the independent check the
    worker applies to the output, with its parameters.
    """

    kind: str
    args: tuple
    check: tuple = ()

    @property
    def key(self) -> str:
        """The key of the operation's expected output digest."""
        if self.kind == "cli":
            return "hgtrace " + " ".join(self.args)
        mod, fn, *rest = self.args
        return f"{mod}.{fn}({', '.join(map(repr, rest))})"


def cli(*argv, check=()) -> Op:
    return Op("cli", tuple(str(a) for a in argv), tuple(check))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_note: str
    ops: Callable[[int], list]
    # a check across the ops of one pass: (ops, results) -> failure messages
    cross_check: Callable[[list, list], list] | None = None


def _pick(candidates, seed):
    return candidates[seed % len(candidates)]


def trace_large_ops(seed: int):
    p = _pick(TRACE_LARGE_PRIMES, seed)
    return [cli("trace", "--group", "2,4,6", "--weight", 8, "--prime", p)]


def trace_sweep_ops(seed: int):
    ops = []
    for g in ROWS:
        check = ("residual_zero", FIXTURE_PRIMES) if g == "2,4,6" else ()
        ops.append(cli("trace", "--group", g, "--weight", 8, "--prime-range", "7:600",
                       check=check))
    return ops


def cross_check_ops(seed: int):
    verify = ("verify_passed",)
    return [
        cli("verify", "clausen", "--prime", _pick(CLAUSEN_PRIMES, seed), check=verify),
        cli("verify", "genlegendre", "--prime", _pick(GENLEGENDRE_PRIMES, seed),
            check=verify),
        cli("verify", "qm", "--prime", _pick(QM_PRIMES, seed), check=verify),
        cli("verify", "legendre", "--max-prime", _pick(LEGENDRE_MAX_PRIMES, seed),
            check=verify),
        cli("count", "legendre", "--prime", _pick(COUNT_LEGENDRE_PRIMES, seed),
            "--lambda", "all"),
    ]


def oracle_check_ops(seed: int):
    return [
        cli("trace", "--group", "2,3,oo", "--weight", 12, "--prime-range", "7:200"),
        cli("trace", "--group", "2,4,6", "--weight", 8, "--prime", ORACLE_PRIME,
            check=("report_total", ORACLE_PRIME)),
        Op("call", ("hgtrace.modform_oracle", "level6_weight8_ap", ORACLE_PRIME)),
    ]


def headline_identity(ops, results):
    """total(p) of the (2,4,6) weight-8 report == -level6_weight8_ap(p)."""
    total = ap = p = None
    for op, res in zip(ops, results):
        if op.check[:1] == ("report_total",):
            p, total = op.check[1], res.get("facts", {}).get("total")
        elif op.kind == "call" and op.args[1] == "level6_weight8_ap":
            ap = res.get("facts", {}).get("value")
    if total is None or ap is None or total != -ap:
        return [f"headline identity at p = {p}: total {total} != -a_p with a_p = {ap}"]
    return []


# Every candidate list's length divides this, so seeds 0 .. SEED_PERIOD - 1 give
# every command that any seed gives.
SEED_PERIOD = 12


def all_ops(workload) -> list:
    """Every distinct op the workload runs at any seed."""
    seen = {}
    for seed in range(SEED_PERIOD):
        for op in workload.ops(seed):
            seen.setdefault(op.key, op)
    return list(seen.values())


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "trace-large",
            "one (2,4,6) weight-8 report at p near 10^4: the O(p^2) slot tables and "
            "lambda sweep dominate",
            "picks p from the primes = 1 (mod 12) in [10009, 10100]; seed 0 -> 10009",
            trace_large_ops),
        Workload(
            "trace-sweep",
            "279 small reports over every row and admissible p <= 600: per-prime and "
            "per-lambda fixed costs, charts, F_m and JSON",
            "ignores the seed: the prime set is exhaustive",
            trace_sweep_ops),
        Workload(
            "cross-checks",
            "brute-force verify and count traffic: curve_lab sweeps and thousands of "
            "tiny np_sum tables",
            "picks each command's prime among primes of the same size and residue "
            "mod 12; clausen and qm are fixed",
            cross_check_ops),
        Workload(
            "oracle-check",
            "level-1 oracle traces for (2,3,oo) weight 12 and the headline identity "
            "at p = 109 past the fixture",
            "ignores the seed: the prime set is exhaustive",
            oracle_check_ops, cross_check=headline_identity),
    )
}
