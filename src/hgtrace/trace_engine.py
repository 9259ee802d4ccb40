"""The symmetric-power trace polynomials F_m, the local traces a_Gamma, and the
assembled Hecke-operator trace formula over the triangle-group table.

a_gamma_sweep is the one route from a period sum to a local trace: it reads
each lambda through the row's chart, scales by the row's persisted H_p
normalization, and snaps to an exact integer with a + p = d*t^2 for a d of the
row's divisors; any failure aborts the report rather than propagating noise.
The only elliptic-point contributions implemented are those of the compact
(2,4,6) row at k = 6, exactly in the displayed shape; every other (row, k)
yields a flagged partial report with an optional oracle residual.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .character_sums import SnapError, datum_table, elliptic_square_value, snap_tolerance
from .field_core import CongruenceError, PrimeFieldCtx
from .hgm_data import OO, TriangleGroupRow
from .modform_oracle import level1_hecke_trace, load_fixture_by_label


# ---------------------------------------------------------------------------
# F_m polynomials


@dataclass(frozen=True)
class SymPolyFm:
    """The degree-m polynomial with F_m(u^2+uv+v^2, uv) = sum_{i<=2m} u^i v^(2m-i).

    That sum is (u (u^2)^m - v (v^2)^m) / (u - v), a combination of the m-th
    powers of u^2 and v^2, whose sum is S - T and whose product is T^2. So
    F_0 = 1, F_1 = S and F_k = (S - T) F_(k-1) - T^2 F_(k-2). The recurrences
    below start at F_1, so m >= 1.
    """

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m >= 1")

    def evaluate(self, S: int, T: int) -> int:
        """F_m(S, T), by the recurrence on the integers."""
        F_prev, F = 1, S
        for _ in range(self.m - 1):
            F_prev, F = F, (S - T) * F - T * T * F_prev
        return F

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
        """{(i, j): c} with F_m = sum of c * S^i * T^j, by the recurrence on
        coefficient dicts."""
        F_prev, F = {(0, 0): 1}, {(1, 0): 1}
        for _ in range(self.m - 1):
            nxt = defaultdict(int)
            for (i, j), c in F.items():  # (S - T) F_(k-1)
                nxt[i + 1, j] += c
                nxt[i, j + 1] -= c
            for (i, j), c in F_prev.items():  # - T^2 F_(k-2)
                nxt[i, j + 2] -= c
            F_prev, F = F, {key: c for key, c in nxt.items() if c}
        return F


def fm_identity_holds(m: int, u: int, v: int) -> bool:
    """F_m(u^2+uv+v^2, uv) == sum_{i=0}^{2m} u^i v^(2m-i), exactly."""
    lhs = SymPolyFm(m).evaluate(u * u + u * v + v * v, u * v)
    rhs = sum(u ** i * v ** (2 * m - i) for i in range(2 * m + 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Local traces


def _lambda_chart(a_rule: str, ctx: PrimeFieldCtx):
    """A row's lambda chart over every lambda in [0, p), ascending:
    (args, chis, p_factor), read by a_gamma_sweep.

    The local trace at lam is chi * p_factor * (period sum at arg), scaled by
    the row's (sign, w). The "cusp_row" chart reads arg = 1/lam with
    chi = phi(1 - arg) and p_factor = 1; the "row_246" chart reads arg = -3/lam
    with chi = phi(-3(1 + 3/lam)) and p_factor = p. chi is 0 exactly at the
    special lambdas, where no trace is defined: lam = 0 and the zero of chi.
    Inverses and Legendre symbols are gathers from the context's tables.
    """
    p = ctx.p
    inv = ctx.antilog[-ctx.dlog % ctx.n]  # meaningless at lam = 0, masked below
    if a_rule == "cusp_row":
        args, chi_args, p_factor = inv, (1 - inv) % p, 1
    elif a_rule == "row_246":
        args, chi_args, p_factor = -3 * inv % p, -3 * (1 + 3 * inv) % p, p
    else:
        raise ValueError(f"unknown a_rule {a_rule!r}")
    chis = ctx.chi[chi_args]
    chis[0] = 0
    return args, chis, p_factor


def _al_square_mask(s: np.ndarray, p: int, divisors) -> np.ndarray:
    """Where an int64 array s = a + p has s = d*t^2 with d in divisors and
    0 <= s <= 4p: character_sums.al_square_decompose over an array. One
    boolean table marks every d*t^2 <= 4p at index d*t^2 + 1, with indices 0
    and 4p + 2 unmarked, and s is one gather at s + 1 clipped to that range."""
    table = np.zeros(4 * p + 3, dtype=bool)
    for d in divisors:
        table[d * np.arange(isqrt(4 * p // d) + 1) ** 2 + 1] = True
    return table[np.clip(s + 1, 0, 4 * p + 2)]


def a_gamma_sweep(row: TriangleGroupRow, ctx: PrimeFieldCtx,
                  table=None) -> tuple[np.ndarray, np.ndarray]:
    """(generic lams, a_Gamma) as int64 arrays over every lambda in [0, p),
    ascending; a special lambda is absent from the returned lams.

    The row's chart reads each lambda off table.sweep (the datum's table by
    default), scaled by hp_sign * p_factor / p^hp_weight. Each value must snap
    within snap_tolerance(p, n) to an integer a with a + p = d*t^2 <= 4p for a
    d in the row's al_divisors, or SnapError names the first lambda that
    fails. Building the table raises CongruenceError unless p = 1 mod level.
    """
    p = ctx.p
    if table is None:
        table = datum_table(row.hd, ctx)
    args, chis, p_factor = _lambda_chart(row.a_rule, ctx)
    lams = np.flatnonzero(chis)
    vals = table.sweep(args[lams]) * chis[lams] * (row.hp_sign * p_factor / p ** row.hp_weight)
    tol = snap_tolerance(p, row.hd.n)
    snapped = np.round(vals.real)
    ok = (np.abs(vals.imag) < tol) & (np.abs(vals.real - snapped) < tol)
    if not ok.all():
        i = int(np.argmin(ok))
        raise SnapError(f"a_Gamma({lams[i]}, {p}) did not snap to an integer: "
                        f"{complex(vals[i])!r}")
    a = snapped.astype(np.int64)
    ok = _al_square_mask(a + p, p, row.al_divisors)
    if not ok.all():
        i = int(np.argmin(ok))
        raise SnapError(f"a_Gamma({lams[i]}, {p}) snapped to {a[i]}, but a + p is not "
                        f"d*t^2 <= 4p with d in {row.al_divisors}")
    return lams, a


# ---------------------------------------------------------------------------
# The Legendre cover of the (2,oo,oo) row


# The map R from the Legendre parameter lam' to the row coordinate, with
# a_Gamma(R(lam'), p) = a_E(lam')^2 - p at every Legendre-generic lam'.
LEGENDRE_COVER_MAP = "-4*lam/(lam-1)^2"


def legendre_relation(ctx: PrimeFieldCtx, a_row: tuple, a_e) -> int | None:
    """The first lam' in [2, p) where a_Gamma(R(lam'), p) = a_E(lam')^2 - p
    fails for R = LEGENDRE_COVER_MAP, or None if it holds at every one.

    a_row is the (2,oo,oo) row's a_gamma_sweep arrays (generic lams, a_Gamma)
    and a_e the legendre_trace_sweep, both at p. R = num/den, with num = -4 lam'
    and den = (lam' - 1)^2 reduced mod p, is evaluated on all lam' at once, with
    1/den = antilog[-dlog(den)]; a lam' where R lands on a special lambda of
    the row is skipped.
    """
    p, n = ctx.p, ctx.n
    lams, a = a_row
    generic = np.zeros(p, dtype=bool)
    generic[lams] = True
    a_at = np.zeros(p, dtype=np.int64)
    a_at[lams] = a
    lamp = np.arange(2, p, dtype=np.int64)
    num, den = -4 * lamp % p, (lamp - 1) ** 2 % p
    target = num * ctx.antilog[-ctx.dlog[den] % n] % p
    keep = generic[target]
    lamp, target = lamp[keep], target[keep]
    failed = np.flatnonzero(a_at[target] != a_e[lamp] ** 2 - p)
    return int(lamp[failed[0]]) if failed.size else None


# ---------------------------------------------------------------------------
# Hecke trace reports


# The "schema_version" of every JSON payload: trace reports and CLI configs.
SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class TraceReport:
    """A weight-(k + 2) trace report at p.

    The generic terms are kept column-wise: the generic lambdas ascending, and
    for each one the index of its F_(k/2)(a_Gamma, p) in generic_values, the
    distinct values. special_terms holds the cusp terms, then the elliptic
    ones, as (lam, kind, value) rows: lam an int or OO, kind "cusp" or
    "elliptic(...)", and value None where no elliptic term is implemented.
    The "terms" of to_json() list every term as [str(lam), kind, value], the
    generic ones first with kind "generic".
    """

    signature: tuple
    p: int
    k: int
    weight: int
    generic_lams: np.ndarray
    generic_index: np.ndarray
    generic_values: tuple[int, ...]
    special_terms: tuple[tuple, ...]
    generic_sum: int
    cusp_sum: int
    elliptic_sum: int | None
    total: int | None
    partial: bool
    flags: tuple[str, ...]
    oracle: int | None = None
    residual: int | None = None
    dim_cusp_forms: int | None = None

    def summary_json(self) -> dict:
        """to_json() without its "terms"."""
        return {
            "schema_version": SCHEMA_VERSION,
            "signature": [str(e) for e in self.signature],
            "p": self.p,
            "k": self.k,
            "weight": self.weight,
            "generic_sum": self.generic_sum,
            "cusp_sum": self.cusp_sum,
            "elliptic_sum": self.elliptic_sum,
            "total": self.total,
            "partial": self.partial,
            "flags": list(self.flags),
            "oracle": self.oracle,
            "residual": self.residual,
            "dim_cusp_forms": self.dim_cusp_forms,
        }

    def to_json(self) -> dict:
        terms = [[str(lam), "generic", self.generic_values[i]]
                 for lam, i in zip(self.generic_lams.tolist(), self.generic_index.tolist())]
        terms += ([str(lam), kind, value] for lam, kind, value in self.special_terms)
        return {**self.summary_json(), "terms": terms}


def hecke_trace(row: TriangleGroupRow, ctx: PrimeFieldCtx, k: int) -> TraceReport:
    """Assemble the weight-k trace report at p for the given table row.

    total = sum over generic lambda of F_(k/2)(a_Gamma, p), plus 1 per cusp,
    plus elliptic contributions. The elliptic terms are implemented only for
    the (2,4,6) row at k = 6 (the fully worked case: the order-2 point via the
    degenerate-fiber square together with the quadratic-symbol p^3 term); all
    other (row, k) produce a partial report carrying an explicit flag, never a
    silent total. When complete, total = -Tr(T_p | S_(k+2)).
    """
    p = ctx.p
    if k % 2 or k < 2:
        raise ValueError("k must be even and >= 2")
    if p <= 5:
        raise CongruenceError("good reduction requires p > 5")
    fm = SymPolyFm(k // 2)
    table = datum_table(row.hd, ctx)
    lams, a = a_gamma_sweep(row, ctx, table=table)
    # a + p = d*t^2 with d | 6, so only O(sqrt p) distinct a occur. a_gamma_sweep
    # has checked 0 <= a + p <= 4p, so they are the nonzero bins of one bincount
    # over a + p, ascending with no sort; the bins then hold each value's index.
    s = a + p
    bins = np.bincount(s, minlength=4 * p + 1)
    present = np.flatnonzero(bins)
    counts = bins[present]
    bins[present] = np.arange(len(present))
    index = bins[s]
    values = tuple(fm.evaluate(x, p) for x in (present - p).tolist())
    generic_sum = sum(v * c for v, c in zip(values, counts.tolist()))

    special = []
    cusp_sum = 0
    for lam, order in row.lambda_special:
        if order == OO:
            special.append((lam, "cusp", 1))
            cusp_sum += 1

    flags = []
    elliptic_sum = total = dim_hint = None
    partial = True
    if row.signature == (2, 4, 6) and k == 6:
        esq = elliptic_square_value(table, row.hp_sign, row.hp_weight)
        e2 = p * (esq - p * p)
        special.append((-3, "elliptic(2)", e2))
        chi_sum = ctx.legendre(-1) + ctx.legendre(-3) + ctx.legendre(-6)
        e46 = chi_sum * p ** 3
        special.append((OO, "elliptic(4)+elliptic(6)", e46))
        elliptic_sum = e2 + e46
        total = generic_sum + cusp_sum + elliptic_sum
        partial = False
        dim_hint = 1
    else:
        for lam, order in row.lambda_special:
            if order != OO:
                special.append((lam, f"elliptic({order})", None))
        flags.append("elliptic terms unavailable")

    oracle = _oracle_total(row, p, k)
    residual = None if oracle is None else (
        (total if total is not None else generic_sum + cusp_sum) - oracle)

    return TraceReport(
        signature=row.signature, p=p, k=k, weight=k + 2,
        generic_lams=lams, generic_index=index, generic_values=values,
        special_terms=tuple(special), generic_sum=generic_sum, cusp_sum=cusp_sum,
        elliptic_sum=elliptic_sum, total=total, partial=partial,
        flags=tuple(flags), oracle=oracle, residual=residual,
        dim_cusp_forms=dim_hint)


def _oracle_total(row: TriangleGroupRow, p: int, k: int) -> int | None:
    """Independent -Tr(T_p | S_(k+2)) where one is available."""
    if row.signature == (2, 3, OO) and k + 2 >= 12:
        return -level1_hecke_trace(k + 2, p)
    if row.signature == (2, 4, 6) and k == 6:
        fx = load_fixture_by_label("6.8.a.a")  # a malformed fixture raises FixtureError
        try:
            return -fx.coefficient(p)
        except KeyError:
            return None
    return None
