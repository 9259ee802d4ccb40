"""The symmetric-power trace polynomials F_m, the local traces a_Gamma, and the
assembled Hecke-operator trace formula over the triangle-group table.

Local traces are exact integers obtained by snapping the calibrated character
sums; any snap failure aborts the report rather than propagating noise. The
only elliptic-point contributions implemented are those of the compact
(2,4,6) row at k = 6, exactly in the displayed shape; every other (row, k)
yields a flagged partial report with an optional oracle residual.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

import numpy as np

from .character_sums import (CalibrationError, datum_table,
                             elliptic_square_value, local_traces)
from .field_core import CongruenceError, PrimeFieldCtx, build_ctx
from .hgm_data import OO, TriangleGroupRow, row_by_signature
from .curve_lab import legendre_trace_sweep
from .modform_oracle import level1_hecke_trace, load_fixture_by_label


# ---------------------------------------------------------------------------
# F_m polynomials


@dataclass(frozen=True)
class SymPolyFm:
    """F_m(S, T) with exact integer coefficients: coeffs[(i, j)] * S^i * T^j."""

    m: int
    coeffs: MappingProxyType

    def evaluate(self, S: int, T: int) -> int:
        return sum(c * S ** i * T ** j for (i, j), c in self.coeffs.items())


@cache
def build_Fm(m: int) -> SymPolyFm:
    """The degree-m polynomial with F_m(u^2+uv+v^2, uv) = sum_{i<=2m} u^i v^(2m-i).

    That sum is (u (u^2)^m - v (v^2)^m) / (u - v), a combination of the m-th
    powers of u^2 and v^2, whose sum is S - T and whose product is T^2. So
    F_0 = 1, F_1 = S and F_k = (S - T) F_(k-1) - T^2 F_(k-2). The result is
    cached and shared, so its coefficients are read-only.
    """
    if m < 1:
        raise ValueError("m >= 1")
    F_prev, F = {(0, 0): 1}, {(1, 0): 1}
    for _ in range(m - 1):
        nxt = defaultdict(int)
        for (i, j), c in F.items():  # (S - T) F_(k-1)
            nxt[i + 1, j] += c
            nxt[i, j + 1] -= c
        for (i, j), c in F_prev.items():  # - T^2 F_(k-2)
            nxt[i, j + 2] -= c
        F_prev, F = F, {key: c for key, c in nxt.items() if c}
    return SymPolyFm(m=m, coeffs=MappingProxyType(F))


def fm_identity_holds(m: int, u: int, v: int) -> bool:
    """F_m(u^2+uv+v^2, uv) == sum_{i=0}^{2m} u^i v^(2m-i), exactly."""
    lhs = build_Fm(m).evaluate(u * u + u * v + v * v, u * v)
    rhs = sum(u ** i * v ** (2 * m - i) for i in range(2 * m + 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Local traces


def a_gamma(row: TriangleGroupRow, lam: int, ctx: PrimeFieldCtx,
            table=None) -> int:
    """The exact local trace a_Gamma(lam, p) for a generic lam of the row."""
    lam %= ctx.p
    _lams, a = _a_gamma_values(row, ctx, np.array([lam]), table)
    if not len(a):
        raise ValueError(f"lambda = {lam} is a special point of row {row.name}")
    return int(a[0])


def a_gamma_sweep(row: TriangleGroupRow, ctx: PrimeFieldCtx) -> dict[int, int]:
    """a_Gamma for every generic lam in F_p, via one vectorized sweep."""
    lams, a = _a_gamma_values(row, ctx, np.arange(ctx.p))
    return dict(zip(lams.tolist(), a.tolist()))


def _a_gamma_values(row: TriangleGroupRow, ctx: PrimeFieldCtx, lams: np.ndarray,
                    table=None) -> tuple[np.ndarray, np.ndarray]:
    """(generic lams, a_Gamma) for an int64 array of lambdas in [0, p): the row's
    local_traces. Building the table raises CongruenceError unless p = 1 mod level."""
    if table is None:
        table = datum_table(row.hd, ctx)
    return local_traces(row.a_rule, ctx, table, lams, row.hd.n, row.hp_sign,
                        row.hp_weight, row.al_divisors)


# ---------------------------------------------------------------------------
# Legendre-cover identification for the (2,oo,oo) row


@dataclass(frozen=True)
class LegendreCalibration:
    map_label: str
    primes: tuple[int, ...]
    aliases: tuple[str, ...] = ()


def _scaled_cover_maps(c: int) -> dict:
    return {
        f"{c}*lam/(lam-1)^2": lambda l, p: (c * l % p, (l - 1) % p * ((l - 1) % p) % p),
        f"{c}*lam^2/(lam-1)": lambda l, p: (c * l % p * l % p, (l - 1) % p),
        f"{c}*lam*(1-lam)": lambda l, p: (c * l % p * ((1 - l) % p) % p, 1),
    }


# Candidate maps R(lam') = num/den: the six Mobius maps, then degree-two pushes
# with small integer scalings. Each takes lam' in [0, p), an int or an int64
# array, and returns (num, den) reduced mod p, every product taken of factors
# already reduced, so it stays below p^2.
_COVER_MAPS = {
    "lam": lambda l, p: (l, 1),
    "1/lam": lambda l, p: (1, l),
    "1-lam": lambda l, p: ((1 - l) % p, 1),
    "1/(1-lam)": lambda l, p: (1, (1 - l) % p),
    "lam/(lam-1)": lambda l, p: (l, (l - 1) % p),
    "(lam-1)/lam": lambda l, p: ((l - 1) % p, l),
    **{label: f for c in (1, -1, 2, -2, 4, -4, 8, -8, 16, -16)
       for label, f in _scaled_cover_maps(c).items()},
}


def legendre_relation(label: str, ctx: PrimeFieldCtx, a_row: dict, a_e):
    """Test a_Gamma(R(lam'), p) = a_E(lam')^2 - p at every Legendre-generic lam'.

    R is the cover map named label, a_row the (2,oo,oo) row's a_gamma_sweep
    and a_e the legendre_trace_sweep, both at p. a_row is read into two arrays
    over F_p and R is evaluated on all lam' in [2, p) at once, with
    1/den = antilog[-dlog(den)]; a lam' where den vanishes or R lands on a
    special lambda of the row is skipped. Returns (bad, held): the first lam'
    where the relation fails (None if there is none) and an int64 array of the
    (R(lam'), a_Gamma) rows at which it held before that.
    """
    p, n = ctx.p, ctx.n
    lams = np.fromiter(a_row, np.int64, len(a_row))
    generic = np.zeros(p, dtype=bool)
    generic[lams] = True
    a_at = np.zeros(p, dtype=np.int64)
    a_at[lams] = np.fromiter(a_row.values(), np.int64, len(a_row))
    lamp = np.arange(2, p, dtype=np.int64)
    num, den = np.broadcast_arrays(*_COVER_MAPS[label](lamp, p))
    defined = den != 0
    lamp, num, den = lamp[defined], num[defined], den[defined]
    target = num * ctx.antilog[-ctx.dlog[den] % n] % p
    keep = generic[target]
    lamp, target = lamp[keep], target[keep]
    a_target = a_at[target]
    failed = np.flatnonzero(a_target != a_e[lamp] ** 2 - p)
    k = failed[0] if failed.size else len(lamp)
    held = np.stack((target[:k], a_target[:k]), axis=1)
    return (int(lamp[k]) if failed.size else None), held


LEGENDRE_CALIBRATION_PRIMES = (7, 11, 13)


def calibrate_legendre_relation() -> LegendreCalibration:
    """Identify the map R from the Legendre parameter to the row coordinate with
    a_Gamma(R(lam'), p) = a_E(lam')^2 - p for every Legendre-generic lam' at
    each of LEGENDRE_CALIBRATION_PRIMES.

    Candidates are the six Mobius maps plus degree-two pushes with small
    integer scaling; points where R lands on a special lambda of the row (the
    branch locus) are skipped. The winner is unique up to precomposition with
    the Legendre deck involutions (which leave a_E^2 invariant), so several
    labels may survive; they are verified to induce the same correspondence
    and the lexicographically first is returned, the rest as aliases.
    """
    row = row_by_signature((2, OO, OO))
    survivors = set(_COVER_MAPS)
    correspondences = {name: set() for name in survivors}
    for p in LEGENDRE_CALIBRATION_PRIMES:
        ctx = build_ctx(p)
        a_row = a_gamma_sweep(row, ctx)
        a_e = legendre_trace_sweep(ctx)
        for name in list(survivors):
            bad, held = legendre_relation(name, ctx, a_row, a_e)
            if bad is not None or not len(held):
                survivors.discard(name)
            correspondences[name].update((p, target, a) for target, a in held.tolist())
    if not survivors:
        raise CalibrationError("no consistent legendre identification found")
    names = sorted(survivors)
    if len({frozenset(correspondences[n]) for n in names}) != 1:
        raise CalibrationError(
            f"survivors induce different correspondences: {names}")
    return LegendreCalibration(map_label=names[0], primes=LEGENDRE_CALIBRATION_PRIMES,
                               aliases=tuple(names[1:]))


# ---------------------------------------------------------------------------
# Hecke trace reports


@dataclass(frozen=True)
class TraceTerm:
    lam: object  # int or OO
    kind: str    # "generic" | "cusp" | "elliptic(n)"
    value: int | None


@dataclass(frozen=True, eq=False)
class TraceReport:
    """A weight-(k + 2) trace report at p.

    The generic terms are kept column-wise: the generic lambdas ascending, and
    for each one the index of its F_(k/2)(a_Gamma, p) in generic_values, the
    distinct values. special_terms holds the cusp terms, then the elliptic ones.
    """

    signature: tuple
    p: int
    k: int
    weight: int
    generic_lams: np.ndarray
    generic_index: np.ndarray
    generic_values: tuple[int, ...]
    special_terms: tuple[TraceTerm, ...]
    generic_sum: int
    cusp_sum: int
    elliptic_sum: int | None
    total: int | None
    partial: bool
    flags: tuple[str, ...]
    oracle: int | None = None
    residual: int | None = None
    dim_cusp_forms: int | None = None

    def _generic_pairs(self):
        """(lam, value) of each generic term, as Python ints."""
        return zip(self.generic_lams.tolist(),
                   map(self.generic_values.__getitem__, self.generic_index.tolist()))

    @property
    def terms(self) -> tuple[TraceTerm, ...]:
        """Every term: the generic lambdas ascending, then cusps, then elliptic terms."""
        return (*(TraceTerm(lam, "generic", v) for lam, v in self._generic_pairs()),
                *self.special_terms)

    def summary_json(self) -> dict:
        """to_json() without its "terms"."""
        return {
            "schema_version": 1,
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
        terms = [[str(lam), "generic", v] for lam, v in self._generic_pairs()]
        terms += ([str(t.lam), t.kind, t.value] for t in self.special_terms)
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
    fm = build_Fm(k // 2)
    table = datum_table(row.hd, ctx)
    lams, a = _a_gamma_values(row, ctx, np.arange(p), table)
    # a + p = d*t^2 with d | 6, so only O(sqrt p) distinct a occur
    distinct, index, counts = np.unique(a, return_inverse=True, return_counts=True)
    values = tuple(fm.evaluate(x, p) for x in distinct.tolist())
    generic_sum = sum(v * c for v, c in zip(values, counts.tolist()))

    special = []
    cusp_sum = 0
    for lam, order in row.lambda_special:
        if order == OO:
            special.append(TraceTerm(lam, "cusp", 1))
            cusp_sum += 1

    flags = []
    elliptic_sum = None
    total = None
    partial = True
    if row.a_rule == "row_246" and k == 6:
        esq = elliptic_square_value(table, row.hp_sign, row.hp_weight)
        e2 = p * (esq - p * p)
        special.append(TraceTerm(-3, "elliptic(2)", e2))
        chi_sum = ctx.legendre(-1) + ctx.legendre(-3) + ctx.legendre(-6)
        e46 = chi_sum * p ** 3
        special.append(TraceTerm(OO, "elliptic(4)+elliptic(6)", e46))
        elliptic_sum = e2 + e46
        total = generic_sum + cusp_sum + elliptic_sum
        partial = False
    else:
        for lam, order in row.lambda_special:
            if order != OO:
                special.append(TraceTerm(lam, f"elliptic({order})", None))
        flags.append("elliptic terms unavailable")

    dim_hint = 1 if (row.a_rule == "row_246" and k == 6) else None
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
    if row.a_rule == "row_246" and k == 6:
        fx = load_fixture_by_label("6.8.a.a")  # a malformed fixture raises FixtureError
        try:
            return -fx.coefficient(p)
        except KeyError:
            return None
    return None
