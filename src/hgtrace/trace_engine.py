"""The symmetric-power trace polynomials F_m, the local traces a_Gamma, and the
assembled Hecke-operator trace formula over the triangle-group table.

Local traces are exact integers obtained by snapping the calibrated character
sums; any snap failure aborts the report rather than propagating noise. The
only elliptic-point contributions implemented are those of the compact
(2,4,6) row at k = 6, exactly in the displayed shape; every other (row, k)
yields a flagged partial report with an optional oracle residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .character_sums import (CalibrationError, HpCalibration, SnapError,
                             _al_square_mask, _lambda_chart, datum_table,
                             elliptic_square_value, snap_tolerance)
from .field_core import CongruenceError, PrimeFieldCtx, build_ctx
from .hgm_data import OO, TriangleGroupRow, row_by_signature
from .curve_lab import legendre_trace_sweep
from .modform_oracle import (FixtureError, level1_hecke_trace,
                             load_fixture_by_label)


# ---------------------------------------------------------------------------
# F_m polynomials


@dataclass(frozen=True)
class SymPolyFm:
    """F_m(S, T) with exact integer coefficients: coeffs[(i, j)] * S^i * T^j."""

    m: int
    coeffs: dict

    def evaluate(self, S: int, T: int) -> int:
        return sum(c * S ** i * T ** j for (i, j), c in self.coeffs.items())


def _poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
        if out[k] == 0:
            del out[k]
    return out


def _poly_shift(a: dict, di: int, dj: int) -> dict:
    return {(i + di, j + dj): v for (i, j), v in a.items()}


def build_Fm(m: int) -> SymPolyFm:
    """The degree-m polynomial with F_m(u^2+uv+v^2, uv) = sum_{i<=2m} u^i v^(2m-i).

    Built from the Chebyshev-style recursion P_k = e1 P_{k-1} - T P_{k-2} on
    the complete homogeneous sums, splitting P_k = E_k + e1 O_k and using
    e1^2 = S + T; F_m is the even part E_{2m}.
    """
    if m < 1:
        raise ValueError("m >= 1")
    E_prev2, O_prev2 = {(0, 0): 1}, {}     # P_0 = 1
    E_prev1, O_prev1 = {}, {(0, 0): 1}     # P_1 = e1
    for _ in range(2, 2 * m + 1):
        E_k = _poly_add(_poly_add(_poly_shift(O_prev1, 1, 0),
                                  _poly_shift(O_prev1, 0, 1)),
                        _poly_shift(E_prev2, 0, 1), sign=-1)
        O_k = _poly_add(E_prev1, _poly_shift(O_prev2, 0, 1), sign=-1)
        E_prev2, O_prev2 = E_prev1, O_prev1
        E_prev1, O_prev1 = E_k, O_k
    return SymPolyFm(m=m, coeffs=E_prev1)


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
    vals = _a_gamma_values(row, ctx, np.array([lam]), table)
    if lam not in vals:
        raise ValueError(f"lambda = {lam} is a special point of row {row.name}")
    return vals[lam]


def a_gamma_sweep(row: TriangleGroupRow, ctx: PrimeFieldCtx) -> dict[int, int]:
    """a_Gamma for every generic lam in F_p, via one vectorized sweep."""
    return _a_gamma_values(row, ctx, np.arange(ctx.p))


def _a_gamma_values(row: TriangleGroupRow, ctx: PrimeFieldCtx, lams: np.ndarray,
                    table=None) -> dict[int, int]:
    """a_Gamma at the generic lambdas of an int64 array of lambdas in [0, p),
    in their order; special lambdas are left out.

    Building the table raises CongruenceError unless p = 1 mod the level.
    """
    p = ctx.p
    if table is None:
        table = datum_table(row.hd, ctx)
    args, chis, p_factor = _lambda_chart(row.a_rule, ctx, lams)
    generic = chis != 0
    vals = table.sweep(args[generic]) * chis[generic] \
        * (row.hp_sign * p_factor / p ** row.hp_weight)
    tol = snap_tolerance(p, row.hd.n)
    snapped = np.round(vals.real)
    ok = (np.abs(vals.imag) < tol) & (np.abs(vals.real - snapped) < tol)
    lams = lams[generic]
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
    return dict(zip(lams.tolist(), a.tolist()))


# ---------------------------------------------------------------------------
# Legendre-cover identification for the (2,oo,oo) row


@dataclass(frozen=True)
class LegendreCalibration:
    map_label: str
    primes: tuple[int, ...]
    aliases: tuple[str, ...] = ()


def _scaled_cover_maps(c: int) -> dict:
    return {
        f"{c}*lam/(lam-1)^2": lambda l, p, inv: c * l % p * inv((l - 1) ** 2 % p) % p,
        f"{c}*lam^2/(lam-1)": lambda l, p, inv: c * l * l % p * inv((l - 1) % p) % p,
        f"{c}*lam*(1-lam)": lambda l, p, inv: c * l % p * ((1 - l) % p) % p,
    }


# Candidate maps R(lam', p, inv): the six Mobius maps, then degree-two pushes
# with small integer scalings.
_COVER_MAPS = {
    "lam": lambda l, p, inv: l % p,
    "1/lam": lambda l, p, inv: inv(l),
    "1-lam": lambda l, p, inv: (1 - l) % p,
    "1/(1-lam)": lambda l, p, inv: inv((1 - l) % p),
    "lam/(lam-1)": lambda l, p, inv: l * inv((l - 1) % p) % p,
    "(lam-1)/lam": lambda l, p, inv: (l - 1) % p * inv(l) % p,
    **{label: f for c in (1, -1, 2, -2, 4, -4, 8, -8, 16, -16)
       for label, f in _scaled_cover_maps(c).items()},
}


def legendre_relation(label: str, ctx: PrimeFieldCtx, a_row: dict, a_e):
    """Test a_Gamma(R(lam'), p) = a_E(lam')^2 - p at every Legendre-generic lam'.

    R is the cover map named label, a_row the (2,oo,oo) row's a_gamma_sweep
    and a_e the legendre_trace_sweep, both at p. A lam' where R is undefined or
    lands on a special lambda of the row is skipped. Returns (bad, held): the
    first lam' where the relation fails (None if there is none) and the
    (R(lam'), a_Gamma) pairs at which it held before that.
    """
    p, f = ctx.p, _COVER_MAPS[label]
    held = []
    for lamp in range(2, p):
        try:
            target = f(lamp, p, ctx.inv)
        except ZeroDivisionError:
            continue
        if target not in a_row:
            continue
        if a_row[target] != int(a_e[lamp]) ** 2 - p:
            return lamp, held
        held.append((target, a_row[target]))
    return None, held


def calibrate_legendre_relation(primes=(7, 11, 13)) -> LegendreCalibration:
    """Identify the map R from the Legendre parameter to the row coordinate with
    a_Gamma(R(lam'), p) = a_E(lam')^2 - p for every Legendre-generic lam'.

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
    for p in primes:
        ctx = build_ctx(p)
        a_row = a_gamma_sweep(row, ctx)
        a_e = legendre_trace_sweep(ctx)
        for name in list(survivors):
            bad, held = legendre_relation(name, ctx, a_row, a_e)
            if bad is not None or not held:
                survivors.discard(name)
            correspondences[name].update((p, target, a) for target, a in held)
    if not survivors:
        raise CalibrationError("no consistent legendre identification found")
    names = sorted(survivors)
    if len({frozenset(correspondences[n]) for n in names}) != 1:
        raise CalibrationError(
            f"survivors induce different correspondences: {names}")
    return LegendreCalibration(map_label=names[0], primes=tuple(primes),
                               aliases=tuple(names[1:]))


# ---------------------------------------------------------------------------
# Hecke trace reports


@dataclass(frozen=True)
class TraceTerm:
    lam: object  # int or OO
    kind: str    # "generic" | "cusp" | "elliptic(n)"
    value: int | None


@dataclass(frozen=True)
class TraceReport:
    signature: tuple
    p: int
    k: int
    weight: int
    terms: tuple[TraceTerm, ...]
    generic_sum: int
    cusp_sum: int
    elliptic_sum: int | None
    total: int | None
    partial: bool
    flags: tuple[str, ...]
    oracle: int | None = None
    residual: int | None = None
    dim_cusp_forms: int | None = None

    def to_json(self) -> dict:
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
            "terms": [[str(t.lam), t.kind, t.value] for t in self.terms],
        }


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
    a_vals = a_gamma_sweep(row, ctx)
    # a + p = d*t^2 with d | 6, so only O(sqrt p) distinct a occur
    fm_at = {a: fm.evaluate(a, p) for a in set(a_vals.values())}

    terms = [TraceTerm(lam, "generic", fm_at[a]) for lam, a in a_vals.items()]
    generic_sum = sum(fm_at[a] for a in a_vals.values())

    cusp_sum = 0
    for lam, order in row.lambda_special:
        if order == OO:
            terms.append(TraceTerm(lam, "cusp", 1))
            cusp_sum += 1

    flags = []
    elliptic_sum = None
    total = None
    partial = True
    if row.a_rule == "row_246" and k == 6:
        calib = HpCalibration(sign=row.hp_sign, weight=row.hp_weight, primes=())
        esq = elliptic_square_value(row.hd, ctx, calib)
        e2 = p * (esq - p * p)
        terms.append(TraceTerm(-3, "elliptic(2)", e2))
        chi_sum = ctx.legendre(-1) + ctx.legendre(-3) + ctx.legendre(-6)
        e46 = chi_sum * p ** 3
        terms.append(TraceTerm(OO, "elliptic(4)+elliptic(6)", e46))
        elliptic_sum = e2 + e46
        total = generic_sum + cusp_sum + elliptic_sum
        partial = False
    else:
        for lam, order in row.lambda_special:
            if order != OO:
                terms.append(TraceTerm(lam, f"elliptic({order})", None))
        flags.append("elliptic terms unavailable")

    dim_hint = 1 if (row.a_rule == "row_246" and k == 6) else None
    oracle = _oracle_total(row, p, k)
    residual = None if oracle is None else (
        (total if total is not None else generic_sum + cusp_sum) - oracle)

    return TraceReport(
        signature=row.signature, p=p, k=k, weight=k + 2,
        terms=tuple(terms), generic_sum=generic_sum, cusp_sum=cusp_sum,
        elliptic_sum=elliptic_sum, total=total, partial=partial,
        flags=tuple(flags), oracle=oracle, residual=residual,
        dim_cusp_forms=dim_hint)


def _oracle_total(row: TriangleGroupRow, p: int, k: int) -> int | None:
    """Independent -Tr(T_p | S_(k+2)) where one is available."""
    if row.signature == (2, 3, OO) and k + 2 >= 12:
        return -level1_hecke_trace(k + 2, p)
    if row.a_rule == "row_246" and k == 6:
        try:
            fx = load_fixture_by_label("6.8.a.a")
            return -fx.coefficient(p)
        except (FixtureError, KeyError):
            return None
    return None
