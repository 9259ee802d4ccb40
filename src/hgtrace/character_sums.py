"""Jacobi sums, the bracket symbol, the nP(n-1) period sum, the calibrated
finite-field hypergeometric function H_p, and the finite-field Clausen check.

Values are carried as double-precision complex numbers and snapped to exact
integers (or rationals with a p-power denominator) when a quantity is known to
be rational; the snap tolerance scales with the Weil magnitude of the
intermediates. Summed directly, a slot's brackets over all twists and a
datum's period sums over all lambda each cost O(p^2); both are discrete
Fourier transforms over the character group Z/(p-1) instead. The brackets are
one inverse DFT of a histogram over t, and the period sums at every nonzero
lambda are one inverse DFT of the datum's slot product. A datum costs
O(p log p), after which each lambda is a gather; slot tables are cached under
a byte bound. The finite-field Clausen check is read the same way: per
character pair (eta, K), three tables and a gather over t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import isqrt

import numpy as np

from .field_core import (ByteBoundedLRU, CongruenceError, FieldError,
                         MultCharacter, PrimeFieldCtx, build_ctx, is_prime,
                         power_residue_char)
from .hgm_data import HGDatum, is_defined_over_Q, level


def snap_tolerance(p: int, n: int = 3) -> float:
    """Absolute tolerance for snapping: scales with the Weil size sqrt(p)*n."""
    return 1e-6 * (p ** 0.5) * n


class SnapError(ArithmeticError):
    """A value asserted rational failed to snap."""


@dataclass(frozen=True)
class AlgebraicValue:
    """A complex character-sum value together with its exact snap, if any."""

    z: complex
    snapped: int | Fraction | None = None

    @classmethod
    def from_complex(cls, z: complex, tol: float) -> "AlgebraicValue":
        r = round(z.real)
        if abs(z.imag) < tol and abs(z.real - r) < tol:
            return cls(z=z, snapped=int(r))
        return cls(z=z, snapped=None)

    def expect_int(self, what: str = "value") -> int:
        if self.snapped is None or (isinstance(self.snapped, Fraction)
                                    and self.snapped.denominator != 1):
            raise SnapError(f"{what} did not snap to an integer: {self.z!r}")
        return int(self.snapped)


def _require_same_ctx(*chars: MultCharacter) -> PrimeFieldCtx:
    ctx = chars[0].ctx
    for ch in chars[1:]:
        if ch.ctx.p != ctx.p or ch.ctx.g != ctx.g:
            raise FieldError("characters live on mismatched field contexts")
    return ctx


def _jacobi_dlog_pairs(ctx: PrimeFieldCtx):
    """dlog pairs (dlog t, dlog(1-t)) over the t with t, 1-t both nonzero."""
    p = ctx.p
    t = np.arange(2, p, dtype=np.int64)
    return ctx.dlog[t], ctx.dlog[(1 - t) % p]


def _bracket_table(ctx: PrimeFieldCtx, e_a: int, e_b: int) -> np.ndarray:
    """bracket(A*chi^e, B*chi^e) for e = 0..n-1, as one inverse DFT.

    bracket(X, Y) = -Y(-1) * J(X, Ybar), and J(A*chi^e, Bbar*chibar^e) is the
    sum over t of zeta^(e_a d1 - e_b d2) * zeta^(e (d1 - d2)), with d1, d2 the
    paired dlogs of t and 1-t. Binning t at (d1 - d2) mod n turns the sum over
    t into the length-n DFT of that histogram. chi(-1) is the exponent parity,
    since dlog(-1) = n/2.
    """
    n = ctx.n
    d1, d2 = _jacobi_dlog_pairs(ctx)
    bins = (d1 - d2) % n
    w = ctx.zeta[(e_a * d1 - e_b * d2) % n]
    hist = (np.bincount(bins, weights=w.real, minlength=n)
            + 1j * np.bincount(bins, weights=w.imag, minlength=n))
    sign = np.where((e_b + np.arange(n)) % 2, 1.0, -1.0)
    out = sign * (n * np.fft.ifft(hist))
    out.setflags(write=False)
    return out


# The slot-table cache holds length-(p-1) complex arrays (16 bytes a point) and
# evicts least recently used tables while their bytes exceed this bound.
SLOT_CACHE_MAX_BYTES = 256 * 2 ** 20

# slot tables keyed by (p, g, ea, eb)
_SLOT_CACHE = ByteBoundedLRU()


def _slot_table(ctx: PrimeFieldCtx, ea: int, eb: int) -> np.ndarray:
    """bracket(A*chi_e, B*chi_e) over all e, for the slot (a-exp, b-exp)."""
    ea, eb = ea % ctx.n, eb % ctx.n
    return _SLOT_CACHE.get((ctx.p, ctx.g, ea, eb), lambda: _bracket_table(ctx, ea, eb),
                           SLOT_CACHE_MAX_BYTES)


def jacobi_sum(A: MultCharacter, B: MultCharacter) -> AlgebraicValue:
    """J(A, B) = sum over t in F_p of A(t) B(1-t), with the chi(0) = 0 convention."""
    ctx = _require_same_ctx(A, B)
    n = ctx.n
    if A.is_trivial and B.is_trivial:
        return AlgebraicValue(complex(ctx.p - 2), ctx.p - 2)
    d1, d2 = _jacobi_dlog_pairs(ctx)
    val = complex(np.sum(ctx.zeta[(A.e * d1 + B.e * d2) % n]))
    return AlgebraicValue.from_complex(val, snap_tolerance(ctx.p, 1))


def bracket(A: MultCharacter, B: MultCharacter) -> AlgebraicValue:
    """The binomial-style symbol -B(-1) * J(A, Bbar)."""
    _require_same_ctx(A, B)
    j = jacobi_sum(A, B.inverse())
    sign = -B.value_at_minus1()
    snapped = None if j.snapped is None else sign * j.snapped
    return AlgebraicValue(sign * j.z, snapped)


class BracketTable:
    """Per-datum product of slot tables and the period sum at every nonzero
    lambda, read off one inverse DFT of that product at dlog lambda.

    Slots beyond the first must list the trivial character in the b position of
    slot one (the period-sum convention B_1 = trivial).
    """

    def __init__(self, ctx: PrimeFieldCtx, a_exps, b_exps):
        if len(a_exps) != len(b_exps) or len(a_exps) < 2:
            raise ValueError("need equal-length slot lists with n >= 2")
        if b_exps[0] % ctx.n != 0:
            raise ValueError("first lower character must be trivial")
        self.ctx = ctx
        self.a_exps = [e % ctx.n for e in a_exps]
        self.b_exps = [e % ctx.n for e in b_exps]
        n = ctx.n
        slots = [_slot_table(ctx, ea, eb) for ea, eb in zip(self.a_exps, self.b_exps)]
        # prefactor prod_{i>=2}(-A_iB_i(-1)); chi(-1) is the exponent parity
        pref = 1
        for ea, eb in zip(self.a_exps[1:], self.b_exps[1:]):
            pref *= -(1 if ((ea + eb) * (n // 2)) % n == 0 else -1)
        self.prefactor = pref
        # the lambda = 0 branch: prod_{i>=2} bracket(A_i, B_i), each slot at e = 0
        self.delta_product = complex(np.prod([slot[0] for slot in slots[1:]]))
        # values[d] = prefactor/n * sum_e (slot product)[e] * zeta^(e d), the
        # period sum at the lambda with dlog d
        self.values = pref * np.fft.ifft(np.prod(slots, axis=0))

    def raw_value(self, lam: int) -> complex:
        """The period sum at lam (delta branch included at lam = 0)."""
        lam %= self.ctx.p
        if lam == 0:
            return self.prefactor * self.delta_product
        return complex(self.values[self.ctx.dlog[lam]])

    def sweep(self, lams) -> np.ndarray:
        """Raw values over many nonzero lambdas, aligned with lams."""
        ctx = self.ctx
        lams = np.asarray(lams, dtype=np.int64) % ctx.p
        if np.any(lams == 0):
            raise ValueError("sweep arguments must be nonzero (use raw_value for 0)")
        return self.values[ctx.dlog[lams]]


def np_sum(A: list[MultCharacter], B: list[MultCharacter], lam: int) -> AlgebraicValue:
    """The period function of the character lists at lam.

    The definition: the prefactor prod_{i>=2}(-A_iB_i(-1)) times
    [ (1/(q-1)) * sum over all chi of bracket(A_1 chi, chi) * prod_{i>=2}
    bracket(A_i chi, B_i chi) * chi(lam), plus the delta(lam) branch ],
    evaluated through the DFTs of BracketTable.
    """
    if len(A) != len(B):
        raise ValueError("character lists must have equal length")
    if not B or not B[0].is_trivial:
        raise ValueError("B_1 must be the trivial character")
    ctx = _require_same_ctx(*A, *B)
    table = BracketTable(ctx, [ch.e for ch in A], [ch.e for ch in B])
    val = table.raw_value(lam)
    return AlgebraicValue.from_complex(val, snap_tolerance(ctx.p, len(A)))


# ---------------------------------------------------------------------------
# Calibrated H_p


class CalibrationError(ArithmeticError):
    """No unique (sign, weight) satisfies the integrality invariants."""


def datum_char_exponents(hd: HGDatum, ctx: PrimeFieldCtx):
    """Exponents of iota(a_i), iota(b_j) (requires p = 1 mod level)."""
    M = level(hd)
    if (ctx.p - 1) % M:
        raise CongruenceError(f"p = {ctx.p} is not 1 mod level {M}")
    a_exps = [power_residue_char(ctx, a).e for a in hd.alpha]
    b_exps = [power_residue_char(ctx, b).e for b in hd.beta]
    return a_exps, b_exps


def datum_table(hd: HGDatum, ctx: PrimeFieldCtx) -> BracketTable:
    a_exps, b_exps = datum_char_exponents(hd, ctx)
    return BracketTable(ctx, a_exps, b_exps)


def hp_sum(hd: HGDatum, ctx: PrimeFieldCtx, t: int, sign: int, weight: int,
           table: BracketTable | None = None) -> AlgebraicValue:
    """H_p(hd; t) = sign * p^(-weight) * (period sum at t), for p = 1 mod level.

    The (sign, weight) normalization is fixed per datum by calibrate_hp_weight and
    persisted on the triangle-group table rows. Only data defined over Q are
    accepted (otherwise the value is not rational). The t = 1 value is the
    plain period sum at the degenerate fiber; the elliptic-point bookkeeping in
    trace_engine uses elliptic_square_value for that point instead.
    """
    if not is_defined_over_Q(hd):
        raise ValueError(f"datum {hd} is not defined over Q; H_p is not rational")
    if table is None:
        table = datum_table(hd, ctx)
    raw = table.raw_value(t)
    pw = ctx.p ** weight
    scaled = AlgebraicValue.from_complex(sign * raw, snap_tolerance(ctx.p, hd.n))
    if scaled.snapped is None:
        return AlgebraicValue(sign * raw / pw, None)
    snapped = Fraction(scaled.snapped, pw)
    if snapped.denominator == 1:
        snapped = int(snapped)
    return AlgebraicValue(sign * raw / pw, snapped)


def al_square_decompose(value: int, p: int, divisors=(1, 2, 3, 6)):
    """Return (d, t) with value + p = d * t^2 and d*t^2 <= 4p, or None.

    d = 1 is the plain perfect-square case; d in {2, 3, 6} occur at points
    whose Frobenius pair generates a real quadratic extension (the
    Atkin-Lehner classes of the group).
    """
    s = value + p
    if s < 0 or s > 4 * p:
        return None
    for d in divisors:
        if s % d == 0:
            t = isqrt(s // d)
            if d * t * t == s:
                return d, t
    return None


def _al_square_mask(s: np.ndarray, p: int, divisors=(1, 2, 3, 6)) -> np.ndarray:
    """Where an int64 array s = a + p has s = d*t^2 with d in divisors and
    0 <= s <= 4p: al_square_decompose over an array."""
    ok = np.zeros(s.shape, dtype=bool)
    for d in divisors:
        q = s // d
        t = np.rint(np.sqrt(np.maximum(q, 0))).astype(np.int64)
        ok |= (s == d * q) & (t * t == q)
    return ok & (s >= 0) & (s <= 4 * p)


def _lambda_chart(a_rule: str, ctx: PrimeFieldCtx, lams: np.ndarray):
    """A row's lambda chart over an int64 array of lambdas in [0, p):
    (args, chis, p_factor), read by local_traces.

    The local trace at lam is chi * p_factor * (period sum at arg), scaled by
    the row's (sign, w). The "cusp_row" chart reads arg = 1/lam with
    chi = phi(1 - arg) and p_factor = 1; the "row_246" chart reads arg = -3/lam
    with chi = phi(-3(1 + 3/lam)) and p_factor = p. chi is 0 exactly at the
    special lambdas, where no trace is defined: lam = 0 and the zero of chi.
    Inverses and Legendre symbols are gathers from the context's tables.
    """
    p, n = ctx.p, ctx.n
    inv = ctx.antilog[-ctx.dlog[lams] % n]  # meaningless at lam = 0, masked below
    if a_rule == "cusp_row":
        args, chi_args, p_factor = inv, (1 - inv) % p, 1
    elif a_rule == "row_246":
        args, chi_args, p_factor = -3 * inv % p, -3 * (1 + 3 * inv) % p, p
    else:
        raise ValueError(f"unknown a_rule {a_rule!r}")
    chis = np.where(lams == 0, 0, ctx.chi[chi_args])
    return args, chis, p_factor


def local_traces(a_rule: str, ctx: PrimeFieldCtx, table, lams: np.ndarray, n: int,
                 sign: int, weight: int, divisors=(1, 2, 3, 6)):
    """(generic lams, local traces) for an int64 array of lambdas in [0, p): the
    one route from a period sum to an exact local trace. The a_rule chart reads
    each lambda off table.sweep, scaled by sign * p_factor / p^weight; each value
    must snap within snap_tolerance(p, n) to an integer a with a + p = d*t^2 <= 4p
    for a d in divisors, or SnapError names the first lambda that fails.
    """
    p = ctx.p
    args, chis, p_factor = _lambda_chart(a_rule, ctx, lams)
    generic = chis != 0
    vals = table.sweep(args[generic]) * chis[generic] * (sign * p_factor / p ** weight)
    tol = snap_tolerance(p, n)
    snapped = np.round(vals.real)
    ok = (np.abs(vals.imag) < tol) & (np.abs(vals.real - snapped) < tol)
    lams = lams[generic]
    if not ok.all():
        i = int(np.argmin(ok))
        raise SnapError(f"a_Gamma({lams[i]}, {p}) did not snap to an integer: "
                        f"{complex(vals[i])!r}")
    a = snapped.astype(np.int64)
    ok = _al_square_mask(a + p, p, divisors)
    if not ok.all():
        i = int(np.argmin(ok))
        raise SnapError(f"a_Gamma({lams[i]}, {p}) snapped to {a[i]}, but a + p is not "
                        f"d*t^2 <= 4p with d in {divisors}")
    return lams, a


def calibration_primes(hd: HGDatum) -> tuple[int, ...]:
    """The sample primes of calibrate_hp_weight: the first three primes p > 5
    with p = 1 mod the datum's level."""
    M = level(hd)
    return tuple(islice((q for q in count(7) if (q - 1) % M == 0 and is_prime(q)), 3))


def calibrate_hp_weight(hd: HGDatum) -> tuple[int, int]:
    """Find the unique (sign, w) making the local traces exact integers in the
    Weil box [-p, 3p] with a + p = d*t^2 for some d | 6, at the
    calibration_primes.

    A candidate survives when local_traces, the routine behind a_Gamma, takes
    it at every sample prime on the "cusp_row" chart (all beta integral) or the
    "row_246" chart (the compact row's datum). A plain perfect-square criterion
    would reject the correct normalization at the Atkin-Lehner twisted points,
    so the d | 6 decomposition is the calibration invariant.
    Raises CalibrationError if no pair or several pairs survive.
    """
    primes = calibration_primes(hd)
    a_rule = "row_246" if any(b != 1 for b in hd.beta) else "cusp_row"

    def normalizes(sign, w):
        try:
            for p in primes:
                ctx = build_ctx(p)
                local_traces(a_rule, ctx, datum_table(hd, ctx), np.arange(p), hd.n, sign, w)
        except (CongruenceError, SnapError):
            return False
        return True

    survivors = [(sign, w) for sign in (1, -1) for w in (0, 1, 2) if normalizes(sign, w)]
    if not survivors:
        raise CalibrationError(f"no (sign, weight) normalizes {hd} over primes {primes}")
    if len(survivors) > 1:
        raise CalibrationError(f"ambiguous normalization for {hd}: {survivors}")
    return survivors[0]


def elliptic_square_value(table: BracketTable, sign: int, weight: int) -> int:
    """The exact integer standing for (p * H_p(hd; 1))^2 at the degenerate fiber.

    At t = 1 the local system drops rank; the fiber is a two-dimensional space
    whose Frobenius has trace tau1 = sign * p^(1-weight) * (period sum at 1) and
    determinant eps * p^2, where eps is +1 when the product of the second upper
    and lower characters is a square in the character group and -1 otherwise.
    The square of the single-eigenvalue surrogate used by the trace formula is
    then tau1^2 - eps * p^2 (so eigenvalues {p, -p} at eps = -1, where the
    period sum itself vanishes). table is the datum's datum_table. tau1 snaps
    within snap_tolerance(p, n), the tolerance of the local traces, which are
    values of the same size.
    """
    p = table.ctx.p
    tau1 = AlgebraicValue.from_complex(
        sign * p ** (1 - weight) * table.raw_value(1),
        snap_tolerance(p, len(table.a_exps))).expect_int("degenerate-fiber trace")
    # eps: square-ness of iota(a_2) * iota(b_2)
    eps = 1 if (table.a_exps[1] + table.b_exps[1]) % 2 == 0 else -1
    return tau1 * tau1 - eps * p * p


# ---------------------------------------------------------------------------
# Finite-field Clausen (the 3P2 <-> product-of-2P1 identity)


@dataclass(frozen=True)
class ClausenReport:
    p: int
    eta_exp: int
    K_exp: int
    t: int
    applicable: bool
    reason: str
    lhs: complex | None = None
    rhs: complex | None = None
    passed: bool | None = None


def clausen_reports(ctx: PrimeFieldCtx, eta: MultCharacter, K: MultCharacter,
                    ts) -> list[ClausenReport]:
    """Verify the finite-field Clausen identity at (eta, K) for every t in ts.

    Hypotheses: none of eta, K*phi, eta*K, eta*Kbar trivial. For t not 0 or 1,
    with eta*K = S^2, the identity satisfied by the literal period sums is

        phi(1-t) * 3P2(phi, eta, etabar; K, Kbar; t) = q - 2P1 * 2P1,

    and at t = 1 the sum vanishes when eta*K is a non-square, while in the
    square case it equals minus the Jacobi-sum expression
    J(etaK, etabarK)/J(phi, Kbar) * (J(S*Kbar, phi*Sbar)^2 + J(phi*S*Kbar, Sbar)^2).
    (Both branches differ by one overall sign from the commonly printed form;
    the test suite verifies the coded identity exhaustively.) Inadmissible
    inputs are reported, not raised.

    The three period sums are built once for the pair, as one BracketTable
    each (the 3P2 and the two 2P1), so every generic t is a gather of their
    values at dlog t; the t = 1 branch is one scalar np_sum. Reports are
    aligned with ts.
    """
    p = ctx.p
    ts = [t % p for t in ts]
    phi = ctx.quadratic_char

    def report(t, applicable, reason, lhs=None, rhs=None, passed=None):
        return ClausenReport(p=p, eta_exp=eta.e, K_exp=K.e, t=t, applicable=applicable,
                             reason=reason, lhs=lhs, rhs=rhs, passed=passed)

    bad = []
    if eta.is_trivial:
        bad.append("eta trivial")
    if (K * phi).is_trivial:
        bad.append("K*phi trivial")
    if (eta * K).is_trivial:
        bad.append("eta*K trivial")
    if (eta * K.inverse()).is_trivial:
        bad.append("eta*Kbar trivial")
    if bad:
        return [report(t, False, "; ".join(bad)) for t in ts]

    etaK = eta * K
    tol = snap_tolerance(p, 3) * p
    generic = np.array([t for t in ts if t > 1], dtype=np.int64)
    if etaK.is_square() and generic.size:
        S = etaK.sqrt()
        lhs3 = BracketTable(ctx, [phi.e, eta.e, -eta.e], [0, K.e, -K.e])
        r1 = BracketTable(ctx, [(phi * K * S.inverse()).e, S.e], [0, K.e]).sweep(generic)
        r2 = BracketTable(ctx, [(phi * K.inverse() * S).e, -S.e],
                          [0, -K.e]).sweep(generic)
        phi_1mt = ctx.chi[(1 - generic) % p]
        lhs = phi_1mt * lhs3.sweep(generic)
        rhs = p - r1 * r2
        swept = zip(lhs.tolist(), rhs.tolist(), (np.abs(lhs - rhs) < tol).tolist())

    out = []
    for t in ts:
        if t == 0:
            out.append(report(t, False, "t = 0 is outside the identity"))
        elif t == 1:
            out.append(report(t, True, *_clausen_at_one(ctx, eta, K, tol)))
        elif etaK.is_square():
            out.append(report(t, True, "t generic, etaK = S^2", *next(swept)))
        else:
            out.append(report(t, False, "etaK is not a square in the character group"))
    return out


def _clausen_at_one(ctx, eta, K, tol):
    """(reason, lhs, rhs, passed) of the t = 1 branch of clausen_reports."""
    phi = ctx.quadratic_char
    etaK = eta * K
    lhs3 = np_sum([phi, eta, eta.inverse()], [ctx.trivial_char, K, K.inverse()], 1).z
    if not etaK.is_square():
        return "t=1, etaK non-square", lhs3, 0j, abs(lhs3) < tol
    S = etaK.sqrt()
    num = jacobi_sum(etaK, eta.inverse() * K).z
    den = jacobi_sum(phi, K.inverse()).z
    j1 = jacobi_sum(S * K.inverse(), phi * S.inverse()).z
    j2 = jacobi_sum(phi * S * K.inverse(), S.inverse()).z
    rhs = -num / den * (j1 * j1 + j2 * j2)
    return "t=1, etaK = S^2", lhs3, rhs, abs(lhs3 - rhs) < tol


def clausen_sweep(ctx: PrimeFieldCtx):
    """All admissible Clausen checks over F_p. Yields ClausenReports.

    Each pair (eta, K) costs three O(p log p) tables, one gather over t and
    the scalar t = 1 branch, so the sweep costs O(p^3 log p) over the
    (p - 1)^2 pairs.
    """
    n = ctx.n
    ts = range(1, ctx.p)
    for eeta in range(n):
        for eK in range(n):
            for rep in clausen_reports(ctx, ctx.char(eeta), ctx.char(eK), ts):
                if rep.applicable:
                    yield rep
