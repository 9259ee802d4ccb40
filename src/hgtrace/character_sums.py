"""The bracket symbol, the nP(n-1) period sum, the finite-field
hypergeometric function H_p, and the finite-field Clausen check.

H_p is the period sum times a sign and a power of p. Each triangle-group row
persists that normalization, and trace_engine reads the row's local traces
off the normalized period sums.

Values are carried as double-precision complex numbers and snapped to exact
integers (or rationals with a p-power denominator) when a quantity is known to
be rational; the snap tolerance scales with the Weil magnitude of the
intermediates. Every character sum is read off the context's Gauss sums
ctx.gauss, one inverse DFT over the character group Z/(p-1) per context.
Summed directly, a slot's brackets over all twists and a datum's period sums
over all lambda each cost O(p^2); instead a slot row is two windows of one
Gauss vector times one scalar, -g[a + e] * conj g[b + e] / g[a - b] over the
twists e, and the period sums at every nonzero lambda are one inverse DFT of
the datum's slot product. A datum costs O(p log p), after which each lambda
is a gather. A datum's slot tables are one bracket-table call over its slots,
built when the datum's table is and dropped with it; a repeated slot is a
repeated row. The finite-field Clausen check is read the same way: for each
eta, the square pairs (eta, K) are one batch of tables and a gather over t,
and its four t = 1 Jacobi sums are g[x] g[y] / g[x + y].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import isqrt

import numpy as np

from .field_core import CongruenceError, FieldError, MultCharacter, PrimeFieldCtx, is_prime
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


def _jacobi(ctx: PrimeFieldCtx, x, y) -> np.ndarray:
    """J(chi^x, chi^y) = sum over t of chi^x(t) * chi^y(1-t), elementwise over
    the int arrays x, y: g[x] * g[y] / g[x + y], where g[0] = -1 covers one
    trivial character. Where x + y = 0 it is -chi^x(-1), or p - 2 at x = 0;
    chi(-1) is the exponent parity, since dlog(-1) = n/2."""
    n, g = ctx.n, ctx.gauss
    x, y = np.asarray(x) % n, np.asarray(y) % n
    s = (x + y) % n
    out = g[x] * g[y] / g[s]
    inverse = s == 0
    out[inverse] = np.where(x[inverse] == 0, ctx.p - 2, np.where(x[inverse] % 2, 1.0, -1.0))
    return out


def _bracket_table(ctx: PrimeFieldCtx, e_a, e_b) -> np.ndarray:
    """bracket(A*chi^e, B*chi^e) for e = 0..n-1, one row for each pair of
    exponents (a, b) = (e_a[i], e_b[i]) of the int arrays e_a, e_b: shape (m, n).

    bracket(X, Y) = -Y(-1) * J(X, Ybar) and J(chi^x, chi^y) = g[x] g[y] / g[x + y];
    at the twist e, x = a + e and y = -b - e, so x + y = a - b for every e.
    Since g[-m] = (-1)^m * conj g[m], the signs cancel and the row is
    -g[a + e] * conj g[b + e] / g[a - b]: windows at a and b of ctx.gauss
    written twice, and one scalar per row. Where a = b the row is 1, and
    2 - p at e = -a.
    """
    n, g = ctx.n, ctx.gauss
    e_a, e_b = np.ravel(e_a) % n, np.ravel(e_b) % n
    twice = np.concatenate([g, g])
    # window[k] = twice[k:k + n], a view as in curve_lab._lam_grids; the
    # ndarray constructor costs a fraction of as_strided on tiny tables
    window = np.ndarray((n, n), twice.dtype, twice, 0, twice.strides * 2)
    out = window[e_a]
    np.conj(twice, out=twice)  # the windows now read conj g
    out *= window[e_b]
    out *= (-1 / g[(e_a - e_b) % n])[:, None]
    same = np.flatnonzero(e_a == e_b)
    out[same] = 1
    out[same, -e_a[same] % n] = 2 - ctx.p
    out.setflags(write=False)
    return out


class BracketTable:
    """Per-datum product of slot tables and the period sum at every nonzero
    lambda, read off one inverse DFT of that product at dlog lambda. The slot
    tables are one _bracket_table call: each row two windows of ctx.gauss and
    one scalar.

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
        slots = _bracket_table(ctx, self.a_exps, self.b_exps)
        # prefactor prod_{i>=2}(-A_iB_i(-1)); chi(-1) is the exponent parity
        pref = 1
        for ea, eb in zip(self.a_exps[1:], self.b_exps[1:]):
            pref *= -(1 if ((ea + eb) * (n // 2)) % n == 0 else -1)
        self.prefactor = pref
        # the lambda = 0 branch: prod_{i>=2} bracket(A_i, B_i), each slot at e = 0
        self.delta_product = complex(np.prod(slots[1:, 0]))
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
# H_p


def datum_char_exponents(hd: HGDatum, ctx: PrimeFieldCtx):
    """Exponents of iota(a_i), iota(b_j) (requires p = 1 mod level): iota(a)
    has exponent a*(p-1) mod p-1, so its value at the generator is exp(2 pi i a)."""
    M = level(hd)
    if (ctx.p - 1) % M:
        raise CongruenceError(f"p = {ctx.p} is not 1 mod level {M}")
    n = ctx.n
    a_exps = [a.numerator * (n // a.denominator) % n for a in hd.alpha]
    b_exps = [b.numerator * (n // b.denominator) % n for b in hd.beta]
    return a_exps, b_exps


def datum_table(hd: HGDatum, ctx: PrimeFieldCtx) -> BracketTable:
    a_exps, b_exps = datum_char_exponents(hd, ctx)
    return BracketTable(ctx, a_exps, b_exps)


def hp_sum(hd: HGDatum, ctx: PrimeFieldCtx, t: int, sign: int, weight: int) -> AlgebraicValue:
    """H_p(hd; t) = sign * p^(-weight) * (period sum at t), for p = 1 mod level.

    The (sign, weight) normalization of a table row's datum is persisted on
    the row, and `hgtrace calibrate hp` checks it. Only data defined over Q are
    accepted (otherwise the value is not rational). The t = 1 value is the
    plain period sum at the degenerate fiber; the elliptic-point bookkeeping in
    trace_engine uses elliptic_square_value for that point instead.
    """
    if not is_defined_over_Q(hd):
        raise ValueError(f"datum {hd} is not defined over Q; H_p is not rational")
    raw = datum_table(hd, ctx).raw_value(t)
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


def calibration_primes(hd: HGDatum) -> tuple[int, ...]:
    """The sample primes of `hgtrace calibrate hp`: the first three primes
    p > 5 with p = 1 mod the datum's level."""
    M = level(hd)
    return tuple(islice((q for q in count(7) if (q - 1) % M == 0 and is_prime(q)), 3))


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


def _clausen_columns(ctx: PrimeFieldCtx, eeta: int, eKs, ts):
    """The finite-field Clausen identity at (chi^eeta, chi^eK) for each eK of
    the int array eKs: one tuple of columns (t, lhs, rhs, passed) per eK, over
    the t in ts where it applies, in the order of ts.

    Hypotheses: none of eta, K*phi, eta*K, eta*Kbar trivial; no t applies to
    an inadmissible pair, and t = 0 never applies. For t not 0 or 1, with
    eta*K = S^2, the identity satisfied by the literal period sums is

        phi(1-t) * 3P2(phi, eta, etabar; K, Kbar; t) = q - 2P1 * 2P1,

    and at t = 1 the sum vanishes when eta*K is a non-square, while in the
    square case it equals minus the Jacobi-sum expression
    J(etaK, etabarK)/J(phi, Kbar) * (J(S*Kbar, phi*Sbar)^2 + J(phi*S*Kbar, Sbar)^2).
    (Both branches differ by one overall sign from the commonly printed form;
    the test suite verifies the coded identity exhaustively.) When eta*K is a
    non-square only t = 1 applies, read off one np_sum, the definition.
    passed is |lhs - rhs| < snap_tolerance(p, 3) * p.

    The square pairs are one batch. One _bracket_table call gives their slot
    rows, with the 3P2's first slot (phi, 1) as one more row, and one _jacobi
    call their four Jacobi sums. Each period sum is its slot product under one
    row-wise inverse DFT, read at dlog t (dlog 1 = 0). The prefactors drop
    out, since eta*K is a square: the 3P2's is 1 and the 2P1 share theirs.
    """
    p, n, h = ctx.p, ctx.n, ctx.n // 2
    eeta, tol = eeta % n, snap_tolerance(p, 3) * p
    eKs, ts = np.asarray(eKs, dtype=np.int64) % n, np.asarray(ts, dtype=np.int64) % p
    admissible = (eeta != 0) & (eKs != h) & ((eeta + eKs) % n != 0) & (eKs != eeta)
    square = (eeta + eKs) % 2 == 0
    columns = [(ts[:0], np.zeros(0, complex), np.zeros(0, complex), np.zeros(0, bool))] * len(eKs)
    rows = np.flatnonzero(admissible & square)
    if rows.size:
        eK = eKs[rows]
        eS, e0 = (eeta + eK) % n // 2, np.zeros_like(eK)
        # slot rows (A, B) of the 3P2 and the two 2P1, then the one (phi, 1)
        # row that every pair's 3P2 shares
        tables = _bracket_table(
            ctx, np.concatenate([e0 + eeta, e0 - eeta, h + eK - eS, eS, h - eK + eS, -eS, [h]]),
            np.concatenate([eK, -eK, e0, eK, e0, -eK, [0]]))
        phi_slot, tables = tables[-1], tables[:-1].reshape(6, rows.size, n)
        lhs3, r1, r2 = np.fft.ifft([phi_slot * tables[0] * tables[1],
                                    tables[2] * tables[3], tables[4] * tables[5]], axis=-1)
        # J(etaK, etabarK), J(phi, Kbar), J(S Kbar, phi Sbar), J(phi S Kbar, Sbar)
        j = _jacobi(ctx, [eeta + eK, e0 + h, eS - eK, h + eS - eK], [eK - eeta, -eK, h - eS, -eS])
        sq_ts = ts[ts != 0]
        d, at_one = ctx.dlog[sq_ts], sq_ts == 1
        lhs = ctx.chi[(1 - sq_ts) % p] * lhs3[:, d]
        rhs = p - r1[:, d] * r2[:, d]
        lhs[:, at_one] = lhs3[:, :1]
        rhs[:, at_one] = (-j[0] / j[1] * (j[2] * j[2] + j[3] * j[3]))[:, None]
        passed = np.abs(lhs - rhs) < tol
        for i, k in enumerate(rows):
            columns[k] = (sq_ts, lhs[i], rhs[i], passed[i])
    ones = ts[ts == 1]
    if ones.size:
        phi, eta = ctx.quadratic_char, ctx.char(eeta)
        for k in np.flatnonzero(admissible & ~square):
            K = ctx.char(int(eKs[k]))
            lhs = np.full(ones.size, np_sum([phi, eta, eta.inverse()],
                                            [ctx.trivial_char, K, K.inverse()], 1).z)
            columns[k] = (ones, lhs, np.zeros_like(lhs), np.abs(lhs) < tol)
    return columns


def clausen_sweep(ctx: PrimeFieldCtx):
    """Every admissible Clausen check over F_p: for each pair (eta, K), yields
    ((eta exponent, K exponent), _clausen_columns over t = 1 .. p - 1); an
    inadmissible pair's columns are empty. The tables are gathers and numpy's
    inverse DFT works row by row, so a pair's columns are bit-identical to
    those of a _clausen_columns call at that pair alone. The sweep is n = p - 1
    numpy passes, one _clausen_columns call over every K for each eta,
    O(p^3 log p) in all; the np_sum of each non-square pair is about half of
    it (0.34 of 0.64 s at p = 101, in process on a 2-core host)."""
    ts, eKs = np.arange(1, ctx.p), np.arange(ctx.n)
    for eeta in range(ctx.n):
        for eK, columns in enumerate(_clausen_columns(ctx, eeta, eKs, ts)):
            yield (eeta, eK), columns
