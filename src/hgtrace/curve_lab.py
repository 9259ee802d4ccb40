"""Brute-force point-counting oracles for the four curve families that check
the triangle-group rows: the Legendre curves, the universal-j family, the
superelliptic models y^N = x^a (x-1)^b (x-lam)^c and the Baba-Granath
genus-2 QM curves.

All counts are of smooth projective models. For superelliptic models
y^N = f(x) the completion convention is explicit: above a point where the
local equation is y^N = u0 * s^m (u0 a unit), write e = gcd(N, m); the
rational places there are the w in F_p with w^e = u0, so there are
gcd(e, p - 1) of them when u0 is an e-th power and none otherwise.
Specialized to hyperelliptic sextics this is the familiar rule "2 points at
infinity iff the leading coefficient is a square" (1 for a quintic), and a
simple zero of f always contributes exactly one place.

The counts over F_p are direct sums, O(p) per curve: a batch of y^2 curves
is one Horner pass, and a superelliptic model at every lambda of a prime one
blocked (lambda, x) grid, counted by dlog sums and again by characters. The
Legendre traces for every lambda are one cyclic correlation mod p instead,
O(p log p) by real FFTs under two exact guards. Over F_{p^2} a batch of
curves is at most two passes over the points, each curve a row of float64
matmuls exact below 2^53: the curves with coefficients in F_p need only half
of F_{p^2}, since x and its conjugate give conjugate values of f, and their
norms are reduced once per point, exact in int64 below 2^63. The two
s-branches of a Baba-Granath sextic at j are isomorphic over F_{p^2} under
x -> t/x, so baba_granath_qm_sweep counts one of them there and the other
reads that count once its coefficients are checked to be the transform.

The Baba-Granath genus-2 sextics are written down in closed form. Their
discriminant vanishes for p > 5 only at the two j that baba_granath_curve
returns as degenerate, so no sextic is tested for squarefreeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .character_sums import SnapError
from .field_core import FieldError, PrimeFieldCtx, QuadExtCtx, tonelli_sqrt


@dataclass(frozen=True)
class CurveCount:
    """A point count over F_q, with trace = q + 1 - n_points for most families.

    For Baba-Granath genus-2 curves over F_p, trace holds the half-trace t with
    p + 1 - #C(F_p) = 2t (the trace of one factor of the split quaternionic
    shape), or None when p + 1 - #C(F_p) is odd.
    """

    q: int
    n_points: int
    trace: int | None = None
    good: bool = True
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# y^2 = f(x), each counted by one vectorized sum


# The counters evaluate a block of (row, point) or (lam, x) pairs at a time,
# about this many, so a block adds a few MB to the process at any p. Over
# F_{p^2} the power basis's rows count with the coefficient rows.
_BLOCK = 2 ** 16


def _count_y2(ctx: PrimeFieldCtx, rows) -> list[int]:
    """Points of the smooth models of y^2 = f(x) over F_p, one count per
    coefficient row, in the order of the rows.

    A row runs from degree d = len(row) - 1 down to 0; a block of rows is
    evaluated on all of F_p by one Horner pass over a rows x p array. Infinity
    gives one place for odd d and 1 + chi(lead) for even d (one place when the
    lead vanishes: the degree dropped to d - 1).
    """
    p, chi = ctx.p, ctx.chi
    a = np.asarray(rows, dtype=np.int64) % p
    x = np.arange(p, dtype=np.int64)
    step = max(1, _BLOCK // p)
    chi_sum = []
    for r0 in range(0, len(a), step):
        block = a[r0:r0 + step]
        v = np.zeros((len(block), p), dtype=np.int64)
        for k in range(a.shape[1]):
            v = _reduce(v * x + block[:, k, None], p)
        chi_sum += chi[v].sum(axis=1, dtype=np.int64).tolist()
    at_inf = 1 + (chi[a[:, 0]] if a.shape[1] % 2 else 0)
    return (p + np.array(chi_sum, dtype=np.int64) + at_inf).tolist()


def _reduce(v: np.ndarray, p: int) -> np.ndarray:
    """v mod p in place, for an int64 array v of either sign.

    numpy's floor_divide by a scalar is several times faster than its
    remainder, and v - (v // p) * p is exact for negative v too.
    """
    v -= v // p * p
    return v


def _count_y2_fp2(ext: QuadExtCtx, rows_re, rows_im) -> list[int]:
    """Points of the smooth models of y^2 = f(x) over F_{p^2} = F_p(sqrt(nu)),
    one count per coefficient row, in the order of the rows.

    The coefficients re + im*sqrt(nu) of each row are given as rows_re,
    rows_im in the order of _count_y2, with the same rule at infinity.
    z != 0 is a square iff its norm re^2 - nu*im^2 is a square in F_p, and the
    norm vanishes only at 0. A block of points x = u + w*sqrt(nu) is the power
    basis x^k = X_k + Y_k sqrt(nu), and every row is read off it by float64
    matmuls, which are exact while a row's sums M = n_coef * (p - 1)^2 stay
    below 2^53. When every coefficient of a row lies in F_p, f(x) and f(xbar)
    are conjugate and have the same norm, so only w in [0, (p - 1)/2] is
    evaluated and each w > 0 counts twice; the norm is taken of the unreduced
    sums and reduced once, exact in int64 while nu * M^2 < 2^63. As nu >= 2,
    that bound gives M < 2^31, so it implies the first and is the one checked:
    past it FieldError is raised before any point is evaluated. The rows in
    F_p are one pass and the others a second.
    """
    p, nu = ext.base.p, ext.nu
    a_re = np.asarray(rows_re, dtype=np.int64) % p
    a_im = np.asarray(rows_im, dtype=np.int64) % p
    n_rows, n_coef = a_re.shape
    if nu * (n_coef * (p - 1) ** 2) ** 2 >= 2 ** 63:
        raise FieldError(f"{n_coef} coefficients at p = {p}: the F_p2 count needs float64 "
                         "sums below 2^53 and int64 norms below 2^63")
    in_fp = ~a_im.any(axis=1)
    if in_fp.any() and not in_fp.all():
        counts = np.empty(n_rows, dtype=np.int64)
        for rows in (in_fp, ~in_fp):
            counts[rows] = _count_y2_fp2(ext, a_re[rows], a_im[rows])
        return counts.tolist()
    real = not a_im.any()
    n_points = p * ((p + 1) // 2 if real else p)
    step = max(1, _BLOCK // (n_rows + 2 * n_coef))
    f_re, f_im = a_re.astype(np.float64), a_im.astype(np.float64)
    chi = ext.base.chi
    chi_sum = np.zeros(n_rows, dtype=np.int64)
    for i0 in range(0, n_points, step):
        idx = np.arange(i0, min(i0 + step, n_points), dtype=np.int64)
        u, w = idx % p, idx // p
        # row k holds x^(n_coef - 1 - k), matching the coefficient order
        X = np.empty((n_coef, len(idx)), dtype=np.int64)
        Y = np.empty_like(X)
        X[-1], Y[-1] = 1, 0
        for k in range(n_coef - 2, -1, -1):
            X[k] = _reduce(X[k + 1] * u + _reduce(nu * Y[k + 1], p) * w, p)
            Y[k] = _reduce(X[k + 1] * w + Y[k + 1] * u, p)
        X, Y = X.astype(np.float64), Y.astype(np.float64)
        vr, vi = (f_re @ X).astype(np.int64), (f_re @ Y).astype(np.int64)
        if not real:
            vr += nu * _reduce((f_im @ Y).astype(np.int64), p)
            vi += (f_im @ X).astype(np.int64)
            _reduce(vr, p)
            _reduce(vi, p)
        # the norm vr^2 - nu*vi^2, in place: these (row, point) arrays are the
        # block's memory. Unreduced (rows in F_p) it lies within the 2^63 guard;
        # reduced, |norm| < p^3
        vr *= vr
        vi *= vi
        vi *= nu
        vr -= vi
        c = chi[_reduce(vr, p)]
        block_sum = c.sum(axis=1, dtype=np.int64)
        if real:  # the points with w = 0 are the first p and count once
            block_sum = 2 * block_sum - c[:, :max(0, p - i0)].sum(axis=1, dtype=np.int64)
        chi_sum += block_sum
    lead = (a_re[:, 0] * a_re[:, 0] - nu * a_im[:, 0] * a_im[:, 0]) % p
    at_inf = 1 + (chi[lead] if n_coef % 2 else 0)
    return (p * p + chi_sum + at_inf).tolist()


# ---------------------------------------------------------------------------
# Family counters over F_p


def count_legendre(ctx: PrimeFieldCtx, lam: int) -> CurveCount:
    """y^2 = x(x-1)(x-lam), one point at infinity; the trace is read from
    legendre_trace_sweep."""
    p = ctx.p
    lam %= p
    if lam in (0, 1):
        return CurveCount(p, 0, None, good=False,
                          flags=("bad reduction: lambda(1-lambda) = 0",))
    trace = int(legendre_trace_sweep(ctx)[lam])
    return CurveCount(p, p + 1 - trace, trace)


# legendre_trace_sweep accepts a correlation value this close to an integer;
# the measured worst distance is 1e-13 at p = 1009 and 1.7e-12 at p ~ 10^5.
_LEGENDRE_ROUND_TOL = 0.25


def _legendre_correlation(ctx: PrimeFieldCtx) -> np.ndarray:
    """c(lam) = sum_x chi(x(x-1)) chi(x-lam) for every lam in F_p, in floating
    point: the cyclic correlation of g(x) = chi(x(x-1)) with chi, one real FFT
    of each and one inverse."""
    chi = ctx.chi.astype(np.float64)
    g = chi * np.roll(chi, 1)  # chi(x) chi(x-1)
    return np.fft.irfft(np.fft.rfft(g) * np.conj(np.fft.rfft(chi)), n=ctx.p)


@lru_cache(maxsize=1)
def legendre_trace_sweep(ctx: PrimeFieldCtx) -> np.ndarray:
    """Traces a_E(lam) = -sum_x chi(x(x-1)(x-lam)) for every lam in F_p, as a
    read-only int64 array (at 0 and 1 the same sum, of a singular curve).

    The sum is a cyclic correlation mod p (_legendre_correlation), rounded
    under two exact guards that raise SnapError: every value must lie within
    _LEGENDRE_ROUND_TOL of an integer, and p + 1 - a_E(lam) must be divisible
    by 4 for lam not in {0, 1}, since all 2-torsion of a Legendre curve is
    rational; an error of +-1 or +-2 cannot pass the second. The result is
    memoised for the most recent context.
    """
    p = ctx.p
    c = _legendre_correlation(ctx)
    rounded = np.rint(c)
    off = np.abs(c - rounded)
    if off.max() > _LEGENDRE_ROUND_TOL:
        lam = int(off.argmax())
        raise SnapError(f"Legendre correlation at lam = {lam}, p = {p} is "
                        f"{c[lam]!r}, not within {_LEGENDRE_ROUND_TOL} of an integer")
    traces = -rounded.astype(np.int64)
    bad = np.flatnonzero((p + 1 - traces[2:]) % 4)
    if bad.size:
        lam = int(bad[0]) + 2
        raise SnapError(f"Legendre trace a_E({lam}) = {traces[lam]} at p = {p}: "
                        f"p + 1 - a_E is not divisible by 4")
    traces.flags.writeable = False
    return traces


def count_legendre_fp2(ext: QuadExtCtx, lam: int) -> CurveCount:
    """Legendre count over F_{p^2}, for lam in F_p."""
    p, q = ext.base.p, ext.q
    lam %= p
    if lam in (0, 1):
        return CurveCount(q, 0, None, good=False,
                          flags=("bad reduction: lambda(1-lambda) = 0",))
    cnt, = _count_y2_fp2(ext, [(1, -1 - lam, lam, 0)], [(0, 0, 0, 0)])
    return CurveCount(q, cnt, q + 1 - cnt)


def count_universal_j(ctx: PrimeFieldCtx, j: int) -> CurveCount:
    """The family with j-invariant j: y^2 + xy = x^3 - (36x + 1)/(j - 1728)."""
    p = ctx.p
    j %= p
    if j == 0 or j == 1728 % p:
        return CurveCount(p, 0, None, good=False,
                          flags=("bad reduction: j in {0, 1728}",))
    c = ctx.inv(j - 1728)
    # complete the square: (y + x/2)^2 = x^3 + x^2/4 - (36x + 1) c
    cnt, = _count_y2(ctx, [(1, ctx.inv(4), -36 * c, -c)])
    return CurveCount(p, cnt, p + 1 - cnt)


# ---------------------------------------------------------------------------
# Superelliptic y^N = x^a (x-1)^b (x-lam)^c


def _lam_grids(table, lams):
    """Blocks of about _BLOCK entries of the (lam, x) grid table[(x - lam) % p],
    each lam's row copied from a window (only read) over table written twice."""
    p, twice = len(table), np.concatenate([table, table])
    window = np.lib.stride_tricks.as_strided(twice, (p + 1, p), twice.strides * 2)
    step = max(1, _BLOCK // p)
    for i in range(0, max(len(lams), 1), step):
        yield window[p - lams[i:i + step]]


def _superelliptic_args(p, exps, lams):
    """Exponents mod p - 1 (each factor counted is a unit), lams as int64 mod p."""
    lams = np.asarray(lams, dtype=np.int64) % p
    if (lams < 2).any():
        raise FieldError("lambda in {0, 1} is a bad-reduction fiber")
    return [m % (p - 1) for m in exps], lams


def _boundary_places(ctx, N, a, b, c, lams):
    """Places above 0, 1, lam and infinity per lam: d = gcd(N, m, p - 1) above a
    root of multiplicity m when d divides dlog of its unit u0, else none. A
    negative index i reads dlog[i + p]."""
    p, dlog = ctx.p, ctx.dlog
    cnt = gcd(N, a + b + c, p - 1)  # infinity, where the model is monic
    for m, log_u0 in ((a, b * dlog[-1] + c * dlog[-lams]),  # u0 = (-1)^b (-lam)^c
                      (b, c * dlog[1 - lams]),
                      (c, a * dlog[lams] + b * dlog[lams - 1])):
        d = gcd(N, m, p - 1)
        cnt += d * (log_u0 % d == 0)
    return cnt


def gen_legendre_counts(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int,
                        lams) -> np.ndarray:
    """Smooth-model counts of y^N = x^a (x-1)^b (x-lam)^c over F_p, one per lam.

    Off the roots the fiber over x has e = gcd(N, p - 1) points when
    a dlog x + b dlog(x - 1) + c dlog(x - lam) is 0 mod e, else none: one
    vector over x against a (lam, x) grid (_lam_grids), so each lam is O(p)
    and every lam of a prime one pass. Above the roots, _boundary_places.
    """
    p = ctx.p
    (a, b, c), lams = _superelliptic_args(p, (a, b, c), lams)
    e = gcd(N, p - 1)
    dl = ctx.dlog % e
    # dl[x - 1] is dlog(x - 1), index -1 wrapping to p - 1; the value e matches
    # nothing: it marks x = 0, 1 on one side and x = lam on the other
    want, have = -(a * dl + b * dl[np.arange(-1, p - 1)]) % e, c * dl % e
    want[:2] = have[0] = e
    fibers = [np.count_nonzero(grid == want, axis=1) for grid in _lam_grids(have, lams)]
    return e * np.concatenate(fibers) + _boundary_places(ctx, N, a, b, c, lams)


def count_gen_legendre(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int,
                       lam: int) -> CurveCount:
    """The one-lam case of gen_legendre_rows."""
    return gen_legendre_rows(ctx, N, a, b, c, [lam])[0]


def gen_legendre_rows(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int,
                      lams) -> list[CurveCount]:
    """The rows of gen_legendre_counts as CurveCounts, one per lam of lams in
    the order given: one gen_legendre_counts call over the lams outside
    {0, 1}. A lam in {0, 1}, or any lam when p divides N, is a flagged
    bad-reduction row with no count."""
    p = ctx.p
    lams = [lam % p for lam in lams]
    good = [lam for lam in lams if lam > 1] if N % p else []
    counts = dict(zip(good, gen_legendre_counts(ctx, N, a, b, c, good).tolist()))
    return [CurveCount(p, counts[lam], p + 1 - counts[lam]) if lam in counts else
            CurveCount(p, 0, None, good=False,
                       flags=("bad reduction: lambda in {0, 1}" if lam < 2 else "p divides N",))
            for lam in lams]


def count_via_characters(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int, lams):
    """The counts of gen_legendre_counts by characters, for p = 1 mod N: off the
    roots the fiber count is sum_k chi^k(f(x)) over the chi^k with chi^N = 1.

    f(x) is a product mod p: x^a (x-1)^b once, (x - lam)^c a (lam, x) grid
    of the table of k^c. chi^k(f) reads dlog f mod N, so one bincount per
    block of row * (N + 1) + class gives every lam's histogram, and
    S_k = sum_r hist[r] zeta^(k eN r) is one matmul. Returns per-lam arrays:
    n_points, the sums S (len(lams) x N) and the "new" parts, the sums of S_k
    over k prime to N.
    """
    p = ctx.p
    if (p - 1) % N:
        raise FieldError(f"p = {p} is not 1 mod N = {N}")
    if any(m % N == 0 for m in (a, b, c, a + b + c)):
        raise FieldError("datum violates N not dividing a, b, c, a+b+c")
    (a, b, c), lams = _superelliptic_args(p, (a, b, c), lams)
    f_ab = np.array([pow(x, a, p) * pow(x - 1, b, p) % p for x in range(p)])
    g_c = np.array([pow(x, c, p) for x in range(p)])
    f_ab[:2] = g_c[0] = 0  # f = 0 just at x = 0, 1, lam: class N, a dropped bin
    class_N = ctx.dlog % N
    class_N[0] = N
    hist = []
    for grid in _lam_grids(g_c, lams):
        n = len(grid)
        code = class_N[_reduce(grid * f_ab, p)] + (N + 1) * np.arange(n)[:, None]
        hist.append(np.bincount(code.ravel(), minlength=n * (N + 1)).reshape(n, N + 1)[:, :N])
    r = np.arange(N)
    sums = np.concatenate(hist) @ ctx.zeta[np.outer(r, r) * ((p - 1) // N) % (p - 1)]
    n_points = np.rint(sums.sum(axis=1).real).astype(np.int64)
    return (n_points + _boundary_places(ctx, N, a, b, c, lams), sums,
            sums[:, [k for k in range(1, N) if gcd(k, N) == 1]].sum(axis=1))


# ---------------------------------------------------------------------------
# Baba-Granath genus-2 curves and QM consistency


def baba_granath_curve(ctx: PrimeFieldCtx, j: int, branch: int = 1):
    """Sextic coefficients (degree 6 down to 0) of the genus-2 model at j.

    With t = -2(27j + 16) and s = branch * sqrt(-6j), the coefficients are
    u_i + v_i*s for the integer rows
    u = (-4, 6t, 84t, -4t^2, 84t^2, 6t^3, -4t^3) and
    v = (3, 0, 27t, 0, -27t^2, 0, -3t^3).
    s lives in F_p when -6j is a residue and is s1*sqrt(nu) in F_{p^2}
    otherwise; coefficients are returned as F_{p^2} pairs along with the field
    tag and flags. The sextic's discriminant is 2^57 * 3^15 * j^3 * (27j + 16)^15,
    so for p > 5 it is squarefree except at the two degenerate j: j = 0
    (s = 0, CM point) and 27j + 16 = 0 (t = 0). branch is 1 or -1; any other
    value would give a sextic off the family and raises FieldError.
    """
    p = ctx.p
    j %= p
    if p <= 5:
        raise FieldError("need p > 5")
    if branch not in (1, -1):
        raise FieldError(f"branch must be 1 or -1, got {branch}")
    if j == 0:
        return None, "degenerate", ("degenerate: j = 0 (s = 0, CM point)",)
    t = (-2 * (27 * j + 16)) % p
    if t == 0:
        return None, "degenerate", ("degenerate: 27j + 16 = 0",)
    t2, t3 = t * t, t * t * t
    u = (-4, 6 * t, 84 * t, -4 * t2, 84 * t2, 6 * t3, -4 * t3)
    v = (3, 0, 27 * t, 0, -27 * t2, 0, -3 * t3)
    m6j = (-6 * j) % p
    if ctx.legendre(m6j) == 1:
        s = branch * tonelli_sqrt(m6j, p)
        return tuple(((a + b * s) % p, 0) for a, b in zip(u, v)), "F_p", ()
    s1 = branch * tonelli_sqrt(m6j * ctx.inv(ctx.ext.nu), p)
    return (tuple((a % p, b * s1 % p) for a, b in zip(u, v)), "F_p2",
            ("s lies in F_p2 only",))


def count_genus2_fp(ctx: PrimeFieldCtx, sextics) -> list[int]:
    """Points of y^2 = f(x) over F_p for each sextic given as F_p2 pairs in F_p,
    all in one batched _count_y2 call."""
    return _count_y2(ctx, [[c[0] for c in f] for f in sextics])


def count_genus2_fp2(ctx: PrimeFieldCtx, sextics) -> list[int]:
    """Points of y^2 = f(x) over F_p2 for each sextic given as F_p2 pairs, all
    in one batched _count_y2_fp2 call."""
    return _count_y2_fp2(ctx.ext, [[c[0] for c in f] for f in sextics],
                         [[c[1] for c in f] for f in sextics])


def count_baba_granath(ctx: PrimeFieldCtx, j: int, branch: int = 1) -> CurveCount:
    """The Baba-Granath sextic at j over F_p; trace is the half-trace t, or
    None when p + 1 - #C(F_p) is odd. A sextic with coefficients outside F_p
    is not counted here (count_baba_granath_fp2 counts it)."""
    coeffs, field_tag, flags = baba_granath_curve(ctx, j, branch)
    if coeffs is None:
        return CurveCount(ctx.p, 0, None, good=False, flags=flags)
    if field_tag != "F_p":
        return CurveCount(ctx.p, 0, None, good=False,
                          flags=flags + ("no F_p model; count over F_p2",))
    n1, = count_genus2_fp(ctx, [coeffs])
    tr = ctx.p + 1 - n1
    return CurveCount(ctx.p, n1, tr // 2 if tr % 2 == 0 else None, flags=flags)


def count_baba_granath_fp2(ext: QuadExtCtx, j: int, branch: int = 1) -> CurveCount:
    """The Baba-Granath sextic at j over F_{p^2}, with no trace."""
    coeffs, _tag, flags = baba_granath_curve(ext.base, j, branch)
    if coeffs is None:
        return CurveCount(ext.q, 0, None, good=False, flags=flags)
    n2, = count_genus2_fp2(ext.base, [coeffs])
    return CurveCount(ext.q, n2, None, flags=flags)


@dataclass(frozen=True)
class QMResult:
    t: int | None
    passed: bool
    detail: str


def qm_consistency(n1: int, n2: int, p: int) -> QMResult:
    """Check the split quaternionic shape: char poly (x^2 - t x + p)^2.

    Requires an integer t with n1 = p + 1 - 2t and n2 = p^2 + 1 - 2(t^2 - 2p),
    |t| <= 2 sqrt(p). Reductions whose quaternionic action is only defined over
    F_{p^2} fail this test with n1 = p + 1 (trace zero) and an n2 mismatch.
    """
    if (p + 1 - n1) % 2:
        return QMResult(None, False, "p + 1 - #C(F_p) is odd")
    t = (p + 1 - n1) // 2
    if t * t > 4 * p:
        return QMResult(t, False, f"|t| = {abs(t)} violates the Weil bound")
    expect = p * p + 1 - 2 * (t * t - 2 * p)
    if n2 != expect:
        return QMResult(t, False, f"F_p2 count {n2} != {expect} for t = {t}")
    return QMResult(t, True, "ok")


def _inverted_sextic(p: int, j: int, f) -> tuple:
    """t^-3 x^6 f(t/x) with t = -2(27j + 16), for a sextic f given as F_p2
    pairs from degree 6 down to 0: coefficient i is t^(i - 3) f[6 - i], taken
    on both parts of each pair. On the Baba-Granath sextic at j it maps the
    branch s onto the branch -s (baba_granath_qm_sweep)."""
    t = -2 * (27 * j + 16) % p
    return tuple((re * w % p, im * w % p)
                 for (re, im), w in zip(reversed(f), (pow(t, i - 3, p) for i in range(7))))


def baba_granath_qm_sweep(ctx: PrimeFieldCtx, js) -> list:
    """qm_consistency on both s-branches at every j in js; one list of
    (branch, QMResult) per j, aligned with js.

    The F_p counts of all the curves defined over F_p are one count_genus2_fp
    call, and their F_{p^2} counts one count_genus2_fp2 call. Over F_{p^2}
    the two branches at j are one curve: with t = -2(27j + 16), the rows u
    and v of baba_granath_curve give x^6 f_+(t/x) = t^3 f_-(x), and t is a
    square in F_{p^2}, so (x, y) -> (t/x, y t^(3/2) / x^3) is an isomorphism
    that swaps x = 0 with the places at infinity. The -1 branch reads the +1
    branch's F_{p^2} count when its coefficients equal _inverted_sextic of the
    +1 sextic exactly; any other sextic is counted in the same call.
    """
    p = ctx.p
    scans, pending, fp2_rows = [], [], []
    for j in js:
        scan, plus = [], None
        for branch in (1, -1):
            coeffs, field_tag, flags = baba_granath_curve(ctx, j, branch)
            if coeffs is None:
                res = QMResult(None, False, "; ".join(flags))
            elif field_tag != "F_p":
                res = QMResult(None, False, "curve only defined over F_p2")
            else:
                res = None
                if plus is None or coeffs != _inverted_sextic(p, j, plus):
                    fp2_rows.append(coeffs)
                plus = coeffs
                pending.append((scan, len(scan), coeffs, len(fp2_rows) - 1))
            scan.append((branch, res))
        scans.append(scan)
    if pending:
        n1s = count_genus2_fp(ctx, [coeffs for _scan, _i, coeffs, _row in pending])
        n2s = count_genus2_fp2(ctx, fp2_rows)
        for (scan, i, _coeffs, row), n1 in zip(pending, n1s):
            scan[i] = (scan[i][0], qm_consistency(n1, n2s[row], p))
    return scans


# ---------------------------------------------------------------------------
# Family table


# Each family's counter over F_p and over F_{p^2} (None: no F_{p^2} counter).
# A counter takes the field context and then the family's parameters by name.
FAMILIES = {
    "legendre": (count_legendre, count_legendre_fp2),
    "universal-j": (count_universal_j, None),
    "genlegendre": (count_gen_legendre, None),
    "baba-granath": (count_baba_granath, count_baba_granath_fp2),
}


def count_points(family: str, fieldctx, **params) -> CurveCount:
    """The member of family with these parameters, counted over F_p for a
    PrimeFieldCtx and over F_{p^2} for a QuadExtCtx."""
    fp, fp2 = FAMILIES[family]
    if not isinstance(fieldctx, QuadExtCtx):
        return fp(fieldctx, **params)
    if fp2 is None:
        raise FieldError(f"{family} has no F_p2 counter")
    return fp2(fieldctx, **params)
