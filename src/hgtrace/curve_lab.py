"""Brute-force point-counting oracles for every curve family in play.

All counts are of smooth projective models. For superelliptic models
y^N = f(x) the completion convention is explicit: above a point where the
local equation is y^N = u0 * s^m (u0 a unit), write e = gcd(N, m); the
rational places there are the w in F_p with w^e = u0, so there are
gcd(e, p - 1) of them when u0 is an e-th power and none otherwise.
Specialized to hyperelliptic sextics this is the familiar rule "2 points at
infinity iff the leading coefficient is a square" (1 for a quintic), and a
simple zero of f always contributes exactly one place.

The counts over F_p are direct sums, O(p) per curve, except the Legendre
family: its traces for every lambda at once are one cyclic correlation mod p,
O(p log p) by real FFTs and rounded under two exact guards, and a single
Legendre count reads its trace from that sweep. Over F_{p^2} a batch of curves
is at most two passes over the points, each curve a row of one integer matmul:
one pass for the curves with coefficients in F_p, which covers half of
F_{p^2} since x and its conjugate give conjugate values of f, and one for the
rest.

The Baba-Granath genus-2 sextics are written down in closed form. Their
discriminant vanishes for p > 5 only at the two j that baba_granath_curve
returns as degenerate, so no sextic is tested for squarefreeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
# Curve specs


@dataclass(frozen=True)
class Legendre:
    lam: int


@dataclass(frozen=True)
class UniversalJ:
    j: int


@dataclass(frozen=True)
class JacobiQuartic:
    sigma: int


@dataclass(frozen=True)
class Hesse:
    mu: int


@dataclass(frozen=True)
class GenLegendre:
    N: int
    a: int
    b: int
    c: int
    lam: int


@dataclass(frozen=True)
class PicardSub:
    lam: int


@dataclass(frozen=True)
class BabaGranath:
    j: int
    branch: int = 1  # sign of the square root s


@dataclass(frozen=True)
class ConicX6:
    pass


# ---------------------------------------------------------------------------
# y^2 = f(x) and y^N = prod (x - r)^m, each counted by one vectorized sum


def _count_y2(ctx: PrimeFieldCtx, coeffs) -> int:
    """Points of the smooth model of y^2 = f(x) over F_p.

    coeffs runs from degree d = len(coeffs) - 1 down to 0; f is evaluated on
    all of F_p by Horner's rule. Infinity gives one place for odd d and
    1 + chi(lead) for even d (one place when the lead vanishes: the degree
    dropped to d - 1).
    """
    p = ctx.p
    x = np.arange(p, dtype=np.int64)
    v = np.zeros(p, dtype=np.int64)
    for co in coeffs:
        v = (v * x + int(co)) % p
    at_inf = 1 + (ctx.legendre(int(coeffs[0])) if len(coeffs) % 2 else 0)
    return p + int(np.sum(ctx.chi[v], dtype=np.int64)) + at_inf


# The F_{p^2} counter evaluates a block of points at a time, with about this
# many (row, point) pairs in a block, counting the power basis's rows with the
# coefficient rows; a block then adds a few MB to the process at any p.
_FP2_BLOCK = 2 ** 16


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
    basis x^k = X_k + Y_k sqrt(nu), and every row is read off it by one
    integer matmul. When every coefficient of a row lies in F_p, f(x) and
    f(xbar) are conjugate and have the same norm, so only w in [0, (p - 1)/2]
    is evaluated and each w > 0 counts twice. Those rows are one pass and the
    others a second.
    """
    p, nu = ext.base.p, ext.nu
    a_re = np.asarray(rows_re, dtype=np.int64) % p
    a_im = np.asarray(rows_im, dtype=np.int64) % p
    in_fp = ~a_im.any(axis=1)
    if in_fp.any() and not in_fp.all():
        counts = np.empty(len(a_re), dtype=np.int64)
        for rows in (in_fp, ~in_fp):
            counts[rows] = _count_y2_fp2(ext, a_re[rows], a_im[rows])
        return counts.tolist()
    n_rows, n_coef = a_re.shape
    real = not a_im.any()
    n_points = p * ((p + 1) // 2 if real else p)
    step = max(1, _FP2_BLOCK // (n_rows + 2 * n_coef))
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
        vr, vi = a_re @ X, a_re @ Y
        if not real:
            vr += nu * _reduce(a_im @ Y, p)
            vi += a_im @ X
        # the norm vr^2 - nu*vi^2, in place: these (row, point) arrays are
        # the block's memory
        _reduce(vr, p)
        _reduce(vi, p)
        vr *= vr
        vi *= vi
        _reduce(vi, p)
        vi *= nu
        vr -= vi
        _reduce(vr, p)
        weight = np.where(w == 0, 1, 2 if real else 1)
        chi_sum += chi[vr] @ weight
    lead = (a_re[:, 0] * a_re[:, 0] - nu * a_im[:, 0] * a_im[:, 0]) % p
    at_inf = 1 + (chi[lead] if n_coef % 2 else 0)
    return (p * p + chi_sum + at_inf).tolist()


def places_at_branch(ctx: PrimeFieldCtx, u0: int, m: int, N: int) -> int:
    """Rational places above a point with local model y^N = u0 * s^m.

    They are the w in F_p with w^e = u0, where e = gcd(N, m): gcd(e, p - 1)
    of them when u0 is an e-th power, and none otherwise.
    """
    d = gcd(N, m, ctx.p - 1)
    return d if int(ctx.dlog[u0 % ctx.p]) % d == 0 else 0


def _boundary_places(ctx: PrimeFieldCtx, N: int, roots) -> int:
    """Places of the smooth model of y^N = prod (x - r)^m above its roots and
    infinity; roots lists distinct (r, m) pairs with r in [0, p)."""
    p = ctx.p
    cnt = 0
    for x0, m in roots:
        u0 = 1
        for x1, m1 in roots:
            if x1 != x0:
                u0 = u0 * pow(x0 - x1, m1, p) % p
        cnt += places_at_branch(ctx, u0, m, N)
    return cnt + places_at_branch(ctx, 1, sum(m for _r, m in roots), N)  # monic at infinity


def _superelliptic_count(ctx: PrimeFieldCtx, N: int, roots) -> int:
    """Places of the smooth model of y^N = prod (x - r)^m over F_p.

    Off the roots, the fiber over x has e = gcd(N, p - 1) points when
    sum m * dlog(x - r) is 0 mod e and none otherwise; that sum is one vector
    over all x. Above the roots and infinity, _boundary_places.
    """
    p = ctx.p
    e = gcd(N, p - 1)
    x = np.arange(p, dtype=np.int64)
    off_roots = np.ones(p, dtype=bool)
    d = np.zeros(p, dtype=np.int64)
    for r, m in roots:
        off_roots[r] = False
        d += (m % e) * ctx.dlog[(x - r) % p]
    return (e * int(np.count_nonzero(d[off_roots] % e == 0))
            + _boundary_places(ctx, N, roots))


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
    cnt = _count_y2(ctx, (1, ctx.inv(4), -36 * c, -c))
    return CurveCount(p, cnt, p + 1 - cnt)


def count_hesse(ctx: PrimeFieldCtx, mu: int) -> CurveCount:
    """Projective cubic x^3 + y^3 + z^3 - 3 mu xyz = 0 (smooth iff p != 3 and mu^3 != 1)."""
    p = ctx.p
    mu %= p
    if p == 3:  # the cubic is the triple line (x + y + z)^3
        return CurveCount(p, 0, None, good=False, flags=("singular: p = 3",))
    if pow(mu, 3, p) == 1:
        return CurveCount(p, 0, None, good=False, flags=("singular: mu^3 = 1",))
    # (1 : -1 : 0) is a rational point, so the cubic is isomorphic over F_p
    # (p > 3) to its Weierstrass model Y^2 = X^3 - 27 mu (mu^3 + 8) X
    # + 54 (mu^6 - 20 mu^3 - 8).
    m3 = pow(mu, 3, p)
    cnt = _count_y2(ctx, (1, 0, -27 * mu * (m3 + 8) % p, 54 * (m3 * m3 - 20 * m3 - 8) % p))
    return CurveCount(p, cnt, p + 1 - cnt)


def count_jacobi_quartic(ctx: PrimeFieldCtx, sigma: int) -> CurveCount:
    """y^2 = (1 - sigma^2 x^2)(1 - x^2/sigma^2), quartic genus-1 model.

    f = x^4 - (sigma^2 + sigma^-2) x^2 + 1 is monic: two places at infinity.
    """
    p = ctx.p
    sigma %= p
    if sigma == 0 or pow(sigma, 4, p) == 1:
        return CurveCount(p, 0, None, good=False,
                          flags=("degenerate: sigma(sigma^4-1) = 0",))
    s2 = sigma * sigma % p
    cnt = _count_y2(ctx, (1, 0, -(s2 + ctx.inv(s2)), 0, 1))
    return CurveCount(p, cnt, p + 1 - cnt)


def jacobi_quartic_isomorphism_check(ctx: PrimeFieldCtx, sigma: int) -> bool:
    """Counts of E_lam (lam = (sigma + 1/sigma)^2/4) and the quartic agree."""
    p = ctx.p
    sigma %= p
    if sigma == 0 or pow(sigma, 4, p) == 1:
        raise FieldError("sigma(sigma^4 - 1) = 0 is degenerate")
    lam = pow(sigma + ctx.inv(sigma), 2, p) * ctx.inv(4) % p
    e = count_legendre(ctx, lam)
    c = count_jacobi_quartic(ctx, sigma)
    if not (e.good and c.good):
        raise FieldError("unexpected bad reduction in the isomorphism check")
    return e.n_points == c.n_points


# ---------------------------------------------------------------------------
# Superelliptic y^N = x^a (x-1)^b (x-lam)^c


def count_gen_legendre(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int,
                       lam: int) -> CurveCount:
    """Smooth-model count of y^N = x^a (x-1)^b (x-lam)^c over F_p."""
    p = ctx.p
    lam %= p
    if lam in (0, 1):
        return CurveCount(p, 0, None, good=False,
                          flags=("bad reduction: lambda in {0, 1}",))
    if N % p == 0:
        return CurveCount(p, 0, None, good=False, flags=("p divides N",))
    cnt = _superelliptic_count(ctx, N, ((0, a), (1, b), (lam, c)))
    return CurveCount(p, cnt, p + 1 - cnt)


def count_via_characters(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int,
                         lam: int):
    """Character-decomposed count of the same smooth model.

    The off-zero fiber count is rewritten as the sum over the N characters chi
    with chi^N trivial of S_k = sum_x chi^k(f(x)); the boundary places are the
    same normalization constants as count_gen_legendre. Returns the CurveCount
    plus the per-character sums and the primitive ("new") part.
    """
    p = ctx.p
    lam %= p
    if (p - 1) % N:
        raise FieldError(f"p = {p} is not 1 mod N = {N}")
    if lam in (0, 1):
        raise FieldError("lambda in {0, 1} is a bad-reduction fiber")
    for m in (a, b, c, a + b + c):
        if m % N == 0:
            raise FieldError("datum violates N not dividing a, b, c, a+b+c")
    # f(x) by int64 products mod p over x not in {0, 1, lam}, where every
    # factor is a unit (so exponents reduce mod p - 1); chi^k(f(x)) reads
    # dlog f(x) only mod N, so S_k = sum_r hist[r] zeta^(k eN r)
    x = np.arange(2, p, dtype=np.int64)
    x = x[x != lam]
    f = np.ones_like(x)
    for base, e in ((x, a), (x - 1, b), ((x - lam) % p, c)):
        e %= p - 1
        while e:
            if e & 1:
                f = f * base % p
            base = base * base % p
            e >>= 1
    hist = np.bincount(ctx.dlog[f] % N, minlength=N)
    eN, r = (p - 1) // N, np.arange(N)
    sums = {k: complex(hist @ ctx.zeta[k * eN * r % (p - 1)]) for k in range(N)}
    total = sum(sums.values())
    n_points = round(total.real) + _boundary_places(ctx, N, ((0, a), (1, b), (lam, c)))
    new_part = sum(sums[k] for k in range(1, N) if gcd(k, N) == 1)
    return (CurveCount(p, n_points, p + 1 - n_points),
            sums, new_part)


# ---------------------------------------------------------------------------
# Picard subfamily (genus 3), exploratory per the open splitting question


def count_picard_sub(ctx: PrimeFieldCtx, lam: int) -> CurveCount:
    """y^3 = x(x-1)(x-lam)(x-mu) with mu = 1 - lam; full count only.

    The Jacobian splitting into a CM elliptic factor and an abelian surface is
    not verified here; the count and trace are reported as-is, flagged
    exploratory.
    """
    p = ctx.p
    lam %= p
    mu = (1 - lam) % p
    if lam in (0, 1) or mu in (0, 1) or lam == mu:
        return CurveCount(p, 0, None, good=False, flags=("degenerate parameter",))
    cnt = _superelliptic_count(ctx, 3, ((0, 1), (1, 1), (lam, 1), (mu, 1)))
    return CurveCount(p, cnt, p + 1 - cnt,
                      flags=("exploratory: Jacobian splitting not asserted",))


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


def count_genus2_fp(ctx: PrimeFieldCtx, coeffs) -> int:
    """Points of y^2 = f(x) over F_p for a sextic given as F_p2 pairs in F_p."""
    return _count_y2(ctx, [c[0] for c in coeffs])


def count_genus2_fp2(ctx: PrimeFieldCtx, sextics) -> list[int]:
    """Points of y^2 = f(x) over F_p2 for each sextic given as F_p2 pairs, all
    in one batched _count_y2_fp2 call."""
    return _count_y2_fp2(ctx.ext, [[c[0] for c in f] for f in sextics],
                         [[c[1] for c in f] for f in sextics])


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


def baba_granath_qm_sweep(ctx: PrimeFieldCtx, js) -> list:
    """qm_consistency on both s-branches at every j in js; one list of
    (branch, QMResult) per j, aligned with js.

    The F_{p^2} counts of all the curves defined over F_p are one
    count_genus2_fp2 call.
    """
    scans, pending = [], []
    for j in js:
        scan = []
        for branch in (1, -1):
            coeffs, field_tag, flags = baba_granath_curve(ctx, j, branch)
            if coeffs is None:
                res = QMResult(None, False, "; ".join(flags))
            elif field_tag != "F_p":
                res = QMResult(None, False, "curve only defined over F_p2")
            else:
                res = None
                pending.append((scan, len(scan), coeffs))
            scan.append((branch, res))
        scans.append(scan)
    if pending:
        n2s = count_genus2_fp2(ctx, [coeffs for _scan, _i, coeffs in pending])
        for (scan, i, coeffs), n2 in zip(pending, n2s):
            n1 = count_genus2_fp(ctx, coeffs)
            scan[i] = (scan[i][0], qm_consistency(n1, n2, ctx.p))
    return scans


# ---------------------------------------------------------------------------
# Conic and Igusa-Clebsch


def conic_points(ctx: PrimeFieldCtx) -> int:
    """Exact projective count of x^2 + 3y^2 + z^2 = 0 (p > 3)."""
    if ctx.p <= 3:
        raise FieldError("need p > 3")
    # the chart x = 1 is z^2 = -3y^2 - 1; its places at infinity are the
    # points (0 : 1 : z) with z^2 = -3 (x = y = 0 is impossible)
    return _count_y2(ctx, (-3, 0, -1))


def igusa_clebsch_identity(j: Fraction) -> bool:
    """Exact-rational check of the invariant quadruple identities at j.

    [A, B, C, D] = [j+1, j, j(1-j), j^3]; verifies (AB-C)/(AB+C) = j and
    D^2/B^5 = j. Excluded: j = 0 (both denominators degenerate).
    """
    j = Fraction(j)
    if j == 0:
        raise ZeroDivisionError("j = 0 is excluded (AB + C = 0 and B = 0)")
    A, B, C, D = j + 1, j, j * (1 - j), j ** 3
    if A * B + C == 0:
        raise ZeroDivisionError("AB + C = 0")
    return (A * B - C) / (A * B + C) == j and D ** 2 / B ** 5 == j


# ---------------------------------------------------------------------------
# Dispatch


def count_points(spec, fieldctx) -> CurveCount:
    """Dispatch a CurveSpec to its counter (PrimeFieldCtx or QuadExtCtx)."""
    if isinstance(fieldctx, QuadExtCtx):
        if isinstance(spec, Legendre):
            return count_legendre_fp2(fieldctx, spec.lam)
        if isinstance(spec, BabaGranath):
            ctx = fieldctx.base
            coeffs, _tag, flags = baba_granath_curve(ctx, spec.j, spec.branch)
            if coeffs is None:
                return CurveCount(fieldctx.q, 0, None, good=False, flags=flags)
            n2, = count_genus2_fp2(ctx, [coeffs])
            return CurveCount(fieldctx.q, n2, None, flags=flags)
        raise FieldError(f"no F_p2 counter for {spec!r}")
    ctx: PrimeFieldCtx = fieldctx
    if isinstance(spec, Legendre):
        return count_legendre(ctx, spec.lam)
    if isinstance(spec, UniversalJ):
        return count_universal_j(ctx, spec.j)
    if isinstance(spec, JacobiQuartic):
        return count_jacobi_quartic(ctx, spec.sigma)
    if isinstance(spec, Hesse):
        return count_hesse(ctx, spec.mu)
    if isinstance(spec, GenLegendre):
        return count_gen_legendre(ctx, spec.N, spec.a, spec.b, spec.c, spec.lam)
    if isinstance(spec, PicardSub):
        return count_picard_sub(ctx, spec.lam)
    if isinstance(spec, BabaGranath):
        coeffs, field_tag, flags = baba_granath_curve(ctx, spec.j, spec.branch)
        if coeffs is None:
            return CurveCount(ctx.p, 0, None, good=False, flags=flags)
        if field_tag != "F_p":
            return CurveCount(ctx.p, 0, None, good=False,
                              flags=flags + ("no F_p model; count over F_p2",))
        n1 = count_genus2_fp(ctx, coeffs)
        tr = ctx.p + 1 - n1
        return CurveCount(ctx.p, n1, tr // 2 if tr % 2 == 0 else None, flags=flags)
    if isinstance(spec, ConicX6):
        return CurveCount(ctx.p, conic_points(ctx), None)
    raise TypeError(f"unknown curve spec {spec!r}")
