"""Brute-force point-counting oracles for every curve family in play.

All counts are of smooth projective models. For superelliptic models
y^N = f(x) the completion convention is explicit: above a point where the
local equation is y^N = u0 * s^m (u0 a unit), write e = gcd(N, m); the model
gains e rational places when u0 is an e-th power in the field and none
otherwise. Specialized to hyperelliptic sextics this is the familiar rule
"2 points at infinity iff the leading coefficient is a square" (1 for a
quintic), and a simple zero of f always contributes exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .field_core import (FieldError, PrimeFieldCtx, QuadExtCtx, build_quad_ext,
                         tonelli_sqrt)


@dataclass(frozen=True)
class CurveCount:
    """A point count over F_q, with trace = q + 1 - n_points for most families.

    For Baba-Granath genus-2 curves over F_p, trace holds the half-trace t with
    p + 1 - #C(F_p) = 2t (the trace of one factor of the split quaternionic
    shape), or None when p + 1 - #C(F_p) is odd.
    """

    tag: str
    q: int
    n_points: int
    trace: int | None = None
    good: bool = True
    flags: tuple[str, ...] = ()


def _qr_table(ctx: PrimeFieldCtx) -> np.ndarray:
    p = ctx.p
    qr = np.full(p, -1, dtype=np.int64)
    qr[0] = 0
    sq = (np.arange(1, p, dtype=np.int64) ** 2) % p
    qr[sq] = 1
    return qr


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
# Completion helpers


def _is_power(ctx: PrimeFieldCtx, u: int, e: int) -> bool:
    """Whether u is an e-th power in F_p^* (u != 0)."""
    u %= ctx.p
    d = gcd(e, ctx.p - 1)
    return int(ctx.dlog[u]) % d == 0


def _is_power_fp2(ext: QuadExtCtx, u: tuple[int, int], e: int) -> bool:
    q = ext.q
    d = gcd(e, q - 1)
    return ext.pow(u, (q - 1) // d) == (1, 0)


def places_at_branch(ctx, u0, m: int, N: int, ext: QuadExtCtx | None = None) -> int:
    """Rational places above a point with local model y^N = u0 * s^m."""
    e = gcd(N, m)
    if e == 1:
        return 1
    if ext is None:
        return e if _is_power(ctx, u0, e) else 0
    return e if _is_power_fp2(ext, u0, e) else 0


# ---------------------------------------------------------------------------
# Family counters over F_p


def count_legendre(ctx: PrimeFieldCtx, lam: int) -> CurveCount:
    return _count_legendre_twist(ctx, lam, 1, "legendre",
                                 "bad reduction: lambda(1-lambda) = 0")


def _count_legendre_twist(ctx: PrimeFieldCtx, lam: int, d: int, tag: str,
                          bad_flag: str) -> CurveCount:
    """Literal point count of y^2 = d x(x-1)(x-lam), one point at infinity."""
    p = ctx.p
    lam %= p
    if lam in (0, 1) or d % p == 0:
        return CurveCount(tag, p, 0, None, good=False, flags=(bad_flag,))
    cnt = 1  # infinity
    for x in range(p):
        f = d * (x * (x - 1) % p * ((x - lam) % p))  # ctx.legendre reduces mod p
        cnt += 1 + ctx.legendre(f)
    return CurveCount(tag, p, cnt, p + 1 - cnt)


def _legendre_affine_sweep(p: int, qr: np.ndarray) -> np.ndarray:
    """Projective point counts of y^2 = x(x-1)(x-lam) for every lam in F_p.

    qr[v] must be the Legendre symbol of v (qr[0] = 0). Entries at lam = 0, 1
    are returned but meaningless (singular fibers).
    """
    counts = np.full(p, 1, dtype=np.int64)  # point at infinity
    lams = np.arange(p, dtype=np.int64)
    for x in range(p):
        f = x * (x - 1) % p * ((x - lams) % p) % p
        counts += 1 + qr[f]
    return counts


def legendre_trace_sweep(ctx: PrimeFieldCtx) -> np.ndarray:
    """Traces a_E(lam) for all lam (entries at 0, 1 are meaningless)."""
    counts = _legendre_affine_sweep(ctx.p, _qr_table(ctx))
    return ctx.p + 1 - counts


def count_legendre_fp2(ext: QuadExtCtx, lam: tuple[int, int]) -> CurveCount:
    """Legendre count over F_{p^2}, for quadratic points of the lambda-line."""
    p = ext.base.p
    q = ext.q
    cnt = 1
    for a in range(p):
        for b in range(p):
            x = (a, b)
            f = ext.mul(ext.mul(x, ext.add(x, (p - 1, 0))), ext.add(x, (-lam[0] % p, -lam[1] % p)))
            cnt += 1 + ext.is_square(f)
    return CurveCount("legendre/F_p2", q, cnt, q + 1 - cnt)


def count_universal_j(ctx: PrimeFieldCtx, j: int) -> CurveCount:
    """The family with j-invariant j: y^2 + xy = x^3 - (36x + 1)/(j - 1728)."""
    p = ctx.p
    j %= p
    if j == 0 or j == 1728 % p:
        return CurveCount("universal-j", p, 0, None, good=False,
                          flags=("bad reduction: j in {0, 1728}",))
    c = ctx.inv((j - 1728) % p)
    inv4 = ctx.inv(4)
    cnt = 1
    for x in range(p):
        # complete the square: (y + x/2)^2 = x^3 + x^2/4 - (36x + 1) c
        rhs = (pow(x, 3, p) + x * x % p * inv4 - (36 * x + 1) * c) % p
        cnt += 1 + ctx.legendre(rhs)
    return CurveCount("universal-j", p, cnt, p + 1 - cnt)


def count_hesse(ctx: PrimeFieldCtx, mu: int) -> CurveCount:
    """Projective cubic x^3 + y^3 + z^3 - 3 mu xyz = 0 (smooth iff mu^3 != 1)."""
    p = ctx.p
    mu %= p
    if pow(mu, 3, p) == 1:
        return CurveCount("hesse", p, 0, None, good=False,
                          flags=("singular: mu^3 = 1",))
    cnt = 0
    for x in range(p):
        for y in range(p):
            if (pow(x, 3, p) + pow(y, 3, p) + 1 - 3 * mu * x % p * y) % p == 0:
                cnt += 1
    for x in range(p):  # (x : 1 : 0)
        if (pow(x, 3, p) + 1) % p == 0:
            cnt += 1
    # (1 : 0 : 0) is never on the curve
    return CurveCount("hesse", p, cnt, p + 1 - cnt)


def count_jacobi_quartic(ctx: PrimeFieldCtx, sigma: int) -> CurveCount:
    """y^2 = (1 - sigma^2 x^2)(1 - x^2/sigma^2), quartic genus-1 model."""
    p = ctx.p
    sigma %= p
    if sigma == 0 or pow(sigma, 4, p) == 1:
        return CurveCount("jacobi-quartic", p, 0, None, good=False,
                          flags=("degenerate: sigma(sigma^4-1) = 0",))
    s2 = sigma * sigma % p
    is2 = ctx.inv(s2)
    cnt = 0
    for x in range(p):
        x2 = x * x % p
        f = (1 - s2 * x2) % p * ((1 - is2 * x2) % p) % p
        cnt += 1 + ctx.legendre(f)
    # infinity: leading coefficient is s2*is2 = 1, a square: two places
    cnt += places_at_branch(ctx, 1, 4, 2)
    return CurveCount("jacobi-quartic", p, cnt, p + 1 - cnt)


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


def _boundary_places(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int,
                     lam: int) -> int:
    """Places of the smooth model of y^N = x^a (x-1)^b (x-lam)^c above
    x in {0, 1, lam, oo}, for lam not in {0, 1}."""
    p = ctx.p
    roots = ((0, a), (1, b), (lam, c))
    cnt = 0
    for x0, m in roots:
        u0 = 1
        for x1, m1 in roots:
            if x1 != x0:
                u0 = u0 * pow((x0 - x1) % p, m1, p) % p
        cnt += places_at_branch(ctx, u0, m, N)
    return cnt + places_at_branch(ctx, 1, a + b + c, N)  # monic at infinity


def count_gen_legendre(ctx: PrimeFieldCtx, N: int, a: int, b: int, c: int,
                       lam: int) -> CurveCount:
    """Smooth-model count of y^N = x^a (x-1)^b (x-lam)^c over F_p."""
    p = ctx.p
    lam %= p
    tag = f"genlegendre({N};{a},{b},{c})"
    if lam in (0, 1):
        return CurveCount(tag, p, 0, None, good=False,
                          flags=("bad reduction: lambda in {0, 1}",))
    if N % p == 0:
        return CurveCount(tag, p, 0, None, good=False, flags=("p divides N",))
    e = gcd(N, p - 1)
    cnt = 0
    for x in range(p):
        if x == 0 or x == 1 or x == lam:
            continue
        d = (a * int(ctx.dlog[x]) + b * int(ctx.dlog[(x - 1) % p])
             + c * int(ctx.dlog[(x - lam) % p])) % e
        if d == 0:
            cnt += e
    cnt += _boundary_places(ctx, N, a, b, c, lam)
    return CurveCount(tag, p, cnt, p + 1 - cnt)


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
    eN = (p - 1) // N
    sums = {}
    for k in range(N):
        acc = 0j
        for x in range(p):
            if x in (0, 1, lam):
                continue
            f = pow(x, a, p) * pow((x - 1) % p, b, p) % p * pow((x - lam) % p, c, p) % p
            acc += ctx.zeta[(k * eN * int(ctx.dlog[f])) % (p - 1)]
        sums[k] = acc
    total = sum(sums.values())
    n_points = round(total.real) + _boundary_places(ctx, N, a, b, c, lam)
    new_part = sum(sums[k] for k in range(1, N) if gcd(k, N) == 1)
    return (CurveCount(f"genlegendre-chars({N};{a},{b},{c})", p, n_points,
                       p + 1 - n_points),
            sums, new_part)


def _mobius(n: int) -> int:
    res, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            res = -res
        d += 1
    return -res if m > 1 else res


def new_part_trace(ctx: PrimeFieldCtx, lam: int, N: int = 6, a: int = 4,
                   b: int = 3, c: int = 1) -> int:
    """Frobenius trace on the primitive-character part of the Jacobian.

    Computed by Mobius inclusion-exclusion over the subcovers y^d = f(x) for
    d | N, each counted with the same completion conventions, so that the
    eigenspace bookkeeping cancels exactly.
    """
    p = ctx.p
    tot = 0
    for d in sorted(set(gcd(N, dd) for dd in range(1, N + 1) if N % dd == 0)):
        mu = _mobius(N // d)
        if mu == 0:
            continue
        cc = count_gen_legendre(ctx, d, a, b, c, lam) if d > 1 else None
        if d == 1:
            nd = p + 1  # the x-line
        else:
            if not cc.good:
                raise FieldError("bad reduction in new-part computation")
            nd = cc.n_points
        tot += mu * (p + 1 - nd)
    return tot


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
        return CurveCount("picard-sub", p, 0, None, good=False,
                          flags=("degenerate parameter",))
    e = gcd(3, p - 1)
    cnt = 0
    roots = ((0, 1), (1, 1), (lam, 1), (mu, 1))
    for x in range(p):
        f = x * (x - 1) % p * ((x - lam) % p) % p * ((x - mu) % p) % p
        if f == 0:
            continue
        if e == 1:
            cnt += 1
        else:
            cnt += e if int(ctx.dlog[f]) % e == 0 else 0
    cnt += len(roots)  # simple zeros: gcd(3, 1) = 1, one place each
    cnt += places_at_branch(ctx, 1, 4, 3)  # infinity: gcd(3, 4) = 1
    return CurveCount("picard-sub", p, cnt, p + 1 - cnt,
                      flags=("exploratory: Jacobian splitting not asserted",))


# ---------------------------------------------------------------------------
# Baba-Granath genus-2 curves and QM consistency


def baba_granath_curve(ctx: PrimeFieldCtx, j: int, branch: int = 1):
    """Sextic coefficients (degree 6 down to 0) of the genus-2 model at j.

    s = branch * sqrt(-6j) lives in F_p when -6j is a residue and in F_{p^2}
    otherwise; coefficients are returned as F_{p^2} pairs along with the field
    tag and flags. The curve is degenerate at j = 0 (s = 0, CM point) and where
    the t-parameter -2(27j + 16) vanishes.
    """
    p = ctx.p
    j %= p
    flags = []
    if p <= 5:
        raise FieldError("need p > 5")
    if j == 0:
        return None, "degenerate", ("degenerate: j = 0 (s = 0, CM point)",)
    t = (-2 * (27 * j + 16)) % p
    if t == 0:
        return None, "degenerate", ("degenerate: 27j + 16 = 0",)
    m6j = (-6 * j) % p
    chi = ctx.legendre(m6j)
    ext = build_quad_ext(ctx)
    if chi == 1:
        s = ((branch * tonelli_sqrt(m6j, p)) % p, 0)
        field_tag = "F_p"
    else:
        s = ext.sqrt_of_base(m6j)
        s = (s[0] * branch % p, s[1] * branch % p)
        field_tag = "F_p2"
        flags.append("s lies in F_p2 only")
    def sc(v):
        return (v % p, 0)
    def mul(*xs):
        r = (1, 0)
        for x in xs:
            r = ext.mul(r, x)
        return r
    tF = sc(t)
    t2, t3 = mul(tF, tF), mul(tF, tF, tF)
    coeffs = (
        ext.add(sc(-4), mul(sc(3), s)),
        mul(sc(6), tF),
        mul(sc(3), tF, ext.add(sc(28), mul(sc(9), s))),
        mul(sc(-4), t2),
        mul(sc(3), t2, ext.add(sc(28), mul(sc(-9), s))),
        mul(sc(6), t3),
        mul(sc(-1), t3, ext.add(sc(4), mul(sc(3), s))),
    )
    if not _sextic_squarefree(ctx, ext, coeffs, field_tag):
        return coeffs, field_tag, tuple(flags) + ("bad reduction: sextic not squarefree",)
    return coeffs, field_tag, tuple(flags)


def _sextic_squarefree(ctx, ext, coeffs, field_tag) -> bool:
    """Squarefree test via gcd(f, f') in the coefficient field."""
    if field_tag == "F_p":
        f = [c[0] % ctx.p for c in coeffs]
        return _poly_squarefree_fp(f, ctx.p)
    # over F_p2: run Euclid with pair arithmetic
    f = list(coeffs)
    df = [ext.mul((len(f) - 1 - i, 0), f[i]) for i in range(len(f) - 1)]
    g = _poly_gcd_ext(ext, f, df)
    return len(g) == 1


def _poly_squarefree_fp(f, p) -> bool:
    df = [(len(f) - 1 - i) * f[i] % p for i in range(len(f) - 1)]
    return len(_poly_gcd_fp(f, df, p)) == 1


def _trim(f):
    i = 0
    while i < len(f) - 1 and _is_zero(f[i]):
        i += 1
    return f[i:]


def _is_zero(c):
    return c == 0 or c == (0, 0)


def _poly_gcd_fp(a, b, p):
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _poly_mod_fp(a, b, p)
    return a


def _poly_mod_fp(a, b, p):
    a = a[:]
    inv_lead = pow(b[0], p - 2, p)
    while len(a) >= len(b) and not (len(a) == 1 and a[0] == 0):
        f = a[0] * inv_lead % p
        for i in range(len(b)):
            a[i] = (a[i] - f * b[i]) % p
        a = _trim(a)
        if a == [0]:
            break
    return a


def _poly_gcd_ext(ext, a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while not (len(b) == 1 and _is_zero(b[0])):
        a, b = b, _poly_mod_ext(ext, a, b)
    return a


def _poly_mod_ext(ext, a, b):
    p = ext.base.p
    a = list(a)
    lead = b[0]
    inv_lead = ext.pow(lead, p * p - 2)
    while len(a) >= len(b) and not (len(a) == 1 and _is_zero(a[0])):
        f = ext.mul(a[0], inv_lead)
        for i in range(len(b)):
            t = ext.mul(f, b[i])
            a[i] = ((a[i][0] - t[0]) % p, (a[i][1] - t[1]) % p)
        a = _trim(a)
        if len(a) == 1 and _is_zero(a[0]):
            break
    return a


def _genus2_count_fp(coeffs: np.ndarray, p: int, qr: np.ndarray) -> int:
    """Points of y^2 = f(x) over F_p, deg f = 6, plus smooth-model infinity."""
    x = np.arange(p, dtype=np.int64)
    v = np.zeros(p, dtype=np.int64)
    for co in coeffs:
        v = (v * x + int(co)) % p
    cnt = int(np.sum(1 + qr[v]))
    lead = int(coeffs[0]) % p
    if lead != 0:
        cnt += 1 + int(qr[lead])
    else:
        cnt += 1  # degree dropped to 5: one place at infinity
    return cnt


def _genus2_count_fp2(co_re: np.ndarray, co_im: np.ndarray, p: int, nu: int,
                      qr: np.ndarray) -> int:
    """Points of y^2 = f(x) over F_{p^2} = F_p(sqrt(nu)).

    Squareness in F_{p^2} is tested via the norm: z is a square iff
    N(z) = re^2 - nu*im^2 is a square in F_p (or z = 0).
    """
    re = np.arange(p, dtype=np.int64).repeat(p)
    im = np.tile(np.arange(p, dtype=np.int64), p)
    vr = np.zeros(p * p, dtype=np.int64)
    vi = np.zeros(p * p, dtype=np.int64)
    for cr, ci in zip(co_re, co_im):
        vr, vi = (vr * re + nu * vi * im + int(cr)) % p, (vr * im + vi * re + int(ci)) % p
    norm = (vr * vr - nu * vi * vi) % p
    cnt = int(np.sum(np.where((vr == 0) & (vi == 0), 1, 1 + qr[norm])))
    lr, li = int(co_re[0]) % p, int(co_im[0]) % p
    if lr == 0 and li == 0:
        cnt += 1
    else:
        lead_norm = (lr * lr - nu * li * li) % p
        cnt += 1 + int(qr[lead_norm])
    return cnt


def count_genus2_fp(ctx: PrimeFieldCtx, coeffs) -> int:
    co = np.array([c[0] % ctx.p for c in coeffs], dtype=np.int64)
    return _genus2_count_fp(co, ctx.p, _qr_table(ctx))


def count_genus2_fp2(ctx: PrimeFieldCtx, coeffs, ext: QuadExtCtx | None = None) -> int:
    if ext is None:
        ext = build_quad_ext(ctx)
    co_re = np.array([c[0] % ctx.p for c in coeffs], dtype=np.int64)
    co_im = np.array([c[1] % ctx.p for c in coeffs], dtype=np.int64)
    return _genus2_count_fp2(co_re, co_im, ctx.p, ext.nu, _qr_table(ctx))


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


def baba_granath_qm_scan(ctx: PrimeFieldCtx, j: int):
    """Run qm_consistency on both s-branches at j; returns list of (branch, QMResult)."""
    out = []
    ext = build_quad_ext(ctx)
    for branch in (1, -1):
        coeffs, field_tag, flags = baba_granath_curve(ctx, j, branch)
        if coeffs is None or any("bad reduction" in f for f in flags):
            out.append((branch, QMResult(None, False, "; ".join(flags) or "degenerate")))
            continue
        if field_tag != "F_p":
            out.append((branch, QMResult(None, False, "curve only defined over F_p2")))
            continue
        n1 = count_genus2_fp(ctx, coeffs)
        n2 = count_genus2_fp2(ctx, coeffs, ext)
        out.append((branch, qm_consistency(n1, n2, ctx.p)))
    return out


def frobenius_quartic_data(ctx: PrimeFieldCtx, j: int, branch: int = 1):
    """(n1 or None, n2, sum of squared eigenvalues) for the branch at j.

    Works for both residue classes of -6j: over F_p2 the count always exists
    and p^2 + 1 - n2 is the sum of the squared F_p-Frobenius eigenvalues when
    the curve descends, or the F_{p^2}-trace otherwise.
    """
    coeffs, field_tag, flags = baba_granath_curve(ctx, j, branch)
    if coeffs is None or any("bad reduction" in f for f in flags):
        raise FieldError("degenerate j")
    ext = build_quad_ext(ctx)
    n2 = count_genus2_fp2(ctx, coeffs, ext)
    n1 = count_genus2_fp(ctx, coeffs) if field_tag == "F_p" else None
    return n1, n2, ctx.p ** 2 + 1 - n2


# ---------------------------------------------------------------------------
# Conic and Igusa-Clebsch


def conic_points(ctx: PrimeFieldCtx) -> int:
    """Exact projective count of x^2 + 3y^2 + z^2 = 0 (p > 3)."""
    p = ctx.p
    if p <= 3:
        raise FieldError("need p > 3")
    cnt = 0
    for y in range(p):  # (1 : y : z) chart, x = 1
        v = (-(1 + 3 * y * y)) % p
        if v == 0:
            cnt += 1
        elif ctx.legendre(v) == 1:
            cnt += 2
    # x = 0: (0 : 1 : z)
    v = (-3) % p
    if ctx.legendre(v) == 1:
        cnt += 2
    elif v == 0:
        cnt += 1
    # x = 0, y = 0 impossible
    return cnt


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
# Generic twist invariant


def count_legendre_twist(ctx: PrimeFieldCtx, lam: int, d: int) -> CurveCount:
    """Quadratic twist by d of the Legendre curve: y^2 = d x(x-1)(x-lam)."""
    return _count_legendre_twist(ctx, lam, d, "legendre-twist", "bad parameter")


def count_points(spec, fieldctx) -> CurveCount:
    """Dispatch a CurveSpec to its counter (PrimeFieldCtx or QuadExtCtx)."""
    if isinstance(fieldctx, QuadExtCtx):
        if isinstance(spec, Legendre):
            return count_legendre_fp2(fieldctx, (spec.lam % fieldctx.base.p, 0))
        if isinstance(spec, BabaGranath):
            ctx = fieldctx.base
            coeffs, _tag, flags = baba_granath_curve(ctx, spec.j, spec.branch)
            if coeffs is None:
                return CurveCount("baba-granath", fieldctx.q, 0, None, good=False, flags=flags)
            n2 = count_genus2_fp2(ctx, coeffs, fieldctx)
            return CurveCount("baba-granath/F_p2", fieldctx.q, n2, None, flags=flags)
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
            return CurveCount("baba-granath", ctx.p, 0, None, good=False, flags=flags)
        if field_tag != "F_p":
            return CurveCount("baba-granath", ctx.p, 0, None, good=False,
                              flags=flags + ("no F_p model; count over F_p2",))
        if any("bad reduction" in f for f in flags):
            return CurveCount("baba-granath", ctx.p, 0, None, good=False, flags=flags)
        n1 = count_genus2_fp(ctx, coeffs)
        tr = ctx.p + 1 - n1
        return CurveCount("baba-granath", ctx.p, n1,
                          tr // 2 if tr % 2 == 0 else None, flags=flags)
    if isinstance(spec, ConicX6):
        return CurveCount("conic-x6", ctx.p, conic_points(ctx), None)
    raise TypeError(f"unknown curve spec {spec!r}")
