import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hgtrace import curve_lab
from hgtrace.character_sums import SnapError
from hgtrace.curve_lab import (baba_granath_curve, baba_granath_qm_sweep,
                               count_genus2_fp, count_genus2_fp2,
                               count_gen_legendre, count_legendre,
                               count_universal_j,
                               count_points, count_via_characters,
                               gen_legendre_counts, legendre_trace_sweep,
                               QMResult, qm_consistency)
from hgtrace.field_core import FieldError, build_quad_ext, cached_ctx, is_prime


def test_legendre_hand_count(ctx7):
    cc = count_legendre(ctx7, 2)
    assert cc.n_points == 8 and cc.trace == 0


def test_legendre_bad_reduction(ctx7):
    for lam in (0, 1):
        cc = count_legendre(ctx7, lam)
        assert not cc.good and "bad reduction" in cc.flags[0]


def test_legendre_weil(ctx13):
    for lam in range(2, 13):
        cc = count_legendre(ctx13, lam)
        assert cc.trace * cc.trace <= 4 * 13


def literal_legendre_trace(p, lam):
    """a_E(lam) = -sum_x (x(x-1)(x-lam))^((p-1)/2) mod p, each power lifted to
    -1, 0 or 1 (Euler's criterion)."""
    e = (p - 1) // 2
    return -sum((pow(x * (x - 1) * (x - lam), e, p) + 1) % p - 1 for x in range(p))


def test_legendre_sweep_matches_single():
    """The correlation sweep and count_points("legendre") against the literal sum,
    every lambda at every prime 3 <= p <= 101 (bad reduction at 0 and 1)."""
    for p in [q for q in range(3, 102) if is_prime(q)]:
        ctx = cached_ctx(p)
        traces = legendre_trace_sweep(ctx)
        assert traces.dtype == np.int64 and not traces.flags.writeable
        for lam in range(p):
            a = literal_legendre_trace(p, lam)
            assert int(traces[lam]) == a, (p, lam)
            cc = count_points("legendre", ctx, lam=lam)
            if lam in (0, 1):
                assert not cc.good and cc.trace is None
            else:
                assert (cc.n_points, cc.trace) == (p + 1 - a, a), (p, lam)


def test_legendre_sweep_guards_raise(skewed_legendre_correlation):
    """A correlation value off by 1 fails the 4 | p + 1 - a test, one off by
    0.4 fails the rounding test; neither yields a trace."""
    ctx = cached_ctx(1009)
    if skewed_legendre_correlation == 1.0:
        match = "a_E\\(5\\) = .* not divisible by 4"
    else:
        match = "lam = 5, p = 1009 .* not within 0.25"
    with pytest.raises(SnapError, match=match):
        legendre_trace_sweep(ctx)
    with pytest.raises(SnapError):
        count_points("legendre", ctx, lam=3)


SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("block", [None, 64])
def test_legendre_fp2_matches_frobenius(block, monkeypatch):
    """#E(F_p2) = p^2 + 1 - (a_p^2 - 2p) with a_p from the F_p sweep; a block
    of 64 elements makes F_p2 run in many blocks, the last one partial."""
    if block is not None:
        monkeypatch.setattr(curve_lab, "_BLOCK", block)
    for p in (3,) + SMALL_PRIMES:
        ctx = cached_ctx(p)
        ext = build_quad_ext(ctx)
        traces = legendre_trace_sweep(ctx)
        for lam in range(2, p):
            a = int(traces[lam])
            cc = count_points("legendre", ext, lam=lam)
            assert cc.q == p * p
            assert cc.n_points == p * p + 1 - (a * a - 2 * p), (p, lam)


def test_legendre_fp2_matches_frobenius_past_the_literal_primes():
    """The float64 matmul path at p = 1009 and 2003, over half of F_p2 in
    about 70 and 280 blocks: #E(F_p2) = p^2 + 1 - (a_p^2 - 2p)."""
    for p in (1009, 2003):
        ctx = cached_ctx(p)
        ext = build_quad_ext(ctx)
        traces = legendre_trace_sweep(ctx)
        for lam in (2, 3, p // 2, p - 1):
            a = int(traces[lam])
            assert count_points("legendre", ext, lam=lam).n_points == p * p + 1 - (a * a - 2 * p)


def test_count_y2_fp2_refuses_rows_past_float64_exactness(monkeypatch):
    """A row's sums reach n_coef * (p - 1)^2, exact in float64 below 2^53:
    900,901 coefficients at p = 99991 pass it (900,900 would not) and raise
    before any point is evaluated."""
    ext = build_quad_ext(cached_ctx(99991))
    monkeypatch.setattr(curve_lab, "_reduce", lambda v, p: pytest.fail("points evaluated"))
    assert 900900 * 99990 ** 2 < 2 ** 53 <= 900901 * 99990 ** 2
    row = np.zeros((1, 900901), dtype=np.int64)
    with pytest.raises(FieldError, match="2\\^53"):
        curve_lab._count_y2_fp2(ext, row, row)


def test_count_y2_fp2_refuses_rows_past_int64_norms(monkeypatch):
    """Rows in F_p take the norm of their unreduced sums, up to
    nu * (n_coef * (p - 1)^2)^2: sextics at p = 99991 pass the 2^53 bound but
    not 2^63, and raise before any point is evaluated."""
    ext = build_quad_ext(cached_ctx(99991))
    monkeypatch.setattr(curve_lab, "_reduce", lambda v, p: pytest.fail("points evaluated"))
    assert 7 * 99990 ** 2 < 2 ** 53 and ext.nu * (7 * 99990 ** 2) ** 2 >= 2 ** 63
    sextic = np.ones((2, 7), dtype=np.int64)
    with pytest.raises(FieldError, match="2\\^63"):
        curve_lab._count_y2_fp2(ext, sextic, np.zeros_like(sextic))


def literal_count_y2_fp2(ext, co_re, co_im):
    """Points of y^2 = f(x) over F_p2 by enumerating y for every x, plus the
    places at infinity: 1 for odd degree or a vanishing sextic lead, else the
    y with y^2 = lead."""
    p = ext.base.p
    elems = [(u, w) for u in range(p) for w in range(p)]
    roots = {}
    for y in elems:
        z = ext.mul(y, y)
        roots[z] = roots.get(z, 0) + 1
    coeffs = list(zip(co_re, co_im))
    affine = 0
    for x in elems:
        v = (0, 0)
        for c in coeffs:
            v = ext.add(ext.mul(v, x), (c[0] % p, c[1] % p))
        affine += roots.get(v, 0)
    lead = (co_re[0] % p, co_im[0] % p)
    odd_degree = len(coeffs) % 2 == 0
    at_inf = 1 if odd_degree or lead == (0, 0) else roots.get(lead, 0)
    return affine + at_inf


@pytest.mark.parametrize("block", [None, 64])
def test_count_y2_fp2_batched_matches_literal(block, monkeypatch):
    """Several rows in one call, against literal enumeration over F_p2: all
    rows in F_p (the halved evaluation) and with non-real rows placed before
    and after them (a full pass of their own, the counts back in row order),
    sextics with a vanishing lead, and cubics; a block of 64 (row, point)
    pairs leaves the last block partial."""
    if block is not None:
        monkeypatch.setattr(curve_lab, "_BLOCK", block)
    rng = random.Random(11)
    for p in (3, 5, 7, 11, 13):
        ext = build_quad_ext(cached_ctx(p))
        for degree in (6, 3):
            rational = [[rng.randrange(p) for _ in range(degree + 1)] for _ in range(4)]
            rational[0][0] = 0
            zeros = [[0] * (degree + 1) for _ in rational]
            non_real = [[rng.randrange(p) for _ in range(degree + 1)] for _ in range(2)]
            non_real[1][0] = 0
            for rows_re, rows_im in ((rational, zeros),
                                     (non_real[:1] + rational + non_real[1:],
                                      non_real[:1] + zeros + non_real[1:])):
                got = curve_lab._count_y2_fp2(ext, rows_re, rows_im)
                want = [literal_count_y2_fp2(ext, re, im)
                        for re, im in zip(rows_re, rows_im)]
                assert got == want, (p, degree, rows_re, rows_im)


def test_qm_sweep_is_per_j_scan(monkeypatch):
    """One batched count for every j equals the scans one j at a time."""
    monkeypatch.setattr(curve_lab, "_BLOCK", 1000)
    ctx = cached_ctx(29)
    js = list(range(1, 29))
    assert baba_granath_qm_sweep(ctx, js) == [baba_granath_qm_sweep(ctx, [j])[0]
                                              for j in js]


def test_universal_j_literal_count():
    """Against (x, y) enumeration of y^2 + xy = x^3 - (36x + 1)/(j - 1728)."""
    for p in SMALL_PRIMES:
        ctx = cached_ctx(p)
        for j in range(1, p):
            if j == 1728 % p:
                continue
            c = ctx.inv(j - 1728)
            affine = sum(1 for x in range(p) for y in range(p)
                         if (y * y + x * y - x ** 3 + (36 * x + 1) * c) % p == 0)
            assert count_universal_j(ctx, j).n_points == affine + 1, (p, j)


def _literal_places(p, N, a, b, c, lam):
    """Places of the smooth model of y^N = x^a (x-1)^b (x-lam)^c, enumerated:
    the (x, y) off the roots, and above each root of multiplicity m with unit
    u0 (and above infinity, m = a + b + c and u0 = 1) the w with
    w^gcd(N, m) = u0."""
    nth = Counter(pow(y, N, p) for y in range(p))
    roots = ((0, a), (1, b), (lam, c))
    n = sum(nth[x ** a * (x - 1) ** b * (x - lam) ** c % p]
            for x in range(p) if x not in (0, 1, lam))
    for r, m in roots + ((None, a + b + c),):
        u0 = 1 if r is None else math.prod((r - r1) ** m1 for r1, m1 in roots if r1 != r) % p
        n += sum(1 for w in range(1, p) if pow(w, math.gcd(N, m), p) == u0)
    return n


def test_gen_legendre_literal_count(monkeypatch):
    """Both routes at every lam against _literal_places, at every small p (the
    character route where p = 1 mod N), and each count_gen_legendre is its
    lam's row of the sweep; again with blocks of 64 (lam, x) entries, which
    split the lams of a p, the last block partial. The last three models have
    gcd(N, m, p - 1) = 2 at one root, whose places (two or none) turn on
    whether its unit u0 is a square, so a sign slip in u0 shows."""
    for block in (curve_lab._BLOCK, 64):
        monkeypatch.setattr(curve_lab, "_BLOCK", block)
        for N, a, b, c in ((6, 4, 3, 1), (3, 1, 1, 2), (4, 1, 1, 1), (6, 1, 1, 5),
                           (4, 2, 1, 3), (4, 1, 2, 3), (4, 3, 1, 2)):
            for p in SMALL_PRIMES:
                ctx, lams = cached_ctx(p), range(2, p)
                want = [_literal_places(p, N, a, b, c, lam) for lam in lams]
                assert gen_legendre_counts(ctx, N, a, b, c, lams).tolist() == want, (N, p)
                assert [count_gen_legendre(ctx, N, a, b, c, lam).n_points
                        for lam in lams] == want, (N, p)
                if (p - 1) % N == 0:
                    n_points, sums, new = count_via_characters(ctx, N, a, b, c, lams)
                    assert n_points.tolist() == want, (N, p, block)
                    assert sums.shape == (p - 2, N) and new.shape == (p - 2,)


def test_gen_legendre_routes_peak_memory_is_a_few_blocks():
    """verify genlegendre's two calls at p = 1009 build their (lam, x) grid a
    block of about _BLOCK entries at a time: each call peaks under six int64
    arrays of _BLOCK entries (3.1 MB), where one int64 array of the whole
    1007 x 1009 grid is 8.1 MB."""
    p = 1009
    ctx, lams = cached_ctx(p), np.arange(2, p)
    for route in (gen_legendre_counts, count_via_characters):
        route(ctx, 6, 4, 3, 1, lams)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            route(ctx, 6, 4, 3, 1, lams)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * curve_lab._BLOCK, (route.__name__, peak)


def test_genus2_fp_literal_count(monkeypatch):
    """Random sextics with no repeated root in F_p, against (x, y) enumeration
    plus the y with y^2 = lead at infinity; six per p in one batched call,
    also with blocks of 64 (row, point) pairs, a few rows per block."""
    rng = random.Random(5)
    for p in SMALL_PRIMES:
        ctx = cached_ctx(p)
        sextics, want = [], []
        while len(sextics) < 6:
            f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(6)]
            df = [(6 - i) * c for i, c in enumerate(f[:-1])]
            ev = lambda g, x: sum(c * x ** (len(g) - 1 - i) for i, c in enumerate(g)) % p
            if any(ev(f, x) == 0 and ev(df, x) == 0 for x in range(p)):
                continue
            affine = sum(1 for x in range(p) for y in range(p)
                         if (y * y - ev(f, x)) % p == 0)
            at_inf = sum(1 for y in range(p) if (y * y - f[0]) % p == 0)
            sextics.append([(c, 0) for c in f])
            want.append(affine + at_inf)
        assert count_genus2_fp(ctx, sextics) == want, p
        with monkeypatch.context() as m:
            m.setattr(curve_lab, "_BLOCK", 64)
            assert count_genus2_fp(ctx, sextics) == want, p


def test_gen_legendre_is_line_when_N_coprime_to_p_minus_1():
    """With gcd(N, p - 1) = 1, y -> y^N is a bijection of F_p, so every model
    y^N = x^a (x-1)^b (x-lam)^c has p + 1 places."""
    for p in (3,) + SMALL_PRIMES + (41, 47):
        ctx = cached_ctx(p)
        for N in (3, 5, 7, 9):
            if math.gcd(N, p - 1) != 1 or N % p == 0:
                continue
            for a, b, c in ((1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 3, 3), (4, 1, 4)):
                for lam in range(2, p):
                    cc = count_gen_legendre(ctx, N, a, b, c, lam)
                    assert cc.n_points == p + 1, (p, N, a, b, c, lam)


def test_universal_j(ctx13):
    for j in range(1, 13):
        if j in (0, 1728 % 13):
            continue
        cc = count_points("universal-j", ctx13, j=j)
        assert cc.good and cc.trace * cc.trace <= 4 * 13
    assert not count_points("universal-j", ctx13, j=1728 % 13).good


def test_gen_legendre_two_routes(ctx13):
    viachars, sums, _new = count_via_characters(ctx13, 6, 4, 3, 1, range(2, 13))
    for i, lam in enumerate(range(2, 13)):
        direct = count_points("genlegendre", ctx13, N=6, a=4, b=3, c=1, lam=lam)
        assert direct.good
        assert direct.n_points == viachars[i]
        # the trivial-character sum is the affine line minus excluded fibers
        assert round(sums[i, 0].real) == 13 - 3


def test_gen_legendre_degenerate_N1(ctx13):
    cc = count_points("genlegendre", ctx13, N=1, a=4, b=3, c=1, lam=5)
    assert cc.n_points == 13 + 1  # the x-line with infinity


def test_gen_legendre_second_family(ctx13):
    # a different admissible (N, a, b, c): both routes still agree
    viachars, _s, _n = count_via_characters(ctx13, 3, 2, 1, 1, range(2, 13))
    for i, lam in enumerate(range(2, 13)):
        direct = count_points("genlegendre", ctx13, N=3, a=2, b=1, c=1, lam=lam)
        assert direct.n_points == viachars[i]


def test_gen_legendre_congruence_guard(ctx11):
    with pytest.raises(Exception):
        count_via_characters(ctx11, 6, 4, 3, 1, [3])  # 11 != 1 mod 6


def test_new_part_weil(ctx13):
    """The primitive-character part of y^6 = x^4 (x-1)^3 (x-lam) has trace
    -new_part: the Mobius combination of the subcover traces over d | 6, and
    within the Weil bound of its two dimensions."""
    p = 13
    _n, _sums, new_parts = count_via_characters(ctx13, 6, 4, 3, 1, range(2, p))
    for lam, new in zip(range(2, p), new_parts):
        t = -round(new.real)
        assert abs(new + t) < 1e-9
        trace = {d: p + 1 - count_gen_legendre(ctx13, d, 4, 3, 1, lam).n_points
                 for d in (2, 3, 6)}
        assert t == trace[6] - trace[3] - trace[2], lam
        assert abs(t) <= 4 * math.sqrt(p) + 1e-9


def test_qm_consistency_t0_case():
    p = 13
    assert qm_consistency(p + 1, p * p + 1 + 4 * p, p).passed


def test_qm_consistency_negative_control(ctx13):
    # a random squarefree sextic is generically not of split QM shape
    rng = random.Random(3)
    fails = 0
    trials = 0
    for _ in range(12):
        coeffs = [(rng.randrange(13), 0) for _ in range(7)]
        if coeffs[0][0] == 0:
            continue
        n1, = count_genus2_fp(ctx13, [coeffs])
        n2, = count_genus2_fp2(ctx13, [coeffs])
        trials += 1
        if not qm_consistency(n1, n2, 13).passed:
            fails += 1
    assert trials >= 8 and fails >= trials - 1


def test_baba_granath_degenerate_j0(ctx13):
    coeffs, tag, flags = baba_granath_curve(ctx13, 0)
    assert coeffs is None and "CM point" in flags[0]


@pytest.mark.parametrize("branch", [0, 2, -2])
def test_baba_granath_branch_is_a_sign(branch, ctx13):
    """Only s = +-sqrt(-6j) lies on the family; any other branch raises."""
    with pytest.raises(FieldError, match="branch must be 1 or -1"):
        baba_granath_curve(ctx13, 5, branch)


def _bareiss_det(m):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for c in range(k + 1, n):
                m[i][c] = (m[i][c] * m[k][k] - m[i][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _bg_rows(t):
    """The sextic's coefficients are u + v*s, degree 6 down to 0."""
    return ((-4, 6 * t, 84 * t, -4 * t ** 2, 84 * t ** 2, 6 * t ** 3, -4 * t ** 3),
            (3, 0, 27 * t, 0, -27 * t ** 2, 0, -3 * t ** 3))


def test_baba_granath_discriminant_identity():
    """disc(f) = 2^57 3^15 j^3 (27j + 16)^15, so for p > 5 the sextic is
    squarefree at every j but the two degenerate ones.

    With integer s, j = -s^2/6 and t = -2(27j + 16) = 9s^2 - 32, the
    coefficients are integers of degree <= 7 in s; disc(f), homogeneous of
    degree 10 and isobaric of weight 30 in them, has degree <= 40 in s, so
    agreement at 45 values of s is the polynomial identity. disc(f) is
    (-1)^15 * Res(f, f') / lead, the resultant a Sylvester determinant.
    """
    for s in range(1, 46):
        j, t = Fraction(-s * s, 6), 9 * s * s - 32
        u, v = _bg_rows(t)
        f = [a + b * s for a, b in zip(u, v)]
        df = [(6 - i) * c for i, c in enumerate(f[:-1])]
        syl = ([[0] * i + f + [0] * (4 - i) for i in range(5)]
               + [[0] * i + df + [0] * (5 - i) for i in range(6)])
        res = _bareiss_det(syl)
        assert res % f[0] == 0
        assert -res // f[0] == 2 ** 57 * 3 ** 15 * j ** 3 * (27 * j + 16) ** 15


def test_baba_granath_curve_is_the_rows():
    """baba_granath_curve's pairs are (u + v*s, 0) over F_p and (u, v*s1) with
    s = s1*sqrt(nu) otherwise, s read off the leading coefficient -4 + 3s."""
    for p in (29, 31):
        ctx = cached_ctx(p)
        i3 = pow(3, -1, p)
        for j in range(1, p):
            for branch in (1, -1):
                coeffs, tag, _flags = baba_granath_curve(ctx, j, branch)
                if coeffs is None:
                    continue
                u, v = _bg_rows((-2 * (27 * j + 16)) % p)
                if tag == "F_p":
                    s = (coeffs[0][0] + 4) * i3 % p
                    assert s * s % p == -6 * j % p
                    want = [((a + b * s) % p, 0) for a, b in zip(u, v)]
                else:
                    s1 = coeffs[0][1] * i3 % p
                    assert ctx.ext.nu * s1 * s1 % p == -6 * j % p
                    want = [(a % p, b * s1 % p) for a, b in zip(u, v)]
                assert list(coeffs) == want


BG_PRIMES = [p for p in range(7, 110) if is_prime(p)]


def test_baba_granath_branches_are_inverted_sextics():
    """x^6 f_+(t/x) = t^3 f_-(x) with t = -2(27j + 16). Over Z[t] the row u is
    palindromic and v anti-palindromic under x -> t/x: both sides have degree
    <= 9 in t, so 10 values of t prove it. Mod p, the -1 sextic is exactly
    _inverted_sextic of the +1 sextic at every non-degenerate j, over F_p and
    over F_p2."""
    for t in range(1, 11):
        u, v = _bg_rows(t)
        for i in range(7):
            assert t ** i * u[6 - i] == t ** 3 * u[i], (t, i)
            assert t ** i * v[6 - i] == -t ** 3 * v[i], (t, i)
    for p in BG_PRIMES:
        ctx = cached_ctx(p)
        tags = set()
        for j in range(1, p):
            plus, tag, _flags = baba_granath_curve(ctx, j, 1)
            minus, _tag, _flags = baba_granath_curve(ctx, j, -1)
            if plus is None:
                assert minus is None
                continue
            tags.add(tag)
            assert minus == curve_lab._inverted_sextic(p, j, plus), (p, j)
            assert plus == curve_lab._inverted_sextic(p, j, minus), (p, j)
        assert tags == {"F_p", "F_p2"}, p


def test_baba_granath_branches_consistent():
    """Both s-branches give the same F_p2 count at every non-degenerate j and
    every prime 7 <= p < 110, over F_p and over F_p2 (x -> t/x maps one curve
    onto the other); each branch is counted in its own count_genus2_fp2 call."""
    for p in BG_PRIMES:
        ctx = cached_ctx(p)
        js = [j for j in range(1, p) if baba_granath_curve(ctx, j)[0] is not None]
        plus, minus = (count_genus2_fp2(ctx, [baba_granath_curve(ctx, j, branch)[0]
                                              for j in js])
                       for branch in (1, -1))
        assert plus == minus, p


def direct_qm_scans(ctx, js, one_call_per_sextic=True):
    """baba_granath_qm_sweep's scans, each sextic over F_p counted on its own
    (or each branch's sextics in one call) and no count shared between
    branches."""
    scans, pending = [], {1: [], -1: []}
    for j in js:
        scan = []
        for branch in (1, -1):
            coeffs, tag, flags = baba_granath_curve(ctx, j, branch)
            if coeffs is None:
                res = QMResult(None, False, "; ".join(flags))
            elif tag != "F_p":
                res = QMResult(None, False, "curve only defined over F_p2")
            else:
                res = None
                pending[branch].append((scan, len(scan), coeffs))
            scan.append((branch, res))
        scans.append(scan)
    for rows in pending.values():
        sextics = [coeffs for _scan, _i, coeffs in rows]
        if one_call_per_sextic:
            n1s = [count_genus2_fp(ctx, [f])[0] for f in sextics]
            n2s = [count_genus2_fp2(ctx, [f])[0] for f in sextics]
        else:
            n1s, n2s = count_genus2_fp(ctx, sextics), count_genus2_fp2(ctx, sextics)
        for (scan, i, _coeffs), n1, n2 in zip(rows, n1s, n2s):
            scan[i] = (scan[i][0], qm_consistency(n1, n2, ctx.p))
    return scans


@pytest.mark.parametrize("p", [29, 37, 41, 53, 61])
def test_qm_sweep_matches_direct_counts(p):
    """The sweep, which reads the -1 branch's F_p2 count off the +1 branch,
    gives the QMResult of per-sextic direct counts at every (j, branch)."""
    ctx = cached_ctx(p)
    js = range(1, p)
    want = direct_qm_scans(ctx, js)
    assert baba_granath_qm_sweep(ctx, js) == want
    results = [res for scan in want for _branch, res in scan]
    assert any(res.t is not None for res in results), p


@pytest.mark.slow
def test_qm_sweep_matches_direct_counts_at_397():
    """The same at p = 397 over all 396 sextics defined over F_p, each branch
    counted in its own calls; verify qm's digest at 397 pins only "0
    passing", and QMResult.detail names every n2 that fails."""
    ctx = cached_ctx(397)
    js = range(1, 397)
    want = direct_qm_scans(ctx, js, one_call_per_sextic=False)
    assert sum(res.t is not None for scan in want for _branch, res in scan) == 396
    assert baba_granath_qm_sweep(ctx, js) == want


def test_qm_sweep_counts_an_off_family_branch_itself(monkeypatch):
    """Count reuse is gated by the exact identity: with the -1 sextic at one j
    moved off the family (constant coefficient + 1), the sweep sends it to
    count_genus2_fp2 as one more row, and its QMResult is that of its own
    direct counts."""
    p = 29
    ctx = cached_ctx(p)
    js = list(range(1, p))
    real_curve, real_fp2 = curve_lab.baba_granath_curve, curve_lab.count_genus2_fp2

    def moved(j):
        coeffs = real_curve(ctx, j, -1)[0]
        return coeffs[:-1] + (((coeffs[-1][0] + 1) % p, coeffs[-1][1]),)

    # a j at which the moved sextic's F_p2 count differs from the family's,
    # so a reused count would give a different QMResult
    j0 = next(j for j in js if baba_granath_curve(ctx, j)[1] == "F_p"
              and real_fp2(ctx, [moved(j)]) != real_fp2(ctx, [real_curve(ctx, j)[0]]))

    def off_family(ctx, j, branch=1):
        coeffs, tag, flags = real_curve(ctx, j, branch)
        return (moved(j) if (j, branch) == (j0, -1) else coeffs), tag, flags

    rows = []

    def spy(ctx, sextics):
        rows.append(list(sextics))
        return real_fp2(ctx, sextics)

    monkeypatch.setattr(curve_lab, "count_genus2_fp2", spy)
    base = baba_granath_qm_sweep(ctx, js)
    monkeypatch.setattr(curve_lab, "baba_granath_curve", off_family)
    skewed = baba_granath_qm_sweep(ctx, js)
    assert len(rows) == 2 and len(rows[1]) == len(rows[0]) + 1
    assert moved(j0) in rows[1] and moved(j0) not in rows[0]
    n1, = count_genus2_fp(ctx, [moved(j0)])
    n2, = real_fp2(ctx, [moved(j0)])
    i0 = js.index(j0)
    assert skewed[i0] == [base[i0][0], (-1, qm_consistency(n1, n2, p))]
    assert skewed[i0] != base[i0]
    assert skewed[:i0] + skewed[i0 + 1:] == base[:i0] + base[i0 + 1:]


def test_baba_granath_fp_trace_zero(ctx13):
    """The F_p models have Frobenius trace 0 (the V4-twist structure)."""
    for j in range(1, 13):
        if (27 * j + 16) % 13 == 0 or ctx13.legendre(-6 * j) != 1:
            continue
        coeffs, _tag, _flags = baba_granath_curve(ctx13, j)
        if coeffs[0][0] % 13 == 0:
            continue
        n1, = count_genus2_fp(ctx13, [coeffs])
        assert n1 == 13 + 1


def test_baba_granath_qm_passes_at_29():
    ctx = cached_ctx(29)
    passed = 0
    for j in range(1, 29):
        for branch, res in baba_granath_qm_sweep(ctx, [j])[0]:
            if res.passed:
                passed += 1
    assert passed > 0


def test_frobenius_quartic_weil(ctx13):
    # p^2 + 1 - #C(F_p2) is the sum of the squared Frobenius eigenvalues
    sextics = [baba_granath_curve(ctx13, j)[0] for j in range(1, 13) if (27 * j + 16) % 13]
    assert len(sextics) == 11
    for n2 in count_genus2_fp2(ctx13, sextics):
        assert abs(13 ** 2 + 1 - n2) <= 4 * 13  # |sum of squared unit eigenvalues| <= 4p


def test_count_points_dispatch(ctx13):
    assert count_points("legendre", ctx13, lam=2).good
    bg = count_points("baba-granath", ctx13, j=2)
    assert bg.q == 13
    assert count_points("baba-granath", ctx13.ext, j=2).q == 169
    with pytest.raises(FieldError, match="^universal-j has no F_p2 counter$"):
        count_points("universal-j", ctx13.ext, j=2)
