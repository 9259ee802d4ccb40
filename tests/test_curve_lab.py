import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hgtrace import curve_lab
from hgtrace.character_sums import SnapError
from hgtrace.curve_lab import (BabaGranath, ConicX6, GenLegendre, Hesse,
                               JacobiQuartic, Legendre, PicardSub, UniversalJ,
                               baba_granath_curve, baba_granath_qm_sweep,
                               conic_points, count_genus2_fp, count_genus2_fp2,
                               count_gen_legendre, count_hesse, count_legendre,
                               count_universal_j,
                               count_points, count_via_characters,
                               igusa_clebsch_identity,
                               jacobi_quartic_isomorphism_check,
                               legendre_trace_sweep, qm_consistency)
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
    """The correlation sweep and count_points(Legendre) against the literal sum,
    every lambda at every prime 3 <= p <= 101 (bad reduction at 0 and 1)."""
    for p in [q for q in range(3, 102) if is_prime(q)]:
        ctx = cached_ctx(p)
        traces = legendre_trace_sweep(ctx)
        assert traces.dtype == np.int64 and not traces.flags.writeable
        for lam in range(p):
            a = literal_legendre_trace(p, lam)
            assert int(traces[lam]) == a, (p, lam)
            cc = count_points(Legendre(lam), ctx)
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
        count_points(Legendre(3), ctx)


SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("block", [None, 64])
def test_legendre_fp2_matches_frobenius(block, monkeypatch):
    """#E(F_p2) = p^2 + 1 - (a_p^2 - 2p) with a_p from the F_p sweep; a block
    of 64 elements makes F_p2 run in many blocks, the last one partial."""
    if block is not None:
        monkeypatch.setattr(curve_lab, "_FP2_BLOCK", block)
    for p in (3,) + SMALL_PRIMES:
        ctx = cached_ctx(p)
        ext = build_quad_ext(ctx)
        traces = legendre_trace_sweep(ctx)
        for lam in range(2, p):
            a = int(traces[lam])
            cc = count_points(Legendre(lam), ext)
            assert cc.q == p * p
            assert cc.n_points == p * p + 1 - (a * a - 2 * p), (p, lam)


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
        monkeypatch.setattr(curve_lab, "_FP2_BLOCK", block)
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
    monkeypatch.setattr(curve_lab, "_FP2_BLOCK", 1000)
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


def test_picard_literal_count():
    """Against (x, y) enumeration of y^3 = f(x); one place at infinity."""
    for p in SMALL_PRIMES:
        ctx = cached_ctx(p)
        for lam in range(2, p):
            cc = count_points(PicardSub(lam), ctx)
            if not cc.good:
                continue
            mu = 1 - lam
            affine = sum(1 for x in range(p) for y in range(p)
                         if (y ** 3 - x * (x - 1) * (x - lam) * (x - mu)) % p == 0)
            assert cc.n_points == affine + 1, (p, lam)


def test_genus2_fp_literal_count():
    """Random sextics with no repeated root in F_p, against (x, y) enumeration
    plus the y with y^2 = lead at infinity."""
    rng = random.Random(5)
    for p in SMALL_PRIMES:
        ctx = cached_ctx(p)
        checked = 0
        while checked < 6:
            f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(6)]
            df = [(6 - i) * c for i, c in enumerate(f[:-1])]
            ev = lambda g, x: sum(c * x ** (len(g) - 1 - i) for i, c in enumerate(g)) % p
            if any(ev(f, x) == 0 and ev(df, x) == 0 for x in range(p)):
                continue
            affine = sum(1 for x in range(p) for y in range(p)
                         if (y * y - ev(f, x)) % p == 0)
            at_inf = sum(1 for y in range(p) if (y * y - f[0]) % p == 0)
            assert count_genus2_fp(ctx, [(c, 0) for c in f]) == affine + at_inf
            checked += 1


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
        cc = count_points(UniversalJ(j), ctx13)
        assert cc.good and cc.trace * cc.trace <= 4 * 13
    assert not count_points(UniversalJ(1728 % 13), ctx13).good


def test_jacobi_quartic_examples(ctx13):
    assert jacobi_quartic_isomorphism_check(ctx13, 2)
    with pytest.raises(Exception):
        jacobi_quartic_isomorphism_check(ctx13, 5)  # 5^4 = 1 mod 13
    for s in range(2, 13):
        if s != 0 and pow(s, 4, 13) != 1:
            assert jacobi_quartic_isomorphism_check(ctx13, s)


def test_hesse_smoothness_and_twist_invariance():
    ctx = cached_ctx(13)
    zeta3 = pow(ctx.g, (13 - 1) // 3, 13)
    for mu in range(13):
        if pow(mu, 3, 13) == 1:
            assert not count_hesse(ctx, mu).good
            continue
        c1 = count_hesse(ctx, mu)
        c2 = count_hesse(ctx, zeta3 * mu % 13)
        assert c1.good and c1.n_points == c2.n_points
        assert c1.trace * c1.trace <= 4 * 13


def _hesse_points(p, mu):
    """x^3 + y^3 + z^3 = 3 mu xyz over P^2(F_p), point by point: every
    (x : y : 1) of the p x p grid in one array, then (x : 1 : 0); (1 : 0 : 0) is
    never on the curve."""
    x = np.arange(p, dtype=np.int64)
    cubes = x ** 3 % p
    grid = (cubes[:, None] + cubes[None, :] + 1 - 3 * mu * np.outer(x, x)) % p
    return int(np.count_nonzero(grid == 0)) + int(np.count_nonzero((cubes + 1) % p == 0))


def test_hesse_weierstrass_count_matches_projective_loop():
    for p in range(5, 140):
        if is_prime(p):
            ctx = cached_ctx(p)
            for mu in range(p):
                c = count_hesse(ctx, mu)
                assert c.good == (pow(mu, 3, p) != 1), (p, mu)
                if c.good:
                    assert c.n_points == _hesse_points(p, mu), (p, mu)


def test_hesse_characteristic_three_is_singular():
    # x^3 + y^3 + z^3 - 3 mu xyz = (x + y + z)^3 in characteristic 3
    ctx = cached_ctx(3)
    for mu in range(3):
        c = count_hesse(ctx, mu)
        assert not c.good and c.trace is None
        assert any(f.startswith("singular") for f in c.flags)


def test_gen_legendre_two_routes(ctx13):
    for lam in range(2, 13):
        direct = count_points(GenLegendre(6, 4, 3, 1, lam), ctx13)
        viachars, sums, new = count_via_characters(ctx13, 6, 4, 3, 1, lam)
        assert direct.good
        assert direct.n_points == viachars.n_points
        # the trivial-character sum is the affine line minus excluded fibers
        assert round(sums[0].real) == 13 - 3


def test_gen_legendre_degenerate_N1(ctx13):
    cc = count_points(GenLegendre(1, 4, 3, 1, 5), ctx13)
    assert cc.n_points == 13 + 1  # the x-line with infinity


def test_gen_legendre_second_family(ctx13):
    # a different admissible (N, a, b, c): both routes still agree
    for lam in range(2, 13):
        direct = count_points(GenLegendre(3, 2, 1, 1, lam), ctx13)
        viachars, _s, _n = count_via_characters(ctx13, 3, 2, 1, 1, lam)
        assert direct.n_points == viachars.n_points


def test_gen_legendre_congruence_guard(ctx11):
    with pytest.raises(Exception):
        count_via_characters(ctx11, 6, 4, 3, 1, 3)  # 11 != 1 mod 6


def test_new_part_weil(ctx13):
    """The primitive-character part of y^6 = x^4 (x-1)^3 (x-lam) has trace
    -new_part: the Mobius combination of the subcover traces over d | 6, and
    within the Weil bound of its two dimensions."""
    p = 13
    for lam in range(2, p):
        _cc, _sums, new = count_via_characters(ctx13, 6, 4, 3, 1, lam)
        t = -round(new.real)
        assert abs(new + t) < 1e-9
        trace = {d: p + 1 - count_gen_legendre(ctx13, d, 4, 3, 1, lam).n_points
                 for d in (2, 3, 6)}
        assert t == trace[6] - trace[3] - trace[2], lam
        assert abs(t) <= 4 * math.sqrt(p) + 1e-9


def test_picard_full_count(ctx13):
    cc = count_points(PicardSub(3), ctx13)
    assert cc.good and "exploratory" in cc.flags[0]
    # genus 3 Weil bound
    assert abs(cc.trace) <= 6 * math.sqrt(13) + 1e-9


def test_conic_counts():
    for p in (5, 7, 13, 17):
        assert conic_points(cached_ctx(p)) == p + 1


def test_igusa_clebsch():
    assert igusa_clebsch_identity(Fraction(2))
    assert igusa_clebsch_identity(Fraction(1, 4))
    assert igusa_clebsch_identity(Fraction(-1))
    with pytest.raises(ZeroDivisionError):
        igusa_clebsch_identity(Fraction(0))
    rng = random.Random(0)
    for _ in range(25):
        j = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if j != 0:
            assert igusa_clebsch_identity(j)


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
        n1 = count_genus2_fp(ctx13, coeffs)
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


def test_baba_granath_branches_consistent(ctx13):
    """Both s-branches give the same F_p2 count (they are conjugate twists)."""
    for j in range(1, 13):
        if (27 * j + 16) % 13 == 0:
            continue
        n2_plus, n2_minus = count_genus2_fp2(
            ctx13, [baba_granath_curve(ctx13, j, branch)[0] for branch in (1, -1)])
        assert n2_plus == n2_minus


def test_baba_granath_fp_trace_zero(ctx13):
    """The F_p models have Frobenius trace 0 (the V4-twist structure)."""
    for j in range(1, 13):
        if (27 * j + 16) % 13 == 0 or ctx13.legendre(-6 * j) != 1:
            continue
        coeffs, _tag, _flags = baba_granath_curve(ctx13, j)
        if coeffs[0][0] % 13 == 0:
            continue
        n1 = count_genus2_fp(ctx13, coeffs)
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
    assert count_points(ConicX6(), ctx13).n_points == 14
    assert count_points(Legendre(2), ctx13).good
    assert count_points(Hesse(2), ctx13).good
    assert count_points(JacobiQuartic(2), ctx13).good
    bg = count_points(BabaGranath(2), ctx13)
    assert bg.q == 13
