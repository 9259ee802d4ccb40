import math
import random

import numpy as np
import pytest

from hgtrace import character_sums
from hgtrace.character_sums import (CalibrationError, SnapError, _al_square_mask,
                                    _slot_table, al_square_decompose, bracket,
                                    calibrate_hp_weight, calibration_primes,
                                    clausen_reports, clausen_sweep,
                                    datum_char_exponents,
                                    datum_table, elliptic_square_value, hp_sum,
                                    jacobi_sum, np_sum, snap_tolerance)
from hgtrace.field_core import CongruenceError, build_ctx, cached_ctx, is_prime
from hgtrace.hgm_data import HGDatum, level, row_by_signature, triangle_table
from hgtrace.modform_oracle import load_fixture_by_label


def brute_jacobi(ctx, A, B):
    return sum(A(t) * B(1 - t) for t in range(ctx.p))


def brute_np_sum(ctx, A, B, lam):
    """Literal double-loop period sum, independent of the table machinery."""
    n = ctx.n
    pref = 1
    for a, b in zip(A[1:], B[1:]):
        pref *= -(a * b)(-1).real
    tot = 0j
    for e in range(n):
        chi = ctx.char(e)
        term = -(chi)(-1) * brute_jacobi(ctx, A[0] * chi, chi.inverse())
        for a, b in zip(A[1:], B[1:]):
            term *= -(b * chi)(-1) * brute_jacobi(ctx, a * chi, (b * chi).inverse())
        tot += term * chi(lam)
    tot /= n
    if lam % ctx.p == 0:
        d = 1 + 0j
        for a, b in zip(A[1:], B[1:]):
            d *= -b(-1) * brute_jacobi(ctx, a, b.inverse())
        tot += d
    return pref * tot


def test_jacobi_trivial_pair(ctx7, ctx13):
    assert jacobi_sum(ctx7.trivial_char, ctx7.trivial_char).snapped == 5
    assert jacobi_sum(ctx13.trivial_char, ctx13.trivial_char).snapped == 11


def test_jacobi_phi_phi(ctx7):
    phi = ctx7.quadratic_char
    v = jacobi_sum(phi, phi)
    assert v.snapped == 1  # equals -phi(-1) for p = 7


def test_jacobi_weil_magnitude(ctx13):
    chi6 = ctx13.char((13 - 1) // 6)
    v = jacobi_sum(chi6, chi6)
    assert abs(abs(v.z) - math.sqrt(13)) < snap_tolerance(13)


def test_bracket_trivial(ctx7):
    assert bracket(ctx7.trivial_char, ctx7.trivial_char).snapped == -5


def test_bracket_phi_eps(ctx7):
    assert bracket(ctx7.quadratic_char, ctx7.trivial_char).snapped == 1


def test_bracket_vs_double_loop(ctx13):
    rng = random.Random(7)
    for _ in range(20):
        A = ctx13.char(rng.randrange(12))
        B = ctx13.char(rng.randrange(12))
        direct = -B(-1) * brute_jacobi(ctx13, A, B.inverse())
        assert bracket(A, B).z == pytest.approx(direct, abs=1e-9)


def _admissible_rows(top=61):
    """(row, ctx) for every row and every prime 7 <= p <= top it admits."""
    for p in range(7, top + 1):
        if is_prime(p):
            for row in triangle_table():
                if (p - 1) % level(row.hd) == 0:
                    yield row, cached_ctx(p)


def _direct_slot(ctx, ea, eb):
    """The slot's brackets over all twists e, each from the O(p) Jacobi sum."""
    return np.array([bracket(ctx.char(ea + e), ctx.char(eb + e)).z
                     for e in range(ctx.n)])


def test_slot_table_equals_direct_brackets():
    """The DFT slot table is bracket(A chi^e, B chi^e) at every e: for every
    slot at p = 7, 11, 13 and for every datum slot of every row up to p = 61."""
    for p in (7, 11, 13):
        ctx = cached_ctx(p)
        for ea in range(ctx.n):
            for eb in range(ctx.n):
                np.testing.assert_allclose(_slot_table(ctx, ea, eb),
                                           _direct_slot(ctx, ea, eb),
                                           rtol=0, atol=1e-9, err_msg=f"{p} {ea} {eb}")
    for row, ctx in _admissible_rows():
        for ea, eb in zip(*datum_char_exponents(row.hd, ctx)):
            np.testing.assert_allclose(_slot_table(ctx, ea, eb),
                                       _direct_slot(ctx, ea, eb), rtol=0, atol=1e-9,
                                       err_msg=f"{row.name} {ctx.p} {ea} {eb}")


def test_sweep_equals_literal_period_sum():
    """sweep(lam) = prefactor/n * sum_e slot_product[e] * chi^e(lam) at every
    nonzero lam, for every row and prime up to 61, with the slot product
    taken from direct brackets and chi^e from MultCharacter.__call__."""
    for row, ctx in _admissible_rows():
        p, n = ctx.p, ctx.n
        a_exps, b_exps = datum_char_exponents(row.hd, ctx)
        prefactor = 1
        for ea, eb in zip(a_exps[1:], b_exps[1:]):
            prefactor *= -(ctx.char(ea) * ctx.char(eb))(-1).real
        slot_product = np.prod([_direct_slot(ctx, ea, eb)
                                for ea, eb in zip(a_exps, b_exps)], axis=0)
        chis = [ctx.char(e) for e in range(n)]
        literal = [prefactor / n * sum(w * chi(lam) for w, chi in zip(slot_product, chis))
                   for lam in range(1, p)]
        np.testing.assert_allclose(datum_table(row.hd, ctx).sweep(range(1, p)), literal,
                                   rtol=0, atol=1e-8, err_msg=f"{row.name} {p}")


def test_slot_cache_is_bounded_by_bytes(monkeypatch):
    ctx = cached_ctx(61)
    limit = 10 * 60 * 16  # ten tables of 60 complex entries
    monkeypatch.setattr(character_sums, "SLOT_CACHE_MAX_BYTES", limit)
    cache = character_sums._SLOT_CACHE
    keep = _slot_table(ctx, 1, 2)
    for ea in range(30):
        _slot_table(ctx, 1, 2)  # a hit refreshes the table's recency
        _slot_table(ctx, ea, 5)
        assert cache.nbytes <= limit
        assert cache.nbytes == sum(t.nbytes for t in cache.tables.values())
    assert len(cache.tables) == 10
    assert _slot_table(ctx, 1, 2) is keep
    assert (61, ctx.g, 0, 5) not in cache.tables


def test_np_sum_delta_branch(ctx13):
    phi, eps = ctx13.quadratic_char, ctx13.trivial_char
    eta = ctx13.char(3)
    v = np_sum([phi, eta, eta.inverse()], [eps, eps, eps], 0)
    pref = (-(eta * eps)(-1).real) * (-(eta.inverse() * eps)(-1).real)
    expect = pref * bracket(eta, eps).z * bracket(eta.inverse(), eps).z
    assert v.z == pytest.approx(expect, abs=1e-9)


def test_np_sum_vs_brute(ctx11):
    phi, eps = ctx11.quadratic_char, ctx11.trivial_char
    for lists in ([([phi, phi, phi], [eps, eps, eps])]
                  + [([phi, ctx11.char(2), ctx11.char(8)],
                      [eps, ctx11.char(5), ctx11.char(5)])]):
        A, B = lists
        for lam in (0, 1, 2, 7):
            got = np_sum(A, B, lam).z
            want = brute_np_sum(ctx11, A, B, lam)
            assert got == pytest.approx(want, abs=1e-8)


def test_np_sum_conjugation_symmetry(ctx13):
    phi, eps = ctx13.quadratic_char, ctx13.trivial_char
    A = [phi, ctx13.char(3), ctx13.char(9)]
    B = [eps, ctx13.char(10), ctx13.char(2)]
    Ac = [ch.inverse() for ch in A]
    Bc = [eps, ctx13.char(-10), ctx13.char(-2)]
    for lam in (2, 5, 11):
        v = np_sum(A, B, lam)
        vc = np_sum(Ac, Bc, lam)
        assert vc.z == pytest.approx(v.z.conjugate(), abs=1e-9)
        if v.snapped is not None:
            assert vc.snapped == v.snapped


def test_rank2_sum_squares_to_legendre_trace(ctx7, ctx13):
    """The n = 2 quadratic datum reproduces Legendre traces up to a twist:
    P(1/lam)^2 = a_E(lam)^2, and both vanish at p = 7, lam = 2."""
    from hgtrace.curve_lab import count_legendre
    for ctx in (ctx7, ctx13):
        phi, eps = ctx.quadratic_char, ctx.trivial_char
        for lam in range(2, ctx.p):
            v = np_sum([phi, phi], [eps, eps], ctx.inv(lam)).expect_int("rank-2 sum")
            assert v * v == count_legendre(ctx, lam).trace ** 2
    assert np_sum([ctx7.quadratic_char] * 2, [ctx7.trivial_char] * 2,
                  ctx7.inv(2)).snapped == 0


def test_np_sum_validation(ctx7):
    phi, eps = ctx7.quadratic_char, ctx7.trivial_char
    with pytest.raises(ValueError):
        np_sum([phi, phi], [eps], 2)
    with pytest.raises(ValueError):
        np_sum([phi, phi], [phi, eps], 2)


def test_hp_congruence_error():
    row = row_by_signature((2, 4, 6))
    with pytest.raises(CongruenceError):
        hp_sum(row.hd, cached_ctx(7), 3, row.hp_sign, row.hp_weight)


def test_hp_requires_rationality(ctx13):
    hd = HGDatum(("1/3", "1/2"), (1, 1))  # 1/3 alone: not Galois stable
    with pytest.raises(ValueError):
        hp_sum(hd, ctx13, 2, 1, 0)


def test_hp_delta_branch(ctx13):
    row = row_by_signature((2, 4, 6))
    table = datum_table(row.hd, ctx13)
    v = hp_sum(row.hd, ctx13, 0, row.hp_sign, row.hp_weight, table=table)
    expect = row.hp_sign * table.raw_value(0) / 13 ** row.hp_weight
    assert v.z == pytest.approx(expect, abs=1e-9)


def test_al_square_mask_matches_decompose():
    """The array test agrees with al_square_decompose on every a around the
    Weil box, for each divisor pattern of the table."""
    for p in (13, 37, 1009):
        a = np.arange(-p - 50, 3 * p + 50, dtype=np.int64)
        for divisors in ((1,), (1, 2), (1, 3), (1, 2, 3, 6)):
            mask = _al_square_mask(a + p, p, divisors)
            want = [al_square_decompose(int(x), p, divisors) is not None for x in a]
            assert mask.tolist() == want, (p, divisors)


def test_hp_sweep_square_property_row2oo(ctx13):
    """All generic lambda of the (2,oo,oo) row give a + p a perfect square <= 4p."""
    row = row_by_signature((2, "oo", "oo"))
    table = datum_table(row.hd, ctx13)
    p = 13
    for lam in range(2, p):
        h = hp_sum(row.hd, ctx13, ctx13.inv(lam), row.hp_sign, row.hp_weight, table=table)
        a = int(ctx13.legendre(1 - ctx13.inv(lam)) * h.snapped)
        d, t = al_square_decompose(a, p)
        assert d == 1 and t * t <= 4 * p


def test_calibrations_match_table_rows():
    # calibration primes: the first three p > 5 with p = 1 mod the row's level
    for sig, primes in (((2, "oo", "oo"), (7, 11, 13)), ((2, 3, "oo"), (7, 13, 19)),
                        ((2, 4, "oo"), (13, 17, 29)), ((2, 6, "oo"), (7, 13, 19)),
                        ((2, 4, 6), (13, 37, 61))):
        row = row_by_signature(sig)
        assert calibrate_hp_weight(row.hd) == (row.hp_sign, row.hp_weight), row.name
        assert calibration_primes(row.hd) == primes, row.name


def test_calibration_primes_start_at_level_plus_one():
    # level 10: 11 = M + 1 is the first prime = 1 mod 10
    hd = HGDatum(("1/10", "3/10", "7/10", "9/10"), (1, 1, 1, 1))
    with pytest.raises(CalibrationError, match=r"\(11, 31, 41\)"):
        calibrate_hp_weight(hd)


def test_calibration_negative_control():
    # wrong character assignment: a non-Galois-stable datum has irrational
    # sums, so no (sign, w) can make the traces integers
    hd = HGDatum(("1/2", "1/3", "1/3"), (1, 1, 1))
    with pytest.raises(CalibrationError, match=r"\(7, 13, 19\)"):
        calibrate_hp_weight(hd)


def test_elliptic_square_vs_cm_fixture():
    """(p H(1))^2 - p^2 equals the weight-5 CM coefficient, incl. a split prime."""
    row = row_by_signature((2, 4, 6))
    fx = load_fixture_by_label("24.5.h.b")
    for p in (13, 37, 61, 73, 97):
        esq = elliptic_square_value(datum_table(row.hd, build_ctx(p)),
                                    row.hp_sign, row.hp_weight)
        assert esq - p * p == fx.coefficient(p), p


@pytest.mark.parametrize("offset", [0.4, 2.5])
def test_degenerate_fiber_trace_off_an_integer_fails_to_snap(offset):
    """At p = 10009 the snap tolerance of tau1 = p * H_p(1) is 3e-4, so a
    period sum at t = 1 that is 0.4 or 2.5 off the true one raises SnapError
    instead of rounding to a wrong elliptic(2) term."""
    row = row_by_signature((2, 4, 6))
    table = datum_table(row.hd, cached_ctx(10009))
    elliptic_square_value(table, row.hp_sign, row.hp_weight)  # the true sum snaps
    table.values[table.ctx.dlog[1]] += offset
    with pytest.raises(SnapError, match="degenerate-fiber trace"):
        elliptic_square_value(table, row.hp_sign, row.hp_weight)


def test_clausen_inadmissible_reported(ctx13):
    rep = clausen_reports(ctx13, ctx13.trivial_char, ctx13.char(5), [3])[0]
    assert not rep.applicable and "eta trivial" in rep.reason


def test_clausen_t1_nonsquare_zero(ctx13):
    # eta*K of odd exponent: lhs must vanish
    eta, K = ctx13.char(1), ctx13.char(4)
    rep = clausen_reports(ctx13, eta, K, [1])[0]
    assert rep.applicable and rep.passed
    assert abs(rep.lhs) < 1e-6


def test_clausen_exhaustive_p11(ctx11):
    reports = list(clausen_sweep(ctx11))
    assert reports, "sweep found no admissible cases"
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:3]


def literal_clausen(ctx, eta, K, t):
    """The Clausen check at one (eta, K, t) from three np_sum calls, as
    (applicable, reason, lhs, rhs, passed)."""
    p, phi = ctx.p, ctx.quadratic_char
    bad = [why for why, ch in (("eta trivial", eta), ("K*phi trivial", K * phi),
                               ("eta*K trivial", eta * K),
                               ("eta*Kbar trivial", eta * K.inverse()))
           if ch.is_trivial]
    if bad:
        return False, "; ".join(bad), None, None, None
    if t == 0:
        return False, "t = 0 is outside the identity", None, None, None
    etaK, tol = eta * K, snap_tolerance(p, 3) * p
    lhs3 = np_sum([phi, eta, eta.inverse()], [ctx.trivial_char, K, K.inverse()], t).z
    if t == 1:
        if not etaK.is_square():
            return True, "t=1, etaK non-square", lhs3, 0j, abs(lhs3) < tol
        S = etaK.sqrt()
        rhs = (-jacobi_sum(etaK, eta.inverse() * K).z / jacobi_sum(phi, K.inverse()).z
               * (jacobi_sum(S * K.inverse(), phi * S.inverse()).z ** 2
                  + jacobi_sum(phi * S * K.inverse(), S.inverse()).z ** 2))
        return True, "t=1, etaK = S^2", lhs3, rhs, abs(lhs3 - rhs) < tol
    if not etaK.is_square():
        return False, "etaK is not a square in the character group", None, None, None
    S = etaK.sqrt()
    lhs = ctx.legendre(1 - t) * lhs3
    r1 = np_sum([phi * K * S.inverse(), S], [ctx.trivial_char, K], t).z
    r2 = np_sum([phi * K.inverse() * S, S.inverse()], [ctx.trivial_char, K.inverse()], t).z
    rhs = p - r1 * r2
    return True, "t generic, etaK = S^2", lhs, rhs, abs(lhs - rhs) < tol


@pytest.mark.parametrize("p", [11, 13])
def test_clausen_reports_match_literal_np_sums(p):
    """Every (eta, K, t): the per-pair gather equals three np_sum calls at t,
    and the sweep yields exactly the applicable reports."""
    ctx = cached_ctx(p)
    applicable = []
    for eeta in range(ctx.n):
        for eK in range(ctx.n):
            eta, K = ctx.char(eeta), ctx.char(eK)
            reports = clausen_reports(ctx, eta, K, range(p))
            assert [r.t for r in reports] == list(range(p))
            for t, rep in enumerate(reports):
                ok, reason, lhs, rhs, passed = literal_clausen(ctx, eta, K, t)
                assert (rep.applicable, rep.reason, rep.passed) == (ok, reason, passed)
                assert rep == clausen_reports(ctx, eta, K, [t])[0]
                if ok:
                    assert type(rep.passed) is bool
                    assert abs(rep.lhs - lhs) < 1e-9 and abs(rep.rhs - rhs) < 1e-9
                    if t:
                        applicable.append(rep)
    assert list(clausen_sweep(ctx)) == applicable


def test_clausen_exhaustive_p37(ctx37):
    reports = list(clausen_sweep(ctx37))
    assert len(reports) == 20232
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:3]


def test_clausen_both_sqrt_choices(ctx13):
    # the identity cannot depend on which square root S of eta*K is used;
    # clausen_reports picks one, so spot-check the other by direct evaluation
    eta, K = ctx13.char(2), ctx13.char(4)
    rep = clausen_reports(ctx13, eta, K, [5])[0]
    assert rep.applicable and rep.passed
