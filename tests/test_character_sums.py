import dataclasses
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hgtrace.character_sums import (AlgebraicValue, BracketTable, SnapError,
                                    _bracket_table, _clausen_columns,
                                    al_square_decompose, clausen_sweep,
                                    datum_char_exponents,
                                    datum_table, elliptic_square_value, hp_sum,
                                    np_sum, snap_tolerance)
from hgtrace.field_core import (CongruenceError, build_ctx, cached_ctx, is_prime,
                               nth_primitive_root)
from hgtrace.hgm_data import HGDatum, level, row_by_signature, triangle_table
from hgtrace.modform_oracle import load_fixture_by_label
from hgtrace.trace_engine import _al_square_mask, a_gamma_sweep


def jacobi_sum(A, B):
    """J(A, B) = sum over t in F_p of A(t) B(1-t), with the chi(0) = 0
    convention: the scalar reference for the bracket tables, O(p) a value."""
    ctx = A.ctx
    if A.is_trivial and B.is_trivial:
        return AlgebraicValue(complex(ctx.p - 2), ctx.p - 2)
    # dlog t and dlog(1 - t) over t = 2 .. p-1: 1 - t runs over p-1 .. 2
    d1 = ctx.dlog[2:]
    d2 = d1[::-1]
    val = complex(np.sum(ctx.zeta[(A.e * d1 + B.e * d2) % ctx.n]))
    return AlgebraicValue.from_complex(val, snap_tolerance(ctx.p, 1))


def bracket(A, B):
    """The binomial-style symbol -B(-1) * J(A, Bbar)."""
    j = jacobi_sum(A, B.inverse())
    sign = -round(B(-1).real)
    return AlgebraicValue(sign * j.z, None if j.snapped is None else sign * j.snapped)


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


def test_gauss_vector_symmetry_behind_slot_windows():
    """What a slot row's windows rely on, for every m at p = 7, 11, 13, 10069
    and 99961 and at p = 13 with a non-least generator: g[-m] = (-1)^m *
    conj g[m], so the row's signs cancel, and |g[m]|^2 = p for m != 0, so the
    row's scalar 1/g[a - b] is never a division by a small number."""
    for ctx in (cached_ctx(7), cached_ctx(11), cached_ctx(13),
                build_ctx(13, generator=nth_primitive_root(13, 1)),
                cached_ctx(10069), cached_ctx(99961)):
        g, m = ctx.gauss, np.arange(ctx.n)
        np.testing.assert_allclose(g[-m % ctx.n], np.where(m % 2, -1, 1) * np.conj(g),
                                   rtol=0, atol=1e-12, err_msg=f"{ctx.p} {ctx.g}")
        np.testing.assert_allclose(np.abs(g[1:]) ** 2, ctx.p, rtol=5e-14, atol=0,
                                   err_msg=f"{ctx.p} {ctx.g}")


def test_slot_table_equals_direct_brackets():
    """The slot table is bracket(A chi^e, B chi^e) at every e: for every
    slot at p = 7, 11, 13 and at p = 13 with a non-least generator, as the n^2
    rows of one batched _bracket_table call, each row bit-identical to the
    slot's one-row table; and for every datum slot of every row up to p = 61.
    A slot listed three times, as the (2,oo,oo) datum lists (1/2; 1), is three
    rows bit-identical to each other and to the slot's one-row table."""
    for ctx in (cached_ctx(7), cached_ctx(11), cached_ctx(13),
                build_ctx(13, generator=nth_primitive_root(13, 1))):
        ea, eb = np.divmod(np.arange(ctx.n ** 2), ctx.n)
        for a, b, row in zip(ea.tolist(), eb.tolist(), _bracket_table(ctx, ea, eb)):
            np.testing.assert_allclose(row, _direct_slot(ctx, a, b), rtol=0, atol=1e-9,
                                       err_msg=f"{ctx.p} {ctx.g} {a} {b}")
            assert np.array_equal(row, _bracket_table(ctx, [a], [b])[0]), (ctx.p, ctx.g, a, b)
    for row, ctx in _admissible_rows():
        a_exps, b_exps = datum_char_exponents(row.hd, ctx)
        for ea, eb, slot in zip(a_exps, b_exps, _bracket_table(ctx, a_exps, b_exps)):
            np.testing.assert_allclose(slot, _direct_slot(ctx, ea, eb), rtol=0, atol=1e-9,
                                       err_msg=f"{row.name} {ctx.p} {ea} {eb}")
    for p in (7, 13, 61, 1009):
        ctx = cached_ctx(p)
        h = ctx.n // 2
        a_exps, b_exps = datum_char_exponents(row_by_signature((2, "oo", "oo")).hd, ctx)
        assert (a_exps, b_exps) == ([h] * 3, [0] * 3)
        one_row = _bracket_table(ctx, [h], [0])[0]
        repeated = _bracket_table(ctx, a_exps, b_exps)
        assert repeated.shape == (3, ctx.n)
        assert all(np.array_equal(slot, one_row) for slot in repeated), p


@pytest.mark.parametrize("p", [7, 11])
def test_bracket_table_product_equals_literal_sum(p):
    """For every slot list of length 2 and 3 with b_1 = 0 at p = 7 and 11,
    among them a = b slots and repeated slots: BracketTable's values at every
    dlog d are prefactor/n * sum_e prod_i bracket(A_i chi^e, B_i chi^e) *
    zeta^(e d), and its delta_product is prod_{i>=2} bracket(A_i, B_i), with
    every bracket from the direct Jacobi sum."""
    ctx = cached_ctx(p)
    n = ctx.n
    direct = np.array([[_direct_slot(ctx, a, b) for b in range(n)] for a in range(n)])
    zeta_ed = ctx.zeta[np.multiply.outer(np.arange(n), np.arange(n)) % n]
    for m in (2, 3):
        grid = np.indices((n,) * (2 * m - 1)).reshape(2 * m - 1, -1)
        a_exps = grid[:m].T
        b_exps = np.column_stack([np.zeros(grid.shape[1], dtype=int), grid[m:].T])
        rest = direct[a_exps[:, 1:], b_exps[:, 1:]]
        prefactor = np.prod(-(-1.0) ** (a_exps[:, 1:] + b_exps[:, 1:]), axis=1)
        want_values = (prefactor[:, None] / n
                       * (direct[a_exps[:, 0], 0] * np.prod(rest, axis=1)) @ zeta_ed)
        want_delta = np.prod(rest[:, :, 0], axis=1)
        got_values = np.empty_like(want_values)
        got_delta = np.empty_like(want_delta)
        for i, (a, b) in enumerate(zip(a_exps.tolist(), b_exps.tolist())):
            table = BracketTable(ctx, a, b)
            assert table.prefactor == prefactor[i]
            got_values[i], got_delta[i] = table.values, table.delta_product
        for got, want in ((got_values, want_values), (got_delta, want_delta)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=f"{p} {m}")


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


# Beukers-Cohen-Mellit data of each row (Pure Appl. Math. Q. 11 (2015),
# Thm 1.3): prod_j (x - e(alpha_j)) / prod_j (x - e(beta_j)) =
# prod_i (x^p_i - 1) / prod_j (x^q_j - 1), with eps = (-1)^(sum q_j),
# M = prod p_i^p_i / prod q_j^q_j, and delta the p-power that relates the
# period sum to the BCM function.
BCM_DATA = {  # signature: (p_i, q_j, eps, M, delta)
    (2, "oo", "oo"): ((2, 2, 2), (1,) * 6, 1, Fraction(64), 0),
    (2, 3, "oo"): ((6,), (1, 1, 1, 3), 1, Fraction(1728), 0),
    (2, 4, "oo"): ((4,), (1, 1, 1, 1), 1, Fraction(256), 0),
    (2, 6, "oo"): ((2, 3), (1,) * 5, -1, Fraction(108), 0),
    (2, 4, 6): ((2, 3, 4), (1, 1, 1, 6), -1, Fraction(16, 27), 1),
}


def bcm_values(row, ctx):
    """The BCM function B(u) at every u != 0, indexed by dlog u:
    B(u) = (-1)^(#p + #q)/(1 - p) * sum_m p^(s(m) - s(0)) * prod_i g[p_i m]
    * prod_j g[-q_j m] * omega(u)^m, with s(m) = #{i : n | p_i m}
    - #{j : alpha_j n = m mod n}; the sum over m is one inverse DFT."""
    ps, qs = BCM_DATA[row.signature][:2]
    p, n, g = ctx.p, ctx.n, ctx.gauss
    m = np.arange(n)
    a_exps = datum_char_exponents(row.hd, ctx)[0]
    s = sum(pi * m % n == 0 for pi in ps) - sum(m == e for e in a_exps)
    terms = (float(p) ** (s - s[0]) * np.prod([g[pi * m % n] for pi in ps], axis=0)
             * np.prod([g[-qj * m % n] for qj in qs], axis=0))
    return (-1) ** (len(ps) + len(qs)) / (1 - p) * n * np.fft.ifft(terms)


def test_persisted_normalization_is_the_bcm_one():
    """Each row's persisted H_p normalization (sign, weight) is (-1, delta),
    derived from BCM: the period sum at t is -p^delta * B(eps * M^-1 * t) at
    every t != 0, for every row and every admissible p < 400."""
    for row, ctx in _admissible_rows(400):
        _ps, _qs, eps, M, delta = BCM_DATA[row.signature]
        assert (row.hp_sign, row.hp_weight) == (-1, delta), row.name
        p, t = ctx.p, np.arange(1, ctx.p)
        u = eps * M.denominator * pow(M.numerator, -1, p) * t % p
        np.testing.assert_allclose(datum_table(row.hd, ctx).sweep(t),
                                   -p ** delta * bcm_values(row, ctx)[ctx.dlog[u]],
                                   rtol=0, atol=1e-9 * p ** 0.5, err_msg=f"{row.name} {p}")


def test_datum_table_leaves_no_memory_behind():
    """A datum table's working arrays live only as long as the call that
    builds them: once every row's table at p = 10009 has been built, building
    and dropping each again on a context with another generator leaves less
    than one length-n complex vector of traced memory behind."""
    p = 10009  # 1 mod 12: every row admits it
    for row in triangle_table():
        datum_table(row.hd, cached_ctx(p))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for row in triangle_table():
            datum_table(row.hd, build_ctx(p, generator=nth_primitive_root(p, 1)))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < (p - 1) * 16, grown


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
    v = hp_sum(row.hd, ctx13, 0, row.hp_sign, row.hp_weight)
    expect = row.hp_sign * datum_table(row.hd, ctx13).raw_value(0) / 13 ** row.hp_weight
    assert v.z == pytest.approx(expect, abs=1e-9)


def test_al_square_mask_matches_decompose():
    """The array test agrees with al_square_decompose on every a around the
    Weil box, for each divisor pattern of the table, and at the edges
    s = -1, 0, 4p and 4p + 1 at p = 99961."""
    for p in (13, 37, 1009):
        a = np.arange(-p - 50, 3 * p + 50, dtype=np.int64)
        for divisors in ((1,), (1, 2), (1, 3), (1, 2, 3, 6)):
            mask = _al_square_mask(a + p, p, divisors)
            want = [al_square_decompose(int(x), p, divisors) is not None for x in a]
            assert mask.tolist() == want, (p, divisors)
    p = 99961
    s = np.array([-1, 0, 4 * p, 4 * p + 1], dtype=np.int64)
    for divisors in ((1,), (1, 2), (1, 3), (1, 2, 3, 6)):
        want = [al_square_decompose(int(x) - p, p, divisors) is not None for x in s]
        assert want == [False, True, False, False]
        assert _al_square_mask(s, p, divisors).tolist() == want, divisors


def test_hp_sweep_square_property_row2oo(ctx13):
    """All generic lambda of the (2,oo,oo) row give a + p a perfect square <= 4p."""
    row = row_by_signature((2, "oo", "oo"))
    p = 13
    for lam in range(2, p):
        h = hp_sum(row.hd, ctx13, ctx13.inv(lam), row.hp_sign, row.hp_weight)
        a = int(ctx13.legendre(1 - ctx13.inv(lam)) * h.snapped)
        d, t = al_square_decompose(a, p)
        assert d == 1 and t * t <= 4 * p


def _normalizations(row, primes):
    """The (sign, weight) in (+-1) x (0, 1, 2) at which a_gamma_sweep of row,
    with its own chart and al_divisors, snaps at every one of primes."""
    ctxs = [cached_ctx(p) for p in primes]
    out = []
    for sign in (1, -1):
        for weight in (0, 1, 2):
            candidate = dataclasses.replace(row, hp_sign=sign, hp_weight=weight)
            try:
                for ctx in ctxs:
                    a_gamma_sweep(candidate, ctx)
            except SnapError:
                continue
            out.append((sign, weight))
    return out


def test_calibrations_match_table_rows():
    """Each row's persisted normalization is the only one of the six
    candidates that snaps at the first three p > 5 with p = 1 mod the row's
    level, the primes verify weil reaches first."""
    for sig, primes in (((2, "oo", "oo"), (7, 11, 13)), ((2, 3, "oo"), (7, 13, 19)),
                        ((2, 4, "oo"), (13, 17, 29)), ((2, 6, "oo"), (7, 13, 19)),
                        ((2, 4, 6), (13, 37, 61))):
        row = row_by_signature(sig)
        assert _normalizations(row, primes) == [(row.hp_sign, row.hp_weight)], row.name


def test_calibration_negative_control():
    # wrong character assignment: a non-Galois-stable datum has irrational
    # sums, so no (sign, w) can make the traces integers
    hd = HGDatum(("1/2", "1/3", "1/3"), (1, 1, 1))
    assert _normalizations(dataclasses.replace(row_by_signature((2, 6, "oo")), hd=hd),
                           (7, 13, 19)) == []


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
    """An inadmissible pair (eta trivial) is no check at any t, not an error."""
    columns = _clausen_columns(ctx13, 0, [5], range(13))[0]
    assert [c.size for c in columns] == [0, 0, 0, 0]


def test_clausen_t1_nonsquare_zero(ctx13):
    # eta*K of odd exponent: lhs must vanish, and only t = 1 applies
    eta, K = ctx13.char(1), ctx13.char(4)
    ts, lhs, rhs, passed = _clausen_columns(ctx13, eta.e, [K.e], range(13))[0]
    assert ts.tolist() == [1] and passed.tolist() == [True]
    assert abs(lhs[0]) < 1e-6 and rhs[0] == 0


def clausen_failures(ctx):
    """(number of checks, [(eta exponent, K exponent, failing ts)]) of the sweep."""
    total, bad = 0, []
    for pair, (ts, _lhs, _rhs, passed) in clausen_sweep(ctx):
        total += ts.size
        if not passed.all():
            bad.append(pair + (ts[~passed].tolist(),))
    return total, bad


def test_clausen_exhaustive_p11(ctx11):
    total, bad = clausen_failures(ctx11)
    assert total, "sweep found no admissible cases"
    assert not bad, bad[:3]


def literal_clausen(ctx, eta, K, t):
    """The Clausen check at one (eta, K, t) from three np_sum calls, as
    (applicable, lhs, rhs, passed)."""
    p, phi = ctx.p, ctx.quadratic_char
    if t == 0 or any(ch.is_trivial for ch in (eta, K * phi, eta * K, eta * K.inverse())):
        return False, None, None, None
    etaK, tol = eta * K, snap_tolerance(p, 3) * p
    lhs3 = np_sum([phi, eta, eta.inverse()], [ctx.trivial_char, K, K.inverse()], t).z
    if t == 1:
        if not etaK.is_square():
            return True, lhs3, 0j, abs(lhs3) < tol
        S = etaK.sqrt()
        rhs = (-jacobi_sum(etaK, eta.inverse() * K).z / jacobi_sum(phi, K.inverse()).z
               * (jacobi_sum(S * K.inverse(), phi * S.inverse()).z ** 2
                  + jacobi_sum(phi * S * K.inverse(), S.inverse()).z ** 2))
        return True, lhs3, rhs, abs(lhs3 - rhs) < tol
    if not etaK.is_square():
        return False, None, None, None
    S = etaK.sqrt()
    lhs = ctx.legendre(1 - t) * lhs3
    r1 = np_sum([phi * K * S.inverse(), S], [ctx.trivial_char, K], t).z
    r2 = np_sum([phi * K.inverse() * S, S.inverse()], [ctx.trivial_char, K.inverse()], t).z
    rhs = p - r1 * r2
    return True, lhs, rhs, abs(lhs - rhs) < tol


@pytest.mark.parametrize("p", [11, 13])
def test_clausen_reports_match_literal_np_sums(p):
    """Every (eta, K, t): the per-pair columns hold exactly the applicable t,
    each equal to three np_sum calls at t and to the columns of a call at
    that t alone, and the sweep yields, bit for bit, the pair's columns over
    t = 1 .. p - 1."""
    ctx = cached_ctx(p)
    swept = dict(clausen_sweep(ctx))
    assert sorted(swept) == [(a, b) for a in range(ctx.n) for b in range(ctx.n)]
    for (eeta, eK), sweep_columns in swept.items():
        eta, K = ctx.char(eeta), ctx.char(eK)
        ts, lhs, rhs, passed = _clausen_columns(ctx, eeta, [eK], range(p))[0]
        assert passed.dtype == bool
        literal = [literal_clausen(ctx, eta, K, t) for t in range(p)]
        assert ts.tolist() == [t for t in range(p) if literal[t][0]]
        for i, t in enumerate(ts.tolist()):
            _ok, want_lhs, want_rhs, want_passed = literal[t]
            assert passed[i] == want_passed
            assert abs(lhs[i] - want_lhs) < 1e-9 and abs(rhs[i] - want_rhs) < 1e-9
            alone = _clausen_columns(ctx, eeta, [eK], [t])[0]
            assert [c.tolist() for c in alone] == [[t], [lhs[i]], [rhs[i]], [passed[i]]]
        assert [c.tolist() for c in sweep_columns] == [c[ts > 0].tolist()
                                                       for c in (ts, lhs, rhs, passed)]


def test_clausen_sweep_matches_literal_np_sums_at_23():
    """At p = 23, past the exhaustive comparison above, the batched sweep's
    columns for eta = chi^1 and chi^2 and every K (square and non-square
    eta*K, and the inadmissible pairs) equal the literal np_sum route at
    every t = 1 .. 22."""
    ctx = cached_ctx(23)
    for (eeta, eK), (ts, lhs, rhs, passed) in clausen_sweep(ctx):
        if eeta not in (1, 2):
            continue
        eta, K = ctx.char(eeta), ctx.char(eK)
        literal = {t: literal_clausen(ctx, eta, K, t) for t in range(1, 23)}
        assert ts.tolist() == [t for t, row in literal.items() if row[0]], (eeta, eK)
        for t, got_lhs, got_rhs, got_passed in zip(ts.tolist(), lhs, rhs, passed):
            _ok, want_lhs, want_rhs, want_passed = literal[t]
            assert abs(got_lhs - want_lhs) < 1e-9 and abs(got_rhs - want_rhs) < 1e-9
            assert got_passed == want_passed, (eeta, eK, t)


def test_clausen_exhaustive_p37(ctx37):
    total, bad = clausen_failures(ctx37)
    assert total == 20232
    assert not bad, bad[:3]


@pytest.mark.parametrize("p", [23, 37])
def test_clausen_margin_below_tolerance(p):
    """The worst |lhs - rhs| of the sweep is at least 10^8 below the tolerance
    snap_tolerance(p, 3) * p that passed is read against."""
    worst = max(float(np.abs(lhs - rhs).max(initial=0.0))
                for _pair, (_ts, lhs, rhs, _passed) in clausen_sweep(cached_ctx(p)))
    assert 0 < worst <= snap_tolerance(p, 3) * p * 1e-8


def test_clausen_both_sqrt_choices(ctx13):
    # the identity cannot depend on which square root S of eta*K is used;
    # _clausen_columns picks one, so check the other, S*phi, by direct evaluation
    p, phi, t = 13, ctx13.quadratic_char, 5
    eta, K = ctx13.char(2), ctx13.char(4)
    ts, lhs, rhs, passed = _clausen_columns(ctx13, eta.e, [K.e], [t])[0]
    assert ts.tolist() == [t] and passed.all()
    S = (eta * K).sqrt() * phi
    assert (S * S).e == (eta * K).e and S.e != (eta * K).sqrt().e
    r1 = np_sum([phi * K * S.inverse(), S], [ctx13.trivial_char, K], t).z
    r2 = np_sum([phi * K.inverse() * S, S.inverse()], [ctx13.trivial_char, K.inverse()], t).z
    assert abs(lhs[0] - (p - r1 * r2)) < snap_tolerance(p, 3) * p
