import numpy as np
import pytest
from fractions import Fraction
from math import gcd

from hgtrace.character_sums import datum_char_exponents
from hgtrace.field_core import (CongruenceError, FieldError, MultCharacter, _dlog_table,
                                build_ctx, build_quad_ext, cached_ctx, is_prime,
                                nth_primitive_root, tonelli_sqrt)
from hgtrace.hgm_data import level, triangle_table


def power_residue_char(ctx, a):
    """The character iota(a) attached to a rational a with denominator M | p-1:
    exponent a*(p-1), so its value at the chosen generator is exp(2*pi*i*a),
    iota(1/2) is the quadratic character and integers map to the trivial
    character. The reference for character_sums.datum_char_exponents."""
    a = Fraction(a)
    M = a.denominator
    if (ctx.p - 1) % M:
        raise CongruenceError(f"denominator {M} of {a} does not divide p-1 = {ctx.p - 1}")
    return MultCharacter(ctx, a.numerator * ((ctx.p - 1) // M))


def tables_by_walk(p, g):
    """(antilog, dlog) base g by walking x = g^k one step at a time: the scalar
    reference for _dlog_table."""
    antilog, dlog = [], [-1] * p
    x = 1
    for k in range(p - 1):
        antilog.append(x)
        dlog[x] = k
        x = x * g % p
    return antilog, dlog


def test_build_ctx_p7(ctx7):
    assert ctx7.g == 3
    assert ctx7.dlog[3] == 1
    assert ctx7.dlog[2] == 2  # 3^2 = 2 mod 7


def test_build_ctx_p5():
    ctx = build_ctx(5)
    assert ctx.g == 2


def test_build_ctx_rejects_composite():
    with pytest.raises(FieldError):
        build_ctx(9)


def test_build_ctx_rejects_oversize():
    with pytest.raises(FieldError):
        build_ctx(100003)


def test_build_ctx_rejects_even():
    with pytest.raises(FieldError):
        build_ctx(2)


def test_dlog_bijection(ctx13):
    vals = sorted(int(ctx13.dlog[x]) for x in range(1, 13))
    assert vals == list(range(12))


def test_generator_order(ctx13):
    p, g = ctx13.p, ctx13.g
    assert pow(g, p - 1, p) == 1
    assert all(pow(g, k, p) != 1 for k in range(1, p - 1))


def test_power_residue_quadratic(ctx13):
    chi = power_residue_char(ctx13, Fraction(1, 2))
    assert ctx13.n // gcd(chi.e, ctx13.n) == 2
    for x in range(1, 13):
        assert chi(x).real == pytest.approx(ctx13.legendre(x))


def test_power_residue_integer_is_trivial(ctx13):
    assert power_residue_char(ctx13, 1).is_trivial
    assert power_residue_char(ctx13, Fraction(3)).is_trivial


def test_power_residue_order6(ctx13):
    chi = power_residue_char(ctx13, Fraction(1, 6))
    assert ctx13.n // gcd(chi.e, ctx13.n) == 6
    v = chi(ctx13.g)
    assert v == pytest.approx(np.exp(2j * np.pi / 6))


def test_power_residue_congruence_error(ctx7):
    with pytest.raises(CongruenceError):
        power_residue_char(ctx7, Fraction(1, 5))


def test_datum_char_exponents_match_power_residue_chars():
    """datum_char_exponents, in integers, gives the exponents of iota(a) and
    iota(b) for every row at every admissible prime p <= 200."""
    checked = 0
    for p in filter(is_prime, range(7, 201)):
        ctx = cached_ctx(p)
        for row in triangle_table():
            if (p - 1) % level(row.hd):
                with pytest.raises(CongruenceError):
                    datum_char_exponents(row.hd, ctx)
                continue
            want = ([power_residue_char(ctx, a).e for a in row.hd.alpha],
                    [power_residue_char(ctx, b).e for b in row.hd.beta])
            assert datum_char_exponents(row.hd, ctx) == want, (row.name, p)
            checked += 1
    assert checked > 100


def test_dlog_table_matches_the_power_walk():
    """The baby-step/giant-step antilog and dlog tables equal the one-step walk
    for the least and the second-least primitive root at every prime p < 2000,
    and at 10009 and 99961."""
    for p in [*filter(is_prime, range(3, 2000)), 10009, 99961]:
        for index in (0, 1):
            if p == 3 and index == 1:  # 2 is the only primitive root mod 3
                continue
            g = nth_primitive_root(p, index)
            antilog, dlog = _dlog_table(p, g)
            assert (antilog.tolist(), dlog.tolist()) == tables_by_walk(p, g), (p, g)


def test_legendre_symbol_examples(ctx7):
    assert ctx7.legendre(2) == 1
    assert ctx7.legendre(0) == 0
    assert ctx7.legendre(3) == -1


@pytest.mark.parametrize("p, index", [(7, 0), (7, 1), (13, 0), (13, 3), (101, 5),
                                      (1009, 0), (1009, 7)])
def test_antilog_and_quadratic_character_tables(p, index):
    """antilog inverts dlog and chi is Euler's criterion, for any generator."""
    ctx = build_ctx(p, generator=nth_primitive_root(p, index))
    x = np.arange(1, p)
    assert (ctx.antilog[ctx.dlog[x]] == x).all()
    assert ctx.antilog.dtype == np.int64 and ctx.chi.dtype == np.int8
    euler = [0] + [1 if pow(v, (p - 1) // 2, p) == 1 else -1 for v in range(1, p)]
    assert ctx.chi.tolist() == euler
    assert [ctx.legendre(v) for v in range(-p, p)] == euler * 2


def test_quadratic_extension_is_cached_on_the_context(ctx13):
    assert ctx13.ext is ctx13.ext
    assert ctx13.ext == build_quad_ext(ctx13)


@pytest.mark.parametrize("p, index", [(7, 0), (13, 0), (13, 1), (1009, 0), (10009, 0)])
def test_gauss_sums_exact_identities(p, index):
    """ctx.gauss meets the exact identities of Gauss sums: g[0] = -1,
    g[m] * g[n - m] = chi^m(-1) * p = (-1)^m * p for m != 0, and the quadratic
    Gauss sum g[n/2] is sqrt(p) for p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4;
    at p <= 13 each g[m] is also the defining sum over x."""
    ctx = build_ctx(p, generator=nth_primitive_root(p, index))
    g, n = ctx.gauss, ctx.n
    tol = 1e-9 * p
    assert g.shape == (n,) and not g.flags.writeable and ctx.gauss is g
    assert abs(g[0] + 1) < tol
    m = np.arange(1, n)
    np.testing.assert_allclose(g[m] * g[n - m], np.where(m % 2, -p, p), rtol=0, atol=tol)
    assert abs(g[n // 2] - (1 if p % 4 == 1 else 1j) * p ** 0.5) < tol
    if p <= 13:
        zeta_p = np.exp(2j * np.pi * np.arange(p) / p)
        direct = [sum(MultCharacter(ctx, e)(x) * zeta_p[x] for x in range(1, p))
                  for e in range(n)]
        np.testing.assert_allclose(g, direct, rtol=0, atol=1e-12)


def test_legendre_multiplicative(ctx13):
    for x in range(1, 13):
        for y in range(1, 13):
            assert ctx13.legendre(x * y) == ctx13.legendre(x) * ctx13.legendre(y)


def test_character_orthogonality(ctx13):
    n = ctx13.n
    for e in range(n):
        chi = ctx13.char(e)
        s = sum(chi(x) for x in range(1, 13))
        if e == 0:
            assert s.real == pytest.approx(n)
        else:
            assert abs(s) < 1e-9


def test_character_group_law(ctx13):
    for e1 in range(0, 12, 5):
        for e2 in range(0, 12, 7):
            a, b = ctx13.char(e1), ctx13.char(e2)
            for x in (2, 5, 11):
                assert (a * b)(x) == pytest.approx(a(x) * b(x))
            assert (a * a.inverse()).is_trivial


def test_char_minus1_parity(ctx13):
    """chi(-1) is the exponent parity, since dlog(-1) = n/2: the sign rule the
    bracket tables and the period-sum prefactors read."""
    for e in range(12):
        assert ctx13.char(e)(-1) == pytest.approx((-1) ** e)


def test_nth_primitive_root(ctx13):
    g0 = nth_primitive_root(13, 0)
    g1 = nth_primitive_root(13, 1)
    assert g0 == 2 and g1 != g0
    ctx_alt = build_ctx(13, generator=g1)
    assert ctx_alt.g == g1


def test_primitive_roots_match_power_walk():
    for p in range(3, 200):
        if not is_prime(p):
            continue

        def order(g):
            x, k = g, 1
            while x != 1:
                x, k = x * g % p, k + 1
            return k

        walk = [g for g in range(2, p) if order(g) == p - 1][:3]
        assert [nth_primitive_root(p, i) for i in range(len(walk))] == walk, p
        if len(walk) < 3:
            with pytest.raises(FieldError):
                nth_primitive_root(p, len(walk))


def test_bad_generator_rejected():
    with pytest.raises(FieldError):
        build_ctx(13, generator=3)  # 3 has order 3 mod 13


def test_quad_ext_basic(ctx13):
    ext = build_quad_ext(ctx13)
    p = 13
    assert pow(ext.nu, (p - 1) // 2, p) == p - 1
    # sqrt(nu) squares to nu
    assert ext.mul((0, 1), (0, 1)) == (ext.nu % p, 0)
    # multiplicative order of the group is p^2 - 1: check a generator-ish element
    x = y = (1, 1)
    for _ in range(p * p - 2):
        y = ext.mul(y, x)
    assert y == (1, 0)


def test_quad_ext_associativity_sample(ctx7):
    ext = build_quad_ext(ctx7)
    xs = [(1, 2), (3, 4), (5, 6)]
    a, b, c = xs
    assert ext.mul(ext.mul(a, b), c) == ext.mul(a, ext.mul(b, c))


def test_tonelli_sqrt(ctx13):
    for v in range(1, 13):
        if ctx13.legendre(v) == 1:
            r = tonelli_sqrt(v, 13)
            assert r * r % 13 == v
