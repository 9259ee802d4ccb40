import numpy as np
import pytest
from fractions import Fraction

from hgtrace import field_core
from hgtrace.field_core import (CongruenceError, FieldError, build_ctx,
                                build_quad_ext, cached_ctx, is_prime,
                                nth_primitive_root,
                                power_residue_char, tonelli_sqrt)


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


def test_cached_ctx_is_shared_and_bounded_by_bytes(monkeypatch):
    cache = field_core.ByteBoundedLRU()
    monkeypatch.setattr(field_core, "_CTX_CACHE", cache)
    assert cached_ctx(101) is cached_ctx(101)
    assert cached_ctx(101).nbytes == 101 * 8 + 100 * 16 + 100 * 8 + 101 * 1
    limit = 3 * cached_ctx(101).nbytes  # fewer than three contexts near p = 100
    monkeypatch.setattr(field_core, "CTX_CACHE_MAX_BYTES", limit)
    keep = cached_ctx(101)
    for p in (103, 107, 109, 113, 127):
        cached_ctx(101)  # a hit refreshes the context's recency
        cached_ctx(p)
        assert cache.nbytes <= limit
        assert cache.nbytes == sum(c.nbytes for c in cache.tables.values())
    assert list(cache.tables) == [101, 127]  # 113 went first, as least recent
    assert cached_ctx(101) is keep


def test_dlog_bijection(ctx13):
    vals = sorted(int(ctx13.dlog[x]) for x in range(1, 13))
    assert vals == list(range(12))


def test_generator_order(ctx13):
    p, g = ctx13.p, ctx13.g
    assert pow(g, p - 1, p) == 1
    assert all(pow(g, k, p) != 1 for k in range(1, p - 1))


def test_power_residue_quadratic(ctx13):
    chi = power_residue_char(ctx13, Fraction(1, 2))
    assert chi.order == 2
    for x in range(1, 13):
        assert chi(x).real == pytest.approx(ctx13.legendre(x))


def test_power_residue_integer_is_trivial(ctx13):
    assert power_residue_char(ctx13, 1).is_trivial
    assert power_residue_char(ctx13, Fraction(3)).is_trivial


def test_power_residue_order6(ctx13):
    chi = power_residue_char(ctx13, Fraction(1, 6))
    assert chi.order == 6
    v = chi(ctx13.g)
    assert v == pytest.approx(np.exp(2j * np.pi / 6))


def test_power_residue_congruence_error(ctx7):
    with pytest.raises(CongruenceError):
        power_residue_char(ctx7, Fraction(1, 5))


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
    for e in range(12):
        chi = ctx13.char(e)
        assert chi.value_at_minus1() == pytest.approx(chi(-1).real)


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
