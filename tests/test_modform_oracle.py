import json
from fractions import Fraction
from math import gcd, isqrt

import pytest

from hgtrace.field_core import cached_ctx, is_prime
from hgtrace.hgm_data import level, row_by_signature
from hgtrace.modform_oracle import (FixtureError, NewformFixture,
                                    cm_level24_weight5_ap, dim_level1_cusp,
                                    eisenstein, eta_power_24, eta_product,
                                    level1_hecke_trace, level6_weight8_ap,
                                    load_fixture, load_fixture_by_label)
from hgtrace.trace_engine import hecke_trace

TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738,
       17: -6905934, 19: 10661420, 23: 18643272, 29: 128406630,
       31: -52843168, 37: -182213314, 41: 308120442, 43: -17125708,
       47: 2687348496}


def test_delta_normalization():
    d = eta_power_24(30)
    assert d[0] == 0 and d[1] == 1
    assert d[2] == -24


def test_delta_known_tau():
    d = eta_power_24(50)
    for p, v in TAU.items():
        if p <= 50:
            assert d[p] == v, p


def test_tau_multiplicative():
    d = eta_power_24(40)
    assert d[6] == d[2] * d[3]
    assert d[10] == d[2] * d[5]
    assert d[15] == d[3] * d[5]
    assert d[35] == d[5] * d[7]


def test_tau_hecke_recursion():
    # a(p^2) = a(p)^2 - p^11 for the weight-12 eigenform
    d = eta_power_24(50)
    assert d[4] == d[2] ** 2 - 2 ** 11
    assert d[9] == d[3] ** 2 - 3 ** 11
    assert d[49] == d[7] ** 2 - 7 ** 11


def test_eisenstein_normalizations():
    e4 = eisenstein(4, 10)
    e6 = eisenstein(6, 10)
    assert e4[0] == 1 and e4[1] == 240 and e4[2] == 240 * 9
    assert e6[0] == 1 and e6[1] == -504


def test_product_keeps_every_coefficient():
    # E4^2 = E8 = 1 + 480 sum sigma_7(m) q^m, up to the last kept coefficient
    N = 30
    e8 = eisenstein(4, N) * eisenstein(4, N)
    assert e8.weight == 8 and e8.N == N
    assert list(e8.coeffs) == [1] + [
        480 * sum(d ** 7 for d in range(1, m + 1) if m % d == 0)
        for m in range(1, N + 1)]


def test_dim_level1():
    assert [dim_level1_cusp(k) for k in (12, 14, 16, 18, 20, 22, 24, 26)] \
        == [1, 0, 1, 1, 1, 1, 2, 1]


def test_level1_traces_match_tau():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert level1_hecke_trace(12, p) == TAU[p], p


def test_level1_weight16():
    # dim 1: trace = a_2 of Delta*E4 as the normalized eigenform
    f = eta_power_24(10) * eisenstein(4, 10)
    assert level1_hecke_trace(16, 2) == f[2]


def test_level1_weight24_dim2():
    # a_2, a_3 of the two conjugate eigenforms: 540 +- 12 sqrt(144169) and
    # 169740 -+ 576 sqrt(144169)
    assert level1_hecke_trace(24, 2) == 1080
    assert level1_hecke_trace(24, 3) == 339480


def _hurwitz_class_number(N):
    """H(N): reduced forms a x^2 + b xy + c y^2 of discriminant -N (|b| <= a <= c,
    b >= 0 if |b| = a or a = c), with weight 1/2 for a(x^2 + y^2) and 1/3 for
    a(x^2 + xy + y^2)."""
    assert N % 4 in (0, 3)
    h = Fraction(0)
    for b in range(N % 2, isqrt(N // 3) + 1, 2):
        ac = (b * b + N) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            if ac % a == 0:
                c = ac // a
                if b == 0 and a == c:
                    h += Fraction(1, 2)
                elif b == a == c:
                    h += Fraction(1, 3)
                else:  # (a, -b, c) is reduced too when 0 < b < a < c
                    h += 2 if 0 < b < a < c else 1
    return h


def _eichler_selberg_trace(k, p):
    """Tr T_p on S_k(SL_2(Z)), p prime, by the Eichler-Selberg trace formula:
    -1/2 sum_{t^2 < 4p} P_k(t, p) H(4p - t^2) - 1, where P_k(t, p) = u_(k-1)
    for u_0 = 0, u_1 = 1, u_(j+1) = t u_j - p u_(j-1)."""
    s = Fraction(0)
    r = isqrt(4 * p - 1)
    for t in range(-r, r + 1):
        u0, u1 = 0, 1
        for _ in range(k - 2):
            u0, u1 = u1, t * u1 - p * u0
        s += u1 * _hurwitz_class_number(4 * p - t * t)
    tr = -s / 2 - 1
    assert tr.denominator == 1
    return int(tr)


def test_hurwitz_class_numbers():
    assert [_hurwitz_class_number(N) for N in (3, 4, 7, 8, 11, 12, 15, 16, 20, 23)] \
        == [Fraction(1, 3), Fraction(1, 2), 1, 1, 1, Fraction(4, 3), 2, Fraction(3, 2), 2, 3]


@pytest.mark.parametrize("k", range(12, 39, 2))
def test_level1_trace_matches_eichler_selberg(k):
    for p in range(2, 60):
        if is_prime(p):
            assert level1_hecke_trace(k, p) == _eichler_selberg_trace(k, p), p


def test_level6_ap_matches_fixture():
    # every shipped coefficient is re-derived in the repo
    fx = load_fixture_by_label("6.8.a.a")
    assert min(fx.ap) == 5 and max(fx.ap) == 97
    for p, v in fx.ap.items():
        assert level6_weight8_ap(p) == v, p


def test_level6_combination_is_normalized_eigenform():
    # f4 * (E4(t) - 4 E4(2t) - 9 E4(3t) + 36 E4(6t)) / 24, as a whole series
    N = 200
    f4 = eta_product({1: 2, 2: 2, 3: 2, 6: 2}, N)
    g = eisenstein(4, N)
    for c, d in ((-4, 2), (-9, 3), (36, 6)):
        g = g + c * eisenstein(4, N, d)
    prod = f4 * g
    assert prod.weight == 8 and prod[0] == 0
    assert all(c % 24 == 0 for c in prod.coeffs)
    a = [c // 24 for c in prod.coeffs]
    assert a[1:4] == [1, 8, 27]
    for m in range(2, N + 1):
        for n in range(2, N // m + 1):
            if gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n], (m, n)
    for ell in (5, 7, 11, 13):
        assert a[ell * ell] == a[ell] ** 2 - ell ** 7, ell
    assert all(level6_weight8_ap(p) == a[p] for p in range(5, N + 1) if is_prime(p))


def test_headline_identity_past_the_fixture():
    # total(p) of the (2,4,6) weight-8 trace is -a_p at every admissible p < 1000
    row = row_by_signature((2, 4, 6))
    M = level(row.hd)
    primes = [p for p in range(7, 1000) if is_prime(p) and (p - 1) % M == 0]
    assert len(primes) == 36
    for p in primes + [10009]:
        assert hecke_trace(row, cached_ctx(p), 6).total == -level6_weight8_ap(p), p


def test_cm_form_values_match_fixture():
    fx = load_fixture_by_label("24.5.h.b")
    for p, v in fx.ap.items():
        assert cm_level24_weight5_ap(p) == v, p


def test_cm_inert_zero():
    assert cm_level24_weight5_ap(13) == 0
    assert cm_level24_weight5_ap(61) == 0
    assert cm_level24_weight5_ap(73) == -8158


def test_fixture_ramanujan_gate(tmp_path):
    bad = {"label": "x.2.a.a", "level": 1, "weight": 2, "ap": {"5": 99}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(FixtureError, match="Ramanujan"):
        load_fixture(path)


def test_fixture_schema_violations(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"label": "a", "level": 1, "weight": 2}))
    with pytest.raises(FixtureError):
        load_fixture(path)
    path.write_text(json.dumps({"label": "a", "level": 1, "weight": 2,
                                "ap": {"4": 1}}))
    with pytest.raises(FixtureError, match="not prime"):
        load_fixture(path)


def test_builtin_fixtures_load():
    for label in ("6.8.a.a", "24.5.h.b"):
        fx = load_fixture_by_label(label)
        assert isinstance(fx, NewformFixture)
        assert fx.ap


def test_fixture_dir_env(tmp_path, monkeypatch):
    alt = {"label": "6.8.a.a", "level": 6, "weight": 8, "ap": {"5": 1}}
    (tmp_path / "6.8.a.a.json").write_text(json.dumps(alt))
    monkeypatch.setenv("HGTRACE_FIXTURE_DIR", str(tmp_path))
    fx = load_fixture_by_label("6.8.a.a")
    assert fx.ap == {5: 1}


def test_eta_product_guardrails():
    with pytest.raises(Exception):
        eta_product({1: 1}, 10)  # shift 1/24 not integral


@pytest.mark.parametrize("d_powers", [
    {1: 2, 2: 2, 3: 2, 6: 2}, {1: 8, 2: 8}, {1: 6, 3: 6}, {1: 24}])
def test_eta_product_matches_literal_product(d_powers):
    # q^(sum d r_d / 24) times every factor (1 - q^(dn)), one at a time
    N = 60
    co = [1] + [0] * N
    for d, r in d_powers.items():
        for n in range(1, N // d + 1):
            for _ in range(r):
                co = [c - (co[i - d * n] if i >= d * n else 0)
                      for i, c in enumerate(co)]
    shift = sum(d * r for d, r in d_powers.items()) // 24
    eta = eta_product(d_powers, N)
    assert eta.weight == sum(d_powers.values()) // 2
    assert list(eta.coeffs) == ([0] * shift + co)[:N + 1]
