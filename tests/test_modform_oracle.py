import json
from fractions import Fraction
from math import gcd

import pytest

from hgtrace import modform_oracle
from hgtrace.field_core import cached_ctx, is_prime
from hgtrace.hgm_data import level, row_by_signature
from hgtrace.modform_oracle import (FixtureError, NewformFixture, QExpansionError,
                                    _mul_trunc, cm_level24_weight5_ap,
                                    eisenstein, eta_product,
                                    hurwitz_class_number_12, level1_hecke_trace,
                                    level6_weight8_ap, load_fixture,
                                    load_fixture_by_label)
from hgtrace.trace_engine import hecke_trace

TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738,
       17: -6905934, 19: 10661420, 23: 18643272, 29: 128406630,
       31: -52843168, 37: -182213314, 41: 308120442, 43: -17125708,
       47: 2687348496}


def _delta(N):
    """The discriminant cusp form q prod (1 - q^n)^24, truncated at N."""
    return eta_product({1: 24}, N)


def test_delta_normalization():
    d = _delta(30)
    assert d[0] == 0 and d[1] == 1
    assert d[2] == -24


def test_delta_known_tau():
    d = _delta(50)
    for p, v in TAU.items():
        if p <= 50:
            assert d[p] == v, p


def test_tau_multiplicative():
    d = _delta(40)
    assert d[6] == d[2] * d[3]
    assert d[10] == d[2] * d[5]
    assert d[15] == d[3] * d[5]
    assert d[35] == d[5] * d[7]


def test_tau_hecke_recursion():
    # a(p^2) = a(p)^2 - p^11 for the weight-12 eigenform
    d = _delta(50)
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
    e8 = _mul_trunc(eisenstein(4, N), eisenstein(4, N), N)
    assert e8 == [1] + [
        480 * sum(d ** 7 for d in range(1, m + 1) if m % d == 0)
        for m in range(1, N + 1)]


def _miller_monomials(k):
    """Exponents (c, a, b) of the monomials Delta^c E4^a E6^b of weight k with
    c >= 1 and b <= 1, in increasing c.

    Restricting b to {0, 1} (via E6^2 = E4^3 - 1728 Delta) makes the monomials
    independent, so their number is dim S_k(SL_2(Z)): one for each c = 1..dim,
    each q^c + O(q^(c+1)).
    """
    out = []
    for c in range(1, k // 12 + 1):
        rem = k - 12 * c
        b = rem % 4 // 2
        if rem >= 6 * b:
            out.append((c, (rem - 6 * b) // 4, b))
    return out


def _miller_basis_trace(k, p):
    """Tr(T_p) on S_k(SL_2(Z)) read off the Miller basis, an independent route.

    The monomials g_c (c = 1..d, d = dim) start q^c + ..., so integer
    back-substitution turns them into the Miller basis f_1..f_d with
    f_i[j] = delta_ij for j <= d (for c = d-1 down to 1, subtract g_c[j] f_j
    for every j > c). The f_i coordinate of T_p f_i is its q^i coefficient
    f_i[p i] + p^(k-1) f_i[i/p], and the second term is 0 because i/p < i.
    So Tr(T_p) = sum_i f_i[p i], read off series cut at q^(p d).
    """
    exps = _miller_monomials(k)
    d = len(exps)
    if d == 0:
        return 0
    N = p * d
    delta, e4, e6 = _delta(N), eisenstein(4, N), eisenstein(6, N)
    f = []  # f[i - 1] starts at q^i
    for c, a, b in exps:
        g = delta
        for factor in [delta] * (c - 1) + [e4] * a + [e6] * b:
            g = _mul_trunc(g, factor, N)
        f.append(g)
    for c in range(d - 1, 0, -1):
        for j in range(c + 1, d + 1):
            x = f[c - 1][j]
            if x:
                f[c - 1] = [u - x * v for u, v in zip(f[c - 1], f[j - 1])]
    return sum(f[i - 1][p * i] for i in range(1, d + 1))


def test_dim_level1():
    assert [len(_miller_monomials(k)) for k in (12, 14, 16, 18, 20, 22, 24, 26)] \
        == [1, 0, 1, 1, 1, 1, 2, 1]


def test_level1_traces_match_tau():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert level1_hecke_trace(12, p) == TAU[p], p


def test_level1_weight16():
    # dim 1: trace = a_2 of Delta*E4 as the normalized eigenform
    f = _mul_trunc(_delta(10), eisenstein(4, 10), 10)
    assert level1_hecke_trace(16, 2) == f[2]


def test_level1_weight24_dim2():
    # a_2, a_3 of the two conjugate eigenforms: 540 +- 12 sqrt(144169) and
    # 169740 -+ 576 sqrt(144169)
    assert level1_hecke_trace(24, 2) == 1080
    assert level1_hecke_trace(24, 3) == 339480


def test_hurwitz_class_numbers():
    assert [Fraction(hurwitz_class_number_12(N), 12)
            for N in (3, 4, 7, 8, 11, 12, 15, 16, 20, 23)] \
        == [Fraction(1, 3), Fraction(1, 2), 1, 1, 1, Fraction(4, 3), 2, Fraction(3, 2), 2, 3]
    for N in (0, -4, 1, 6):
        with pytest.raises(QExpansionError):
            hurwitz_class_number_12(N)


@pytest.mark.parametrize("k", range(12, 39, 2))
def test_level1_trace_matches_eichler_selberg(k):
    # level1_hecke_trace, the Eichler-Selberg formula, against the Miller basis
    for p in range(2, 60):
        if is_prime(p):
            assert level1_hecke_trace(k, p) == _miller_basis_trace(k, p), p


def test_level1_trace_pins_the_miller_basis_values():
    # Miller-basis values at p = 997, seconds each to recompute that way
    assert level1_hecke_trace(24, 997) == -24333229709162682266825770194528740
    assert level1_hecke_trace(30, 997) == 5158212416561334698073318842164504844630380


@pytest.mark.parametrize("k", [4, 6, 8, 10, 14])
def test_level1_trace_vanishes_without_cusp_forms(k):
    # S_k(SL_2(Z)) = 0: the trace formula itself gives 0, with no early exit
    for p in (5, 7, 11, 97, 1009):
        assert level1_hecke_trace(k, p) == 0, p


@pytest.mark.parametrize("k, modulus, primes", [
    (12, 691, (1009, 10009, 99961)), (16, 3617, (1009, 10009))])
def test_level1_trace_eisenstein_congruence_and_bound(k, modulus, primes):
    # dim S_k = 1, so the trace is a_p of the eigenform: a_p = 1 + p^(k-1)
    # mod the numerator of B_k/2k (Ramanujan's 691, and 3617 at k = 16), and
    # |a_p| <= 2 p^((k-1)/2) (Deligne)
    for p in primes:
        tr = level1_hecke_trace(k, p)
        assert (tr - 1 - pow(p, k - 1, modulus)) % modulus == 0, p
        assert tr * tr <= 4 * p ** (k - 1), p


def test_level1_trace_checks_its_inputs(monkeypatch):
    assert level1_hecke_trace(13, 5) == 0 and level1_hecke_trace(2, 5) == 0
    with pytest.raises(QExpansionError, match="not prime"):
        level1_hecke_trace(12, 9)
    # one class number off by one breaks the divisibility by 24
    h12 = hurwitz_class_number_12
    monkeypatch.setattr(modform_oracle, "hurwitz_class_number_12",
                        lambda N: h12(N) + (N == 20))
    with pytest.raises(QExpansionError, match="divisible by 24"):
        level1_hecke_trace(12, 5)


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
    e1, e2, e3, e6 = (eisenstein(4, N, d) for d in (1, 2, 3, 6))
    g = [u - 4 * v - 9 * w + 36 * x for u, v, w, x in zip(e1, e2, e3, e6)]
    prod = _mul_trunc(f4, g, N)
    assert prod[0] == 0
    assert all(c % 24 == 0 for c in prod)
    a = [c // 24 for c in prod]
    assert a[1:4] == [1, 8, 27]
    for m in range(2, N + 1):
        for n in range(2, N // m + 1):
            if gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n], (m, n)
    for ell in (5, 7, 11, 13):
        assert a[ell * ell] == a[ell] ** 2 - ell ** 7, ell
    assert all(level6_weight8_ap(p) == a[p] for p in range(5, N + 1) if is_prime(p))


def test_level6_ap_checks_divisibility_by_24(monkeypatch):
    # E4 with its q^(p-1) coefficient off by one moves 24 a_p by f4[1] = 1
    def skewed(k, N, d=1):
        co = list(eisenstein(k, N, d))
        co[N - 1] += d == 1
        return tuple(co)
    monkeypatch.setattr(modform_oracle, "eisenstein", skewed)
    with pytest.raises(QExpansionError, match="divisible by 24"):
        level6_weight8_ap(37)


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


@pytest.mark.parametrize("data, match", [
    (5, "not a JSON object"),
    ([], "not a JSON object"),
    ({"label": "x", "level": 6, "weight": 8, "ap": {"abc": 1}}, "'abc' is not prime"),
    ({"label": "x", "level": 6, "weight": 8, "ap": {"5": 1, "05": -1}}, "'05' is not prime"),
    ({"label": "x", "level": 6, "weight": 8, "ap": {" 5": 1}}, "' 5' is not prime"),
    ({"label": "x", "level": True, "weight": 8, "ap": {"5": 1}}, "level/weight"),
    ({"label": "x", "level": 6, "weight": True, "ap": {"5": 1}}, "level/weight"),
    ({"label": "x", "level": 6, "weight": 8, "ap": {"5": True}}, "a_5 is not an integer"),
])
def test_fixture_malformed_values(tmp_path, data, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FixtureError, match=match) as exc:
        load_fixture(path)
    assert str(path) in str(exc.value)


def test_fixture_unparsable_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"label": "x",')
    with pytest.raises(FixtureError, match="bad.json"):
        load_fixture(path)


def test_malformed_fixture_stops_the_trace(tmp_path, monkeypatch):
    row = row_by_signature((2, 4, 6))
    good = {"label": "6.8.a.a", "level": 6, "weight": 8, "ap": {"5": -114}}
    (tmp_path / "6.8.a.a.json").write_text(json.dumps(good))
    monkeypatch.setenv("HGTRACE_FIXTURE_DIR", str(tmp_path))
    assert hecke_trace(row, cached_ctx(13), 6).oracle is None  # a_13 missing
    (tmp_path / "6.8.a.a.json").write_text(json.dumps({**good, "ap": {"abc": 1}}))
    with pytest.raises(FixtureError, match="6.8.a.a.json"):
        hecke_trace(row, cached_ctx(13), 6)


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
    assert list(eta_product(d_powers, N)) == ([0] * shift + co)[:N + 1]
