import random
from fractions import Fraction

import pytest

from hgtrace.analytic_hgm import (clausen_complex_check, euler_period_check,
                                  hyp2f1, nf_series, ode_residual)
from hgtrace.hgm_data import HGDatum, triangle_table

F = Fraction


def test_series_at_zero_is_one():
    hd = HGDatum(("1/2", "1/2"), (1, 1))
    assert nf_series(hd, 0.0, 20) == pytest.approx(1.0)


def test_2f1_half_half_one_leading_terms():
    # 1 + t/4 + 9 t^2/64 + O(t^3)
    t = 1e-3
    v = hyp2f1(F(1, 2), F(1, 2), F(1), t, 40)
    assert v.real == pytest.approx(1 + t / 4 + 9 * t * t / 64, abs=1e-9)


def test_series_truncation_convergence():
    hd = triangle_table()[4].hd  # the compact-row datum
    v60 = nf_series(hd, 0.3, 60)
    v80 = nf_series(hd, 0.3, 80)
    assert abs(v80 - v60) < 1e-12


def test_series_domain_guard():
    hd = HGDatum(("1/2", "1/2"), (1, 1))
    with pytest.raises(ValueError):
        nf_series(hd, 0.95, 40)
    with pytest.raises(ValueError):
        nf_series(hd, 0.1, 5)


def test_ode_residual_all_rows():
    # ten sample points per row inside |t| <= 1/2
    pts = [-0.5, -0.35, -0.2, -0.1, 0.05, 0.15, 0.25, 0.35, 0.45, 0.5]
    for row in triangle_table():
        for t in pts:
            assert ode_residual(row.hd, t, 80) < 1e-10, (row.name, t)


def test_ode_residual_zero_at_origin():
    hd = triangle_table()[0].hd
    assert ode_residual(hd, 0.0, 50) == 0.0


def test_legendre_ode_classical_form():
    """lam(1-lam) f'' + (1-2lam) f' - f/4 on the truncated series is tiny."""
    lam = 0.2
    K = 60
    hd = HGDatum(("1/2", "1/2"), (1, 1))
    # polynomial coefficients of the truncated series
    from hgtrace.analytic_hgm import _series_coeffs
    cs = _series_coeffs(hd, K)
    f = sum(c * lam ** k for k, c in enumerate(cs))
    fp = sum(k * c * lam ** (k - 1) for k, c in enumerate(cs) if k >= 1)
    fpp = sum(k * (k - 1) * c * lam ** (k - 2) for k, c in enumerate(cs) if k >= 2)
    res = lam * (1 - lam) * fpp + (1 - 2 * lam) * fp - f / 4
    assert abs(res) < 1e-10


def test_contiguity_derivative():
    # d/dt 2F1(a,b;c;t) = (ab/c) 2F1(a+1,b+1;c+1;t)
    a, b, c = F(1, 3), F(1, 4), F(5, 6)
    t, h = 0.2, 1e-6
    lhs = (hyp2f1(a, b, c, t + h, 120) - hyp2f1(a, b, c, t - h, 120)) / (2 * h)
    rhs = float(a * b / c) * hyp2f1(a + 1, b + 1, c + 1, t, 120)
    assert abs(lhs - rhs) < 1e-6


def test_euler_period_grid():
    for lam in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        if lam >= 0.95:
            continue
        rep = euler_period_check(lam)
        tol = 1e-8 if lam <= 0.8 else 1e-6
        assert rep.difference < tol, lam


def test_euler_period_limits():
    rep = euler_period_check(0.01)
    assert rep.integral == pytest.approx(1.0, abs=5e-3)


def test_euler_period_slow_convergence_tier():
    rep = euler_period_check(0.9, K=400)
    assert rep.difference < 1e-6


def test_clausen_complex_t0():
    rep = clausen_complex_check(F(1, 3), F(1, 4), 0.0)
    assert rep.lhs == pytest.approx(1.0) and rhs_close(rep)


def rhs_close(rep):
    return abs(rep.lhs - rep.rhs) < 1e-10


def test_clausen_complex_example():
    rep = clausen_complex_check(F(1, 3), F(1, 4), 0.2)
    assert rep.difference < 1e-10


def test_clausen_complex_random_samples():
    rng = random.Random(42)
    count = 0
    while count < 20:
        a = F(rng.randint(1, 5), rng.randint(6, 9))
        b = F(rng.randint(1, 5), rng.randint(7, 11))
        t = rng.uniform(0.05, 0.45)
        rep = clausen_complex_check(a, b, t)
        assert rep.difference < 1e-10, (a, b, t)
        count += 1


def test_clausen_complex_domain_guard():
    with pytest.raises(ValueError):
        clausen_complex_check(F(1, 3), F(1, 4), 0.7)
