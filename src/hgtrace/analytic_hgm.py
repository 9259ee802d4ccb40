"""Complex-analytic cross-checks: hypergeometric series, the ODE operator
residual, the Euler-integral period identity, and the complex Clausen formula.

Pure numerics with explicit tolerances: 1e-10 for |t| <= 1/2 at truncation 80,
1e-6 out to |t| = 0.9. The period integral is regularized by the endpoint
substitutions x = 1 + v^2 (near 1) and x = 1/u^2 (near infinity), after which
both pieces are smooth and Gauss-Legendre nodes converge geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt

import numpy as np

from .hgm_data import HGDatum

DEFAULT_TRUNCATION = 80


class PochhammerPole(ArithmeticError):
    """A lower parameter hit a nonpositive integer."""


def _series_coeffs(hd: HGDatum, K: int) -> list[float]:
    """c_k = prod (a_i)_k / prod (b_j)_k, with (1)_k = k! in the first slot."""
    cs = [1.0]
    c = 1.0
    for k in range(K):
        num = 1.0
        for a in hd.alpha:
            num *= float(a) + k
        den = 1.0
        for b in hd.beta:
            if float(b) + k == 0:
                raise PochhammerPole(f"lower parameter {b} pole at k = {k}")
            den *= float(b) + k
        c *= num / den
        cs.append(c)
    return cs


def nf_series(hd: HGDatum, t: complex, K: int = DEFAULT_TRUNCATION) -> complex:
    """The hypergeometric series at t, |t| <= 0.9, truncated after the t^K term."""
    if abs(t) > 0.9:
        raise ValueError("series evaluation restricted to |t| <= 0.9")
    if K < 10:
        raise ValueError("K >= 10")
    cs = _series_coeffs(hd, K)
    val = 0j
    tp = 1.0 + 0j
    for c in cs:
        val += c * tp
        tp *= t
    return val


def hyp2f1(a, b, c, t: complex, K: int = DEFAULT_TRUNCATION) -> complex:
    """2F1(a, b; c; t) by truncated series."""
    return nf_series(HGDatum((a, b), (1, c)), t, K)


def ode_residual(hd: HGDatum, t: complex, K: int = DEFAULT_TRUNCATION) -> float:
    """Magnitude of the hypergeometric operator applied to the truncated series.

    theta acts as k on t^k, so the operator sends the truncation to a single
    boundary term of order K+1; the returned value is that term's magnitude
    (plus rounding noise) evaluated at t.
    """
    cs = _series_coeffs(hd, K)
    res = np.zeros(K + 2, dtype=complex)
    for k, c in enumerate(cs):
        left = k
        for b in hd.beta[1:]:
            left *= k + float(b) - 1
        res[k] += left * c
        right = c
        for a in hd.alpha:
            right *= k + float(a)
        res[k + 1] -= right
    val = 0j
    tp = 1.0 + 0j
    for r in res:
        val += r * tp
        tp *= t
    return abs(val)


# ---------------------------------------------------------------------------
# Euler integral / period identity


def _period_integral(lam: float, n: int) -> float:
    """(1/pi) * integral over [1, inf) of dx / sqrt(x(x-1)(x-lam)).

    Split at x = 2 with x = 1 + v^2 on [1, 2] and x = 1/u^2 on [2, inf); both
    integrands below are smooth on their intervals.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    # piece 1: v in [0, 1], integrand 2 / sqrt((1+v^2) v^2 ... ) reduced:
    # dx/sqrt(x(x-1)(x-lam)) = 2 dv / sqrt((1+v^2)(1+v^2-lam))
    v = 0.5 * (x + 1.0)
    f1 = 2.0 / np.sqrt((1 + v * v) * (1 + v * v - lam))
    i1 = 0.5 * np.dot(w, f1)
    # piece 2: u in [0, 1/sqrt(2)], integrand 2 / sqrt((1-u^2)(1-lam u^2))
    h = 1.0 / sqrt(2.0)
    u = 0.5 * h * (x + 1.0)
    f2 = 2.0 / np.sqrt((1 - u * u) * (1 - lam * u * u))
    i2 = 0.5 * h * np.dot(w, f2)
    return (i1 + i2) / pi


@dataclass(frozen=True)
class PeriodReport:
    lam: float
    integral: float
    series: float
    difference: float
    quadrature_estimate: float


def euler_period_check(lam: float, K: int = DEFAULT_TRUNCATION) -> PeriodReport:
    """Compare the period integral against 2F1(1/2, 1/2; 1; lam), 0 < lam < 1.

    The quadrature is adaptive by node doubling: the reported estimate is the
    difference between the 200- and 400-node values.
    """
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    i200 = _period_integral(lam, 200)
    i400 = _period_integral(lam, 400)
    if abs(i400 - i200) > 1e-6:
        raise ArithmeticError(f"quadrature did not converge at lam = {lam}")
    series = hyp2f1(Fraction(1, 2), Fraction(1, 2), Fraction(1), lam,
                    K=max(K, 300 if lam > 0.7 else K)).real
    return PeriodReport(lam=lam, integral=i400, series=series,
                        difference=abs(i400 - series),
                        quadrature_estimate=abs(i400 - i200))


# ---------------------------------------------------------------------------
# Complex Clausen formula


@dataclass(frozen=True)
class ClausenComplexReport:
    a: Fraction
    b: Fraction
    t: float
    lhs: complex
    rhs: complex
    difference: float


def clausen_complex_check(a, b, t: float, K: int = DEFAULT_TRUNCATION) -> ClausenComplexReport:
    """(1-t)^(-1/2) 3F2(1/2, a-b+1/2, b-a+1/2; a+b+1/2, 3/2-a-b; t)
    = 2F1(a, b; a+b+1/2; t) * 2F1(1-a, 1-b; 3/2-a-b; t).
    """
    a, b = Fraction(a), Fraction(b)
    if abs(t) > 0.5:
        raise ValueError("|t| <= 1/2 for the tolerance tier")
    half = Fraction(1, 2)
    hd3 = HGDatum((half, a - b + half, b - a + half),
                  (Fraction(1), a + b + half, Fraction(3, 2) - a - b))
    lhs = (1 - t) ** (-0.5) * nf_series(hd3, t, K)
    rhs = hyp2f1(a, b, a + b + half, t, K) * hyp2f1(1 - a, 1 - b,
                                                    Fraction(3, 2) - a - b, t, K)
    return ClausenComplexReport(a=a, b=b, t=t, lhs=lhs, rhs=rhs,
                                difference=abs(lhs - rhs))
