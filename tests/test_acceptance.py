"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-criteria are mathematically unattainable as stated and are marked
xfail(strict=True) with the analysis in the assertion message and the decisions
log: the plain perfect-square invariant fails at the Atkin-Lehner twisted
points of the extended rows (the true invariant a + p = d*t^2 with d | 6 is
asserted instead and is green), and the split quaternionic F_p shape for the
genus-2 family cannot occur at p = 13 or 17 because every good fiber there has
Frobenius trace zero with a non-split quartic characteristic polynomial.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from hgtrace.character_sums import (al_square_decompose, clausen_sweep, datum_table,
                                    elliptic_square_value, hp_sum)
from hgtrace.curve_lab import (GenLegendre, Legendre, baba_granath_curve,
                               baba_granath_qm_sweep, count_points,
                               count_via_characters, legendre_trace_sweep)
from hgtrace.field_core import build_ctx, cached_ctx, is_prime, nth_primitive_root
from hgtrace.hgm_data import OO, level, row_by_signature, triangle_table
from hgtrace.modform_oracle import load_fixture_by_label
from hgtrace.trace_engine import (_COVER_MAPS, a_gamma_sweep, build_Fm,
                                  calibrate_legendre_relation, fm_identity_holds,
                                  hecke_trace)
from hgtrace.analytic_hgm import (clausen_complex_check, euler_period_check,
                                  ode_residual)


def _line(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status}: {desc}" + (f" ({extra})" if extra else ""))


def test_criterion_01_headline_identity():
    """trace --group 2,4,6 --weight 8 equals -a_p(6.8.a.a) exactly, < 30 s/prime."""
    row = row_by_signature((2, 4, 6))
    fx = load_fixture_by_label("6.8.a.a")
    ok = True
    times = []
    for p in (13, 37, 61):
        t0 = time.perf_counter()
        rep = hecke_trace(row, cached_ctx(p), 6)
        dt = time.perf_counter() - t0
        times.append(dt)
        ok = ok and rep.total == -fx.coefficient(p) and dt < 30
    _line(1, "headline trace identity at p in {13, 37, 61}", ok,
          f"runtimes {[f'{t:.2f}s' for t in times]}")
    assert ok


def test_criterion_02_cm_elliptic_term():
    """(p H_p(1))^2 - p^2 equals a_p(24.5.h.b), exactly."""
    row = row_by_signature((2, 4, 6))
    fx = load_fixture_by_label("24.5.h.b")
    ok = True
    for p in (13, 37, 61):
        esq = elliptic_square_value(datum_table(row.hd, cached_ctx(p)),
                                    row.hp_sign, row.hp_weight)
        ok = ok and (esq - p * p == fx.coefficient(p))
    _line(2, "CM elliptic term matches the weight-5 fixture", ok)
    assert ok


def test_criterion_03_clausen_exhaustive():
    """All admissible (eta, K, t) for p in {11, 13, 17, 19}: zero failures, < 1 min."""
    t0 = time.perf_counter()
    total = failures = 0
    for p in (11, 13, 17, 19):
        for rep in clausen_sweep(cached_ctx(p)):
            total += 1
            if not rep.passed:
                failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 60
    _line(3, "finite-field Clausen exhaustive", ok,
          f"{total} checks, {failures} failures, {dt:.1f}s")
    assert ok


def _weil_sweep(rows, divisors_fn):
    bad = []
    for row in rows:
        M = level(row.hd)
        for p in (q for q in range(7, 62) if is_prime(q) and (q - 1) % M == 0):
            lams, a_row = a_gamma_sweep(row, cached_ctx(p))
            for lam, a in zip(lams.tolist(), a_row.tolist()):
                if al_square_decompose(a, p, divisors_fn(row)) is None:
                    bad.append((row.name, p, lam, a))
    return bad


def test_criterion_04_square_invariant_plain_rows():
    """a + p is a perfect integer square t^2 <= 4p on the non-extended rows."""
    rows = [row_by_signature((2, OO, OO)), row_by_signature((2, 3, OO))]
    bad = _weil_sweep(rows, lambda row: (1,))
    _line(4, "perfect-square invariant, rows (2,oo,oo) and (2,3,oo)", not bad)
    assert not bad


@pytest.mark.xfail(strict=True, reason=(
    "spec defect: at Atkin-Lehner twisted points of the extended rows "
    "(2,4,oo), (2,6,oo), (2,4,6) the Frobenius pair generates a real quadratic "
    "extension and a + p = d*t^2 with d in {2, 3, 6}; a plain perfect square "
    "is impossible there. Verified three ways: character sums, genus-2 counts "
    "over F_p/F_p2, and coherence of the (already exact) criterion-1 identity."))
def test_criterion_04_square_invariant_as_stated_all_rows():
    rows = list(triangle_table())
    bad = _weil_sweep(rows, lambda row: (1,))
    _line(4, "perfect-square invariant as stated on all five rows", not bad,
          f"{len(bad)} Atkin-Lehner twisted points, first {bad[:2]}")
    assert not bad


def test_criterion_04_square_invariant_generalized():
    """The invariant that does hold: a + p = d*t^2, d | 6 per the row's classes."""
    rows = list(triangle_table())
    bad = _weil_sweep(rows, lambda row: row.al_divisors)
    _line(4, "d*t^2 (d | 6) square invariant, all rows, p <= 61", not bad)
    assert not bad


def test_criterion_05_legendre_oracle_equivalence():
    """Calibrated identification matches brute-force Legendre counts, p <= 101."""
    calib = calibrate_legendre_relation()
    cover = _COVER_MAPS[calib.map_label]
    row = row_by_signature((2, OO, OO))
    bad = []
    for p in (q for q in range(3, 102) if is_prime(q) and q > 2):
        ctx = cached_ctx(p)
        a_row = dict(zip(*(x.tolist() for x in a_gamma_sweep(row, ctx))))
        a_e = legendre_trace_sweep(ctx)
        specials = row.finite_specials_mod_p(p)
        for lamp in range(2, p):
            num, den = cover(lamp, p)
            target = num * ctx.inv(den) % p
            if target in specials:
                continue
            if a_row[target] != int(a_e[lamp]) ** 2 - p:
                bad.append((p, lamp))
    _line(5, f"Legendre oracle equivalence via {calib.map_label}, p <= 101", not bad)
    assert not bad


def test_criterion_06_fm_correctness():
    f3 = build_Fm(3).coeffs
    pattern_ok = f3 == {(3, 0): 1, (2, 1): -2, (1, 2): -1, (0, 3): 1}
    rng = random.Random(123)
    ident_ok = all(
        fm_identity_holds(m, rng.randint(-50, 50), rng.randint(-50, 50))
        for m in range(1, 11) for _ in range(100))
    _line(6, "F_3 coefficient pattern and F_m identity, m <= 10", pattern_ok and ident_ok)
    assert pattern_ok and ident_ok


def test_criterion_07_gen_legendre_counts():
    bad = []
    for p in (7, 13, 19, 31, 37):
        ctx = cached_ctx(p)
        for lam in range(2, p):
            direct = count_points(GenLegendre(6, 4, 3, 1, lam), ctx)
            viachars, _sums, _new = count_via_characters(ctx, 6, 4, 3, 1, lam)
            if direct.n_points != viachars.n_points:
                bad.append((p, lam))
    _line(7, "superelliptic counts, both routes, p in {7,13,19,31,37}", not bad)
    assert not bad


def test_criterion_08_baba_granath_qm_p29():
    """The split QM shape is attained at p = 29 (with >= 10 good samples)."""
    t0 = time.perf_counter()
    ctx = cached_ctx(29)
    sampled = passed = 0
    for j in range(1, 29):
        scans = baba_granath_qm_sweep(ctx, [j])[0]
        # qm_consistency runs on the branches whose curve is defined over F_p
        if any(baba_granath_curve(ctx, j, b)[1] == "F_p" for b, _r in scans):
            sampled += 1
        passed += sum(1 for _b, r in scans if r.passed)
    dt = time.perf_counter() - t0
    ok = sampled >= 10 and passed > 0 and dt < 120
    _line(8, "genus-2 QM consistency at p = 29", ok,
          f"{passed} passing branches over {sampled} samples, {dt:.1f}s")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "spec defect: at p = 13 and p = 17 every good fiber of the genus-2 family "
    "has #C(F_p) = p + 1 (the two s-branches are isomorphic twists, forcing "
    "Frobenius trace zero) and char poly x^4 + a2 x^2 + p^2 that is not of the "
    "split form (x^2 - t x + p)^2; the quaternionic action only descends to "
    "F_p2 there. No (j, branch) can pass qm_consistency."))
def test_criterion_08_baba_granath_qm_p13_p17_as_stated():
    ok_primes = []
    for p in (13, 17):
        ctx = cached_ctx(p)
        passed = 0
        for j in range(1, p):
            passed += sum(1 for _b, r in baba_granath_qm_sweep(ctx, [j])[0] if r.passed)
        ok_primes.append(passed > 0)
    _line(8, "genus-2 QM consistency as stated at p in {13, 17}", all(ok_primes))
    assert all(ok_primes)


def test_criterion_09_analytic_suite():
    ode_ok = all(ode_residual(row.hd, t, 80) < 1e-10
                 for row in triangle_table() for t in (0.5, -0.5, 0.25))
    grid = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85]
    euler_ok = all(euler_period_check(lam).difference < 1e-8 for lam in grid)
    euler_ok = euler_ok and euler_period_check(0.9).difference < 1e-6
    rng = random.Random(9)
    cl_ok = True
    for _ in range(20):
        a = Fraction(rng.randint(1, 5), rng.randint(6, 9))
        b = Fraction(rng.randint(1, 5), rng.randint(7, 11))
        rep = clausen_complex_check(a, b, rng.uniform(0.05, 0.45))
        cl_ok = cl_ok and rep.difference < 1e-10
    ok = ode_ok and euler_ok and cl_ok
    _line(9, "analytic suite (ODE 1e-10, Euler 1e-8, Clausen 1e-10)", ok,
          f"ode={ode_ok} euler={euler_ok} clausen={cl_ok}")
    assert ok


def _literal_a_gamma(row, lam, ctx, table):
    """The row's lambda chart written out with hp_sum and scalar field ops:
    phi(1 - 1/lam) * H_p(1/lam) on the cusp rows and
    phi(-3(1 + 3/lam)) * p * H_p(-3/lam) on (2,4,6)."""
    inv = ctx.inv(lam)
    if row.signature == (2, 4, 6):
        arg, chi, factor = -3 * inv % ctx.p, ctx.legendre(-3 * (1 + 3 * inv)), ctx.p
    else:
        arg, chi, factor = inv, ctx.legendre(1 - inv), 1
    h = hp_sum(row.hd, ctx, arg, row.hp_sign, row.hp_weight, table=table).snapped
    return None if h is None else chi * factor * h


def _literal_legendre_trace(p, lam):
    """a_E(lam) = -sum_x (x(x-1)(x-lam))^((p-1)/2) mod p, lifted to -1, 0, 1."""
    e = (p - 1) // 2
    return -sum((pow(x * (x - 1) * (x - lam), e, p) + 1) % p - 1 for x in range(p))


def test_criterion_10_determinism():
    """Byte-identical output across primitive roots; sweeps == literal definitions."""
    row = row_by_signature((2, 4, 6))
    outs = []
    for idx in range(3):
        ctx = build_ctx(13, generator=nth_primitive_root(13, idx))
        outs.append(json.dumps(hecke_trace(row, ctx, 6).to_json(), sort_keys=True))
    roots_ok = outs[0] == outs[1] == outs[2]

    # the vectorized sweeps agree with the per-lambda definitions everywhere,
    # and the chart leaves out exactly the row's finite special lambdas
    a_bad, special_bad, leg_bad = [], [], []
    for p in [q for q in range(7, 62) if is_prime(q)]:
        ctx = cached_ctx(p)
        for row in triangle_table():
            if (p - 1) % level(row.hd):
                continue
            table = datum_table(row.hd, ctx)
            lams, a_row = (x.tolist() for x in a_gamma_sweep(row, ctx))
            if set(range(p)) - set(lams) != row.finite_specials_mod_p(p):
                special_bad.append((row.name, p))
            a_bad += [(row.name, p, lam) for lam, a in zip(lams, a_row)
                      if _literal_a_gamma(row, lam, ctx, table) != a]
        traces = legendre_trace_sweep(ctx)
        leg_bad += [(p, lam) for lam in range(2, p)
                    if not int(traces[lam]) == count_points(Legendre(lam), ctx).trace
                    == _literal_legendre_trace(p, lam)]
    ok = roots_ok and not a_bad and not special_bad and not leg_bad
    _line(10, "determinism: 3 primitive roots; sweeps == literal definitions, "
          "p <= 61", ok, f"roots={roots_ok} a_gamma={a_bad[:3]} "
          f"specials={special_bad[:3]} legendre={leg_bad[:3]}")
    assert ok


def test_partial_reports_never_claim_totals():
    """Partial reports always carry the flag and never a total (spec note)."""
    bad = []
    for sig, k in (((2, OO, OO), 4), ((2, 3, OO), 10), ((2, 4, OO), 2),
                   ((2, 6, OO), 6), ((2, 4, 6), 8)):
        row = row_by_signature(sig)
        p = 13
        if (p - 1) % level(row.hd):
            continue
        rep = hecke_trace(row, cached_ctx(p), k)
        if rep.partial and (rep.total is not None
                            or "elliptic terms unavailable" not in rep.flags):
            bad.append((sig, k))
        if not rep.partial and sig != (2, 4, 6):
            bad.append((sig, k))
    _line("10b", "partial reports are flagged and never claim totals", not bad)
    assert not bad
