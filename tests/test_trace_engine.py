import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from hgtrace.character_sums import (SnapError, _lambda_chart, datum_table,
                                    snap_tolerance)
from hgtrace.field_core import CongruenceError, build_ctx, cached_ctx, nth_primitive_root
from hgtrace.hgm_data import OO, hg_datum, row_by_signature, triangle_table
from hgtrace.modform_oracle import level1_hecke_trace, load_fixture_by_label
from hgtrace.trace_engine import (_COVER_MAPS, LegendreCalibration,
                                  _a_gamma_values, a_gamma, a_gamma_sweep,
                                  build_Fm, calibrate_legendre_relation,
                                  fm_identity_holds, hecke_trace)


def test_build_F1_is_S():
    assert build_Fm(1).coeffs == {(1, 0): 1}


def test_build_F2():
    assert build_Fm(2).coeffs == {(2, 0): 1, (1, 1): -1, (0, 2): -1}


def test_build_F3_matches_worked_cubic():
    # a^3 - 2 p a^2 - p^2 a + p^3 pattern
    assert build_Fm(3).coeffs == {(3, 0): 1, (2, 1): -2, (1, 2): -1, (0, 3): 1}


def test_fm_identity_random():
    rng = random.Random(11)
    for m in range(1, 11):
        for _ in range(30):
            u, v = rng.randint(-50, 50), rng.randint(-50, 50)
            assert fm_identity_holds(m, u, v)


def _fm_by_interpolation(m):
    """Independent oracle: solve for the coefficients of F_m from evaluations.

    Scaling (u, v) -> (cu, cv) shows F_m is homogeneous of degree m in (S, T),
    so F_m = sum over i of c_i S^i T^(m-i); evaluating the power sum at enough
    integer (u, v) pairs gives an exact linear system for the c_i.
    """
    monos = [(i, m - i) for i in range(m + 1)]
    pts = []
    vals = []
    rng = random.Random(m)
    seen = set()
    while len(pts) < len(monos) + 4:
        u, v = rng.randint(1, 19), rng.randint(-19, -1)
        S, T = u * u + u * v + v * v, u * v
        if (S, T) in seen:
            continue
        seen.add((S, T))
        pts.append((S, T))
        vals.append(sum(u ** i * v ** (2 * m - i) for i in range(2 * m + 1)))
    A = [[Fraction(S ** i * T ** j) for (i, j) in monos] for (S, T) in pts]
    b = [Fraction(v) for v in vals]
    coeffs = _exact_solve(A, b, len(monos))
    return {mono: int(c) for mono, c in zip(monos, coeffs) if c != 0}


def _exact_solve(A, b, ncols):
    rows = [row[:] + [bv] for row, bv in zip(A, b)]
    pivots = []
    for c in range(ncols):
        piv = next((r for r in range(len(rows)) if r not in pivots and rows[r][c] != 0),
                   None)
        assert piv is not None, "interpolation system is degenerate"
        pivots.append(piv)
        pv = rows[piv][c]
        rows[piv] = [x / pv for x in rows[piv]]
        for r in range(len(rows)):
            if r != piv and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
    out = [Fraction(0)] * ncols
    for c, piv in enumerate(pivots):
        out[c] = rows[piv][ncols]
    return out


@pytest.mark.parametrize("m", range(1, 7))
def test_fm_against_interpolation_oracle(m):
    assert _fm_by_interpolation(m) == build_Fm(m).coeffs


def test_a_gamma_rejects_special(ctx13):
    row = row_by_signature((2, OO, OO))
    with pytest.raises(ValueError):
        a_gamma(row, 1, ctx13)
    with pytest.raises(ValueError):
        a_gamma(row, 0, ctx13)
    r246 = row_by_signature((2, 4, 6))
    with pytest.raises(ValueError):
        a_gamma(r246, -3, ctx13)


def test_a_gamma_congruence(ctx7):
    with pytest.raises(CongruenceError):
        a_gamma(row_by_signature((2, 4, 6)), 2, ctx7)


def test_a_gamma_matches_sweep(ctx13):
    for sig in ((2, OO, OO), (2, 4, 6)):
        row = row_by_signature(sig)
        sweep = a_gamma_sweep(row, ctx13)
        for lam in list(sweep)[:5]:
            assert a_gamma(row, lam, ctx13) == sweep[lam]


def test_sweep_snap_error_names_first_bad_lambda(ctx13):
    """A sweep that does not snap raises at its first bad lambda."""
    row = row_by_signature((2, OO, OO))
    irrational = datum_table(hg_datum(("1/2", "1/3", "1/3"), (1, 1, 1)), ctx13)
    with pytest.raises(SnapError, match=r"a_Gamma\(\d+, 13\) did not snap") as exc:
        _a_gamma_values(row, ctx13, np.arange(13), irrational)
    bad = int(re.search(r"a_Gamma\((\d+),", str(exc.value)).group(1))
    for lam in range(bad):
        _a_gamma_values(row, ctx13, np.array([lam]), irrational)
    with pytest.raises(SnapError):
        a_gamma(row, bad, ctx13, irrational)


class _ShiftedTable:
    """A datum table whose sweep moves the value at one index by exactly 1."""

    def __init__(self, table, index):
        self.table, self.index = table, index

    def sweep(self, args):
        out = self.table.sweep(args).copy()
        out[self.index] += 1
        return out


@pytest.mark.parametrize("sig", [(2, OO, OO), (2, 4, 6)])
def test_sweep_off_by_one_fails_the_square_check(sig):
    """A value that snaps cleanly to a wrong integer a +- 1 is caught by the
    exact check a + p = d*t^2; both rows scale the period sum by -1, so a
    shift of 1 in the sweep moves a by exactly 1. (At the first generic
    lambda of (2,4,6), a + p = 9 and 8 = 2*2^2 would pass, hence index 1.)"""
    row, ctx = row_by_signature(sig), cached_ctx(37)
    shifted = _ShiftedTable(datum_table(row.hd, ctx), 1)
    with pytest.raises(SnapError, match=r"a_Gamma\(\d+, 37\) snapped to -?\d+, but a \+ p "
                                        r"is not d\*t\^2"):
        _a_gamma_values(row, ctx, np.arange(37), shifted)


def test_snap_headroom_at_the_p_cap():
    """Every row's sweep snaps at p = 99961, the largest admissible prime under
    the cap, with the tolerance at least 10^4 times its worst distance from an
    integer."""
    p = 99961
    ctx = cached_ctx(p)
    for row in triangle_table():
        sweep = a_gamma_sweep(row, ctx)
        args, chis, p_factor = _lambda_chart(row.a_rule, ctx, np.arange(p))
        generic = chis != 0
        vals = datum_table(row.hd, ctx).sweep(args[generic]) * chis[generic] \
            * (row.hp_sign * p_factor / p ** row.hp_weight)
        snapped = np.round(vals.real)
        assert snapped.astype(np.int64).tolist() == list(sweep.values()), row.name
        worst = max(np.abs(vals.imag).max(), np.abs(vals.real - snapped).max())
        assert snap_tolerance(p, row.hd.n) >= 1e4 * worst, row.name


def test_a_gamma_generator_independent():
    row = row_by_signature((2, 4, 6))
    base = None
    for idx in range(3):
        g = nth_primitive_root(13, idx)
        ctx = build_ctx(13, generator=g)
        vals = a_gamma_sweep(row, ctx)
        if base is None:
            base = vals
        else:
            assert vals == base


def test_frobenius_trace_Vk(ctx13):
    row = row_by_signature((2, OO, OO))
    a = a_gamma(row, 2, ctx13)
    assert build_Fm(1).evaluate(a, 13) == a
    p = 13
    assert build_Fm(3).evaluate(a, p) == a ** 3 - 2 * p * a * a - p * p * a + p ** 3


def test_f1_supersingular_substitution():
    # t = 0 point: a = -p, k = 2 gives -p
    assert build_Fm(1).evaluate(-13, 13) == -13


def test_legendre_calibration():
    calib = calibrate_legendre_relation()
    assert calib.map_label == "-4*lam/(lam-1)^2"
    assert isinstance(calib, LegendreCalibration)


def test_legendre_relation_all_primes_to_61():
    from hgtrace.curve_lab import legendre_trace_sweep
    calib = calibrate_legendre_relation()
    cover = _COVER_MAPS[calib.map_label]
    row = row_by_signature((2, OO, OO))
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        ctx = cached_ctx(p)
        a_row = a_gamma_sweep(row, ctx)
        a_e = legendre_trace_sweep(ctx)
        specials = row.finite_specials_mod_p(p)
        for lamp in range(2, p):
            target = cover(lamp, p, ctx.inv)
            if target in specials:
                continue
            assert a_row[target] == int(a_e[lamp]) ** 2 - p, (p, lamp)


def test_legendre_negative_control(ctx13):
    """Flipping the sign of the trace rule breaks the matching at every prime."""
    from hgtrace.curve_lab import legendre_trace_sweep
    cover = _COVER_MAPS["-4*lam/(lam-1)^2"]
    row = row_by_signature((2, OO, OO))
    a_row = a_gamma_sweep(row, ctx13)
    a_e = legendre_trace_sweep(ctx13)
    mismatches = 0
    for lamp in range(2, 13):
        target = cover(lamp, 13, ctx13.inv)
        if target in row.finite_specials_mod_p(13):
            continue
        if -a_row[target] != int(a_e[lamp]) ** 2 - 13:
            mismatches += 1
    assert mismatches > 0


def test_hecke_trace_headline_p13(ctx13):
    row = row_by_signature((2, 4, 6))
    rep = hecke_trace(row, ctx13, 6)
    fx = load_fixture_by_label("6.8.a.a")
    assert not rep.partial
    assert rep.total == -fx.coefficient(13)
    assert rep.residual == 0
    assert rep.cusp_sum == 0
    assert rep.dim_cusp_forms == 1


def test_hecke_trace_cusp_counts(ctx13):
    rep = hecke_trace(row_by_signature((2, OO, OO)), ctx13, 2)
    assert rep.cusp_sum == 2 and rep.partial
    rep23 = hecke_trace(row_by_signature((2, 3, OO)), ctx13, 2)
    assert rep23.cusp_sum == 1 and rep23.partial


def test_hecke_trace_partial_flag_and_residual(ctx13):
    rep = hecke_trace(row_by_signature((2, 3, OO)), ctx13, 10)
    assert rep.partial and "elliptic terms unavailable" in rep.flags
    assert rep.total is None
    assert rep.oracle == -level1_hecke_trace(12, 13)
    assert rep.residual == rep.generic_sum + rep.cusp_sum - rep.oracle


def test_hecke_trace_rejects_bad_weight(ctx13):
    with pytest.raises(ValueError):
        hecke_trace(row_by_signature((2, 4, 6)), ctx13, 5)


def test_hecke_trace_generator_independent():
    row = row_by_signature((2, 4, 6))
    outs = []
    for idx in range(3):
        ctx = build_ctx(13, generator=nth_primitive_root(13, idx))
        outs.append(json.dumps(hecke_trace(row, ctx, 6).to_json(), sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_report_json_schema(ctx13):
    rep = hecke_trace(row_by_signature((2, 4, 6)), ctx13, 6)
    d = rep.to_json()
    assert d["schema_version"] == 1
    assert d["total"] == rep.total
    parsed = json.loads(json.dumps(d))
    assert parsed["p"] == 13


def test_report_total_is_sum_of_terms(ctx13):
    rep = hecke_trace(row_by_signature((2, 4, 6)), ctx13, 6)
    assert rep.total == sum(t.value for t in rep.terms if t.value is not None)
