import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from hgtrace import character_sums
from hgtrace.character_sums import (CalibrationError, SnapError, _lambda_chart,
                                    calibrate_hp_weight, datum_table, snap_tolerance)
from hgtrace.field_core import CongruenceError, build_ctx, cached_ctx, nth_primitive_root
from hgtrace.hgm_data import OO, HGDatum, row_by_signature, triangle_table
from hgtrace.curve_lab import legendre_trace_sweep
from hgtrace.modform_oracle import level1_hecke_trace, load_fixture_by_label
from hgtrace.trace_engine import (_COVER_MAPS, SCHEMA_VERSION, LegendreCalibration,
                                  a_gamma_sweep, build_Fm, calibrate_legendre_relation,
                                  fm_identity_holds, hecke_trace, legendre_relation)


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


@pytest.mark.parametrize("m", range(1, 11))
def test_fm_against_interpolation_oracle(m):
    assert _fm_by_interpolation(m) == build_Fm(m).coeffs


def _one_lambda(row, lam, ctx, table=None):
    """a_gamma_sweep at the single lambda lam mod p, as int64 arrays."""
    return a_gamma_sweep(row, ctx, np.array([lam % ctx.p]), table)


def _sweep_dict(sweep):
    """{lam: a_Gamma} of a_gamma_sweep's arrays, for the scalar reference loops."""
    lams, a = sweep
    return dict(zip(lams.tolist(), a.tolist()))


def test_a_gamma_rejects_special(ctx13):
    """A special lambda is absent from the returned lambdas."""
    row, r246 = row_by_signature((2, OO, OO)), row_by_signature((2, 4, 6))
    for r, lam in ((row, 1), (row, 0), (r246, -3)):
        lams, a = _one_lambda(r, lam, ctx13)
        assert lams.tolist() == a.tolist() == [], (r.name, lam)
    lams, a = _one_lambda(row, 2, ctx13)
    assert lams.tolist() == [2] and len(a) == 1


def test_a_gamma_congruence(ctx7):
    with pytest.raises(CongruenceError):
        _one_lambda(row_by_signature((2, 4, 6)), 2, ctx7)


def test_a_gamma_matches_sweep(ctx13):
    """The sweep over F_p returns int64 arrays, and each of its entries is the
    sweep at that lambda alone."""
    for sig in ((2, OO, OO), (2, 4, 6)):
        row = row_by_signature(sig)
        lams, a = a_gamma_sweep(row, ctx13)
        assert lams.dtype == a.dtype == np.int64
        assert (np.diff(lams) > 0).all()
        for lam, want in zip(lams.tolist()[:5], a.tolist()):
            assert _one_lambda(row, lam, ctx13)[1].tolist() == [want]


def test_sweep_snap_error_names_first_bad_lambda(ctx13):
    """A sweep that does not snap raises at its first bad lambda."""
    row = row_by_signature((2, OO, OO))
    irrational = datum_table(HGDatum(("1/2", "1/3", "1/3"), (1, 1, 1)), ctx13)
    with pytest.raises(SnapError, match=r"a_Gamma\(\d+, 13\) did not snap") as exc:
        a_gamma_sweep(row, ctx13, table=irrational)
    bad = int(re.search(r"a_Gamma\((\d+),", str(exc.value)).group(1))
    for lam in range(bad):
        _one_lambda(row, lam, ctx13, irrational)
    with pytest.raises(SnapError):
        _one_lambda(row, bad, ctx13, irrational)


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
        a_gamma_sweep(row, ctx, table=shifted)


class _ImaginaryOffsetTable:
    """A datum table whose sweep returns its values rounded to integers, plus
    an imaginary part of exactly off."""

    def __init__(self, table, off):
        self.table, self.off = table, off

    def sweep(self, args):
        return np.round(self.table.sweep(args).real) + 1j * self.off


@pytest.mark.parametrize("fraction", [0.5, 1.0])
def test_snap_boundary_is_shared_by_a_gamma_and_calibration(monkeypatch, fraction):
    """A value exactly snap_tolerance away from an integer fails a_Gamma and the
    H_p calibration alike; one half as far passes both. The (2,oo,oo) row scales
    the period sum by exactly -1, so the offset reaches the check unrounded."""
    row = row_by_signature((2, OO, OO))
    real = character_sums.datum_table
    monkeypatch.setattr(character_sums, "datum_table", lambda hd, ctx: _ImaginaryOffsetTable(
        real(hd, ctx), fraction * snap_tolerance(ctx.p, hd.n)))
    ctx = cached_ctx(13)
    table = character_sums.datum_table(row.hd, ctx)
    if fraction < 1:
        assert a_gamma_sweep(row, ctx, table=table)[1].tolist() == \
            a_gamma_sweep(row, ctx)[1].tolist()
        assert calibrate_hp_weight(row.hd) == (row.hp_sign, row.hp_weight)
    else:
        with pytest.raises(SnapError, match="did not snap"):
            a_gamma_sweep(row, ctx, table=table)
        with pytest.raises(CalibrationError, match=r"no \(sign, weight\)"):
            calibrate_hp_weight(row.hd)


def test_snap_headroom_at_the_p_cap():
    """Every row's sweep snaps at p = 99961, the largest admissible prime under
    the cap, with the tolerance at least 10^4 times its worst distance from an
    integer; so does the (2,4,6) row's degenerate-fiber trace tau1 = p * H_p(1),
    which elliptic_square_value snaps."""
    p = 99961
    ctx = cached_ctx(p)
    for row in triangle_table():
        _lams, a = a_gamma_sweep(row, ctx)
        args, chis, p_factor = _lambda_chart(row.a_rule, ctx, np.arange(p))
        generic = chis != 0
        vals = datum_table(row.hd, ctx).sweep(args[generic]) * chis[generic] \
            * (row.hp_sign * p_factor / p ** row.hp_weight)
        snapped = np.round(vals.real)
        assert snapped.astype(np.int64).tolist() == a.tolist(), row.name
        worst = max(np.abs(vals.imag).max(), np.abs(vals.real - snapped).max())
        assert snap_tolerance(p, row.hd.n) >= 1e4 * worst, row.name
    row = row_by_signature((2, 4, 6))
    tau1 = row.hp_sign * p ** (1 - row.hp_weight) * datum_table(row.hd, ctx).raw_value(1)
    worst = max(abs(tau1.imag), abs(tau1.real - round(tau1.real)))
    assert snap_tolerance(p, row.hd.n) >= 1e4 * worst


def test_a_gamma_generator_independent():
    row = row_by_signature((2, 4, 6))
    base = None
    for idx in range(3):
        g = nth_primitive_root(13, idx)
        ctx = build_ctx(13, generator=g)
        vals = [x.tolist() for x in a_gamma_sweep(row, ctx)]
        if base is None:
            base = vals
        else:
            assert vals == base


def test_frobenius_trace_Vk(ctx13):
    row = row_by_signature((2, OO, OO))
    a, = _one_lambda(row, 2, ctx13)[1].tolist()
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
        a_row = _sweep_dict(a_gamma_sweep(row, ctx))
        a_e = legendre_trace_sweep(ctx)
        specials = row.finite_specials_mod_p(p)
        for lamp in range(2, p):
            num, den = cover(lamp, p)
            target = num * ctx.inv(den) % p
            if target in specials:
                continue
            assert a_row[target] == int(a_e[lamp]) ** 2 - p, (p, lamp)


def test_legendre_relation_matches_a_scalar_loop():
    """The array relation returns what a loop over lam' returns, for every
    cover map, including the first failing lam'."""
    row = row_by_signature((2, OO, OO))
    failed = 0
    for p in (7, 11, 13, 29, 61):
        ctx = cached_ctx(p)
        sweep = a_gamma_sweep(row, ctx)
        a_row = _sweep_dict(sweep)
        a_e = legendre_trace_sweep(ctx)
        for label, cover in _COVER_MAPS.items():
            bad, held = None, []
            for lamp in range(2, p):
                num, den = cover(lamp, p)
                if den == 0:
                    continue
                target = num * ctx.inv(den) % p
                if target not in a_row:
                    continue
                if a_row[target] != int(a_e[lamp]) ** 2 - p:
                    bad = lamp
                    break
                held.append([target, a_row[target]])
            got_bad, got_held = legendre_relation(label, ctx, sweep, a_e)
            assert (got_bad, got_held.tolist()) == (bad, held), (label, p)
            failed += bad is not None
    assert failed > 0


def test_legendre_negative_control(ctx13):
    """Flipping the sign of the trace rule breaks the matching at every prime."""
    from hgtrace.curve_lab import legendre_trace_sweep
    cover = _COVER_MAPS["-4*lam/(lam-1)^2"]
    row = row_by_signature((2, OO, OO))
    a_row = _sweep_dict(a_gamma_sweep(row, ctx13))
    a_e = legendre_trace_sweep(ctx13)
    mismatches = 0
    for lamp in range(2, 13):
        num, den = cover(lamp, 13)
        target = num * ctx13.inv(den) % 13
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
    assert d["schema_version"] == SCHEMA_VERSION == 1
    assert d["total"] == rep.total
    parsed = json.loads(json.dumps(d))
    assert parsed["p"] == 13


def test_report_total_is_sum_of_terms(ctx13):
    rep = hecke_trace(row_by_signature((2, 4, 6)), ctx13, 6)
    terms = rep.to_json()["terms"]
    assert rep.total == sum(value for _lam, _kind, value in terms if value is not None)


@pytest.mark.parametrize("sig, special", [
    ((2, OO, OO), ["cusp", "cusp", "elliptic(2)"]),
    ((2, 4, 6), ["elliptic(2)", "elliptic(4)+elliptic(6)"]),
])
def test_report_terms_follow_the_sweep(ctx37, sig, special):
    """The terms are F_m(a_Gamma(lam), p) at each generic lam ascending, then
    the cusps, then the elliptic terms."""
    row, p = row_by_signature(sig), 37
    rep = hecke_trace(row, ctx37, 6)
    lams, a = a_gamma_sweep(row, ctx37)
    generic = [[str(lam), "generic", build_Fm(3).evaluate(x, p)]
               for lam, x in zip(lams.tolist(), a.tolist())]
    terms = rep.to_json()["terms"]
    assert terms[:len(lams)] == generic
    assert [kind for _lam, kind, _value in terms[len(lams):]] == special
