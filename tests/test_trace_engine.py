import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from hgtrace import trace_engine
from hgtrace.character_sums import SnapError, datum_table, hp_sum, snap_tolerance
from hgtrace.cli import main
from hgtrace.field_core import (CongruenceError, build_ctx, cached_ctx, is_prime,
                                nth_primitive_root)
from hgtrace.hgm_data import OO, HGDatum, level, row_by_signature, triangle_table
from hgtrace.curve_lab import legendre_trace_sweep
from hgtrace.modform_oracle import level1_hecke_trace, load_fixture_by_label
from hgtrace.trace_engine import (LEGENDRE_COVER_MAP, SCHEMA_VERSION, SymPolyFm,
                                  _lambda_chart, a_gamma_sweep, fm_identity_holds,
                                  hecke_trace, legendre_relation)


def test_build_F1_is_S():
    assert SymPolyFm(1).coeffs == {(1, 0): 1}
    for m in (0, -1):  # F_0 = 1 is not S, and the recurrences start at F_1
        with pytest.raises(ValueError, match="m >= 1"):
            SymPolyFm(m)


def test_build_F2():
    assert SymPolyFm(2).coeffs == {(2, 0): 1, (1, 1): -1, (0, 2): -1}


def test_build_F3_matches_worked_cubic():
    # a^3 - 2 p a^2 - p^2 a + p^3 pattern
    assert SymPolyFm(3).coeffs == {(3, 0): 1, (2, 1): -2, (1, 2): -1, (0, 3): 1}


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
    assert _fm_by_interpolation(m) == SymPolyFm(m).coeffs


def _one_lambda(row, lam, ctx):
    """The entries of a_gamma_sweep at lambda = lam mod p, as int64 arrays:
    empty at a special lambda."""
    lams, a = a_gamma_sweep(row, ctx)
    at = lams == lam % ctx.p
    return lams[at], a[at]


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
    row's chart read through hp_sum at that lambda alone: phi(1 - 1/lam) *
    H_p(1/lam) on a cusp row, phi(-3(1 + 3/lam)) * p * H_p(-3/lam) on (2,4,6)."""
    p = 13
    for sig in ((2, OO, OO), (2, 4, 6)):
        row = row_by_signature(sig)
        lams, a = a_gamma_sweep(row, ctx13)
        assert lams.dtype == a.dtype == np.int64
        assert (np.diff(lams) > 0).all()
        for lam, got in zip(lams.tolist(), a.tolist()):
            inv = ctx13.inv(lam)
            if row.a_rule == "cusp_row":
                t, chi, p_factor = inv, ctx13.legendre(1 - inv), 1
            else:
                t, chi, p_factor = -3 * inv % p, ctx13.legendre(-3 * (1 + 3 * inv)), p
            h = hp_sum(row.hd, ctx13, t, row.hp_sign, row.hp_weight)
            assert got == chi * p_factor * h.snapped, (row.name, lam)


def test_sweep_snap_error_names_first_bad_lambda(ctx13):
    """A sweep that does not snap raises at its first bad lambda: the first
    generic lambda whose chart value is a snap tolerance or more from an
    integer."""
    row = row_by_signature((2, OO, OO))
    irrational = datum_table(HGDatum(("1/2", "1/3", "1/3"), (1, 1, 1)), ctx13)
    with pytest.raises(SnapError, match=r"a_Gamma\(\d+, 13\) did not snap") as exc:
        a_gamma_sweep(row, ctx13, table=irrational)
    bad = int(re.search(r"a_Gamma\((\d+),", str(exc.value)).group(1))
    args, chis, p_factor = _lambda_chart(row.a_rule, ctx13)
    generic = np.flatnonzero(chis)
    vals = irrational.sweep(args[generic]) * chis[generic] \
        * (row.hp_sign * p_factor / 13 ** row.hp_weight)
    off = np.maximum(np.abs(vals.imag), np.abs(vals.real - np.round(vals.real)))
    far = off >= snap_tolerance(13, row.hd.n)
    assert far.any() and generic[np.argmax(far)] == bad


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
    """A value exactly snap_tolerance away from an integer fails a_Gamma and
    `calibrate hp` alike; one half as far passes both. The (2,oo,oo) row scales
    the period sum by exactly -1, so the offset reaches the check unrounded."""
    row = row_by_signature((2, OO, OO))
    ctx = cached_ctx(13)
    want = a_gamma_sweep(row, ctx)[1].tolist()
    monkeypatch.setattr(trace_engine, "datum_table", lambda hd, ctx: _ImaginaryOffsetTable(
        datum_table(hd, ctx), fraction * snap_tolerance(ctx.p, hd.n)))
    res = CliRunner().invoke(main, ["calibrate", "hp", "--group", "2,oo,oo"])
    if fraction < 1:
        assert a_gamma_sweep(row, ctx)[1].tolist() == want
        assert res.exit_code == 0, res.output
    else:
        with pytest.raises(SnapError, match="did not snap"):
            a_gamma_sweep(row, ctx)
        assert res.exit_code == 1, res.output
        assert res.stdout == "" and "calibration failure: a_Gamma(" in res.stderr


def test_snap_headroom_at_the_p_cap():
    """Every row's sweep snaps at p = 99961, the largest admissible prime under
    the cap, with the tolerance at least 10^4 times its worst distance from an
    integer; so does the (2,4,6) row's degenerate-fiber trace tau1 = p * H_p(1),
    which elliptic_square_value snaps."""
    p = 99961
    ctx = cached_ctx(p)
    for row in triangle_table():
        _lams, a = a_gamma_sweep(row, ctx)
        args, chis, p_factor = _lambda_chart(row.a_rule, ctx)
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
    assert SymPolyFm(1).evaluate(a, 13) == a
    p = 13
    assert SymPolyFm(3).evaluate(a, p) == a ** 3 - 2 * p * a * a - p * p * a + p ** 3


def test_f1_supersingular_substitution():
    # t = 0 point: a = -p, k = 2 gives -p
    assert SymPolyFm(1).evaluate(-13, 13) == -13


def _cover(ctx, lamp: int) -> int:
    """R(lam') = -4 lam' / (lam' - 1)^2 at one lam' != 1, by modular inverse."""
    p = ctx.p
    return -4 * lamp * ctx.inv((lamp - 1) ** 2 % p) % p


def test_legendre_calibration():
    """The fixed cover map holds at the primes `calibrate legendre` reports."""
    assert LEGENDRE_COVER_MAP == "-4*lam/(lam-1)^2"
    row = row_by_signature((2, OO, OO))
    for p in (7, 11, 13):
        ctx = cached_ctx(p)
        assert legendre_relation(ctx, a_gamma_sweep(row, ctx), legendre_trace_sweep(ctx)) is None


def test_legendre_relation_all_primes_to_61():
    row = row_by_signature((2, OO, OO))
    for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        ctx = cached_ctx(p)
        a_row = _sweep_dict(a_gamma_sweep(row, ctx))
        a_e = legendre_trace_sweep(ctx)
        specials = row.finite_specials_mod_p(p)
        for lamp in range(2, p):
            target = _cover(ctx, lamp)
            if target in specials:
                continue
            assert a_row[target] == int(a_e[lamp]) ** 2 - p, (p, lamp)


def test_legendre_relation_matches_a_scalar_loop():
    """The array relation returns what a loop over lam' returns, the first
    failing lam' included: with a_Gamma as computed, and with one value of it
    negated, at each generic lambda in turn."""
    row = row_by_signature((2, OO, OO))
    failed = 0
    for p in (7, 11, 13, 29, 61):
        ctx = cached_ctx(p)
        lams, a = a_gamma_sweep(row, ctx)
        a_e = legendre_trace_sweep(ctx)
        for i in [None, *range(len(lams))]:
            skewed = a.copy()
            if i is not None:
                skewed[i] = -skewed[i]
            a_row = dict(zip(lams.tolist(), skewed.tolist()))
            bad = None
            for lamp in range(2, p):
                target = _cover(ctx, lamp)
                if target in a_row and a_row[target] != int(a_e[lamp]) ** 2 - p:
                    bad = lamp
                    break
            assert legendre_relation(ctx, (lams, skewed), a_e) == bad, (p, i)
            failed += bad is not None
    assert failed > 0


def test_legendre_negative_control(ctx13):
    """Flipping the sign of the trace rule breaks the matching at every prime."""
    row = row_by_signature((2, OO, OO))
    a_row = _sweep_dict(a_gamma_sweep(row, ctx13))
    a_e = legendre_trace_sweep(ctx13)
    mismatches = 0
    for lamp in range(2, 13):
        target = _cover(ctx13, lamp)
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
    generic = [[str(lam), "generic", SymPolyFm(3).evaluate(x, p)]
               for lam, x in zip(lams.tolist(), a.tolist())]
    terms = rep.to_json()["terms"]
    assert terms[:len(lams)] == generic
    assert [kind for _lam, kind, _value in terms[len(lams):]] == special


def _admissible_pairs(primes):
    return [(row, p) for row in triangle_table() for p in primes
            if p > 5 and (p - 1) % level(row.hd) == 0]


@pytest.mark.parametrize("row, p", _admissible_pairs(
    [q for q in range(7, 700) if is_prime(q)] + [10009]), ids=lambda v: getattr(v, "name", v))
def test_report_distinct_values_match_np_unique(row, p):
    """hecke_trace's distinct-value table (generic_values, generic_index and
    generic_sum) equals one built by np.unique over a_gamma_sweep."""
    ctx = cached_ctx(p)
    rep = hecke_trace(row, ctx, 6)
    lams, a = a_gamma_sweep(row, ctx)
    distinct, index, counts = np.unique(a, return_inverse=True, return_counts=True)
    values = tuple(SymPolyFm(3).evaluate(x, p) for x in distinct.tolist())
    assert np.array_equal(rep.generic_lams, lams)
    assert rep.generic_values == values
    assert rep.generic_index.dtype == index.dtype
    assert np.array_equal(rep.generic_index, index)
    assert rep.generic_sum == sum(v * c for v, c in zip(values, counts.tolist()))
