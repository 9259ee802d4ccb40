import json
from fractions import Fraction

import pytest

from hgtrace.hgm_data import (OO, HGDatum, is_defined_over_Q,
                              is_primitive, level, local_exponents,
                              row_by_signature, schwarz_angles, table_json,
                              triangle_table, yang_parameters)

F = Fraction

HD_246 = HGDatum(("1/2", "1/4", "3/4"), (1, "5/6", "7/6"))
HD_2OO = HGDatum(("1/2", "1/2", "1/2"), (1, 1, 1))
HD_23O = HGDatum(("1/2", "1/6", "5/6"), (1, 1, 1))


def test_level_examples():
    assert level(HD_246) == 12
    assert level(HD_2OO) == 2
    assert level(HD_23O) == 6


def test_datum_validation():
    with pytest.raises(ValueError):
        HGDatum(("1/3",), (1,))  # n = 1 rejected
    with pytest.raises(ValueError):
        HGDatum(("1/2", "1/2"), ("1/2", 1))  # beta must start with 1


def test_defined_over_Q():
    assert is_defined_over_Q(HD_246)
    assert is_defined_over_Q(HGDatum(("1/2", "1/3", "2/3"), (1, 1, 1)))
    assert not is_defined_over_Q(HGDatum(("1/5", "1/2"), (1, 1)))


def test_primitivity():
    assert is_primitive(HD_246)
    assert is_primitive(HD_2OO)
    assert not is_primitive(HGDatum(("1/2", 1), (1, 1)))


def test_local_exponents_gamma():
    assert local_exponents(HD_23O).gamma == F(1, 2)
    assert local_exponents(HD_2OO).gamma == F(1, 2)
    ex = local_exponents(HD_246)
    assert sorted(ex.at_zero) == sorted((F(0), F(1, 6), F(-1, 6)))
    assert ex.at_infinity == HD_246.alpha


def test_local_exponents_at_one_prefix():
    for hd in (HD_246, HD_2OO, HD_23O):
        ex = local_exponents(hd)
        assert ex.at_one[:hd.n - 1] == tuple(F(i) for i in range(hd.n - 1))


def test_schwarz_angles_examples():
    assert schwarz_angles(F(1, 2), F(1, 2), 1) == (0, 0, 0)
    assert sorted(schwarz_angles(F(1, 12), F(1, 3), F(2, 3))) == sorted(
        (F(1, 3), F(1, 4), F(1, 4)))
    assert sorted(schwarz_angles(F(1, 24), F(7, 24), F(5, 6))) == sorted(
        (F(1, 6), F(1, 2), F(1, 4)))
    # third quotient row: (2,6,6)
    assert sorted(schwarz_angles(F(1, 12), F(1, 4), F(5, 6))) == sorted(
        (F(1, 6), F(1, 2), F(1, 6)))


def test_yang_parameters():
    (a, b, c), _ = yang_parameters(OO, OO, 2)
    assert (a, b, c) == (F(1, 4), F(3, 4), 1)
    (a, b, c), _ = yang_parameters(6, 2, 4)
    assert a == F(1, 24) and c == F(5, 6)
    # tilde-a = a + 1/e0 always
    for sig in ((6, 2, 4), (2, 4, 6), (OO, OO, 2), (3, 3, 5)):
        (a, _, _), (at, _, _) = yang_parameters(*sig)
        r0 = 0 if sig[0] == OO else F(1, sig[0])
        assert at - a == r0


def test_table_rows():
    rows = triangle_table()
    assert len(rows) == 5
    sigs = [r.signature for r in rows]
    assert (2, 4, 6) in sigs and (2, OO, OO) in sigs
    r246 = row_by_signature((2, 4, 6))
    assert r246.hd.alpha == (F(1, 2), F(1, 4), F(3, 4))
    assert r246.hd.beta == (F(1), F(5, 6), F(7, 6))
    assert [lam for lam, _order in r246.lambda_special] == [-3, OO, 0]
    r26 = row_by_signature((2, 6, OO))
    assert r26.hd.alpha == (F(1, 2), F(1, 3), F(2, 3))
    assert r26.hd.beta == (F(1), F(1), F(1))


def test_table_row_invariants():
    for row in triangle_table():
        assert 12 % level(row.hd) == 0
        assert is_primitive(row.hd)
        assert is_defined_over_Q(row.hd)
        if OO in row.signature:
            assert local_exponents(row.hd).gamma == F(1, 2)


def test_cusp_bookkeeping():
    for sig, cusps in (((2, OO, OO), 2), ((2, 3, OO), 1), ((2, 4, 6), 0)):
        orders = [order for _lam, order in row_by_signature(sig).lambda_special]
        assert orders.count(OO) == cusps, sig


def test_zero_is_always_special():
    # structural guarantee: no generic lambda = 0 ever arises in a trace sum
    for row in triangle_table():
        assert 0 in [lam for lam, _order in row.lambda_special]


def test_table_serializes():
    data = json.loads(table_json())
    assert len(data) == 5
    for rowdict in data:
        assert {"signature", "alpha", "beta", "lambda_special", "level",
                "hp_sign", "hp_weight"} <= set(rowdict)


def test_row_lookup_accepts_strings():
    assert row_by_signature(("2", "3", "oo")).signature == (2, 3, OO)
    with pytest.raises(KeyError):
        row_by_signature((3, 3, 3))
