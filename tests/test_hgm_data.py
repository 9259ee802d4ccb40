import json
from fractions import Fraction

import pytest

from hgtrace.hgm_data import (OO, HGDatum, is_defined_over_Q, level,
                              row_by_signature, table_json, triangle_table)

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
    """Each row's datum has level dividing 12, is defined over Q and is
    primitive (no alpha = beta mod 1); on a row with a cusp, the exponent
    gamma = -1 + sum(beta) - sum(alpha) of the ODE at lambda = 1 is 1/2."""
    for row in triangle_table():
        hd = row.hd
        assert 12 % level(hd) == 0
        assert is_defined_over_Q(hd)
        assert all((a - b) % 1 for a in hd.alpha for b in hd.beta), row.name
        if OO in row.signature:
            assert -1 + sum(hd.beta) - sum(hd.alpha) == F(1, 2), row.name


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
