"""Hypergeometric data, their level and Galois stability, and the arithmetic
triangle-group table.

Everything in this module is exact rational arithmetic; no floats. "oo" is the
infinite entry of a triangle signature (a cusp) and the point at infinity among
special lambdas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


OO = "oo"  # infinite vertex order (a cusp), or the lambda at infinity


@dataclass(frozen=True)
class HGDatum:
    """A pair of rational multisets {alpha; beta} with beta[0] = 1, n >= 2."""

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self):
        alpha = tuple(Fraction(a) for a in self.alpha)
        beta = tuple(Fraction(b) for b in self.beta)
        if len(alpha) != len(beta) or len(alpha) < 2:
            raise ValueError("alpha and beta must have equal length n >= 2")
        if beta[0] != 1:
            raise ValueError("beta must start with 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self) -> int:
        return len(self.alpha)

    def __str__(self):
        a = ",".join(str(x) for x in self.alpha)
        b = ",".join(str(x) for x in self.beta)
        return f"{{{a}; {b}}}"


def level(hd: HGDatum) -> int:
    """Least common denominator of all entries of alpha and beta."""
    M = 1
    for x in hd.alpha + hd.beta:
        M = lcm(M, x.denominator)
    return M


def is_defined_over_Q(hd: HGDatum) -> bool:
    """Galois stability: alpha mod Z and beta mod Z are each invariant under
    multiplication by every r coprime to the level.

    The multisets are checked separately (this is the condition under which the
    character-sum values are rational); the pairing between alpha and beta
    entries is not required to be preserved.
    """
    M = level(hd)
    amod = sorted(a % 1 for a in hd.alpha)
    bmod = sorted(b % 1 for b in hd.beta)
    for r in range(1, M):
        if gcd(r, M) != 1:
            continue
        if sorted((r * a) % 1 for a in hd.alpha) != amod:
            return False
        if sorted((r * b) % 1 for b in hd.beta) != bmod:
            return False
    return True


@dataclass(frozen=True)
class TriangleGroupRow:
    """One row of the trace-formula table for an arithmetic triangle group.

    lambda_special maps each special lambda value (as printed; OO for the point
    at infinity) to the order of the corresponding elliptic point, or OO for a
    cusp. hp_sign/hp_weight are the normalization H_p = hp_sign * p^(-hp_weight)
    * (period sum) of the finite-field hypergeometric function for this datum
    (`hgtrace calibrate hp` checks it), and al_divisors lists the d for which
    a + p = d*t^2 can occur (the Atkin-Lehner divisor pattern of the group).

    a_rule selects the lambda chart that reads the local trace off H_p:
    "cusp_row" gives a(lam) = phi(1 - 1/lam) * H_p(1/lam), and "row_246" gives
    a(lam) = phi(-3(1 + 3/lam)) * p * H_p(-3/lam). Both charts live in
    trace_engine._lambda_chart, behind trace_engine.a_gamma_sweep.
    """

    signature: tuple
    lambda_special: tuple  # ((lambda, order), ...) in table order
    hd: HGDatum
    a_rule: str  # "cusp_row" or "row_246"
    hp_sign: int
    hp_weight: int
    al_divisors: tuple[int, ...]

    @property
    def name(self) -> str:
        return "(" + ",".join(str(e) for e in self.signature) + ")"

    def finite_specials_mod_p(self, p: int) -> set[int]:
        return {lam % p for lam, _ in self.lambda_special if lam != OO}

    def to_json(self) -> dict:
        return {
            "signature": [str(e) for e in self.signature],
            "lambda_special": [[str(l), str(o)] for l, o in self.lambda_special],
            "alpha": [str(a) for a in self.hd.alpha],
            "beta": [str(b) for b in self.hd.beta],
            "level": level(self.hd),
            "a_rule": self.a_rule,
            "hp_sign": self.hp_sign,
            "hp_weight": self.hp_weight,
            "al_divisors": list(self.al_divisors),
        }


def _F(*args):
    return tuple(Fraction(a) for a in args)


_TABLE = (
    TriangleGroupRow(
        signature=(2, OO, OO),
        lambda_special=((1, 2), (0, OO), (OO, OO)),
        hd=HGDatum(_F("1/2", "1/2", "1/2"), _F(1, 1, 1)),
        a_rule="cusp_row", hp_sign=-1, hp_weight=0, al_divisors=(1,),
    ),
    TriangleGroupRow(
        signature=(2, 3, OO),
        lambda_special=((1, 2), (OO, 3), (0, OO)),
        hd=HGDatum(_F("1/2", "1/6", "5/6"), _F(1, 1, 1)),
        a_rule="cusp_row", hp_sign=-1, hp_weight=0, al_divisors=(1,),
    ),
    TriangleGroupRow(
        signature=(2, 4, OO),
        lambda_special=((1, 2), (OO, 4), (0, OO)),
        hd=HGDatum(_F("1/2", "1/4", "3/4"), _F(1, 1, 1)),
        a_rule="cusp_row", hp_sign=-1, hp_weight=0, al_divisors=(1, 2),
    ),
    TriangleGroupRow(
        signature=(2, 6, OO),
        lambda_special=((1, 2), (OO, 6), (0, OO)),
        hd=HGDatum(_F("1/2", "1/3", "2/3"), _F(1, 1, 1)),
        a_rule="cusp_row", hp_sign=-1, hp_weight=0, al_divisors=(1, 3),
    ),
    TriangleGroupRow(
        signature=(2, 4, 6),
        lambda_special=((-3, 2), (OO, 4), (0, 6)),
        hd=HGDatum(_F("1/2", "1/4", "3/4"), _F(1, "5/6", "7/6")),
        a_rule="row_246", hp_sign=-1, hp_weight=1, al_divisors=(1, 2, 3, 6),
    ),
)


def triangle_table() -> tuple[TriangleGroupRow, ...]:
    """The five arithmetic triangle-group rows with their data and lambda charts."""
    return _TABLE


def row_by_signature(sig) -> TriangleGroupRow:
    want = tuple(OO if str(e).lower() in ("oo", "inf", "infinity") else int(e) for e in sig)
    for row in _TABLE:
        if row.signature == want:
            return row
    raise KeyError(f"no triangle-group row with signature {want}")


def table_json() -> str:
    return json.dumps([row.to_json() for row in _TABLE], indent=2, sort_keys=True)
