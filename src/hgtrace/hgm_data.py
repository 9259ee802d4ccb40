"""Hypergeometric data, their invariants, and the arithmetic triangle-group table.

Everything in this module is exact rational arithmetic; no floats. "oo" is the
distinguished infinite entry in triangle signatures, with 1/oo = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


OO = "oo"  # infinite vertex order in signatures; 1/OO is treated as 0


def _recip(e) -> Fraction:
    return Fraction(0) if e == OO else Fraction(1, e)


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


def is_primitive(hd: HGDatum) -> bool:
    """No alpha entry differs from a beta entry by an integer."""
    return all((a - b).denominator != 1 for a in hd.alpha for b in hd.beta)


@dataclass(frozen=True)
class LocalExponents:
    at_zero: tuple[Fraction, ...]
    at_one: tuple[Fraction, ...]
    at_infinity: tuple[Fraction, ...]
    gamma: Fraction


def local_exponents(hd: HGDatum) -> LocalExponents:
    """Indicial exponents of the hypergeometric ODE at 0, 1, infinity."""
    n = hd.n
    gamma = -1 + sum(hd.beta) - sum(hd.alpha)
    return LocalExponents(
        at_zero=(Fraction(0),) + tuple(1 - b for b in hd.beta[1:]),
        at_one=tuple(Fraction(i) for i in range(n - 1)) + (gamma,),
        at_infinity=hd.alpha,
        gamma=gamma,
    )


def schwarz_angles(a, b, c) -> tuple[Fraction, Fraction, Fraction]:
    """Angle fractions (p, q, r) of the Schwarz triangle of 2F1(a, b; c)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return (abs(1 - c), abs(c - a - b), abs(a - b))


def yang_parameters(e0, e1, einf):
    """The two hypergeometric parameter triples attached to a triangle group.

    Input entries are integers >= 2 or OO. Returns ((a, b, c), (a~, b~, c~)).
    Convention: the triple (e0, e1, einf) is read as the vertex orders over the
    points where the formulas below place them; the assignment of vertices to
    punctures is taken as printed and not permuted.
    """
    r0, r1, rinf = _recip(e0), _recip(e1), _recip(einf)
    a = Fraction(1, 2) * (1 - r1 - r0 - rinf)
    b = Fraction(1, 2) * (1 - r1 - r0 + rinf)
    c = 1 - r0
    at = a + r0
    bt = b + r0
    ct = 1 + r0
    return (a, b, c), (at, bt, ct)


@dataclass(frozen=True)
class TriangleGroupRow:
    """One row of the trace-formula table for an arithmetic triangle group.

    lambda_special maps each special lambda value (as printed; OO for the point
    at infinity) to the order of the corresponding elliptic point, or OO for a
    cusp. hp_sign/hp_weight are the calibrated normalization of the finite-field
    hypergeometric sum for this datum, and al_divisors lists the d for which
    a + p = d*t^2 can occur (the Atkin-Lehner divisor pattern of the group).

    a_rule selects the lambda chart that reads the local trace off H_p:
    "cusp_row" gives a(lam) = phi(1 - 1/lam) * H_p(1/lam), and "row_246" gives
    a(lam) = phi(-3(1 + 3/lam)) * p * H_p(-3/lam). Both charts live in
    character_sums._lambda_chart, behind character_sums.local_traces.
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
