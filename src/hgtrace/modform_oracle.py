"""Independent modular-forms ground truth.

Exact integer q-expansion arithmetic: eta products, Eisenstein series, the
discriminant cusp form, Hecke traces on level-1 cusp forms, and newform
coefficient fixtures. A level-1 trace is read off the Miller basis, reached
from the monomials Delta^c E4^a E6^b by integer back-substitution. The level-6
weight-8 newform 6.8.a.a is one fixed combination f4 * (E4(t) - 4 E4(2t) -
9 E4(3t) + 36 E4(6t)) / 24, f4 = (eta(t) eta(2t) eta(3t) eta(6t))^2. The two
shipped fixtures were derived with the machinery in this module (see
level6_weight8_ap and cm_level24_weight5_ap) and are validated against the
Ramanujan bound on load; the test suite re-derives every shipped coefficient,
so a fixture is refreshed or extended by the same route.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

from .field_core import is_prime

FIXTURE_ENV = "HGTRACE_FIXTURE_DIR"
_BUILTIN_FIXTURES = Path(__file__).parent / "fixtures"


class QExpansionError(ValueError):
    pass


@dataclass(frozen=True)
class QExpansion:
    """Truncated integer q-series sum a_m q^m, m = 0..N."""

    weight: int
    coeffs: tuple
    N: int

    def __post_init__(self):
        if len(self.coeffs) != self.N + 1:
            raise QExpansionError("coefficient list does not match truncation")

    def __getitem__(self, m: int):
        return self.coeffs[m]

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise QExpansionError("weights differ")
        N = min(self.N, other.N)
        return QExpansion(self.weight,
                          tuple(self.coeffs[i] + other.coeffs[i] for i in range(N + 1)), N)

    def __mul__(self, other):
        if isinstance(other, QExpansion):
            N = min(self.N, other.N)
            return QExpansion(self.weight + other.weight,
                              tuple(_mul_trunc(self.coeffs, other.coeffs, N)), N)
        return QExpansion(self.weight, tuple(a * other for a in self.coeffs), self.N)

    __rmul__ = __mul__


def _mul_trunc(a, b, N: int) -> list:
    """Coefficients 0..N of the product of the integer series a and b.

    Zero coefficients of a are skipped, so pass the sparser factor first.
    """
    out = [0] * (N + 1)
    for i, x in enumerate(a[:N + 1]):
        if x:
            for j, y in enumerate(b[:N + 1 - i]):
                out[i + j] += x * y
    return out


def _euler_series(d: int, N: int) -> list:
    """prod_n (1 - q^(dn)) to q^N by Euler's pentagonal number theorem:
    the sum over k in Z of (-1)^k q^(d k(3k-1)/2)."""
    co = [0] * (N + 1)
    k = 0
    while d * k * (3 * k - 1) // 2 <= N:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if d * e <= N:
                co[d * e] = (-1) ** k
        k += 1
    return co


def eta_product(d_powers: dict[int, int], N: int) -> QExpansion:
    """prod_d (q^(d/24))^(r_d) * prod_n (1 - q^(dn))^(r_d) as a q-series.

    Requires sum d*r_d divisible by 24 and all exponents nonnegative here
    (enough for the oracle bases). Weight is sum(r_d)/2.
    """
    shift, wt2 = 0, 0
    for d, r in d_powers.items():
        if r < 0:
            raise QExpansionError("negative eta exponents not supported")
        shift += d * r
        wt2 += r
    if shift % 24 or wt2 % 2:
        raise QExpansionError("eta product is not integer-weight/integral-shift")
    shift //= 24
    co = [1] + [0] * N
    for d, r in d_powers.items():
        euler = _euler_series(d, N)
        for _ in range(r):
            co = _mul_trunc(euler, co, N)
    return QExpansion(wt2 // 2, tuple(([0] * shift + co)[:N + 1]), N)


def eisenstein(k: int, N: int, d: int = 1) -> QExpansion:
    """E_k(d tau) normalized with constant term 1, k in {2, 4, 6}.

    One divisor-sum sieve: each e <= N/d adds c e^(k-1) at every multiple of d e.
    """
    c = {2: -24, 4: 240, 6: -504}[k]
    co = [1] + [0] * N
    for e in range(1, N // d + 1):
        ce = c * e ** (k - 1)
        for m in range(d * e, N + 1, d * e):
            co[m] += ce
    return QExpansion(k, tuple(co), N)


def eta_power_24(N: int) -> QExpansion:
    """The discriminant cusp form q prod (1 - q^n)^24, truncated at N."""
    if N < 2:
        raise QExpansionError("need N >= 2")
    return eta_product({1: 24}, N)


# ---------------------------------------------------------------------------
# Level-1 Hecke traces


def _level1_basis(k: int, N: int) -> list[QExpansion]:
    """Basis Delta^c E4^a E6^b of weight-k cusp forms, with c >= 1 and b <= 1.

    Restricting b to {0, 1} (via E6^2 = E4^3 - 1728 Delta) makes the monomials
    independent, so their number equals the dimension: one for each
    c = 1..dim, in that order, each q^c + O(q^(c+1)).
    """
    if k % 2 or k < 12:
        raise QExpansionError("cusp forms require even k >= 12")
    E4, E6 = eisenstein(4, N), eisenstein(6, N)
    delta = eta_power_24(N)
    basis = []
    for c in range(1, k // 12 + 1):
        rem = k - 12 * c
        for b in (0, 1):
            if rem - 6 * b >= 0 and (rem - 6 * b) % 4 == 0:
                a = (rem - 6 * b) // 4
                f = delta
                for _ in range(c - 1):
                    f = f * delta
                for _ in range(a):
                    f = f * E4
                if b:
                    f = f * E6
                basis.append(f)
    return basis


def dim_level1_cusp(k: int) -> int:
    """dim S_k(SL_2(Z)) for even k."""
    if k % 2 or k < 12:
        return 0
    return k // 12 - 1 if k % 12 == 2 else k // 12


def level1_hecke_trace(k: int, p: int) -> int:
    """Tr(T_p) on the level-one cusp forms of weight k, exactly.

    The monomials g_c of _level1_basis (c = 1..d, d = dim) start q^c + ..., so
    integer back-substitution turns them into the Miller basis f_1..f_d with
    f_i[j] = delta_ij for j <= d (for c = d-1 down to 1, subtract g_c[j] f_j
    for every j > c). The f_i coordinate of T_p f_i is its q^i coefficient
    f_i[p i] + p^(k-1) f_i[i/p], and the second term is 0 because i/p < i.
    So Tr(T_p) = sum_i f_i[p i], read off series cut at q^(p d).
    """
    d = dim_level1_cusp(k)
    if d == 0:
        return 0
    f = [list(g.coeffs) for g in _level1_basis(k, p * d)]  # f[i - 1] starts at q^i
    for c in range(d - 1, 0, -1):
        for j in range(c + 1, d + 1):
            x = f[c - 1][j]
            if x:
                f[c - 1] = [a - x * b for a, b in zip(f[c - 1], f[j - 1])]
    return sum(f[i - 1][p * i] for i in range(1, d + 1))


# ---------------------------------------------------------------------------
# Level-6 weight-8 newform and the level-24 weight-5 CM form (fixture sources)


def level6_weight8_ap(p: int) -> int:
    """a_p of the unique weight-8 level-6 newform 6.8.a.a, for p not dividing 6.

    The newform is one fixed combination in the basis f4 * E4(d tau), d | 6,
    plus f4^2 of S_8(Gamma0(6)), where f4 = (eta(t) eta(2t) eta(3t) eta(6t))^2:

        6.8.a.a = f4 * (E4(t) - 4 E4(2t) - 9 E4(3t) + 36 E4(6t)) / 24.

    The coordinates (1/24, -1/6, -3/8, 3/2, 0) were solved once in exact
    fractions from a_1..a_5 = 1, 8, 27, 64, -114. a_p is the one q^p
    coefficient, a dot product of f4 against the Eisenstein combination.
    """
    if p in (2, 3):
        raise QExpansionError("p must be coprime to the level")
    f4 = eta_product({1: 2, 2: 2, 3: 2, 6: 2}, p)
    g = eisenstein(4, p)
    for c, d in ((-4, 2), (-9, 3), (36, 6)):
        g = g + c * eisenstein(4, p, d)
    ap24 = sum(f4[i] * g[p - i] for i in range(1, p + 1))
    assert ap24 % 24 == 0
    return ap24 // 24


def cm_level24_weight5_ap(p: int):
    """a_p of the weight-5 CM newform of level 24 (CM by Q(sqrt(-6))).

    Zero at inert primes; 2*((a^2-6b^2)^2 - 24(ab)^2) at primes p = a^2 + 6b^2.
    At split primes represented by the non-principal form 2x^2 + 3y^2 the sign
    depends on which member of the conjugate pair of newforms is meant, so None
    is returned there (the shipped fixture omits those primes).
    """
    if p in (2, 3):
        return None
    if pow(-6 % p, (p - 1) // 2, p) == p - 1:
        return 0
    a = 0
    while a * a <= p:
        r = p - a * a
        if r % 6 == 0:
            b = isqrt(r // 6)
            if 6 * b * b == r:
                return 2 * ((a * a - 6 * b * b) ** 2 - 24 * (a * b) ** 2)
        a += 1
    return None  # split but non-principal: sign ambiguous between the pair


# ---------------------------------------------------------------------------
# Fixtures


@dataclass(frozen=True)
class NewformFixture:
    label: str
    level: int
    weight: int
    ap: dict[int, int]

    def coefficient(self, p: int) -> int:
        if p not in self.ap:
            raise KeyError(f"fixture {self.label} has no a_{p}")
        return self.ap[p]


class FixtureError(ValueError):
    pass


def _validate_fixture_dict(data: dict) -> NewformFixture:
    for key in ("label", "level", "weight", "ap"):
        if key not in data:
            raise FixtureError(f"fixture missing key {key!r}")
    if not isinstance(data["label"], str) or not isinstance(data["ap"], dict):
        raise FixtureError("fixture schema violation: label/ap types")
    level, weight = data["level"], data["weight"]
    if not (isinstance(level, int) and isinstance(weight, int) and level > 0 and weight > 0):
        raise FixtureError("fixture schema violation: level/weight")
    ap = {}
    for k, v in data["ap"].items():
        pk = int(k)
        if not is_prime(pk):
            raise FixtureError(f"ap key {k} is not prime")
        if not isinstance(v, int):
            raise FixtureError(f"a_{k} is not an integer")
        # Ramanujan-Petersson gate: |a_p| <= 2 p^((k-1)/2)
        if v * v > 4 * pk ** (weight - 1):
            raise FixtureError(f"fixture {data['label']}: |a_{pk}| = {abs(v)} violates "
                               f"the Ramanujan bound for weight {weight}")
        ap[pk] = v
    return NewformFixture(label=data["label"], level=level, weight=weight, ap=ap)


def load_fixture(path: str | Path) -> NewformFixture:
    """Load and validate a newform coefficient fixture file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return _validate_fixture_dict(data)


def fixture_path(label: str) -> Path:
    """Resolve a fixture by label: $HGTRACE_FIXTURE_DIR first, then built-ins."""
    name = f"{label}.json"
    env = os.environ.get(FIXTURE_ENV)
    if env and (Path(env) / name).exists():
        return Path(env) / name
    builtin = _BUILTIN_FIXTURES / name
    if builtin.exists():
        return builtin
    raise FixtureError(f"no fixture file for label {label!r}")


def load_fixture_by_label(label: str) -> NewformFixture:
    return load_fixture(fixture_path(label))
