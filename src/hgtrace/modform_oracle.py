"""Independent modular-forms ground truth.

Hecke traces on level-one cusp forms come from the Eichler-Selberg trace
formula, in integer arithmetic with Hurwitz class numbers. The rest is exact
integer q-series arithmetic on tuples of coefficients: eta products and
Eisenstein series. The level-6 weight-8 newform 6.8.a.a is one fixed
combination f4 * (E4(t) - 4 E4(2t) - 9 E4(3t) + 36 E4(6t)) / 24,
f4 = (eta(t) eta(2t) eta(3t) eta(6t))^2. The two shipped fixtures were derived
with the machinery in this module (see level6_weight8_ap and
cm_level24_weight5_ap) and are validated against the Ramanujan bound on load;
the test suite re-derives every shipped coefficient, so a fixture is refreshed
or extended by the same route.
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


def eta_product(d_powers: dict[int, int], N: int) -> tuple:
    """Coefficients 0..N of prod_d (q^(d/24))^(r_d) * prod_n (1 - q^(dn))^(r_d).

    Requires sum d*r_d divisible by 24, an even sum r_d (integer weight) and all
    exponents nonnegative (enough for the oracle bases).
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
    return tuple(([0] * shift + co)[:N + 1])


def eisenstein(k: int, N: int, d: int = 1) -> tuple:
    """Coefficients 0..N of E_k(d tau), constant term 1, k in {2, 4, 6}.

    One divisor-sum sieve: each e <= N/d adds c e^(k-1) at every multiple of d e.
    """
    c = {2: -24, 4: 240, 6: -504}[k]
    co = [1] + [0] * N
    for e in range(1, N // d + 1):
        ce = c * e ** (k - 1)
        for m in range(d * e, N + 1, d * e):
            co[m] += ce
    return tuple(co)


# ---------------------------------------------------------------------------
# Level-1 Hecke traces


def hurwitz_class_number_12(N: int) -> int:
    """12 H(N), for N > 0 with N = 0 or 3 mod 4.

    H(N) counts the reduced forms a x^2 + b xy + c y^2 of discriminant -N
    (|b| <= a <= c, b >= 0 if |b| = a or a = c), with weight 1/2 for
    a(x^2 + y^2) and 1/3 for a(x^2 + xy + y^2). The grid runs over b >= 0;
    (a, -b, c) is reduced too when 0 < b < a < c, so that form counts twice.
    """
    if N <= 0 or N % 4 in (1, 2):
        raise QExpansionError(f"no discriminant -{N}")
    h = 0
    for b in range(N % 2, isqrt(N // 3) + 1, 2):
        ac = (b * b + N) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            if ac % a == 0:
                c = ac // a
                if b == 0 and a == c:
                    h += 6
                elif b == a == c:
                    h += 4
                else:
                    h += 24 if 0 < b < a < c else 12
    return h


def level1_hecke_trace(k: int, p: int) -> int:
    """Tr(T_p) on the level-one cusp forms of weight k, p prime, exactly.

    The Eichler-Selberg trace formula (Cohen-Stromberg, Modular Forms, ch. 12):

        Tr T_p = -1/2 sum_{t^2 < 4p} P_k(t, p) H(4p - t^2) - 1,

    where P_k(t, p) = u_(k-1) for u_0 = 0, u_1 = 1, u_(j+1) = t u_j - p u_(j-1).
    P_k and H are even in t for even k, so each t > 0 counts twice. The sum
    is taken with 12 H, which makes it an integer divisible by 24.
    """
    if k % 2 or k < 4:
        return 0
    if not is_prime(p):
        raise QExpansionError(f"{p} is not prime")
    s = 0
    for t in range(isqrt(4 * p - 1) + 1):
        u0, u1 = 0, 1
        for _ in range(k - 2):
            u0, u1 = u1, t * u1 - p * u0
        s += (2 if t else 1) * u1 * hurwitz_class_number_12(4 * p - t * t)
    if s % 24:
        raise QExpansionError(f"Eichler-Selberg sum {s} at (k, p) = ({k}, {p}) "
                              "is not divisible by 24")
    return -s // 24 - 1


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
    g = [a - 4 * b - 9 * c + 36 * e
         for a, b, c, e in zip(*(eisenstein(4, p, d) for d in (1, 2, 3, 6)))]
    ap24 = sum(f4[i] * g[p - i] for i in range(1, p + 1))
    if ap24 % 24:
        raise QExpansionError(f"24 a_{p} = {ap24} is not divisible by 24")
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


def _is_int(v) -> bool:
    """True for a JSON integer; JSON true and false load as bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _validate_fixture_dict(data) -> NewformFixture:
    if not isinstance(data, dict):
        raise FixtureError("fixture is not a JSON object")
    for key in ("label", "level", "weight", "ap"):
        if key not in data:
            raise FixtureError(f"fixture missing key {key!r}")
    if not isinstance(data["label"], str) or not isinstance(data["ap"], dict):
        raise FixtureError("fixture schema violation: label/ap types")
    level, weight = data["level"], data["weight"]
    if not (_is_int(level) and _is_int(weight) and level > 0 and weight > 0):
        raise FixtureError("fixture schema violation: level/weight")
    ap = {}
    for k, v in data["ap"].items():
        pk = int(k) if k.isdecimal() else 0
        if str(pk) != k or not is_prime(pk):  # "05" would overwrite "5"
            raise FixtureError(f"ap key {k!r} is not prime")
        if not _is_int(v):
            raise FixtureError(f"a_{k} is not an integer")
        # Ramanujan-Petersson gate: |a_p| <= 2 p^((k-1)/2)
        if v * v > 4 * pk ** (weight - 1):
            raise FixtureError(f"fixture {data['label']}: |a_{pk}| = {abs(v)} violates "
                               f"the Ramanujan bound for weight {weight}")
        ap[pk] = v
    return NewformFixture(label=data["label"], level=level, weight=weight, ap=ap)


def load_fixture(path: str | Path) -> NewformFixture:
    """Load and validate a newform coefficient fixture file.

    Every malformed file, unparsable JSON included, raises FixtureError naming
    the path; a file that cannot be opened raises OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return _validate_fixture_dict(json.load(fh))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, FixtureError
            raise FixtureError(f"{path}: {exc}") from None


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
