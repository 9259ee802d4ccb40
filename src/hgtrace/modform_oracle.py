"""Independent modular-forms ground truth.

Hecke traces on S_k(Gamma0(N)) for N | 6 come from one formula, the
Eichler-Selberg trace formula in Cohen's form, in integer arithmetic over the
reduced binary quadratic forms of each discriminant (gamma0_hecke_trace).
Level one is its N = 1 case (level1_hecke_trace), and the level-6 weight-8
newform 6.8.a.a is the new part of the four levels at weight 8
(level6_weight8_ap). The two shipped fixtures were derived by this module's
routes (level6_weight8_ap and cm_level24_weight5_ap) and are validated against
the Ramanujan bound on load; the test suite re-derives every shipped
coefficient, so a fixture is refreshed or extended by the same route. The
q-series (eta products, Eisenstein series, the Miller basis) are kept in the
tests as an independent reference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import gcd, isqrt
from pathlib import Path

from .field_core import DEFAULT_P_BOUND, is_prime

FIXTURE_ENV = "HGTRACE_FIXTURE_DIR"
_BUILTIN_FIXTURES = Path(__file__).parent / "fixtures"


class QExpansionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Hecke traces on S_k(Gamma0(N)), N | 6

_DIVISORS = {1: (1,), 2: (1, 2), 3: (1, 3), 6: (1, 2, 3, 6)}
_PSI = {1: 1, 2: 3, 3: 4, 6: 12}  # the index of Gamma0(N) in SL_2(Z)


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


def _traces_24(k: int, n: int, N: int) -> dict:
    """{L: 24 Tr T_n on S_k(Gamma0(L))} for every L | N, k even >= 4 and
    gcd(n, N) = 1, from one pass over t.

    Cohen's formula (Cohen-Stromberg, Modular Forms, ch. 12) is A1 + A2 + A3
    with no A4 (k > 2):

        A1 = n^(k/2-1) (k-1) psi(L)/12 if n is a square, else 0,
        A2 = -1/2 sum_{t^2 < 4n} P_k(t, n) sum_f h_w(-(4n - t^2)/f^2) mu_L(t, f, n),
        A3 = -1/2 sigma0(L) sum_{d | n} min(d, n/d)^(k-1),

    with P_k(t, n) = u_(k-1) for u_0 = 0, u_1 = 1, u_(j+1) = t u_j - n u_(j-1),
    h_w the primitive reduced forms weighted as in H, and mu_L = prod_{q | L}
    mu_q, where mu_q = q + 1 if q | f and otherwise the number r_q of roots of
    x^2 - t x + n mod q. The reduced forms of discriminant -D whose content is
    divisible by g are g times those of discriminant -D/g^2, so the f-sum is
    1/12 sum_{g | L} 12 H(D/g^2) prod_{q | g} (q + 1 - r_q) prod_{q | L/g} r_q
    with D = 4n - t^2, read off the one grid with no content test.
    P_k, H and r_q are even in t for even k, so each t > 0 counts twice.
    """
    levels = _DIVISORS[N]
    # r_q reads t only mod q, so the t-sum is kept per (t mod N, g)
    acc = [[0] * (N + 1) for _ in range(N)]
    nonunit = levels[1:]
    for t in range(isqrt(4 * n - 1) + 1):
        u0, u1 = 0, 1
        for _ in range(k - 2):
            u0, u1 = u1, t * u1 - n * u0
        c, D, row = (2 if t else 1) * u1, 4 * n - t * t, acc[t % N]
        row[1] += c * hurwitz_class_number_12(D)
        for g in nonunit:
            Dg, rem = divmod(D, g * g)
            if rem == 0 and Dg % 4 in (0, 3):
                row[g] += c * hurwitz_class_number_12(Dg)
    out = dict.fromkeys(levels, 0)
    for t, row in enumerate(acc):
        roots = {q: sum((x * x - t * x + n) % q == 0 for x in range(1, q))
                 for q in (2, 3) if N % q == 0}
        for L in levels:
            for g in levels:
                if L % g == 0:
                    m = row[g]
                    for q, r_q in roots.items():
                        if L % q == 0:
                            m *= q + 1 - r_q if g % q == 0 else r_q
                    out[L] -= m
    r = isqrt(n)
    mins = 2 * sum(d ** (k - 1) for d in range(1, r + 1) if n % d == 0)
    if r * r == n:  # d = r was counted twice
        mins -= r ** (k - 1)
    for L in levels:
        out[L] -= 12 * len(_DIVISORS[L]) * mins
        if r * r == n:
            out[L] += 2 * r ** (k - 2) * (k - 1) * _PSI[L]
    return out


def _exact(sum24: int, N, k: int, n: int) -> int:
    if sum24 % 24:
        raise QExpansionError(f"trace-formula sum {sum24} at (N, k, n) = ({N}, {k}, {n}) "
                              "is not divisible by 24")
    return sum24 // 24


def gamma0_hecke_trace(N: int, k: int, n: int) -> int:
    """Tr T_n on S_k(Gamma0(N)), trivial character, for N in {1, 2, 3, 6}
    and gcd(n, N) = 1, exactly (see _traces_24 for the formula).

    The four groups have genus 0, so S_2 = 0; odd k gives 0 too.
    """
    if N not in _DIVISORS or n < 1 or gcd(n, N) > 1:
        raise QExpansionError(f"need N | 6 and n >= 1 coprime to N, got (N, n) = ({N}, {n})")
    if k % 2 or k < 4:
        return 0
    return _exact(_traces_24(k, n, N)[N], N, k, n)


def level1_hecke_trace(k: int, p: int) -> int:
    """Tr(T_p) on the level-one cusp forms of weight k, p prime, exactly:
    the N = 1 case of gamma0_hecke_trace, -1/2 sum_t P_k(t, p) H(4p - t^2) - 1."""
    if not is_prime(p):
        raise QExpansionError(f"{p} is not prime")
    return gamma0_hecke_trace(1, k, p)


def level6_weight8_ap(p: int) -> int:
    """a_p of the unique weight-8 level-6 newform 6.8.a.a, for p not dividing 6.

    S_8^new(Gamma0(6)) is one-dimensional, so a_p is Tr T_p on it. For n
    coprime to N, Tr T_n on S_k(Gamma0(N)) is sum_{L | N} 2^omega(N/L) times
    the trace on the new part of level L; solved upward from L = 1,

        a_p = T(6) - 2 T(2) - 2 T(3) + 4 T(1),  T(N) = Tr T_p on S_8(Gamma0(N)),

    and all four traces come from one pass of _traces_24.
    """
    if gcd(p, 6) > 1:
        raise QExpansionError("p must be coprime to the level")
    t = _traces_24(8, p, 6)
    return _exact(t[6] - 2 * t[2] - 2 * t[3] + 4 * t[1], "6 new", 8, p)


# ---------------------------------------------------------------------------
# The level-24 weight-5 CM form (a fixture source)


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
        if pk > DEFAULT_P_BOUND:  # no report reads it, and is_prime would not finish
            raise FixtureError(f"ap key {k!r} exceeds the configured bound {DEFAULT_P_BOUND}")
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
