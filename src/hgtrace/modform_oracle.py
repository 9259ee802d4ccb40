"""Independent modular-forms ground truth.

Exact integer q-expansion arithmetic: eta products, Eisenstein series, the
discriminant cusp form, Hecke traces on level-1 cusp forms, and newform
coefficient fixtures. The two shipped fixtures were derived offline with the
machinery in this module (see level6_weight8_ap and cm_level24_weight5_ap) and
validated against Hecke multiplicativity, Atkin-Lehner eigenvalue structure,
and the Ramanujan bound; fetch_fixture can refresh them from the public
database when network access is available.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

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
            out = [0] * (N + 1)
            for i, a in enumerate(self.coeffs[:N + 1]):
                if a == 0:
                    continue
                for j in range(N + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return QExpansion(self.weight + other.weight, tuple(out), N)
        return QExpansion(self.weight, tuple(a * other for a in self.coeffs), self.N)

    __rmul__ = __mul__


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
    co = [0] * (N + 1)
    co[0] = 1
    for d, r in d_powers.items():
        co = _mul_eta_factor(co, d, r, N)
    out = [0] * (N + 1)
    for i, a in enumerate(co):
        if i + shift <= N:
            out[i + shift] = a
    return QExpansion(wt2 // 2, tuple(out), N)


def _mul_eta_factor(co, d, r, N):
    """Multiply by prod_n (1 - q^(dn))^r using Euler expansion per factor."""
    from math import comb
    for m in range(1, N // d + 1):
        base = [0] * (N + 1)
        base[0] = 1
        for jj in range(1, r + 1):
            if d * m * jj > N:
                break
            base[d * m * jj] = (-1) ** jj * comb(r, jj)
        out = [0] * (N + 1)
        for i, a in enumerate(co):
            if a == 0:
                continue
            for j in range(N + 1 - i):
                b = base[j]
                if b:
                    out[i + j] += a * b
        co = out
    return co


def _sigma(k: int, m: int) -> int:
    return sum(d ** k for d in range(1, m + 1) if m % d == 0)


def eisenstein(k: int, N: int, d: int = 1) -> QExpansion:
    """E_k(d tau) normalized with constant term 1, k in {2, 4, 6}."""
    c = {2: -24, 4: 240, 6: -504}[k]
    co = [0] * (N + 1)
    co[0] = 1
    for m in range(1, N // d + 1):
        co[d * m] = c * _sigma(k - 1, m)
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
    independent, so their number equals the dimension.
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


def level1_hecke_trace(k: int, p: int, N: int | None = None) -> int:
    """Tr(T_p) on the level-one cusp forms of weight k, exactly.

    Uses the monomial basis above and the coefficient action
    a_{T_p f}(m) = a_f(pm) + p^(k-1) a_f(m/p). Needs N >= p*dim + p.
    """
    basis_dim = dim_level1_cusp(k)
    if basis_dim == 0:
        return 0
    if N is None:
        N = p * basis_dim + p
    if N < p * basis_dim + 1:
        raise QExpansionError(f"truncation {N} too small for T_{p} on dim {basis_dim}")
    basis = _level1_basis(k, N)
    d = len(basis)
    A = [[Fraction(basis[j][i]) for j in range(d)] for i in range(1, d + 1)]
    tr = Fraction(0)
    for j in range(d):
        tp = [basis[j][p * m] + (p ** (k - 1) * basis[j][m // p] if m % p == 0 else 0)
              for m in range(1, d + 1)]
        x = _solve_fraction(A, [Fraction(v) for v in tp])
        tr += x[j]
    assert tr.denominator == 1
    return int(tr)


def _solve_fraction(A, b):
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        pv = M[c][c]
        M[c] = [x / pv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# Level-6 weight-8 newform and the level-24 weight-5 CM form (fixture sources)


def _level6_weight8_basis(N: int) -> list[QExpansion]:
    """Basis of the weight-8 level-6 cusp forms: f4 * M4(Gamma0(6)) with
    f4 = (eta(t) eta(2t) eta(3t) eta(6t))^2 and M4 spanned by E4(d tau), d | 6,
    together with f4^2."""
    f4 = eta_product({1: 2, 2: 2, 3: 2, 6: 2}, N)
    return [f4 * eisenstein(4, N, d) for d in (1, 2, 3, 6)] + [f4 * f4]


def level6_weight8_ap(p: int) -> int:
    """a_p of the unique weight-8 level-6 newform, for p not dividing 6.

    Tr(T_p) on the five-dimensional weight-8 level-6 cusp space minus twice the
    level-2 and level-3 newform coefficients (each oldform embeds twice). The
    level-2 form is (eta(t) eta(2t))^8; the level-3 form is
    (eta(t) eta(3t))^6 * E_{2,3}.
    """
    if p in (2, 3):
        raise QExpansionError("p must be coprime to the level")
    N = 6 * p + 6
    basis = _level6_weight8_basis(N)
    d = len(basis)
    A = [[Fraction(basis[j][i]) for j in range(d)] for i in range(1, d + 1)]
    tr = Fraction(0)
    for j in range(d):
        tp = [basis[j][p * m] + (p ** 7 * basis[j][m // p] if m % p == 0 else 0)
              for m in range(1, d + 1)]
        x = _solve_fraction(A, [Fraction(v) for v in tp])
        tr += x[j]
    assert tr.denominator == 1
    f2 = eta_product({1: 8, 2: 8}, p + 1)
    e23 = QExpansion(2, tuple(
        1 if m == 0 else 12 * (_sigma(1, m) - (3 * _sigma(1, m // 3) if m % 3 == 0 else 0))
        for m in range(p + 2)), p + 1)
    f3 = eta_product({1: 6, 3: 6}, p + 1) * e23
    return int(tr) - 2 * f2[p] - 2 * f3[p]


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
    from .field_core import is_prime
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


LMFDB_API = "https://www.lmfdb.org/api/mf_newforms/?label={label}&_format=json"


def fetch_fixture(label: str, out_path: str | Path, timeout: float = 30.0) -> NewformFixture:
    """Fetch coefficients for a newform label from the public database.

    Network access is opt-in; acceptance tests never call this. The fetched
    coefficients are written as a fixture file and re-validated by
    load_fixture.
    """
    try:
        import requests
    except ImportError as exc:
        raise FixtureError("fetch requires the 'requests' extra") from exc
    parts = label.split(".")
    if len(parts) != 4:
        raise FixtureError(f"malformed newform label {label!r}")
    try:
        resp = requests.get(LMFDB_API.format(label=label), timeout=timeout)
        resp.raise_for_status()
        payload = resp.json()
    except Exception as exc:
        raise FixtureError(f"offline or fetch failed for {label!r}: {exc}") from exc
    rows = payload.get("data", [])
    if not rows:
        raise FixtureError(f"label {label!r} not found in the database")
    row = rows[0]
    from .field_core import is_prime
    traces = row.get("traces") or []
    ap = {m + 1: traces[m] for m in range(len(traces)) if is_prime(m + 1)}
    data = {"label": label, "level": int(parts[0]), "weight": int(parts[1]), "ap": ap}
    out_path = Path(out_path)
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")
    return load_fixture(out_path)
