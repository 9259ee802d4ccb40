"""Prime-field contexts, multiplicative characters, and the quadratic extension.

A PrimeFieldCtx bundles a prime p with its least primitive root and a full
discrete-log table, which is the substrate every character sum in this package
is built on. Character values are complex roots of unity taken from a shared
table of powers of zeta = exp(2*pi*i/(p-1)); downstream code snaps rational
quantities back to exact integers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

DEFAULT_P_BOUND = 100_000


class FieldError(ValueError):
    """Bad prime, size overflow, or congruence failure."""


class CongruenceError(FieldError):
    """Raised when p does not satisfy a required p = 1 (mod M) condition."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def nth_primitive_root(p: int, index: int) -> int:
    """The index-th smallest primitive root of p (index 0 = least).

    g generates F_p^* iff g^((p-1)/q) != 1 for every prime q dividing p - 1.
    """
    n = p - 1
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    found = 0
    for g in range(1, p):  # g = 1 generates only F_2^*, where p - 1 has no prime factor
        if all(pow(g, n // q, p) != 1 for q in factors):
            if found == index:
                return g
            found += 1
    raise FieldError(f"fewer than {index + 1} primitive roots mod {p}")


@dataclass(frozen=True)
class PrimeFieldCtx:
    """Immutable context for F_p: generator, and the per-prime tables: dlog
    (dlog[0] = -1), its inverse antilog[k] = g^k, the roots of unity zeta^k,
    and the quadratic character chi (int8, chi[0] = 0)."""

    p: int
    g: int
    dlog: np.ndarray = field(repr=False, compare=False)
    zeta: np.ndarray = field(repr=False, compare=False)
    antilog: np.ndarray = field(repr=False, compare=False)
    chi: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        """Order of the multiplicative group."""
        return self.p - 1

    @property
    def nbytes(self) -> int:
        """Bytes held by the per-prime tables (33 a point)."""
        return self.dlog.nbytes + self.zeta.nbytes + self.antilog.nbytes + self.chi.nbytes

    @cached_property
    def ext(self) -> "QuadExtCtx":
        """F_{p^2}, built on first use (build_quad_ext)."""
        return build_quad_ext(self)

    def char(self, e: int) -> "MultCharacter":
        return MultCharacter(self, e % self.n)

    @property
    def trivial_char(self) -> "MultCharacter":
        return self.char(0)

    @property
    def quadratic_char(self) -> "MultCharacter":
        return self.char(self.n // 2)

    def legendre(self, x: int) -> int:
        return int(self.chi[x % self.p])

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(x, self.p - 2, self.p)


def _dlog_table(p: int, g: int) -> np.ndarray:
    """Discrete logs base g: dlog[g^k mod p] = k, dlog[0] = -1."""
    dlog = np.full(p, -1, dtype=np.int64)
    x = 1
    for k in range(p - 1):
        dlog[x] = k
        x = x * g % p
    return dlog


def build_ctx(p: int, generator: int | None = None) -> PrimeFieldCtx:
    """Construct a PrimeFieldCtx with verified primitive root and dlog table.

    The dlog table is O(p) and a datum's character sums over it are
    O(p log p); p is capped at DEFAULT_P_BOUND because snapping is checked,
    with a measured headroom, only up to that size. An explicit generator, for
    generator-independence tests, must itself be a primitive root.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p == 2:
        raise FieldError("p must be an odd prime")
    if p > DEFAULT_P_BOUND:
        raise FieldError(f"p = {p} exceeds the configured bound {DEFAULT_P_BOUND}")
    g = nth_primitive_root(p, 0) if generator is None else generator
    dlog = _dlog_table(p, g)
    if generator is not None and np.count_nonzero(dlog >= 0) != p - 1:
        raise FieldError(f"{generator} is not a primitive root mod {p}")
    n = p - 1
    zeta = np.exp(2j * np.pi * np.arange(n) / n)
    antilog = np.empty(n, dtype=np.int64)
    antilog[dlog[1:]] = np.arange(1, p, dtype=np.int64)
    chi = (1 - 2 * (dlog & 1)).astype(np.int8)  # dlog(x) parity; dlog[0] = -1
    chi[0] = 0
    return PrimeFieldCtx(p=p, g=g, dlog=dlog, zeta=zeta, antilog=antilog, chi=chi)


class ByteBoundedLRU:
    """Least-recently-used cache of values with an nbytes attribute (arrays,
    contexts), kept within a byte bound given on each insertion."""

    def __init__(self):
        self.tables = OrderedDict()
        self.nbytes = 0

    def get(self, key, build, max_bytes: int):
        out = self.tables.get(key)
        if out is not None:
            self.tables.move_to_end(key)
            return out
        out = build()
        self.tables[key] = out
        self.nbytes += out.nbytes
        while self.nbytes > max_bytes:
            self.nbytes -= self.tables.popitem(last=False)[1].nbytes
        return out


# Shared contexts take 33 bytes a point (3.3 MB at the p cap); least recently
# used ones are evicted while their bytes exceed this bound.
CTX_CACHE_MAX_BYTES = 64 * 2 ** 20

_CTX_CACHE = ByteBoundedLRU()


def cached_ctx(p: int) -> PrimeFieldCtx:
    """Shared default context for p (least primitive root)."""
    return _CTX_CACHE.get(p, lambda: build_ctx(p), CTX_CACHE_MAX_BYTES)


@dataclass(frozen=True)
class MultCharacter:
    """Multiplicative character of F_p^*, represented by its exponent mod p-1.

    value(x) = zeta^(e * dlog(x)) with zeta = exp(2*pi*i/(p-1)), and the
    A(0) = 0 convention for every character including the trivial one.
    """

    ctx: PrimeFieldCtx
    e: int

    def __post_init__(self):
        object.__setattr__(self, "e", self.e % self.ctx.n)

    def __call__(self, x: int) -> complex:
        x %= self.ctx.p
        if x == 0:
            return 0j
        return complex(self.ctx.zeta[(self.e * int(self.ctx.dlog[x])) % self.ctx.n])

    def value_at_minus1(self) -> int:
        """chi(-1) as an exact +-1 (the exponent parity, since dlog(-1) = n/2)."""
        return 1 if (self.e * (self.ctx.n // 2)) % self.ctx.n == 0 else -1

    @property
    def order(self) -> int:
        return self.ctx.n // gcd(self.e, self.ctx.n)

    @property
    def is_trivial(self) -> bool:
        return self.e == 0

    def __mul__(self, other: "MultCharacter") -> "MultCharacter":
        if other.ctx.p != self.ctx.p:
            raise FieldError("characters on different fields")
        return MultCharacter(self.ctx, self.e + other.e)

    def inverse(self) -> "MultCharacter":
        return MultCharacter(self.ctx, -self.e)

    def is_square(self) -> bool:
        """Whether chi = S^2 for some character S (exponent parity; n is even)."""
        return self.e % 2 == 0

    def sqrt(self) -> "MultCharacter":
        if not self.is_square():
            raise FieldError("character is not a square in the character group")
        return MultCharacter(self.ctx, self.e // 2)


def power_residue_char(ctx: PrimeFieldCtx, a: Fraction | int) -> MultCharacter:
    """The character iota(a) attached to a rational a with denominator M | p-1.

    iota(a) has exponent a*(p-1); its value at the chosen generator is
    exp(2*pi*i*a), so iota(1/2) is the quadratic character and integers map to
    the trivial character.
    """
    a = Fraction(a)
    M = a.denominator
    if (ctx.p - 1) % M:
        raise CongruenceError(f"denominator {M} of {a} does not divide p-1 = {ctx.p - 1}")
    e = a.numerator * ((ctx.p - 1) // M)
    return MultCharacter(ctx, e)


@dataclass(frozen=True)
class QuadExtCtx:
    """F_{p^2} = F_p(sqrt(nu)) with nu a quadratic non-residue.

    Elements are (a, b) pairs meaning a + b*sqrt(nu). The point counters work
    on arrays of coordinates; mul and add serve scalar reference computations.
    """

    base: PrimeFieldCtx
    nu: int

    @property
    def q(self) -> int:
        return self.base.p ** 2

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        p = self.base.p
        a, b = x
        c, d = y
        return ((a * c + self.nu * b * d) % p, (a * d + b * c) % p)

    def add(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        p = self.base.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def tonelli_sqrt(v: int, p: int) -> int:
    """Square root mod p of a quadratic residue v (simple Tonelli-Shanks)."""
    v %= p
    if v == 0:
        return 0
    if p % 4 == 3:
        return pow(v, (p + 1) // 4, p)
    # Tonelli-Shanks for p = 1 mod 4
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(v, q, p), pow(v, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def build_quad_ext(ctx: PrimeFieldCtx) -> QuadExtCtx:
    """Quadratic extension with the least non-residue as sqrt generator."""
    for nu in range(2, ctx.p):
        if ctx.legendre(nu) == -1:
            return QuadExtCtx(base=ctx, nu=nu)
    raise FieldError("no quadratic non-residue found (p = 2?)")
