"""Prime generation and exact modular arithmetic primitives.

Everything here is pure and deterministic: primality is decided by a fixed
Miller-Rabin witness set below the proven bound and by Baillie-PSW above it,
never by a random-witness test, so search campaigns cannot emit pseudoprime
hits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Iterator

from . import config
from .errors import DomainError, EmptyRangeError, NotInvertibleError

__all__ = [
    "Residue",
    "PrimeRange",
    "UNDEFINED",
    "is_prime",
    "sieve_upto",
    "iter_primes",
    "sieve_primes",
    "mod_pow",
    "mod_inv",
    "rational_residue",
    "fraction_residue",
]


# ---------------------------------------------------------------------------
# Records

class _Frozen:
    """Base of the slotted records whose fields `__init__` sets once, in the
    order of `_fields`. Assigning or deleting a field raises AttributeError;
    two records are equal when their classes and fields are; copy and pickle
    rebuild a record through its constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, v in zip(self._fields, values):
            object.__setattr__(self, name, v)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()


# ---------------------------------------------------------------------------
# Residues

class Residue(_Frozen):
    """A canonical residue: value in [0, modulus), modulus >= 2.

    Arithmetic between residues requires equal moduli; plain ints are
    reduced on the fly.
    """

    __slots__ = _fields = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus < 2:
            raise DomainError(f"modulus must be >= 2, got {modulus}")
        super().__init__(value % modulus, modulus)

    def _coerce(self, other) -> int:
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise DomainError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other.value
        if isinstance(other, int):
            return other % self.modulus
        return NotImplemented

    def __add__(self, other) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((self.value + v) % self.modulus, self.modulus)

    __radd__ = __add__

    def __sub__(self, other) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((self.value - v) % self.modulus, self.modulus)

    def __mul__(self, other) -> "Residue":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((self.value * v) % self.modulus, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Residue":
        if exp < 0:
            return self.inverse() ** -exp
        return Residue(pow(self.value, exp, self.modulus), self.modulus)

    def inverse(self) -> "Residue":
        return mod_inv(self.value, self.modulus)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, Residue):
            return self.value == other.value and self.modulus == other.modulus
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"{self.value} (mod {self.modulus})"


class _Undefined:
    """Marker for residues whose defining expression has p in a denominator."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


# ---------------------------------------------------------------------------
# Primality

# The 13 primes 2..41 make Miller-Rabin deterministic below
# psi_13 = 3.317e24 (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003;
# OEIS A014233), which covers well past 64 bits. The first 12 alone stop at
# psi_12 = 318665857834031151167461 = 399165290221 * 798330580441, a strong
# pseudoprime to 2..37 that base 41 exposes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIME_SET = frozenset(_MR_WITNESSES)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a proves n composite."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _is_perfect_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge parameters (method A)."""
    # Find D with Jacobi(D/n) = -1 from the sequence 5, -7, 9, -11, ...
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        if d > 0:
            d = -(d + 2)
        else:
            d = -(d - 2)
    q = (1 - d) // 4

    # Factor n+1 = s * 2^r with s odd.
    s = n + 1
    r = (s & -s).bit_length() - 1
    s >>= r

    # Compute U_s, V_s (P=1) by the binary chain.
    u, v, qk = 1, 1, q % n
    for bit in bin(s)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (v + d * u) % n
            if u & 1:
                u += n
            if v & 1:
                v += n
            u, v = (u >> 1) % n, (v >> 1) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(r - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality below psi_13 ~ 3.3e24; Baillie-PSW beyond.

    No BPSW counterexample is known; below the bound the result is proven.
    """
    if n < 2:
        return False
    if n in _SMALL_PRIME_SET:
        return True
    for p in _MR_WITNESSES:
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_miller_rabin_witness(n, a) for a in _MR_WITNESSES)
    # Baillie-PSW: strong base-2 Miller-Rabin plus strong Lucas.
    if _miller_rabin_witness(n, 2):
        return False
    if _is_perfect_square(n):
        return False
    return _strong_lucas_prp(n)


# ---------------------------------------------------------------------------
# Sieving

def sieve_upto(n: int) -> list[int]:
    """All primes <= n, read from `iter_primes`, whose base primes up to
    sqrt(n) come from this function in turn, down to n < 2."""
    return list(iter_primes(2, n)) if n >= 2 else []


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes in [lo, hi] ascending via a segmented sieve, the
    one sieve for prime windows: its base primes up to sqrt(hi) come from
    `sieve_upto`, which reads this generator again at sqrt(hi).
    `_kernels._prime_table` fills the memo `_kernels._primes`, the primes
    the Gertsch column and the power tables read, by calling `sieve_upto`.
    The power tables also read `_kernels._sieve_factors`, a
    least-prime-factor sieve of 1..N that gives each composite's
    factorization.

    Memory stays bounded by the segment length `config.SIEVE_SEGMENT`, read
    at call time, plus the base primes up to sqrt(hi), so a reader that
    streams them never holds a full-range sieve. The Fermat-quotient
    campaigns stream; a campaign run that reads the factorial columns lists
    all its primes, because its remainder tree needs every block's modulus
    before the first block.
    """
    if lo < 2:
        raise DomainError(f"range must start at 2 or above, got lo={lo}")
    if hi < lo:
        raise EmptyRangeError(f"empty prime range [{lo}, {hi}]")
    base = sieve_upto(math.isqrt(hi))
    if lo <= math.isqrt(hi):
        for p in base:
            if lo <= p <= hi:
                yield p
    start, segment = max(lo, math.isqrt(hi) + 1), config.SIEVE_SEGMENT
    while start <= hi:
        end = min(start + segment - 1, hi)
        block = bytearray([1]) * (end - start + 1)
        for p in base:
            first = max(p * p, (start + p - 1) // p * p)
            if first > end:
                continue
            block[first - start:: p] = bytearray(len(range(first, end + 1, p)))
        yield from compress(range(start, end + 1), block)
        start = end + 1


def sieve_primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], ascending."""
    return list(iter_primes(lo, hi))


class PrimeRange(_Frozen):
    """An inclusive prime window [lo, hi]; iteration yields its primes."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo < 2:
            raise DomainError(f"PrimeRange.lo must be >= 2, got {lo}")
        if hi < lo:
            raise EmptyRangeError(f"empty prime range [{lo}, {hi}]")
        super().__init__(lo, hi)

    def __iter__(self) -> Iterator[int]:
        return iter_primes(self.lo, self.hi)

    def primes(self) -> list[int]:
        return list(self)

    def __contains__(self, p: int) -> bool:
        return self.lo <= p <= self.hi and is_prime(p)

    def __repr__(self):
        return f"PrimeRange({self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# Modular kernels

def mod_pow(base: int, exp: int, m: int) -> Residue:
    """base**exp mod m by binary exponentiation (O(log exp) multiplies)."""
    if exp < 0:
        raise DomainError("exponent must be >= 0")
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    return Residue(pow(base, exp, m), m)


def mod_inv(a: int, m: int) -> Residue:
    """The inverse of a mod m; NotInvertibleError (with gcd) if none exists."""
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    g = math.gcd(a, m)
    if g != 1:
        raise NotInvertibleError(a, m, g)
    return Residue(pow(a, -1, m), m)


def rational_residue(num: int, den: int, m: int):
    """num/den mod m, or UNDEFINED when gcd(den, m) > 1.

    The diagonal embedding of a reduced rational into Z/mZ: defined exactly
    at the moduli coprime to its denominator.
    """
    if den == 0:
        raise DomainError("denominator must be nonzero")
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    if math.gcd(den, m) != 1:
        return UNDEFINED
    return Residue(num * pow(den, -1, m) % m, m)


def fraction_residue(q: Fraction, m: int):
    """rational_residue for a Fraction (already in lowest terms)."""
    return rational_residue(q.numerator, q.denominator, m)
