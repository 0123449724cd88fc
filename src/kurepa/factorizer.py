"""Integer factorization: trial division, then Brent-cycle Pollard rho with a
deterministic parameter schedule, cofactors certified prime by the
deterministic/BPSW gate.

Budget exhaustion returns a partial factorization with the composite cofactor
flagged; a wrong factorization is never returned (recomposition is asserted).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import config, search
from ._memo import Memo
from .errors import DomainError, InvariantViolation
from .exact import factorial, left_factorial
from .modmath import is_prime, sieve_upto

__all__ = [
    "Factorization",
    "factorize",
    "left_factorial_minus_one_table",
    "kurepa_gcd_check",
    "GcdReport",
]

_TRIAL_LIMIT = 1_000_000
_trial_primes = Memo()  # _TRIAL_LIMIT: the primes up to it, sieved once


def _trial_prime_list() -> list[int]:
    with _trial_primes.lock:
        if not _trial_primes:
            _trial_primes[_TRIAL_LIMIT] = sieve_upto(_TRIAL_LIMIT)
        return _trial_primes[_TRIAL_LIMIT]


class Factorization(NamedTuple):
    """factors multiplied by the cofactor always recompose n exactly;
    complete means the cofactor is 1."""

    n: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def recompose(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p ** e
        return out

    def __str__(self):
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor != 1:
            parts.append(f"[composite {self.cofactor}]")
        return " x ".join(parts) if parts else "1"


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int) -> bool:
        self.left -= n
        return self.left > 0


def _brent_rho(n: int, budget: _Budget) -> Optional[int]:
    """One nontrivial factor of odd composite n, or None on budget exhaustion.

    Brent's cycle variant with batched gcds; the polynomial offset c walks
    the fixed schedule 1, 3, 5, ... so identical inputs always split the
    same way.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            if not budget.spend(r):
                return None
            k = 0
            while k < r and g == 1:
                ys = y
                count = min(m, r - k)
                for _ in range(count):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                if not budget.spend(2 * count):
                    return None
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
                if not budget.spend(2):
                    return None
        if g != n:
            return g
        c += 2  # degenerate cycle: advance the schedule deterministically


def _factor_into(n: int, budget: _Budget, out: dict[int, int]) -> int:
    """Factor n into out; returns the composite cofactor (1 when complete)."""
    if n == 1:
        return 1
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return 1
    d = _brent_rho(n, budget)
    if d is None or d in (1, n):
        return n
    c1 = _factor_into(d, budget, out)
    c2 = _factor_into(n // d, budget, out)
    return c1 * c2


def factorize(n: int, budget: int = config.FACTOR_BUDGET) -> Factorization:
    """Factor n >= 2: trial division to 1e6, then deterministic Brent rho.

    Exceeding the budget yields a partial result whose composite cofactor is
    reported, never a wrong factorization.
    """
    if n < 2:
        raise DomainError(f"factorize needs n >= 2, got {n}")
    original = n
    found: dict[int, int] = {}
    for p in _trial_prime_list():
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    if n > 1:
        if n < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(n):
            # below trial^2 any survivor is prime
            found[n] = found.get(n, 0) + 1
            n = 1
        else:
            n = _factor_into(n, _Budget(budget), found)
    factors = tuple(sorted(found.items()))
    result = Factorization(original, factors, cofactor=n)
    if result.recompose() != original:
        raise InvariantViolation(f"recomposition failed for {original}")
    return result


def left_factorial_minus_one_table(n_max: int = 24,
                                   budget: int = config.FACTOR_BUDGET
                                   ) -> list[Factorization]:
    """Factor !n - 1 for 3 <= n <= n_max <= 30: the rows of
    `tables.FACTORIZATIONS`, which `tables.reproduce_table` reads from here."""
    if not 3 <= n_max <= 30:
        raise DomainError(f"n_max must be in [3, 30], got {n_max}")
    return [factorize(left_factorial(n) - 1, budget=budget)
            for n in range(3, n_max + 1)]


class GcdReport(NamedTuple):
    n_max: int
    all_two: bool
    failures: tuple[tuple[int, int], ...]  # (n, gcd) where gcd != 2


def kurepa_gcd_check(n_max: int) -> GcdReport:
    """gcd(!n, n!) = 2 for every 2 < n <= n_max. By Kurepa's reformulation
    (Ivic and Mijajlovic, 1973; !n = 2 (mod 4), 8 | n! for n >= 4, and
    !n = !q (mod q) for odd primes q <= n) it fails exactly from the first
    odd prime q with !q = 0 (mod q): the first of `search.kurepa_zeros`,
    whose prefix C25 shares. None is known; past it each gcd is computed
    exactly."""
    if n_max < 3:
        raise DomainError("kurepa_gcd_check needs n_max >= 3")
    zeros = search.kurepa_zeros(n_max)
    gcds = ((n, math.gcd(left_factorial(n), factorial(n)))
            for n in range(zeros[0] if zeros else n_max + 1, n_max + 1))
    failures = tuple((n, g) for n, g in gcds if g != 2)
    return GcdReport(n_max=n_max, all_two=not failures, failures=failures)
