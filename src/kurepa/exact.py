"""Exact big-integer and rational sequences, and the prime quotients built
from them.

This module is the oracle side of every dual-route check: no floats anywhere,
Bernoulli/Gregory values are Fractions, quotients are exact divisions with
divisibility asserted. The fast per-prime kernels in `residues` must agree
with these values reduced mod p^e.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .errors import CapacityError, DomainError, InvariantViolation
from .modmath import Residue, is_prime

__all__ = [
    "factorial",
    "left_factorial",
    "bell_exact",
    "bell_sequence_exact",
    "derangement_exact",
    "stirling2",
    "stirling2_row",
    "bernoulli_exact",
    "gregory_exact",
    "wilson_quotient_exact",
    "fermat_quotient_exact",
    "sum_fermat_quotients_exact",
    "gertsch_quotient_exact",
    "lerch_quotient_exact",
    "h_quotient_exact",
    "agoh_giuga_exact",
    "hodge_bg_exact",
    "giuga_sum",
    "QuotientRecord",
    "quotient_record",
    "SuccessorReport",
    "successor_identities",
    "GenusSplitReport",
    "genus_split_report",
]

factorial = math.factorial


def left_factorial(n: int) -> int:
    """!n = 0! + 1! + ... + (n-1)!; the empty sum !0 is 0.

    By binary splitting (Haible and Papanikolaou, 1998): !n = 1 + Q for
    (P, Q) = (1*2*...*(n-1), sum_{j<n} j!) of the steps 1..n-1.
    """
    if n < 0:
        raise DomainError("left_factorial needs n >= 0")
    return 1 + _factorial_sums(1, n)[1] if n else 0


def _factorial_sums(a: int, b: int) -> tuple[int, int]:
    """(P, Q) = (a(a+1)...(b-1), sum_{j=a}^{b-1} a(a+1)...j), exact; the
    halves join as (P1*P2, Q1 + P1*Q2)."""
    if b - a <= 32:
        p, q = 1, 0
        for k in range(a, b):
            p *= k
            q += p
        return p, q
    mid = (a + b) // 2
    p1, q1 = _factorial_sums(a, mid)
    p2, q2 = _factorial_sums(mid, b)
    return p1 * p2, q1 + p1 * q2


def bell_sequence_exact(n: int, cap: int = config.EXACT_BELL_CAP) -> list[int]:
    """Bell_0..Bell_n via the Bell (Aitken) triangle, one row in memory."""
    if n < 0:
        raise DomainError("bell needs n >= 0")
    if n > cap:
        raise CapacityError(f"exact Bell capped at {cap} (asked {n}); "
                            "use the modular path for large indices")
    out = [1]
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        out.append(row[0])
    return out


def bell_exact(n: int, cap: int = config.EXACT_BELL_CAP) -> int:
    return bell_sequence_exact(n, cap)[n]


def derangement_exact(n: int) -> int:
    """Fixed-point-free permutation count: D_k = k*D_{k-1} + (-1)^k, D_0=1."""
    if n < 0:
        raise DomainError("derangement needs n >= 0")
    d = 1
    for k in range(1, n + 1):
        d = k * d + (-1) ** k
    return d


def stirling2_row(n: int) -> list[int]:
    """Row n of the second-kind Stirling triangle: S(n,0)..S(n,n)."""
    if n < 0:
        raise DomainError("stirling2 needs n >= 0")
    row = [1]
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            new[k] = k * (row[k] if k < m else 0) + row[k - 1]
        row = new
    return row


def stirling2(n: int, k: int) -> int:
    """Set partitions of n elements into k blocks."""
    if not 0 <= k <= n:
        raise DomainError(f"stirling2 needs 0 <= k <= n, got ({n}, {k})")
    return stirling2_row(n)[k]


# ---------------------------------------------------------------------------
# Bernoulli and Gregory numbers (memoized, lock-guarded so concurrent callers
# see identical tables regardless of interleaving)

_bern_lock = threading.Lock()
_bern: list[Fraction] = [Fraction(1), Fraction(-1, 2)]

_greg_lock = threading.Lock()
_greg: list[Fraction] = [Fraction(1), Fraction(1, 2)]


def bernoulli_exact(k: int) -> Fraction:
    """B_k as an exact Fraction (B_1 = -1/2 convention).

    Extends the memo table via n*B_{n-1} + 1 + sum_{j=1}^{n-2} C(n,j)*B_j = 0.
    """
    if k < 0:
        raise DomainError("bernoulli needs k >= 0")
    if k > config.EXACT_BERNOULLI_CAP:
        raise CapacityError(
            f"exact Bernoulli capped at index {config.EXACT_BERNOULLI_CAP} (asked {k})")
    if k % 2 == 1 and k > 1:
        return Fraction(0)
    with _bern_lock:
        while len(_bern) <= k:
            n = len(_bern) + 1  # solving for B_{n-1}
            if (n - 1) % 2 == 1:
                _bern.append(Fraction(0))
                continue
            s = Fraction(1)
            for j in range(1, n - 1):
                bj = _bern[j]
                if bj:
                    s += math.comb(n, j) * bj
            _bern.append(-s / n)
        return _bern[k]


def gregory_exact(n: int) -> Fraction:
    """Gregory coefficient G_n: x/log(1+x) = 1 + sum G_n x^n.

    Convolution recurrence sum_{k=0}^{n} (-1)^k/(k+1) G_{n-k} = [n=0];
    signs alternate, (-1)^(n-1) G_n > 0 for n >= 1.
    """
    if n < 0:
        raise DomainError("gregory needs n >= 0")
    if n > config.EXACT_GREGORY_CAP:
        raise CapacityError(
            f"exact Gregory capped at index {config.EXACT_GREGORY_CAP} (asked {n})")
    with _greg_lock:
        while len(_greg) <= n:
            m = len(_greg)
            g = Fraction(0)
            for k in range(1, m + 1):
                g += Fraction((-1) ** (k + 1), k + 1) * _greg[m - k]
            _greg.append(g)
        return _greg[n]


# ---------------------------------------------------------------------------
# Quotients

def wilson_quotient_exact(p: int) -> int:
    """W_p = ((p-1)! + 1) / p, exact; domain error on composite p."""
    if p < 2 or not is_prime(p):
        raise DomainError(f"Wilson quotient needs a prime, got {p}")
    num = factorial(p - 1) + 1
    if num % p:
        raise InvariantViolation(f"(p-1)!+1 not divisible by {p}")
    return num // p


def fermat_quotient_exact(a: int, p: int) -> int:
    """q_p(a) = (a^(p-1) - 1) / p, exact, for p prime not dividing a."""
    if a % p == 0:
        raise DomainError(f"fermat quotient needs p does not divide a ({a}, {p})")
    num = a ** (p - 1) - 1
    if num % p:
        raise InvariantViolation(f"{a}^{p}-1 - 1 not divisible by {p}")
    return num // p


def sum_fermat_quotients_exact(p: int,
                               cap: int = config.EXACT_POWER_SUM_CAP) -> int:
    """sum_{a=1}^{p-1} q_p(a), exact (O(p) exact powers a^(p-1))."""
    if p > cap:
        raise CapacityError(f"exact Fermat-quotient sum capped at p <= {cap}")
    return sum(fermat_quotient_exact(a, p) for a in range(1, p))


def gertsch_quotient_exact(p: int) -> int:
    """(!p - Bell_{p-1} + 1) / p, always an exact integer for odd prime p.

    OEIS A309483.
    """
    if p < 3 or not is_prime(p):
        raise DomainError(f"Gertsch quotient needs an odd prime, got {p}")
    num = left_factorial(p) - bell_exact(p - 1, cap=max(p, config.EXACT_BELL_CAP)) + 1
    if num % p:
        raise InvariantViolation(f"Gertsch numerator not divisible by {p}")
    return num // p


def lerch_quotient_exact(p: int,
                         cap: int = config.EXACT_POWER_SUM_CAP) -> Fraction:
    """L_p = (sum_a q_p(a) - W_p) / p; an integer by Lerch's congruence."""
    if p < 3 or not is_prime(p):
        raise DomainError(f"Lerch quotient needs an odd prime, got {p}")
    return Fraction(sum_fermat_quotients_exact(p, cap) - wilson_quotient_exact(p), p)


def h_quotient_exact(p: int) -> Fraction:
    """(sum_a q_p(a) - Gertsch_p) / p; genuinely fractional for some p (H_5 = 66/5)."""
    if p < 3 or not is_prime(p):
        raise DomainError(f"H quotient needs an odd prime, got {p}")
    return Fraction(sum_fermat_quotients_exact(p) - gertsch_quotient_exact(p), p)


def agoh_giuga_exact(p: int) -> Fraction:
    """AG_p = (p*B_{p-1} + 1) / p as an exact reduced rational.

    By von Staudt-Clausen the p in B_{p-1}'s denominator cancels, so the
    result's denominator is coprime to p.
    """
    if p < 3 or not is_prime(p):
        raise DomainError(f"Agoh-Giuga quotient needs an odd prime, got {p}")
    return _agoh_giuga(p)


def _agoh_giuga(p: int) -> Fraction:
    """agoh_giuga_exact for an odd prime p that the caller has checked;
    B_{p-1} raises CapacityError past the exact-Bernoulli cap."""
    ag = (p * bernoulli_exact(p - 1) + 1) / p
    if ag.denominator % p == 0:
        raise InvariantViolation(f"AG_{p} denominator divisible by {p}")
    return ag


def hodge_bg_exact(g: int) -> Fraction:
    """b_g = ((2 - 2^(2g)) / 2^(2g)) * B_{2g} / (2g)!, with b_0 = 1.

    Equals the t^(2g) coefficient of (t/2)/sinh(t/2); the (t/2)/sin(t/2)
    series gives the same values up to the sign (-1)^g.
    """
    if g < 0:
        raise DomainError("hodge_bg needs g >= 0")
    if g == 0:
        return Fraction(1)
    two_2g = 2 ** (2 * g)
    return Fraction(2 - two_2g, two_2g) * bernoulli_exact(2 * g) / factorial(2 * g)


def giuga_sum(n: int) -> Residue:
    """s_n = sum_{k=1}^{n-1} k^(n-1) mod n; s_n = -1 mod n iff n prime (conjectured)."""
    if n < 2:
        raise DomainError("giuga_sum needs n >= 2")
    s = 0
    for k in range(1, n):
        s = (s + pow(k, n - 1, n)) % n
    return Residue(s, n)


@dataclass(frozen=True)
class QuotientRecord:
    """All four quotients of one prime, exact."""

    p: int
    wilson: int
    lerch: Fraction
    gertsch: int
    h: Fraction


def quotient_record(p: int) -> QuotientRecord:
    return QuotientRecord(
        p=p,
        wilson=wilson_quotient_exact(p),
        lerch=lerch_quotient_exact(p),
        gertsch=gertsch_quotient_exact(p),
        h=h_quotient_exact(p),
    )


# ---------------------------------------------------------------------------
# Left-factorial successor identities

@dataclass(frozen=True)
class SuccessorReport:
    """Exact evaluation of !(n+1) = !n + n! and the factorial step identity."""

    n: int
    step_holds: bool           # !(n+1) == !n + n!
    factorial_diff_holds: bool  # for even n = 2g: !(2g) - !(2g-1) == (2g-1)!


def successor_identities(n: int) -> SuccessorReport:
    if n < 1:
        raise DomainError("successor identities need n >= 1")
    return _successor_report(n, left_factorial(n), left_factorial(n + 1),
                             factorial(n))


def _successor_report(n: int, lf: int, lf_next: int,
                      fact: int) -> SuccessorReport:
    """The report at n >= 1 from lf = !n, lf_next = !(n+1) and fact = n!,
    for a caller that already holds all three."""
    step = lf_next == lf + fact
    diff = n % 2 == 1 or lf - left_factorial(n - 1) == factorial(n - 1)
    return SuccessorReport(n=n, step_holds=step, factorial_diff_holds=diff)


@dataclass(frozen=True)
class GenusSplitReport:
    """Exact evaluation of the claimed splitting
    (2g1-1)! + (2g2-1)! = (2(g1+g2)-1)!.

    The left side always equals the left-factorial difference sum
    (!(2g1) - !(2g1-1)) + (!(2g2) - !(2g2-1)); the claimed equality with the
    combined factorial generally fails (g1=g2=1 gives 2 vs 6) and is reported,
    never asserted.
    """

    g1: int
    g2: int
    lhs: int          # (2g1-1)! + (2g2-1)!
    rhs: int          # (2(g1+g2)-1)!
    split_holds: bool
    diff_form_holds: bool  # lhs == the left-factorial difference sum


def genus_split_report(g1: int, g2: int) -> GenusSplitReport:
    if g1 < 1 or g2 < 1:
        raise DomainError("genus split needs g1, g2 >= 1")
    lhs = factorial(2 * g1 - 1) + factorial(2 * g2 - 1)
    rhs = factorial(2 * (g1 + g2) - 1)
    diff = (left_factorial(2 * g1) - left_factorial(2 * g1 - 1)
            + left_factorial(2 * g2) - left_factorial(2 * g2 - 1))
    return GenusSplitReport(
        g1=g1, g2=g2, lhs=lhs, rhs=rhs,
        split_holds=lhs == rhs,
        diff_form_holds=lhs == diff,
    )
