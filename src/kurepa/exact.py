"""Exact big-integer and rational sequences, and the prime quotients built
from them.

This module is the oracle side of every dual-route check: no floats anywhere,
Bernoulli/Gregory values are Fractions, quotients are exact divisions with
divisibility asserted. The fast per-prime kernels in `residues` must agree
with these values reduced mod p^e. Only the left factorial shares code with
them, `_kernels._steps`; `tests/oracles.py` checks it by a plain loop, and
the Bernoulli numbers, which come from integer tangent numbers, by the
Fraction recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import _kernels, config
from ._memo import Memo
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

    By binary splitting (Haible and Papanikolaou, 1998): !n = 1 + Q for the
    exact (P, Q) = ((n-1)!, sum_{j<n} j!) of the steps 1..n-1, from
    `_kernels._steps`, the splitting that also feeds the run tree.
    """
    if n < 0:
        raise DomainError("left_factorial needs n >= 0")
    return 1 + _kernels._steps(1, n)[1] if n else 0


def bell_sequence_exact(n: int) -> list[int]:
    """Bell_0..Bell_n via the Bell (Aitken) triangle, one row in memory."""
    if n < 0:
        raise DomainError("bell needs n >= 0")
    if n > config.EXACT_INDEX_CAP:
        raise CapacityError(f"exact Bell capped at {config.EXACT_INDEX_CAP} "
                            f"(asked {n}); use the modular path for large indices")
    out = [1]
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        out.append(row[0])
    return out


def bell_exact(n: int) -> int:
    return bell_sequence_exact(n)[n]


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
# Bernoulli and Gregory numbers by index, each memo filled under its lock, so
# concurrent callers see identical values regardless of interleaving

_bern = Memo()
_greg = Memo()


def bernoulli_exact(k: int) -> Fraction:
    """B_k as an exact Fraction (B_1 = -1/2 convention).

    A miss refills the memo with B_0..B_n from `_bernoulli_upto`, for
    n = min(EXACT_INDEX_CAP, max(k, 2 * size)), so indices growing to k
    refill it O(log k) times.
    """
    if k < 0:
        raise DomainError("bernoulli needs k >= 0")
    if k > config.EXACT_INDEX_CAP:
        raise CapacityError(
            f"exact Bernoulli capped at index {config.EXACT_INDEX_CAP} (asked {k})")
    if k % 2 == 1 and k > 1:
        return Fraction(0)
    with _bern.lock:
        if k >= len(_bern):
            n = min(config.EXACT_INDEX_CAP, max(k, 2 * len(_bern)))
            _bern.update(enumerate(_bernoulli_upto(n)))
        return _bern[k]


def _bernoulli_upto(n: int) -> list[Fraction]:
    """[B_0, ..., B_n] from the tangent numbers T_1..T_h, h = n // 2, where
    tan x = sum_k T_k x^(2k-1)/(2k-1)!, by Brent and Harvey's in-place
    integer recurrence (2013), O(h^2) small-by-big products; then
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) and the odd B_k vanish past
    B_1 = -1/2."""
    h = n // 2
    t = [0, 1] + [0] * (h - 1)  # t[k] = T_k for k = 1..h
    for k in range(2, h + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    b = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
    for k in range(1, h + 1):
        q = 4 ** k
        b[2 * k] = Fraction(2 * k * t[k] if k % 2 else -2 * k * t[k], q * (q - 1))
    return b[:n + 1]


def gregory_exact(n: int) -> Fraction:
    """Gregory coefficient G_n: x/log(1+x) = 1 + sum G_n x^n.

    Convolution recurrence sum_{k=0}^{n} (-1)^k/(k+1) G_{n-k} = [n=0];
    signs alternate, (-1)^(n-1) G_n > 0 for n >= 1.
    """
    if n < 0:
        raise DomainError("gregory needs n >= 0")
    if n > config.EXACT_INDEX_CAP:
        raise CapacityError(
            f"exact Gregory capped at index {config.EXACT_INDEX_CAP} (asked {n})")
    with _greg.lock:
        if not _greg:  # seeded at first use and after clear()
            _greg.update({0: Fraction(1), 1: Fraction(1, 2)})
        while len(_greg) <= n:
            m = len(_greg)
            g = Fraction(0)
            for k in range(1, m + 1):
                g += Fraction((-1) ** (k + 1), k + 1) * _greg[m - k]
            _greg[m] = g
        return _greg[n]


# ---------------------------------------------------------------------------
# Quotients

def _require_odd_prime(what: str, p: int):
    if p < 3 or not is_prime(p):
        raise DomainError(f"{what} needs an odd prime, got {p}")


def wilson_quotient_exact(p: int) -> int:
    """W_p = ((p-1)! + 1) / p, exact; domain error on composite p."""
    if p < 2 or not is_prime(p):
        raise DomainError(f"Wilson quotient needs a prime, got {p}")
    return _wilson_quotient(p)


def _wilson_quotient(p: int) -> int:
    """wilson_quotient_exact for a prime p that the caller has checked."""
    num = factorial(p - 1) + 1
    if num % p:
        raise InvariantViolation(f"(p-1)!+1 not divisible by {p}")
    return num // p


def fermat_quotient_exact(a: int, p: int) -> int:
    """q_p(a) = (a^(p-1) - 1) / p, exact, for p prime not dividing a."""
    if p < 2 or not is_prime(p):
        raise DomainError(f"Fermat quotient needs a prime, got {p}")
    return _fermat_quotient(a, p)


def _fermat_quotient(a: int, p: int) -> int:
    """fermat_quotient_exact for a prime p that the caller has checked."""
    if a % p == 0:
        raise DomainError(f"fermat quotient needs p does not divide a ({a}, {p})")
    num = a ** (p - 1) - 1
    if num % p:
        raise InvariantViolation(f"{a}^({p}-1) - 1 not divisible by {p}")
    return num // p


def sum_fermat_quotients_exact(p: int) -> int:
    """sum_{a=1}^{p-1} q_p(a), exact (O(p) exact powers a^(p-1)), for a
    prime p up to config.EXACT_POWER_SUM_CAP."""
    if p < 2 or not is_prime(p):
        raise DomainError(f"Fermat-quotient sum needs a prime, got {p}")
    return _sum_fermat_quotients(p)


def _sum_fermat_quotients(p: int) -> int:
    """sum_fermat_quotients_exact for a prime p that the caller has checked."""
    if p > config.EXACT_POWER_SUM_CAP:
        raise CapacityError("exact Fermat-quotient sum capped at "
                            f"p <= {config.EXACT_POWER_SUM_CAP}")
    return sum(_fermat_quotient(a, p) for a in range(1, p))


def gertsch_quotient_exact(p: int) -> int:
    """(!p - Bell_{p-1} + 1) / p, always an exact integer for odd prime p;
    Bell_{p-1} is capped at index config.EXACT_INDEX_CAP.

    OEIS A309483.
    """
    _require_odd_prime("Gertsch quotient", p)
    return _gertsch_quotient(p)


def _gertsch_quotient(p: int) -> int:
    """gertsch_quotient_exact for an odd prime p that the caller has checked."""
    num = left_factorial(p) - bell_exact(p - 1) + 1
    if num % p:
        raise InvariantViolation(f"Gertsch numerator not divisible by {p}")
    return num // p


def lerch_quotient_exact(p: int) -> Fraction:
    """L_p = (sum_a q_p(a) - W_p) / p; an integer by Lerch's congruence."""
    _require_odd_prime("Lerch quotient", p)
    return _qsum_quotient(_sum_fermat_quotients(p), _wilson_quotient(p), p)


def h_quotient_exact(p: int) -> Fraction:
    """(sum_a q_p(a) - Gertsch_p) / p; genuinely fractional for some p (H_5 = 66/5)."""
    _require_odd_prime("H quotient", p)
    return _qsum_quotient(_sum_fermat_quotients(p), _gertsch_quotient(p), p)


def _qsum_quotient(qsum: int, x: int, p: int) -> Fraction:
    """(qsum - x) / p for qsum = sum_a q_p(a): L_p at x = W_p, H_p at x = G_p."""
    return Fraction(qsum - x, p)


def agoh_giuga_exact(p: int) -> Fraction:
    """AG_p = (p*B_{p-1} + 1) / p as an exact reduced rational.

    By von Staudt-Clausen the p in B_{p-1}'s denominator cancels, so the
    result's denominator is coprime to p.
    """
    _require_odd_prime("Agoh-Giuga quotient", p)
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


class QuotientRecord(NamedTuple):
    """All four quotients of one prime, exact."""

    p: int
    wilson: int
    lerch: Fraction
    gertsch: int
    h: Fraction


def quotient_record(p: int) -> QuotientRecord:
    """The four quotients at the odd prime p, building W_p, sum_a q_p(a) and
    G_p once each."""
    _require_odd_prime("quotient record", p)
    w, qsum, g = _wilson_quotient(p), _sum_fermat_quotients(p), _gertsch_quotient(p)
    return QuotientRecord(p=p, wilson=w, lerch=_qsum_quotient(qsum, w, p),
                          gertsch=g, h=_qsum_quotient(qsum, g, p))


# ---------------------------------------------------------------------------
# Left-factorial successor identities

class SuccessorReport(NamedTuple):
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


class GenusSplitReport(NamedTuple):
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
