"""Residue families over a finite prime window, with finite-support equality.

An element assigns one residue mod p to every prime of its window, except a
finite set where the defining expression has p in a denominator. Equality of
two elements is reported as evidence (the mismatch set) and never decided
absolutely: on a finite window one can only observe whether disagreement is
confined to a small initial segment.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from . import _kernels, residues
from .errors import DomainError
from .modmath import UNDEFINED, PrimeRange, Residue, _Frozen, rational_residue

__all__ = [
    "AdeleElement",
    "AdeleComparison",
    "embed_rational",
    "embed_integer",
    "log_A",
    "ell_A",
    "gamma_W",
    "gamma_M",
    "gamma_G",
    "gamma_L",
    "gamma_AG",
    "gamma_Kp",
    "gamma_Q",
    "G_A",
    "Z_A",
    "build_element",
]


class AdeleElement(_Frozen):
    """A family (r_p mod p) over the primes of a window."""

    __slots__ = _fields = ("window", "residues", "undefined_at")

    def __init__(self, window: PrimeRange, residues: dict[int, int],
                 undefined_at: Iterable[int] = frozenset()):
        super().__init__(window, residues, frozenset(undefined_at))

    def residue(self, p: int) -> Residue:
        return Residue(self.residues[p], p)

    def defined_primes(self) -> list[int]:
        return sorted(self.residues)

    def _check_window(self, other: "AdeleElement"):
        if self.window != other.window:
            raise DomainError(
                f"window mismatch: {self.window} vs {other.window}")

    def _pointwise(self, other: "AdeleElement", op) -> "AdeleElement":
        self._check_window(other)
        undef = self.undefined_at | other.undefined_at
        vals = {p: op(self.residues[p], other.residues[p], p)
                for p in self.residues if p not in undef}
        return AdeleElement(self.window, vals, undef)

    def __add__(self, other) -> "AdeleElement":
        return self._pointwise(other, lambda a, b, p: (a + b) % p)

    def __sub__(self, other) -> "AdeleElement":
        return self._pointwise(other, lambda a, b, p: (a - b) % p)

    def __mul__(self, other) -> "AdeleElement":
        return self._pointwise(other, lambda a, b, p: (a * b) % p)

    def zero_primes(self) -> list[int]:
        """Window primes where the residue vanishes (counterexample events
        for the nonvanishing families; reported, never auto-failed)."""
        return sorted(p for p, r in self.residues.items() if r == 0)

    def compare(self, other: "AdeleElement") -> "AdeleComparison":
        self._check_window(other)
        undef = self.undefined_at | other.undefined_at
        common = [p for p in sorted(self.residues) if p not in undef]
        mismatch = tuple(p for p in common
                         if self.residues[p] != other.residues[p])
        last_bad = mismatch[-1] if mismatch else 0
        agree_from = next((p for p in common if p > last_bad), None)
        return AdeleComparison(mismatch_primes=mismatch, agree_from=agree_from)

    def to_json(self) -> str:
        return json.dumps({
            "window": [self.window.lo, self.window.hi],
            "residues": [[p, self.residues[p]] for p in sorted(self.residues)],
            "undefined_at": sorted(self.undefined_at),
        })

    @staticmethod
    def from_json(text: str) -> "AdeleElement":
        obj = json.loads(text)
        lo, hi = obj["window"]
        return AdeleElement(PrimeRange(lo, hi),
                            {int(p): int(r) for p, r in obj["residues"]},
                            frozenset(int(p) for p in obj["undefined_at"]))


class AdeleComparison(NamedTuple):
    """Evidence from comparing two elements on their window.

    agree_from is the smallest window prime past the last mismatch (None when
    the largest compared prime still mismatches or nothing was comparable);
    an empty mismatch set plus a small window is evidence, not proof, of
    equality in the quotient ring.
    """

    mismatch_primes: tuple[int, ...]
    agree_from: Optional[int]

    @property
    def identical_on_window(self) -> bool:
        return not self.mismatch_primes


def build_element(window: PrimeRange,
                  fn: Callable[[int], object]) -> AdeleElement:
    """Construct an element from a per-prime function.

    fn(p) returns an int/Residue, or UNDEFINED to place p in the undefined
    set. Construction order is independent per prime.
    """
    vals: dict[int, int] = {}
    undef = set()
    for p in window:
        r = fn(p)
        if r is UNDEFINED:
            undef.add(p)
        else:
            vals[p] = int(r) % p
    return AdeleElement(window, vals, frozenset(undef))


def embed_rational(q: Fraction, window: PrimeRange) -> AdeleElement:
    """Diagonal embedding of a rational: q mod p away from denominator primes."""
    q = Fraction(q)
    return build_element(
        window, lambda p: rational_residue(q.numerator, q.denominator, p))


def embed_integer(n: int, window: PrimeRange) -> AdeleElement:
    return embed_rational(Fraction(n), window)


def _fermat_quotient_rational(q: Fraction, p: int):
    """q_p(x) mod p for rational x, undefined at primes dividing num or den;
    x is reduced mod p^2 first, which leaves x^(p-1) mod p^2 unchanged."""
    if q.numerator % p == 0 or q.denominator % p == 0:
        return UNDEFINED
    m2 = p * p
    return _kernels.fermat_quotient(p, q.numerator % m2 * pow(q.denominator, -1, m2) % m2)


def log_A(x, window: PrimeRange) -> AdeleElement:
    """The Fermat-quotient family (q_p(x) mod p)_p; additive in x.

    Defined for nonzero rationals; primes dividing the numerator or
    denominator are undefined.
    """
    q = Fraction(x)
    if q == 0:
        raise DomainError("log_A needs a nonzero rational")
    return build_element(window, lambda p: _fermat_quotient_rational(q, p))


def ell_A(x, window: PrimeRange) -> AdeleElement:
    """x * log_A(x), pointwise."""
    q = Fraction(x)
    return embed_rational(q, window) * log_A(q, window)


# ---------------------------------------------------------------------------
# Named constants, each read from the window's residue records

def _from_records(window: PrimeRange, read: Callable[[residues.PrimeContext], int],
                  fixed: Callable[[int], object] = lambda p: None) -> AdeleElement:
    """The element of read(ctx) mod p, from the window's records streamed by
    `residues.prime_contexts` (one block pass). Where fixed(p) is not None
    it is the value, a residue or UNDEFINED, and no record is built for p."""
    records = residues.prime_contexts(p for p in window if fixed(p) is None)
    # build_element walks the window in the records' order
    return build_element(window,
                         lambda p: read(next(records)) if fixed(p) is None else fixed(p))


def gamma_W(window: PrimeRange) -> AdeleElement:
    """(W_p mod p)_p, the Wilson-quotient analogue of Euler's constant."""
    return _from_records(window, lambda ctx: ctx.wilson)


def gamma_M(window: PrimeRange) -> AdeleElement:
    """(sum_{n=1}^{p-2} |G_n|/n mod p)_p, the Gregory-coefficient analogue."""
    return _from_records(window, lambda ctx: ctx.gregory_sum)


def gamma_G(window: PrimeRange) -> AdeleElement:
    """(Gertsch_p mod p)_p."""
    return _from_records(window, lambda ctx: ctx.gertsch)


def gamma_L(window: PrimeRange) -> AdeleElement:
    """(L_p mod p)_p, Lerch quotients."""
    return _from_records(window, lambda ctx: ctx.lerch)


def gamma_AG(window: PrimeRange) -> AdeleElement:
    """(AG_p mod p)_p, Agoh-Giuga quotients."""
    return _from_records(window, lambda ctx: ctx.ag)


def gamma_Kp(window: PrimeRange) -> AdeleElement:
    """(!p mod p)_p. Nonvanishing of every entry is the Kurepa property;
    zero_primes() on the result surfaces counterexample events. At p = 2,
    !2 = 2 = 0."""
    return _from_records(window, lambda ctx: ctx.kurepa(1),
                         fixed=lambda p: 0 if p == 2 else None)


def gamma_Q(m: int, window: PrimeRange) -> AdeleElement:
    """(Q_p(m) mod p)_p = gamma_AG + log_A(m), undefined at p | m."""
    if m < 1:
        raise DomainError("gamma_Q needs m >= 1")
    return _from_records(window, lambda ctx: ctx.ag + ctx.q(m),
                         fixed=lambda p: UNDEFINED if m % p == 0 else None)


def G_A(k: int, window: PrimeRange) -> AdeleElement:
    """(G_{p-k} mod p)_p for k >= 2; primes p <= k are undefined."""
    if k < 2:
        raise DomainError("G_A needs k >= 2")
    return _from_records(window, lambda ctx: ctx.greg.value(ctx.p - k),
                         fixed=lambda p: UNDEFINED if p <= k else None)


def Z_A(k: int, window: PrimeRange) -> AdeleElement:
    """(B_{p-k}/k mod p)_p for k >= 2; primes p <= k are undefined."""
    if k < 2:
        raise DomainError("Z_A needs k >= 2")
    return _from_records(window, lambda ctx: ctx.bern.values[ctx.p - k] * pow(k, -1, ctx.p),
                         fixed=lambda p: UNDEFINED if p <= k else None)
