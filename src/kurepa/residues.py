"""Fast per-prime residue kernels at modulus p^e.

`PrimeContext` is the one route to every residue at one prime: it checks
that p is an odd prime once, builds each base value once, and derives the
rest by reduction. The public per-prime functions check their arguments and
read one of its fields from `_record`, which keeps the lone record in the
memo `_records`: consecutive calls at one prime and one pair of `config` caps
share it, so `residue_profile(p, e)` for e = 1, 2, 3 and then
`gregory_mod_table(p)` build each value once. `prime_contexts` streams the
records of a window from one block-kernel pass and never touches that memo.
A record holds values at its own prime only; the Kurepa zeros below p that
check C25 reads come from `search.kurepa_zeros`, which this module does not
import. Division-by-p steps always verify divisibility first and raise
InvariantViolation otherwise, so a wrong quotient can never silently poison
a downstream table.

Records share one value, p's Gregory table G_1..G_{p-2} mod p, which the
catalog (C18, C19) and the adele constants `gamma_M` and `G_A(k)` each read
from their own window of records. The memo `_gregory_tables` keeps it by p,
at most `config.BERNOULLI_MOD_CAP` cells in all: a table that would go past
that is returned but not kept, and nothing is evicted, so a scan over more
primes than fit keeps its first part instead of thrashing.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import accumulate, repeat
from operator import floordiv, mod, mul
from typing import Iterable, Iterator, NamedTuple, Optional

from . import _kernels, config, exact
from ._memo import Memo
from .errors import CapacityError, DomainError, InvariantViolation
from .modmath import UNDEFINED, Residue, _Frozen, fraction_residue, is_prime

__all__ = [
    "PrimeContext",
    "prime_contexts",
    "kurepa_mod",
    "bell_mod",
    "bell_sequence_mod",
    "derangement_mod",
    "factorial_mod",
    "wilson_quotient_mod",
    "fermat_quotient_mod",
    "lerch_quotient_mod",
    "gertsch_quotient_mod",
    "BernoulliModTable",
    "bernoulli_mod_table",
    "GregoryModTable",
    "gregory_mod_table",
    "BernoulliIndexSums",
    "bernoulli_index_sums",
    "bernoulli_factorial_sum_mod",
    "bernoulli_left_factorial_sum_mod",
    "agoh_giuga_mod",
    "special_quotient_mod",
    "FRACTIONAL",
    "bell_wilson_sum_mod",
    "harmonic_mod",
    "sun_zagier_sum",
    "stirling2_row_mod",
    "power_sum_mod",
    "ResidueProfile",
    "residue_profile",
]


def _require_odd_prime(p: int):
    if p < 3 or not is_prime(p):
        raise DomainError(f"odd prime required, got {p}")


# ---------------------------------------------------------------------------
# One prime: the residue record

class PrimeContext:
    """Every residue at one odd prime p, each built once, on first use.

    The constructor checks once that p is an odd prime. The base values are
    ((p-1)!, !p) mod p^3 from one block-kernel call (`prime_contexts` makes
    one for a whole window), the exact !p, !(p+1) and p! that the catalog's
    exact checks read, and k!, 1/k! mod p for k < p from one
    `_kernels._factorials` call, which the four mod-p tables, the inverses
    and Der_{p-1} read; every quotient reduces them mod p^e. The powers
    j^(p-1) and Bell_{p-1}, which inverts the column's (p-1)! instead of
    building it again, are built once, mod p^3, and every p^2 value
    (Gertsch, Lerch, the Fermat-quotient sum, Bell at e = 2) is read off
    them: one power table and one Bell_{p-1} per record. Mod p, Fermat
    makes every j^(p-1) = 1, so Bell_{p-1} mod p needs no power table
    (`bell1`); the Bell-Wilson sum reads it and builds the p^3 value only
    when p | Bell_{p-1}. Bell is capped at p - 1 <= `config.BELL_MOD_CAP`
    and the tables at p <= `config.BERNOULLI_MOD_CAP`, both read once, when
    the record is made. Every value is a value at p: nothing here reads
    or keeps another prime's residues, except `greg`: after the cap check it
    reads p's table from the memo `_gregory_tables`, and only on a miss
    builds it (and `factorials`) and offers it to the memo. A failed check
    or cap stores nothing: it raises again on the next read.
    """

    def __init__(self, p: int):
        _require_odd_prime(p)
        self.p = p
        self.bell_cap, self.bern_cap = config.BELL_MOD_CAP, config.BERNOULLI_MOD_CAP
        self._agoh_even = {}  # E(y) of `agoh_sum`, by y = x^2 mod p

    # -- base values, built once

    @cached_property
    def columns(self) -> tuple[int, int]:
        """((p-1)! mod p^3, !p mod p^3) from one block-kernel call."""
        fs, ks = _kernels._factorial_columns([self.p], 3)
        return fs[0], ks[0]

    # The power table is a tuple: several readers share it.

    @cached_property
    def powers3(self) -> tuple[int, ...]:
        """(j^(p-1) mod p^3 for j = 0..p-1)."""
        return tuple(_kernels._powers(self.p - 1, self.p - 1, self.p ** 3))

    @cached_property
    def bell3(self) -> int:
        """Bell_{p-1} mod p^3."""
        p = self.p
        _require_cap("Bell_(p-1): p - 1", p - 1, self.bell_cap)
        m = p ** 3
        return _kernels.bell_mod(p - 1, m, self.fact(m), self.powers3)

    @cached_property
    def bell1(self) -> int:
        """Bell_{p-1} mod p, with no power table: (p-1)! = -1 (mod p) by
        Wilson's theorem, which sends `_kernels.bell_mod` to 1 - D_{p-1}."""
        p = self.p
        _require_cap("Bell_(p-1): p - 1", p - 1, self.bell_cap)
        return _kernels.bell_mod(p - 1, p, p - 1)

    @cached_property
    def left_factorials(self) -> tuple[int, int]:
        """(!p, !(p+1)) exactly, each by its own binary splitting, so the
        exact checks of !(p+1) = !p + p! compare two independent values."""
        return exact.left_factorial(self.p), exact.left_factorial(self.p + 1)

    @cached_property
    def factorial_exact(self) -> int:
        """p! exactly, which the exact left-factorial checks share."""
        return exact.factorial(self.p)

    @cached_property
    def factorials(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """((k! mod p), (1/k! mod p)) for k = 0..p-1: every table, inverse
        and sum mod p below reads this one pair."""
        return _kernels._factorials(self.p - 1, self.p)

    @cached_property
    def bell_seq(self) -> list[int]:
        """Bell_0..Bell_{p+5} mod p, up to the Touchard window."""
        _require_cap("Bell row: p - 1", self.p - 1, self.bell_cap)
        return _kernels.bell_seq_mod(self.p + 5, self.p, self.factorials)

    @cached_property
    def inv(self) -> list[int]:
        """[0] + [1/k mod p for k = 1..p-1], 1/k = (k-1)!/k!."""
        fact, inv_fact = self.factorials
        return [0, *map(mod, map(mul, fact, inv_fact[1:]), repeat(self.p))]

    @cached_property
    def power_sum(self) -> int:
        """sum_a a^(p-1) mod p^3."""
        return sum(self.powers3) % self.p ** 3

    @cached_property
    def bern(self) -> BernoulliModTable:
        _require_cap("Bernoulli table: p", self.p, self.bern_cap)
        return BernoulliModTable(
            self.p, tuple(_kernels.bernoulli_table_mod(self.p, self.factorials)))

    @cached_property
    def greg(self) -> GregoryModTable:
        p = self.p
        _require_cap("Gregory table: p", p, self.bern_cap)
        table = _gregory_tables.get(p)
        if table is None:
            table = GregoryModTable(
                p, tuple(_kernels.gregory_table_mod(p, self.factorials)[1:]))
            with _gregory_tables.lock:  # a table held at p wins; this one is kept if it fits
                cells = sum(map(len, _gregory_tables.values()))
                if p in _gregory_tables or cells + len(table) <= config.BERNOULLI_MOD_CAP:
                    table = _gregory_tables.setdefault(p, table)
        return table

    @cached_property
    def stirling_row(self) -> list[int]:
        """S(p, 0..p) mod p."""
        return _kernels.stirling2_row_mod(self.p, self.p, self.factorials)

    # -- residues derived from them

    def fact(self, m: int) -> int:
        """(p-1)! mod m, for m dividing p^3."""
        return self.columns[0] % m

    def kurepa(self, e: int) -> int:
        """!p mod p^e, e <= 3."""
        return self.columns[1] % self.p ** e

    def bell(self, e: int) -> int:
        """Bell_{p-1} mod p^e, e <= 3: `bell1` at e = 1 until `bell3` is
        built, `bell3` reduced otherwise."""
        if e == 1 and "bell3" not in vars(self):
            return self.bell1
        return self.bell3 % self.p ** e

    @cached_property
    def wilson2(self) -> int:
        """W_p mod p^2 from (p-1)! mod p^3; asserts Wilson's congruence."""
        return _kernels.wilson_quotient(self.p, self.columns[0]) % self.p ** 2

    @cached_property
    def wilson(self) -> int:
        return self.wilson2 % self.p

    def q(self, m: int) -> int:
        """q_p(m) mod p, for p not dividing m."""
        return _fermat_quotient(self.p, m, 1)

    @cached_property
    def qsum(self) -> int:
        """sum_a q_p(a) mod p, from sum_a a^(p-1) = p-1 + p * sum_a q_p(a)
        (mod p^2)."""
        p = self.p
        num = (self.power_sum - (p - 1)) % (p * p)
        if num % p:
            raise InvariantViolation(f"Fermat power sum != p-1 mod {p}")
        return num // p

    @cached_property
    def lerch(self) -> int:
        """L_p mod p = (sum_a q_p(a) - W_p)/p.

        Expanding prod_a (1 + p q_p(a)) = prod_a a^(p-1) = ((p-1)!)^(p-1)
        = (1 - p W_p)^(p-1) mod p^3 gives
        L_p = (sum_a q_p(a)^2 + W_p^2)/2 - W_p (mod p), so q_p(a) mod p, read
        off the powers mod p^3, suffices. The numerator's divisibility by p
        is Lerch's congruence sum_a q_p(a) = W_p (mod p), checked first.
        """
        p, w = self.p, self.wilson
        if self.qsum != w:
            raise InvariantViolation(f"Lerch numerator not divisible by {p}")
        q = list(map(floordiv, self.powers3[1:], repeat(p)))  # a^(p-1) = 1 + p q
        return ((sum(map(mul, q, q)) + w * w) * ((p + 1) // 2) - w) % p

    @cached_property
    def gertsch(self) -> int:
        """Gertsch_p mod p = ((!p - Bell_{p-1} + 1) mod p^2) / p."""
        b2 = self.bell(2)  # first, so its cap check precedes the block kernel
        return _kernels.gertsch_quotient(self.p, self.kurepa(2), b2)

    @cached_property
    def ag(self) -> int:
        """AG_p mod p = W_p + 1, by the Glaisher congruence
        W_p = B_{p-1} + 1/p - 1 (mod p). For p - 1 <= config.EXACT_INDEX_CAP
        the rational (p*B_{p-1}+1)/p is also reduced mod p and the two must
        agree."""
        p = self.p
        fast = (self.wilson + 1) % p
        if p - 1 <= config.EXACT_INDEX_CAP:
            r = int(fraction_residue(exact._agoh_giuga(p), p))
            if r != fast:
                raise InvariantViolation(f"AG_{p}: exact path {r} != Wilson path {fast}")
        return fast

    @cached_property
    def bell_wilson_sum(self):
        """(Bell_{p-1}/p + W_p) mod p when p | Bell_{p-1}; FRACTIONAL
        otherwise, decided mod p, so only then is Bell_{p-1} mod p^3 built."""
        if self.bell(1):
            return FRACTIONAL
        return (self.bell(2) // self.p + self.wilson) % self.p

    @cached_property
    def gregory_sum(self) -> int:
        """sum_{n=1}^{p-2} |G_n|/n mod p; |G_n| = (-1)^(n-1) G_n."""
        vals, inv = self.greg.values, self.inv  # vals[n-1] = G_n
        return (sum(map(mul, vals[0::2], inv[1::2]))
                - sum(map(mul, vals[1::2], inv[2::2]))) % self.p

    @cached_property
    def der(self) -> int:
        """Der_{p-1} mod p = -D_{p-1}, D_t = sum_{i<=t} (-1)^i/i!, as
        Der_n = n! D_n and (p-1)! = -1 (mod p)."""
        inv_fact = self.factorials[1]
        return (sum(inv_fact[1::2]) - sum(inv_fact[0::2])) % self.p

    @cached_property
    def bern_over_index(self) -> list[int]:
        """B_k * (1/k mod p), congruent to B_k/k, for k = 0..p-2 (0 at k = 0),
        unreduced."""
        return list(map(mul, self.bern.values, self.inv))

    @cached_property
    def bern_sums(self) -> BernoulliIndexSums:
        p = self.p
        t = self.bern_over_index
        odd, even = sum(t[1::2]), sum(t[2::2])
        return BernoulliIndexSums(p, alternating=Residue(1 + even - odd, p),
                                  plain=Residue(1 + even + odd, p), even=Residue(even, p))

    @cached_property
    def bern_factorial_sum(self) -> int:
        """sum_{k=0}^{p-2} (-1)^k B_k/k! mod p."""
        terms = [b * x for b, x in zip(self.bern.values, self.factorials[1])]
        return (sum(terms[0::2]) - sum(terms[1::2])) % self.p

    @cached_property
    def bern_left_factorial_sum(self) -> int:
        """sum_{m=1}^{(p-3)/2} (B_{2m}/(2m)!) * (!(2m) - 1) mod p."""
        p, vals = self.p, self.bern.values
        fact, inv_fact = self.factorials
        lf = list(accumulate(fact, initial=0))  # !k = sum_{j<k} j!, k <= p
        return sum(vals[k] * inv_fact[k] * (lf[k] - 1) for k in range(2, p - 2, 2)) % p

    def agoh_sum(self, m: int) -> int:
        """sum_{k=1}^{p-2} m^(-k) B_k/k mod p; at -m it is the alternating
        sum of (-1)^k m^(-k) B_k/k. The sum is 0 when p divides m.

        The odd B_k vanish past B_1, so with x = 1/m the sum is
        x B_1 + E(x^2), E(y) = sum_j y^j B_2j/(2j): a Horner pass of half
        the table's length, cached by x^2 mod p, which m and -m share.
        """
        p = self.p
        x = self.inv[m % p]
        y = x * x % p
        if y not in self._agoh_even:
            self._agoh_even[y] = _horner(self.bern_over_index[2::2], y, p)
        return (x * self.bern_over_index[1] + self._agoh_even[y]) % p

    def sun_zagier(self, m: int) -> int:
        """sum_{0<k<p} Bell_k / (-m)^k mod p, for p not dividing m."""
        p, x = self.p, pow(-m, -1, self.p)
        return _horner(self.bell_seq[1:p], x, p)


def _horner(c: list[int], x: int, p: int) -> int:
    """sum_{k>=1} c[k-1] x^k mod p."""
    s = 0
    for t in reversed(c):
        s = (s + t) * x % p
    return s


_records = Memo()  # the lone record, by (p, bell_cap, bern_cap); at most one
_gregory_tables = Memo()  # every record's Gregory table, by p


def _record(p: int) -> PrimeContext:
    """The record of a lone prime, shared with the previous call when that
    was at the same p and `config` caps, so a changed cap makes a new
    record; a miss empties `_records` before it builds."""
    key = p, config.BELL_MOD_CAP, config.BERNOULLI_MOD_CAP
    with _records.lock:
        if key not in _records:
            _records.clear()
            _records[key] = PrimeContext(p)
        return _records[key]


def prime_contexts(primes: Iterable[int]) -> Iterator[PrimeContext]:
    """The records of a window of odd primes, one at a time, in input order.

    Every prime is checked by the PrimeContext constructor before any work;
    the ((p-1)!, !p) mod p^3 columns come from one block-kernel pass. No
    record is referenced here once yielded, so its cached tables go when the
    caller drops it. The `_records` memo is neither read nor filled.
    """
    records = deque(PrimeContext(p) for p in primes)
    fs, ks = _kernels._factorial_columns([ctx.p for ctx in records], 3)
    for col in zip(fs, ks):
        records[0].columns = col
        yield records.popleft()


def factorial_mod(k: int, m: int) -> int:
    """k! mod m."""
    if k < 0:
        raise DomainError("factorial needs k >= 0")
    _require_modulus(m)
    return _kernels.factorial_mod(k, m)


def kurepa_mod(p: int, e: int = 1) -> Residue:
    """!p mod p^e (e in {1,2,3}); !2 = 0! + 1! = 2."""
    if e not in (1, 2, 3):
        raise DomainError(f"modulus power must be 1, 2 or 3, got {e}")
    if p == 2:
        return Residue(2, 2 ** e)
    return Residue(_record(p).kurepa(e), p ** e)


def bell_mod(n: int, m: int) -> Residue:
    """Bell_n mod m: O(n) by the explicit Stirling sum when n! is a unit mod m
    (n = p-1, m = p^e), else read from `bell_sequence_mod`; O(n) memory."""
    if n < 0:
        raise DomainError("bell needs n >= 0")
    _require_modulus(m)
    _require_cap("Bell_n: n", n, config.BELL_MOD_CAP)
    return Residue(_kernels.bell_mod(n, m), m)


def bell_sequence_mod(n: int, m: int) -> list[int]:
    """Bell_0..Bell_n mod m. At a prime m with n >= m - 1, Bell_0..Bell_{m-1}
    come from one chirp-z series product; otherwise Bell_k = k! [x^k] of
    exp(e^x - 1) by series products while k! is a unit mod m. Then
    Bell_{r+1} = sum_k C(r,k) Bell_k at O(r) per value (the Touchard window
    Bell_p..Bell_{p+5} mod p, say). At an odd prime m with n >= m - 1 the
    k!, 1/k! mod m pair is read from the lone record (`_record(m)`), which
    a call at another prime replaces."""
    if n < 0:
        raise DomainError("bell needs n >= 0")
    _require_modulus(m)
    _require_cap("Bell row: n", n, config.BELL_MOD_CAP)
    if m > 2 and _kernels._unit_top(n, m) == m - 1:  # m an odd prime, n >= m - 1
        return _kernels.bell_seq_mod(n, m, _record(m).factorials)
    return _kernels.bell_seq_mod(n, m)


def _require_modulus(m: int):
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")


def _require_cap(what: str, n: int, cap: int):
    if n > cap:
        raise CapacityError(f"{what} = {n} exceeds the cap {cap}")


def derangement_mod(n: int, p: int) -> Residue:
    """Der_n mod p via D_k = k*D_{k-1} + (-1)^k."""
    if n < 0:
        raise DomainError("derangement needs n >= 0")
    _require_modulus(p)
    d = 1 % p
    for k in range(1, n + 1):
        d = (k * d + (1 if k % 2 == 0 else p - 1)) % p
    return Residue(d, p)


def wilson_quotient_mod(p: int, e: int = 1) -> Residue:
    """W_p mod p^e from (p-1)! mod p^3; asserts Wilson's congruence.

    A failed Wilson check means the input was not prime.
    """
    ctx = _record(p)
    if e not in (1, 2):
        raise DomainError(f"modulus power must be 1 or 2, got {e}")
    return Residue(ctx.wilson2, p ** e)


def fermat_quotient_mod(p: int, a: int, e: int = 1) -> Residue:
    """q_p(a) = (a^(p-1) - 1)/p reduced mod p^e, e >= 1; O(log p)."""
    if not is_prime(p):
        raise DomainError(f"prime required, got {p}")
    if e < 1:
        raise DomainError(f"modulus power must be >= 1, got {e}")
    return Residue(_fermat_quotient(p, a, e), p ** e)


def _fermat_quotient(p: int, a: int, e: int) -> int:
    if a % p == 0:
        raise DomainError(f"p must not divide a (p={p}, a={a})")
    return _kernels.fermat_quotient(p, a, e)


def lerch_quotient_mod(p: int) -> Residue:
    """L_p mod p: (sum_a q_p(a) - W_p)/p, both taken mod p^2."""
    return Residue(_record(p).lerch, p)


def gertsch_quotient_mod(p: int) -> Residue:
    """Gertsch_p mod p = ((!p - Bell_{p-1} + 1) mod p^2) / p."""
    return Residue(_record(p).gertsch, p)


# ---------------------------------------------------------------------------
# Bernoulli / Gregory residue tables

class _ModTable(_Frozen):
    """A table of residues mod the prime p."""

    __slots__ = _fields = ("p", "values")

    def __init__(self, p: int, values: tuple[int, ...]):
        super().__init__(p, values)

    def __len__(self):
        return len(self.values)


class BernoulliModTable(_ModTable):
    """B_0..B_{p-2} mod p (length p-1)."""

    __slots__ = ()

    def value(self, k: int) -> int:
        if not 0 <= k <= self.p - 2:
            raise DomainError(f"Bernoulli table index out of range: {k}")
        return self.values[k]


class GregoryModTable(_ModTable):
    """G_1..G_{p-2} mod p (length p-2); abs(n) gives |G_n| = (-1)^(n-1) G_n."""

    __slots__ = ()

    def value(self, n: int) -> int:
        if not 1 <= n <= self.p - 2:
            raise DomainError(f"Gregory table index out of range: {n}")
        return self.values[n - 1]

    def abs(self, n: int) -> int:
        v = self.value(n)
        return v if n % 2 == 1 else (self.p - v) % self.p


def bernoulli_mod_table(p: int) -> BernoulliModTable:
    """B_k mod p for 0 <= k <= p-2: the even ones from y coth y =
    C(u)/S(u) in u = y^2, one series division of half the table's length
    (`_kernels._series_div`); B_1 = -1/2 and the odd ones past it are 0."""
    return _record(p).bern


def gregory_mod_table(p: int) -> GregoryModTable:
    """G_n mod p for 1 <= n <= p-2 (denominators k+1 <= p-1 are invertible)."""
    return _record(p).greg


def stirling2_row_mod(n: int, m: int) -> list[int]:
    """S(n,0)..S(n,n) mod m. At n = m an odd prime the k!, 1/k! mod m pair
    is read from the lone record (`_record(m)`), which a call at another
    prime replaces."""
    if n < 0:
        raise DomainError("stirling needs n >= 0")
    _require_modulus(m)
    if n == m > 2 and _kernels._unit_top(n - 1, m) == m - 1:  # m an odd prime
        return _kernels.stirling2_row_mod(n, m, _record(m).factorials)
    return _kernels.stirling2_row_mod(n, m)


# ---------------------------------------------------------------------------
# Truncated Bernoulli sums

class BernoulliIndexSums(NamedTuple):
    """The three truncated Bernoulli-over-index sums tied to W_p mod p:

        alternating = 1 + sum_{k=1}^{p-2} (-1)^k B_k/k  == W_p + 2   (mod p)
        plain       = 1 + sum_{k=1}^{p-2}        B_k/k  == W_p + 1   (mod p)
        even        = sum B_{2m}/(2m), m <= (p-3)/2     == W_p + 1/2 (mod p)
    """

    p: int
    alternating: Residue
    plain: Residue
    even: Residue


def bernoulli_index_sums(p: int) -> BernoulliIndexSums:
    return _record(p).bern_sums


def bernoulli_factorial_sum_mod(p: int) -> Residue:
    """sum_{k=0}^{p-2} (-1)^k B_k/k! mod p (factorial weights).

    This is the multiplier whose product with !p equals
    bernoulli_left_factorial_sum_mod; it is NOT congruent to W_p + 2 (the
    index-weighted sum is).
    """
    return Residue(_record(p).bern_factorial_sum, p)


def bernoulli_left_factorial_sum_mod(p: int) -> Residue:
    """sum_{m=1}^{(p-3)/2} (B_{2m}/(2m)!) * (!(2m) - 1) mod p."""
    ctx = _record(p)
    if p < 5:
        raise DomainError("bernoulli_left_factorial_sum_mod needs p >= 5")
    return Residue(ctx.bern_left_factorial_sum, p)


# ---------------------------------------------------------------------------
# Agoh-Giuga family

def agoh_giuga_mod(p: int) -> Residue:
    """AG_p mod p = W_p + 1, checked against exact rationals within the
    exact-Bernoulli cap (see PrimeContext.ag)."""
    return Residue(_record(p).ag, p)


def special_quotient_mod(p: int, m: int) -> Residue:
    """Q_p(m) = AG_p + q_p(m) mod p."""
    ctx = _record(p)
    if m % p == 0:
        raise DomainError(f"p must not divide m (p={p}, m={m})")
    return Residue(ctx.ag + ctx.q(m), p)


# ---------------------------------------------------------------------------
# Bell/Wilson sum column

FRACTIONAL = UNDEFINED  # same marker: p does not divide Bell_{p-1}


def bell_wilson_sum_mod(p: int):
    """(Bell_{p-1}/p + W_p) mod p when p | Bell_{p-1}; FRACTIONAL otherwise."""
    s = _record(p).bell_wilson_sum
    return s if s is FRACTIONAL else Residue(s, p)


# ---------------------------------------------------------------------------
# Harmonic and Bell-alternating sums

def harmonic_mod(p: int, n: int, k: int) -> Residue:
    """Generalized harmonic number H_n^(k) = sum_{m=1}^{n} 1/m^k mod p."""
    if not is_prime(p):
        raise DomainError(f"prime required, got {p}")
    if not 1 <= n <= p - 1:
        raise DomainError(f"harmonic_mod needs 1 <= n <= p-1, got n={n}")
    return Residue(sum(pow(m, -k, p) for m in range(1, n + 1)) % p, p)


def sun_zagier_sum(p: int, m: int) -> Residue:
    """sum_{0<k<p} Bell_k / (-m)^k mod p; equals (-1)^(m-1) Der_{m-1}."""
    ctx = _record(p)
    if m % p == 0:
        raise DomainError(f"p must not divide m (p={p}, m={m})")
    return Residue(ctx.sun_zagier(m), p)


def power_sum_mod(p: int, e: int = 2) -> Residue:
    """sum_{a=1}^{p-1} a^(p-1) mod p^e for a prime p and e >= 1, with one pow
    per prime a."""
    if not is_prime(p):
        raise DomainError(f"prime required, got {p}")
    if e < 1:
        raise DomainError(f"modulus power must be >= 1, got {e}")
    m = p ** e
    return Residue(sum(_kernels._powers(p - 1, p - 1, m)) % m, m)


# ---------------------------------------------------------------------------
# Full per-prime profile

class ResidueProfile(NamedTuple):
    """Every residue of interest at one prime, at modulus power e for the
    left-factorial/Bell pair and modulus p for the quotients."""

    p: int
    e: int
    k_mod: int           # !p mod p^e
    bell_mod: int        # Bell_{p-1} mod p^e
    der_mod: int         # Der_{p-1} mod p
    wilson_q: int        # W_p mod p
    gertsch_q: int       # Gertsch quotient mod p
    fermat_q2: int       # q_p(2) mod p
    fermat_q3: Optional[int]  # q_p(3) mod p (None at p = 3)
    lerch_q: int         # L_p mod p
    ag_q: int            # AG_p mod p
    bernoulli_sums: tuple[int, int, int]  # (alternating, plain, even) index sums mod p

    def as_dict(self) -> dict:
        return {**self._asdict(), "bernoulli_sums": list(self.bernoulli_sums)}


def residue_profile(p: int, e: int = 1) -> ResidueProfile:
    """Every field read from one PrimeContext, the one `_record` holds, which
    the next call at the same p and `config` caps reads again, so the
    profiles at e = 1, 2, 3 share its one power table and one Bell_{p-1},
    both mod p^3."""
    ctx = _record(p)
    if e not in (1, 2, 3):
        raise DomainError(f"modulus power must be 1, 2 or 3, got {e}")
    sums = ctx.bern_sums
    return ResidueProfile(
        p=p,
        e=e,
        k_mod=ctx.kurepa(e),
        bell_mod=ctx.bell(3) % p ** e,
        der_mod=ctx.der,
        wilson_q=ctx.wilson,
        gertsch_q=ctx.gertsch,
        fermat_q2=ctx.q(2),
        fermat_q3=ctx.q(3) if p != 3 else None,
        lerch_q=ctx.lerch,
        ag_q=ctx.ag,
        bernoulli_sums=(int(sums.alternating), int(sums.plain), int(sums.even)),
    )
