"""Fast per-prime residue kernels at modulus p^e.

Each operation is pure and independent per prime; division-by-p steps always
verify divisibility first and raise InvariantViolation otherwise, so a wrong
quotient can never silently poison a downstream table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels, config
from .errors import CapacityError, DomainError, InvariantViolation
from .modmath import UNDEFINED, Residue, is_prime, mod_inv

__all__ = [
    "kurepa_mod",
    "kurepa_gf_mod",
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


def factorial_mod(k: int, m: int) -> int:
    """k! mod m."""
    return _kernels.factorial_mod(k, m)


def kurepa_mod(p: int, e: int = 1) -> Residue:
    """!p mod p^e (e in {1,2,3}) from the block kernel on a one-prime block."""
    if e not in (1, 2, 3):
        raise DomainError(f"modulus power must be 1, 2 or 3, got {e}")
    if not is_prime(p):
        raise DomainError(f"prime required, got {p}")
    return Residue(_kernels._factorial_columns([p], e)[1][0], p ** e)


def kurepa_gf_mod(p: int) -> Residue:
    """!p mod p by the alternating falling-product form (internal oracle).

    In GF(p), 1/k! = -(k+1)(k+2)...(p-1) by Wilson, which turns the
    factorial sum into sum_{k} (-1)^k (k+1)...(p-1); an independent O(p)
    route used to cross-check kurepa_mod.
    """
    _require_odd_prime(p)
    return Residue(_kernels.kurepa_gf_mod(p), p)


def bell_mod(n: int, m: int, cap: int = config.BELL_MOD_CAP) -> Residue:
    """Bell_n mod m: O(n) by the explicit Stirling sum when n! is a unit mod m
    (n = p-1, m = p^e), else read from `bell_sequence_mod`; O(n) memory."""
    if n < 0:
        raise DomainError("bell needs n >= 0")
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    if n > cap:
        raise CapacityError(f"bell_mod capped at n <= {cap} (asked {n})")
    return Residue(_kernels.bell_mod(n, m), m)


def bell_sequence_mod(n: int, m: int, cap: int = config.BELL_MOD_CAP) -> list[int]:
    """Bell_0..Bell_n mod m: Bell_k = k! [x^k] of exp(e^x - 1) by series
    products while k! is a unit mod m, then Bell_{r+1} = sum_k C(r,k) Bell_k
    at O(r) per value (the Touchard window Bell_p..Bell_{p+6} mod p, say)."""
    if n < 0:
        raise DomainError("bell needs n >= 0")
    if n > cap:
        raise CapacityError(f"bell_sequence_mod capped at n <= {cap} (asked {n})")
    return _kernels.bell_seq_mod(n, m)


def derangement_mod(n: int, p: int) -> Residue:
    """Der_n mod p via D_k = k*D_{k-1} + (-1)^k."""
    if n < 0:
        raise DomainError("derangement needs n >= 0")
    d = 1 % p
    for k in range(1, n + 1):
        d = (k * d + (1 if k % 2 == 0 else p - 1)) % p
    return Residue(d, p)


def wilson_quotient_mod(p: int, e: int = 1) -> Residue:
    """W_p mod p^e from (p-1)! mod p^(e+1); asserts Wilson's congruence.

    A failed Wilson check means the input was not prime.
    """
    _require_odd_prime(p)
    if e not in (1, 2):
        raise DomainError(f"modulus power must be 1 or 2, got {e}")
    return Residue(_wilson_quotient(p, e), p ** e)


def _wilson_quotient(p: int, e: int) -> int:
    f = _kernels._factorial_columns([p], e + 1)[0][0]
    return _kernels.wilson_quotient(p, f)


def fermat_quotient_mod(p: int, a: int, e: int = 1) -> Residue:
    """q_p(a) = (a^(p-1) - 1)/p reduced mod p^e; O(log p)."""
    if not is_prime(p):
        raise DomainError(f"prime required, got {p}")
    if a % p == 0:
        raise DomainError(f"p must not divide a (p={p}, a={a})")
    m = p ** (e + 1)
    t = pow(a, p - 1, m)
    if (t - 1) % p:
        raise InvariantViolation(f"Fermat congruence failed at ({a}, {p})")
    return Residue((t - 1) // p, p ** e)


def _fermat_quotient_sum(p: int, s: int, e: int) -> int:
    """sum_a q_p(a) mod p^e from s = sum_a a^(p-1) mod p^(e+1), by
    sum_a a^(p-1) = p-1 + p * sum_a q_p(a)."""
    num = (s - (p - 1)) % p ** (e + 1)
    if num % p:
        raise InvariantViolation(f"Fermat power sum != p-1 mod {p}")
    return num // p


def lerch_quotient_mod(p: int) -> Residue:
    """L_p mod p: (sum_a q_p(a) - W_p)/p, both taken mod p^2.

    sum_a q_p(a) mod p^2 comes from sum_a a^(p-1) = p-1 + p * sum_a q_p(a)
    (mod p^3).
    """
    _require_odd_prime(p)
    m2 = p * p
    qsum = _fermat_quotient_sum(p, int(power_sum_mod(p, 3)), 2)
    num = (qsum - _wilson_quotient(p, 2)) % m2
    if num % p:
        raise InvariantViolation(f"Lerch numerator not divisible by {p}")
    return Residue(num // p, p)


def gertsch_quotient_mod(p: int, cap: int = config.BELL_MOD_CAP) -> Residue:
    """Gertsch_p mod p = ((!p - Bell_{p-1} + 1) mod p^2) / p."""
    _require_odd_prime(p)
    if p - 1 > cap:
        raise CapacityError(f"gertsch_quotient_mod capped at p <= {cap + 1}")
    k2 = _kernels._factorial_columns([p], 2)[1][0]
    return Residue(_kernels.gertsch_quotient(
        p, k2, _kernels.bell_mod(p - 1, p * p)), p)


# ---------------------------------------------------------------------------
# Bernoulli / Gregory residue tables

@dataclass(frozen=True)
class BernoulliModTable:
    """B_0..B_{p-2} mod p (length p-1)."""

    p: int
    values: tuple[int, ...]

    def value(self, k: int) -> int:
        return self.values[k]

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class GregoryModTable:
    """G_1..G_{p-2} mod p (length p-2); abs(n) gives |G_n| = (-1)^(n-1) G_n."""

    p: int
    values: tuple[int, ...]

    def value(self, n: int) -> int:
        if not 1 <= n <= self.p - 2:
            raise DomainError(f"Gregory table index out of range: {n}")
        return self.values[n - 1]

    def abs(self, n: int) -> int:
        v = self.value(n)
        return v if n % 2 == 1 else (self.p - v) % self.p

    def __len__(self):
        return len(self.values)


def bernoulli_mod_table(p: int, cap: int = config.BERNOULLI_MOD_CAP) -> BernoulliModTable:
    """B_k mod p for 0 <= k <= p-2 from the power-series inverse of
    (e^x - 1)/x, by Newton iteration over big-int series products."""
    _require_odd_prime(p)
    if p < 5:
        raise DomainError("bernoulli_mod_table needs p >= 5")
    if p > cap:
        raise CapacityError(f"bernoulli_mod_table capped at p <= {cap} (asked {p})")
    return BernoulliModTable(p, tuple(_kernels.bernoulli_table_mod(p)))


def gregory_mod_table(p: int, cap: int = config.BERNOULLI_MOD_CAP) -> GregoryModTable:
    """G_n mod p for 1 <= n <= p-2 (denominators k+1 <= p-1 are invertible)."""
    _require_odd_prime(p)
    if p > cap:
        raise CapacityError(f"gregory_mod_table capped at p <= {cap} (asked {p})")
    return GregoryModTable(p, tuple(_kernels.gregory_table_mod(p)[1:]))


def bernoulli_mod(p: int, k: int, cap: int = config.BERNOULLI_MOD_CAP) -> int:
    """B_k mod p for 0 <= k <= p-2."""
    if not 0 <= k <= p - 2:
        raise DomainError(f"bernoulli_mod needs 0 <= k <= p-2, got k={k}")
    if p < 5:
        return _small_bern(p)[k]
    return bernoulli_mod_table(p, cap).values[k]


def stirling2_row_mod(n: int, m: int) -> list[int]:
    """S(n,0)..S(n,n) mod m."""
    return _kernels.stirling2_row_mod(n, m)


# ---------------------------------------------------------------------------
# Truncated Bernoulli sums

@dataclass(frozen=True)
class BernoulliIndexSums:
    """The three truncated Bernoulli-over-index sums tied to W_p mod p:

        alternating = 1 + sum_{k=1}^{p-2} (-1)^k B_k/k  == W_p + 2   (mod p)
        plain       = 1 + sum_{k=1}^{p-2}        B_k/k  == W_p + 1   (mod p)
        even        = sum B_{2m}/(2m), m <= (p-3)/2     == W_p + 1/2 (mod p)
    """

    p: int
    alternating: Residue
    plain: Residue
    even: Residue


def _bern_table_vals(p, table):
    if table is not None:
        if table.p != p:
            raise DomainError("Bernoulli table is for a different prime")
        return table.values
    return tuple(_kernels.bernoulli_table_mod(p)) if p >= 5 else _small_bern(p)


def _small_bern(p):
    # p == 3: only B_0, B_1 are needed
    return (1 % p, (p - mod_inv(2, p).value) % p)


def bernoulli_index_sums(p: int,
                         table: Optional[BernoulliModTable] = None) -> BernoulliIndexSums:
    _require_odd_prime(p)
    vals = _bern_table_vals(p, table)
    inv = _kernels.inverse_table(p)
    alt = 0   # sum (-1)^k B_k/k, k >= 1
    plain = 0
    even = 0
    for k in range(1, p - 1):
        if not vals[k]:
            continue
        t = vals[k] * inv[k] % p
        plain = (plain + t) % p
        alt = (alt - t) % p if k % 2 == 1 else (alt + t) % p
        if k % 2 == 0:
            even = (even + t) % p
    return BernoulliIndexSums(
        p=p,
        alternating=Residue(1 + alt, p),
        plain=Residue(1 + plain, p),
        even=Residue(even, p),
    )


def bernoulli_factorial_sum_mod(p: int, table: Optional[BernoulliModTable] = None) -> Residue:
    """sum_{k=0}^{p-2} (-1)^k B_k/k! mod p (factorial weights).

    This is the multiplier whose product with !p equals
    bernoulli_left_factorial_sum_mod; it is NOT congruent to W_p + 2 (the
    index-weighted sum is).
    """
    _require_odd_prime(p)
    vals = _bern_table_vals(p, table)
    inv = _kernels.inverse_table(p)
    s = 1 % p
    inv_fact = 1
    for k in range(1, p - 1):
        inv_fact = inv_fact * inv[k] % p
        if not vals[k]:
            continue
        t = vals[k] * inv_fact % p
        s = (s - t) % p if k % 2 == 1 else (s + t) % p
    return Residue(s, p)


def bernoulli_left_factorial_sum_mod(p: int,
                                     table: Optional[BernoulliModTable] = None) -> Residue:
    """sum_{m=1}^{(p-3)/2} (B_{2m}/(2m)!) * (!(2m) - 1) mod p."""
    _require_odd_prime(p)
    if p < 5:
        raise DomainError("bernoulli_left_factorial_sum_mod needs p >= 5")
    vals = _bern_table_vals(p, table)
    inv = _kernels.inverse_table(p)
    # left factorials !j mod p, incremental
    lf = [0] * p
    f = 1
    for j in range(1, p):
        lf[j] = (lf[j - 1] + f) % p
        f = f * j % p
    s = 0
    inv_fact = 1
    for k in range(1, p - 1):
        inv_fact = inv_fact * inv[k] % p
        if k % 2 == 0 and k <= p - 3 and vals[k]:
            s = (s + vals[k] * inv_fact % p * ((lf[k] - 1) % p)) % p
    return Residue(s, p)


# ---------------------------------------------------------------------------
# Agoh-Giuga family

def agoh_giuga_mod(p: int) -> Residue:
    """AG_p mod p.

    Fast path (all p): W_p + 1, via the Glaisher congruence
    W_p = B_{p-1} + 1/p - 1 (mod p). For p within the exact-Bernoulli cap
    the rational (p*B_{p-1}+1)/p is also reduced mod p and the two must agree.
    """
    _require_odd_prime(p)
    fast = (int(wilson_quotient_mod(p)) + 1) % p
    if p - 1 <= config.EXACT_BERNOULLI_CAP:
        from .exact import agoh_giuga_exact
        from .modmath import fraction_residue
        exact_r = fraction_residue(agoh_giuga_exact(p), p)
        if int(exact_r) != fast:
            raise InvariantViolation(
                f"AG_{p}: exact path {int(exact_r)} != Wilson path {fast}")
    return Residue(fast, p)


def special_quotient_mod(p: int, m: int) -> Residue:
    """Q_p(m) = AG_p + q_p(m) mod p."""
    if m % p == 0:
        raise DomainError(f"p must not divide m (p={p}, m={m})")
    return agoh_giuga_mod(p) + fermat_quotient_mod(p, m)


# ---------------------------------------------------------------------------
# Bell/Wilson sum column

FRACTIONAL = UNDEFINED  # same marker: p does not divide Bell_{p-1}


def bell_wilson_sum_mod(p: int, cap: int = config.BELL_MOD_CAP):
    """(Bell_{p-1}/p + W_p) mod p when p | Bell_{p-1}; FRACTIONAL otherwise."""
    _require_odd_prime(p)
    if p - 1 > cap:
        raise CapacityError(f"bell_wilson_sum_mod capped at p <= {cap + 1}")
    m2 = p * p
    b2 = _kernels.bell_mod(p - 1, m2)
    if b2 % p:
        return FRACTIONAL
    return Residue(b2 // p + int(wilson_quotient_mod(p)), p)


# ---------------------------------------------------------------------------
# Harmonic and Bell-alternating sums

def harmonic_mod(p: int, n: int, k: int) -> Residue:
    """Generalized harmonic number H_n^(k) = sum_{m=1}^{n} 1/m^k mod p."""
    if not 1 <= n <= p - 1:
        raise DomainError(f"harmonic_mod needs 1 <= n <= p-1, got n={n}")
    inv = _kernels.inverse_table(p)
    s = 0
    for m in range(1, n + 1):
        s = (s + pow(inv[m], k, p)) % p
    return Residue(s, p)


def sun_zagier_sum(p: int, m: int,
                   bell_seq: Optional[list[int]] = None) -> Residue:
    """sum_{0<k<p} Bell_k / (-m)^k mod p; equals (-1)^(m-1) Der_{m-1}."""
    _require_odd_prime(p)
    if m % p == 0:
        raise DomainError(f"p must not divide m (p={p}, m={m})")
    if bell_seq is None:
        bell_seq = bell_sequence_mod(p - 1, p)
    inv = mod_inv(-m, p).value
    s = 0
    t = 1
    for k in range(1, p):
        t = t * inv % p
        s = (s + bell_seq[k] * t) % p
    return Residue(s, p)


def power_sum_mod(p: int, e: int = 2) -> Residue:
    """sum_{a=1}^{p-1} a^(p-1) mod p^e."""
    m = p ** e
    s = 0
    for a in range(1, p):
        s = (s + pow(a, p - 1, m)) % m
    return Residue(s, m)


# ---------------------------------------------------------------------------
# Full per-prime profile

@dataclass(frozen=True)
class ResidueProfile:
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
        return {
            "p": self.p, "e": self.e, "k_mod": self.k_mod,
            "bell_mod": self.bell_mod, "der_mod": self.der_mod,
            "wilson_q": self.wilson_q, "gertsch_q": self.gertsch_q,
            "fermat_q2": self.fermat_q2, "fermat_q3": self.fermat_q3,
            "lerch_q": self.lerch_q, "ag_q": self.ag_q,
            "bernoulli_sums": list(self.bernoulli_sums),
        }


def residue_profile(p: int, e: int = 1,
                    bell_cap: int = config.BELL_MOD_CAP,
                    bern_cap: int = config.BERNOULLI_MOD_CAP) -> ResidueProfile:
    _require_odd_prime(p)
    table = bernoulli_mod_table(p, bern_cap) if p >= 5 else None
    sums = bernoulli_index_sums(p, table)
    return ResidueProfile(
        p=p,
        e=e,
        k_mod=int(kurepa_mod(p, e)),
        bell_mod=int(bell_mod(p - 1, p ** e, cap=bell_cap)),
        der_mod=int(derangement_mod(p - 1, p)),
        wilson_q=int(wilson_quotient_mod(p)),
        gertsch_q=int(gertsch_quotient_mod(p, cap=bell_cap)),
        fermat_q2=int(fermat_quotient_mod(p, 2)),
        fermat_q3=int(fermat_quotient_mod(p, 3)) if p != 3 else None,
        lerch_q=int(lerch_quotient_mod(p)),
        ag_q=int(agoh_giuga_mod(p)),
        bernoulli_sums=(int(sums.alternating), int(sums.plain), int(sums.even)),
    )
