"""Low-level per-prime kernels: pure-Python reference implementations plus
optional numba-compiled twins.

The numba path is a pure accelerator: identical semantics, used only where
the intermediate products provably fit in unsigned 64-bit words (bounds are
checked per call), and every compiled kernel keeps its Python twin so the two
can be cross-tested. With numba absent everything still works, just slower.
`bell_mod` and `gertsch_wilson_scan` have no compiled twin: their Python
route is O(p) per prime.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd, isqrt

from .errors import InvariantViolation

try:
    import numba
    import numpy as np

    # workqueue is always available and the scans are embarrassingly
    # parallel; avoids probing TBB/OMP layers that may be absent or stale
    numba.config.THREADING_LAYER = "workqueue"
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

_U63 = 1 << 63

# Largest modulus m such that f*n stays below 2^63 for f < m, n < p <= m.
# Callers pass moduli p^e; the products in the factorial-style loops are
# bounded by m * p, so the guard is m * p < 2^63.


def _fits(m: int, p: int) -> bool:
    return m * p < _U63


# ---------------------------------------------------------------------------
# Pure-Python reference kernels

def factorial_mod_py(k: int, m: int) -> int:
    f = 1 % m
    for n in range(2, k + 1):
        f = f * n % m
    return f


def kurepa_mod_py(p: int, m: int) -> int:
    """sum_{n=0}^{p-1} n! mod m by incremental products."""
    f = 1 % m
    s = f
    for n in range(1, p):
        f = f * n % m
        s += f
    return s % m


def kurepa_gf_mod_py(p: int) -> int:
    """sum_{k=0}^{p-1} (-1)^k (k+1)(k+2)...(p-1) mod p.

    The falling-product rewrite of sum (-1)^(k+1)/k! in GF(p); an independent
    route to the same residue as kurepa_mod(p, 1).
    """
    prod = 1  # empty product at k = p-1
    s = prod if (p - 1) % 2 == 0 else p - prod
    for k in range(p - 2, -1, -1):
        prod = prod * (k + 1) % p
        s += prod if k % 2 == 0 else p - prod
    return s % p


def bell_seq_mod_py(n: int, m: int) -> list[int]:
    """Bell_0..Bell_n mod m via the Aitken triangle (O(n^2), one row kept)."""
    out = [1 % m]
    row = [1 % m]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append((new[-1] + x) % m)
        row = new
        out.append(row[0])
    return out


def bell_mod_py(n: int, m: int) -> int:
    """Bell_n mod m from the Aitken triangle: O(n^2), valid for every m."""
    return bell_seq_mod_py(n, m)[n]


def _bell_stirling_mod(n: int, m: int, fact_n: int) -> int:
    """Bell_n mod m = sum_{j=1..n} (j^n / j!) * D_{n-j}, D_t = sum_{i<=t} (-1)^i / i!.

    The finite explicit-Stirling sum; needs n >= 1 and fact_n = n! mod m a
    unit. O(n) multiplies plus one pow per prime j <= n.
    """
    inv_fact = [0] * (n + 1)
    x = pow(fact_n, -1, m)
    for i in range(n, 0, -1):
        inv_fact[i] = x
        x = x * i % m
    inv_fact[0] = x
    # each term is below m, so the prefix sums stay small unreduced
    d = list(accumulate(x if i % 2 == 0 else -x for i, x in enumerate(inv_fact)))
    # smallest prime factor of j (0 for primes): j^n = q^n * (j/q)^n
    spf = [0] * (n + 1)
    for i in range(isqrt(n), 1, -1):
        spf[i * i::i] = [i] * len(range(i * i, n + 1, i))
    pw = [0, 1 % m] + [0] * (n - 1)
    for j in range(2, n + 1):
        q = spf[j]
        pw[j] = pw[q] * pw[j // q] % m if q else pow(j, n, m)
    return sum(pw[j] * inv_fact[j] * d[n - j] for j in range(1, n + 1)) % m


def inverse_table_py(p: int) -> list[int]:
    """inv[1..p-1] mod p (inv[0] is a placeholder 0)."""
    inv = [0] * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - p // i) * inv[p % i] % p
    return inv


def bernoulli_table_mod_py(p: int) -> list[int]:
    """B_0..B_{p-2} mod p via n*B_{n-1} + 1 + sum C(n,j) B_j = 0.

    Every division is by an integer < p, hence invertible; O(p^2).
    """
    inv = inverse_table_py(p)
    table = [0] * (p - 1)
    table[0] = 1 % p
    if p > 2:
        table[1] = (p - inv[2]) % p
    for idx in range(2, p - 1):
        if idx % 2 == 1:
            continue
        n = idx + 1
        s = 1
        c = 1  # C(n, j), updated multiplicatively
        for j in range(1, n - 1):
            c = c * ((n - j + 1) % p) % p * inv[j] % p
            if table[j]:
                s = (s + c * table[j]) % p
        table[idx] = (p - s) * inv[n % p] % p if n % p else 0
    return table


def gregory_table_mod_py(p: int) -> list[int]:
    """G_0..G_{p-2} mod p via the convolution recurrence (denominators < p)."""
    inv = inverse_table_py(p)
    table = [0] * (p - 1)
    table[0] = 1 % p
    for n in range(1, p - 1):
        g = 0
        for k in range(1, n + 1):
            t = inv[k + 1] * table[n - k] % p
            g = (g + t) if k % 2 == 1 else (g - t)
        table[n] = g % p
    return table


def stirling2_row_mod_py(n: int, m: int) -> list[int]:
    """S(n,0)..S(n,n) mod m."""
    row = [1 % m]
    for r in range(1, n + 1):
        new = [0] * (r + 1)
        for k in range(1, r + 1):
            prev = row[k] if k < r else 0
            new[k] = (k * prev + row[k - 1]) % m
        row = new
    return row


def kurepa_scan_py(primes) -> list[int]:
    return [kurepa_mod_py(p, p) for p in primes]


def wilson_scan_py(primes) -> list[int]:
    """W_p mod p for each prime: ((p-1)! + 1)/p via (p-1)! mod p^2."""
    out = []
    for p in primes:
        f = factorial_mod_py(p - 1, p * p)
        if (f + 1) % p:
            raise InvariantViolation(f"Wilson congruence failed at {p}")
        out.append((f + 1) // p % p)
    return out


def gertsch_quotient(p: int, k2: int, b2: int) -> int:
    """Gertsch_p mod p = ((!p - Bell_{p-1} + 1) mod p^2) / p, from k2 = !p
    and b2 = Bell_{p-1} mod p^2.

    The numerator is divisible by p for every odd prime (the !p = Bell - 1
    congruence); a failure signals a composite input or a kernel bug.
    """
    num = (k2 - b2 + 1) % (p * p)
    if num % p:
        raise InvariantViolation(f"Gertsch numerator not divisible by {p}")
    return num // p


def gertsch_wilson_scan_py(primes) -> tuple[list[int], list[int]]:
    """(Gertsch_p mod p, W_p mod p) per prime, via mod-p^2 kernels."""
    gs = [gertsch_quotient(p, kurepa_mod_py(p, p * p), bell_mod(p - 1, p * p))
          for p in primes]
    return gs, wilson_scan_py(primes)


# ---------------------------------------------------------------------------
# numba twins

if HAVE_NUMBA:
    _jit = numba.njit(cache=True, nogil=True)

    @_jit
    def _nb_factorial_mod(k, m):
        f = 1 % m
        for n in range(2, k + 1):
            f = f * n % m
        return f

    @_jit
    def _nb_kurepa_mod(p, m):
        f = 1 % m
        s = f
        for n in range(1, p):
            f = f * n % m
            s = (s + f) % m
        return s

    @_jit
    def _nb_kurepa_gf_mod(p):
        prod = 1
        s = prod if (p - 1) % 2 == 0 else p - prod
        for k in range(p - 2, -1, -1):
            prod = prod * (k + 1) % p
            s = (s + (prod if k % 2 == 0 else p - prod)) % p
        return s % p

    @_jit
    def _nb_bell_seq_mod(n, m):
        out = np.empty(n + 1, dtype=np.uint64)
        out[0] = 1 % m
        row = np.empty(n + 1, dtype=np.uint64)
        row[0] = 1 % m
        length = 1
        for i in range(1, n + 1):
            carry = row[length - 1]
            for j in range(length):
                nxt = (carry + row[j]) % m
                row[j] = carry
                carry = nxt
            row[length] = carry
            length += 1
            out[i] = row[0]
        return out

    @_jit
    def _nb_inverse_table(p):
        inv = np.zeros(p, dtype=np.uint64)
        inv[1] = 1
        for i in range(2, p):
            inv[i] = (p - p // i) * inv[p % i] % p
        return inv

    @_jit
    def _nb_bernoulli_table_mod(p):
        inv = _nb_inverse_table(p)
        table = np.zeros(p - 1, dtype=np.uint64)
        table[0] = 1 % p
        if p > 2:
            table[1] = (p - inv[2]) % p
        for idx in range(2, p - 1):
            if idx % 2 == 1:
                continue
            n = idx + 1
            s = 1
            c = 1
            for j in range(1, n - 1):
                c = c * ((n - j + 1) % p) % p * inv[j] % p
                if table[j]:
                    s = (s + c * table[j]) % p
            table[idx] = (p - s) * inv[n % p] % p
        return table

    @_jit
    def _nb_gregory_table_mod(p):
        inv = _nb_inverse_table(p)
        table = np.zeros(p - 1, dtype=np.uint64)
        table[0] = 1 % p
        for n in range(1, p - 1):
            g = 0
            for k in range(1, n + 1):
                t = inv[k + 1] * table[n - k] % p
                if k % 2 == 1:
                    g = (g + t) % p
                else:
                    g = (g + p - t) % p
            table[n] = g
        return table

    @_jit
    def _nb_stirling2_row_mod(n, m):
        row = np.zeros(n + 1, dtype=np.uint64)
        new = np.zeros(n + 1, dtype=np.uint64)
        row[0] = 1 % m
        length = 1
        for r in range(1, n + 1):
            new[0] = 0
            for k in range(1, r + 1):
                prev = row[k] if k < r else 0
                new[k] = (k * prev + row[k - 1]) % m
            for k in range(r + 1):
                row[k] = new[k]
            length = r + 1
        return row[:length]

    # The scan kernels are deliberately sequential (no prange): they release
    # the GIL, and callers parallelize by sharding primes across threads.
    # Mixing prange with caller threads is unsafe on the workqueue layer.

    @_jit
    def _nb_kurepa_scan(ps):
        out = np.empty(ps.shape[0], dtype=np.uint64)
        for i in range(ps.shape[0]):
            out[i] = _nb_kurepa_mod(ps[i], ps[i])
        return out

    @_jit
    def _nb_wilson_scan(ps):
        out = np.empty(ps.shape[0], dtype=np.uint64)
        for i in range(ps.shape[0]):
            p = ps[i]
            f = _nb_factorial_mod(p - 1, p * p)
            out[i] = (f + 1) // p % p
        return out


# ---------------------------------------------------------------------------
# Dispatchers (fast=None means auto: numba when present and in-bounds)

def _use_fast(fast, m: int, p: int) -> bool:
    if fast is False or not HAVE_NUMBA:
        return False
    return _fits(m, p)


def factorial_mod(k: int, m: int, fast=None) -> int:
    if _use_fast(fast, m, k + 1):
        return int(_nb_factorial_mod(k, m))
    return factorial_mod_py(k, m)


def kurepa_mod(p: int, m: int, fast=None) -> int:
    if _use_fast(fast, m, p):
        return int(_nb_kurepa_mod(p, m))
    return kurepa_mod_py(p, m)


def kurepa_gf_mod(p: int, fast=None) -> int:
    if _use_fast(fast, p, p):
        return int(_nb_kurepa_gf_mod(p))
    return kurepa_gf_mod_py(p)


def bell_mod(n: int, m: int, fast=None) -> int:
    """Bell_n mod m: the O(n) explicit-Stirling sum when n! is a unit mod m
    (n = p-1, m = p^e for an odd prime p), else the O(n^2) triangle."""
    if n == 0:
        return 1 % m
    f = factorial_mod_py(n, m)
    if gcd(f, m) != 1:
        return bell_mod_py(n, m)
    return _bell_stirling_mod(n, m, f)


def bell_seq_mod(n: int, m: int, fast=None) -> list[int]:
    if (fast is not False) and HAVE_NUMBA and m < _U63 and n >= 1:
        return [int(x) for x in _nb_bell_seq_mod(n, m)]
    return bell_seq_mod_py(n, m)


def bernoulli_table_mod(p: int, fast=None) -> list[int]:
    if _use_fast(fast, p, p):
        return [int(x) for x in _nb_bernoulli_table_mod(p)]
    return bernoulli_table_mod_py(p)


def gregory_table_mod(p: int, fast=None) -> list[int]:
    if _use_fast(fast, p, p):
        return [int(x) for x in _nb_gregory_table_mod(p)]
    return gregory_table_mod_py(p)


def stirling2_row_mod(n: int, m: int, fast=None) -> list[int]:
    if _use_fast(fast, m, n + 1) and n >= 1:
        return [int(x) for x in _nb_stirling2_row_mod(n, m)]
    return stirling2_row_mod_py(n, m)


def inverse_table(p: int, fast=None) -> list[int]:
    if _use_fast(fast, p, p):
        return [int(x) for x in _nb_inverse_table(p)]
    return inverse_table_py(p)


def kurepa_scan(primes: list[int], fast=None) -> list[int]:
    if (fast is not False) and HAVE_NUMBA and primes and _fits(primes[-1], primes[-1]):
        ps = np.asarray(primes, dtype=np.uint64)
        return [int(x) for x in _nb_kurepa_scan(ps)]
    return kurepa_scan_py(primes)


def wilson_scan(primes: list[int], fast=None) -> list[int]:
    if (fast is not False) and HAVE_NUMBA and primes \
            and _fits(primes[-1] ** 2, primes[-1]):
        ps = np.asarray(primes, dtype=np.uint64)
        return [int(x) for x in _nb_wilson_scan(ps)]
    return wilson_scan_py(primes)


def gertsch_wilson_scan(primes: list[int], fast=None) -> tuple[list[int], list[int]]:
    return gertsch_wilson_scan_py(primes)
