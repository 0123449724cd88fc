"""Low-level per-prime kernels in pure Python, plus optional numba-compiled
twins of the four O(p^2) tables.

Only the Bell-row, Bernoulli, Gregory and Stirling tables have a compiled
twin. The numba path is a pure accelerator: identical semantics, used only
where the intermediate products provably fit in unsigned 64-bit words (bounds
are checked per call), and every twin keeps its Python reference so the two
can be cross-tested. With numba absent everything still works, just slower.
`bell_mod` is O(p) per prime. (p-1)! mod p^e and !p mod p^e at a prime have
one route, the block kernel `_factorial_columns`: the scans (`kurepa_scan`,
`wilson_scan`, `gertsch_scan`, `gertsch_wilson_scan`) pass it a block, the
per-prime functions in `residues` and `checks` a one-prime list, and the
O(p) loops `factorial_mod` and `kurepa_mod_py` are its test oracles.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd, isqrt

from .errors import InvariantViolation

try:
    import numba
    import numpy as np

    # workqueue is always available; avoids probing TBB/OMP layers that may
    # be absent or stale
    numba.config.THREADING_LAYER = "workqueue"
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

_U63 = 1 << 63


# ---------------------------------------------------------------------------
# Pure-Python kernels

def factorial_mod(k: int, m: int) -> int:
    """k! mod m, O(k) multiplies."""
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


def kurepa_gf_mod(p: int) -> int:
    """sum_{k=0}^{p-1} (-1)^k (k+1)(k+2)...(p-1) mod p.

    The falling-product rewrite of sum (-1)^(k+1)/k! in GF(p); an independent
    oracle for !p mod p.
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


def inverse_table(p: int) -> list[int]:
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
    inv = inverse_table(p)
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
    inv = inverse_table(p)
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


def wilson_quotient(p: int, f: int) -> int:
    """(f + 1) / p, which is W_p mod p^(e-1), from f = (p-1)! mod p^e (e >= 2).

    Wilson's congruence makes f + 1 divisible by p for every prime; a failure
    signals a composite input or a kernel bug.
    """
    if (f + 1) % p:
        raise InvariantViolation(f"Wilson congruence failed at {p}")
    return (f + 1) // p


# ---------------------------------------------------------------------------
# Block scans: ((p-1)! mod p^e, !p mod p^e) for a block of primes at once.
#
# The state at n is (f, s) = ((n-1)!, sum_{k<n} k!), and step k maps it to
# (k*f, s + k*f); at n = p it holds ((p-1)!, !p). The steps k = a..b-1
# compose to f -> P*f, s -> s + Q*f with P = a(a+1)...(b-1) and
# Q = sum_{j=a}^{b-1} a(a+1)...j; two adjacent runs compose as
# (P1*P2, Q1 + P1*Q2). After Costa, Gerbicz and Harvey (Wilson quotients)
# and Andrejic, Bostan and Tatarevic (left factorials).

_LEAF_STEPS = 32


def _steps(a: int, b: int) -> tuple[int, int]:
    """Exact (P, Q) of the steps k = a..b-1, by binary splitting."""
    if b - a <= _LEAF_STEPS:
        prod, q = 1, 0
        for k in range(a, b):
            prod *= k
            q += prod
        return prod, q
    mid = (a + b) // 2
    p1, q1 = _steps(a, mid)
    p2, q2 = _steps(mid, b)
    return p1 * p2, q1 + p1 * q2


def _product_tree(ms: list[int], i: int, j: int) -> tuple:
    """(m,) at a leaf, (product of ms[i:j], left, right) above it."""
    if j - i == 1:
        return (ms[i],)
    mid = (i + j) // 2
    left, right = _product_tree(ms, i, mid), _product_tree(ms, mid, j)
    return (left[0] * right[0], left, right)


def _descend(node: tuple, ps: list[int], i: int, j: int, f: int, s: int,
             out: list) -> None:
    """Fill out[i:j] with the states at n = ps[i], ..., ps[j-1], given the
    state at n = ps[i] reduced mod node's modulus."""
    if j - i == 1:
        out[i] = (f, s)
        return
    _, left, right = node
    mid = (i + j) // 2
    _descend(left, ps, i, mid, f % left[0], s % left[0], out)
    prod, q = _steps(ps[i], ps[mid])
    m = right[0]
    _descend(right, ps, mid, j, f * prod % m, (s + f * q) % m, out)


def _factorial_columns(primes, e: int) -> tuple[list[int], list[int]]:
    """((p-1)! mod p^e, !p mod p^e) for every p in primes, in input order.

    One pass for the block: the state is carried from n = 1 to the smallest
    prime modulo the product M of all moduli, in chunks whose exact (P, Q)
    have about as many bits as M, then split down the remainder tree of the
    moduli, advancing each right half over its gap with one exact (P, Q).
    Any list of integers >= 1 works: unsorted, with repeats, or empty.
    """
    ps = sorted(set(primes))
    if not ps:
        return [], []
    tree = _product_tree([p ** e for p in ps], 0, len(ps))
    m = tree[0]
    f = s = 1 % m
    width = max(_LEAF_STEPS, m.bit_length() // ps[0].bit_length())
    for a in range(1, ps[0], width):
        prod, q = _steps(a, min(a + width, ps[0]))
        f, s = f * prod % m, (s + f * q) % m
    states = [None] * len(ps)
    _descend(tree, ps, 0, len(ps), f, s, states)
    at = dict(zip(ps, states))
    return [at[p][0] for p in primes], [at[p][1] for p in primes]


def _wilson_column(primes, fs) -> list[int]:
    """W_p mod p from fs = (p-1)! mod p^2."""
    return [wilson_quotient(p, f) % p for p, f in zip(primes, fs)]


def _gertsch_column(primes, ks) -> list[int]:
    """Gertsch_p mod p from ks = !p mod p^2 and the O(p) Bell value."""
    return [gertsch_quotient(p, k, bell_mod(p - 1, p * p))
            for p, k in zip(primes, ks)]


# ---------------------------------------------------------------------------
# numba twins

if HAVE_NUMBA:
    _jit = numba.njit(cache=True, nogil=True)

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


# ---------------------------------------------------------------------------
# Dispatchers (fast=None means auto: numba when present and in-bounds)

def _use_fast(fast, m: int, p: int) -> bool:
    # the compiled tables multiply residues below m by factors below p, so
    # their products fit in 63 bits when m * p < 2^63
    if fast is False or not HAVE_NUMBA:
        return False
    return m * p < _U63


def bell_mod(n: int, m: int) -> int:
    """Bell_n mod m: the O(n) explicit-Stirling sum when n! is a unit mod m
    (n = p-1, m = p^e for an odd prime p), else the O(n^2) triangle."""
    if n == 0:
        return 1 % m
    f = factorial_mod(n, m)
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


def kurepa_scan(primes: list[int]) -> list[int]:
    """!p mod p for each p, in input order."""
    return _factorial_columns(primes, 1)[1]


def wilson_scan(primes: list[int]) -> list[int]:
    """W_p mod p for each p, in input order; raises InvariantViolation
    where Wilson's congruence fails (a composite input)."""
    return _wilson_column(primes, _factorial_columns(primes, 2)[0])


def gertsch_scan(primes: list[int]) -> list[int]:
    """Gertsch_p mod p for each odd prime p, in input order."""
    return _gertsch_column(primes, _factorial_columns(primes, 2)[1])


def gertsch_wilson_scan(primes: list[int]) -> tuple[list[int], list[int]]:
    """(Gertsch_p mod p, W_p mod p) columns from one block pass mod p^2."""
    fs, ks = _factorial_columns(primes, 2)
    return _gertsch_column(primes, ks), _wilson_column(primes, fs)
