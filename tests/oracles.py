"""Independent O(p) and O(p^2) oracles for the production kernels.

Each is the plain loop, triangle or recurrence that a `kurepa._kernels`
route replaces: `kurepa_mod_py` checks the block kernel's !p column, the
Aitken triangle the Bell row and `bell_mod`, and the two recurrences the
Bernoulli and Gregory power-series tables. `bernoulli_exact_py`, the
Fraction recurrence, checks the tangent numbers of `exact.bernoulli_exact`.
`kurepa_gf_mod_py` checks the !p column mod p by the GF(p) falling-product
form, and `derangement_mod_py` the run tree's Der_{p-1} column by its
recurrence. `gertsch_split_py` checks Gertsch_p mod p at primes too large
for the triangle, in O(p) without Bell_{p-1}. `inverse_table`, the
recurrence 1/i = -(p // i) / (p mod i), feeds the two recurrences and the
tables' congruence test; production reads 1/k = (k-1)!/k! off the residue
record's factorials. `left_factorials_py` checks the binary splitting of
`exact.left_factorial`, `factorials_py` the Wilson reflection of
`_kernels._factorials`, and `unit_top_py` the trial division of
`_kernels._unit_top`. `kurepa_gcds_py`, the exact gcd(!n, n!) for every n,
checks C25 and `factorizer.kurepa_gcd_check`, which read the `kurepa_zero`
campaign instead. Only the tests import them.
"""

import math
from fractions import Fraction


def left_factorials_py(n: int):
    """Yield !0, !1, ..., !n exactly, !k = 0! + 1! + ... + (k-1)!, from one
    loop of products."""
    total, f = 0, 1
    yield total
    for m in range(n):
        if m:
            f *= m
        total += f
        yield total


def kurepa_gcds_py(n_max: int):
    """Yield (n, gcd(!n, n!)) for n = 3..n_max by exact big-integer gcds,
    growing !n and n! one step at a time."""
    lf, f = 4, 6  # !3, 3!
    for n in range(3, n_max + 1):
        yield n, math.gcd(lf, f)
        lf += f
        f *= n + 1


def factorials_py(n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """((k! mod m), (1/k! mod m)) for k = 0..n by a forward loop and a
    backward one from 1/n!; n! must be a unit mod m."""
    fact, inv_fact = [1 % m] * (n + 1), [0] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k % m
    x = pow(fact[n], -1, m)
    for k in range(n, 0, -1):
        inv_fact[k], x = x, x * k % m
    inv_fact[0] = x
    return tuple(fact), tuple(inv_fact)


def unit_top_py(n: int, m: int) -> int:
    """The largest k <= n with k! a unit mod m, by scanning k = 2..n."""
    return next((k - 1 for k in range(2, n + 1) if m % k == 0), n)


def inverse_table(p: int) -> list[int]:
    """inv[1..p-1] mod p (inv[0] is a placeholder 0)."""
    inv = [0] * p
    inv[1] = 1
    for i in range(2, p):
        inv[i] = (p - p // i) * inv[p % i] % p
    return inv


def kurepa_mod_py(p: int, m: int) -> int:
    """sum_{n=0}^{p-1} n! mod m by incremental products."""
    f = 1 % m
    s = f
    for n in range(1, p):
        f = f * n % m
        s += f
    return s % m


def derangement_mod_py(n: int, m: int) -> int:
    """Der_n mod m, the number of derangements of n objects, by
    Der_k = k Der_{k-1} + (-1)^k from Der_0 = 1."""
    d = 1 % m
    for k in range(1, n + 1):
        d = (k * d - 1 if k & 1 else k * d + 1) % m
    return d


def kurepa_gf_mod_py(p: int) -> int:
    """!p mod p as sum_{k=0}^{p-1} (-1)^k (k+1)(k+2)...(p-1) mod p.

    In GF(p), 1/k! = -(k+1)(k+2)...(p-1) by Wilson, which turns the factorial
    sum into the alternating falling products.
    """
    prod = 1  # empty product at k = p-1
    s = prod if (p - 1) % 2 == 0 else p - prod
    for k in range(p - 2, -1, -1):
        prod = prod * (k + 1) % p
        s += prod if k % 2 == 0 else p - prod
    return s % p


def gertsch_split_py(p: int) -> int:
    """Gertsch_p mod p = (!p + D_{p-1})/p - T_p for an odd prime p, with
    D_t = sum_{i<=t} (-1)^i/i! mod p^2 and
    T_p = sum_{j=1}^{p-1} q_p(j) D_{p-1-j}/j! mod p.

    From Bell_{p-1} = sum_j (j^(p-1)/j!) D_{p-1-j}, j^(p-1) = 1 + p q_p(j)
    and sum_{j=1}^{p-1} D_{p-1-j}/j! = 1 - D_{p-1}: Bell_{p-1} is
    1 - D_{p-1} + p T_p mod p^2, so Bell_{p-1} itself is never built.
    """
    m = p * p
    inv_fact = [1] * p  # 1/j! mod p^2
    for j in range(1, p):
        inv_fact[j] = inv_fact[j - 1] * pow(j, -1, m) % m
    d, s = [], 0
    for i, x in enumerate(inv_fact):
        s = (s - x if i % 2 else s + x) % m
        d.append(s)
    num = (kurepa_mod_py(p, m) + d[p - 1]) % m
    assert num % p == 0, p
    t = sum((pow(j, p - 1, m) - 1) // p * d[p - 1 - j] * inv_fact[j]
            for j in range(1, p))
    return (num // p - t) % p


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


def bernoulli_exact_py(n: int) -> list[Fraction]:
    """[B_0, ..., B_n] as Fractions (B_1 = -1/2), each even B_{m-1} solved
    from m B_{m-1} + 1 + sum_{j=1}^{m-2} C(m,j) B_j = 0; O(n^2)."""
    b = [Fraction(1), Fraction(-1, 2)][:n + 1]
    for k in range(2, n + 1):
        if k % 2:
            b.append(Fraction(0))
            continue
        m = k + 1
        s = 1 + sum(math.comb(m, j) * b[j] for j in range(1, m - 1) if b[j])
        b.append(-s / m)
    return b


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
