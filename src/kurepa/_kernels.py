"""Low-level kernels in pure Python.

The Bell-row, Bernoulli, Gregory and Stirling tables are power series mod m:
`_series_mul` multiplies two coefficient lists by Kronecker substitution
(Harvey 2009): one big-int product below `_KS2_TERMS` = 256 terms in the
shorter list (KS1), two of half the size from there (KS2), and five of a
quarter of the size from `_KS4_TERMS` = 1,000 (KS4: the Bell and Stirling
rows from p = 1,009, the Gregory table from about 2,000 and the Bernoulli
table from about 4,000), moving the coefficients in and out of their
w-byte slots through 8-byte `array` words by w strided slice copies, so no
Python loop runs per coefficient. One recursion, `_series_div`, gives both a
quotient c/s and an inverse 1/s (c = None): the first coefficients directly,
the rest by inverting s to half the length through itself and one Karp and
Markstein (1997) step, which for 1/s is Newton's, at precisions halved from
the top down, as Buhler, Crandall, Ernvall, Metsankyla and Shokrollahi (2001)
do for Bernoulli numbers mod p. The Gregory table is one such inverse, and
the Bernoulli table one division of half its length, y coth y in
u = y^2, since the odd B_k vanish. At a prime modulus the Bell row is a
length-(p-1) DFT over F_p, which Bluestein's chirp-z (1970) turns into one
product; at prime powers and composite moduli it is a divide-and-conquer
solve of B' = e^x B. Past its last unit index (the Touchard window) each
value is two slice sums at a prime, as C(p-1, k) = (-1)^k (mod p), and one
dot product with a binomial row at a composite modulus. All four read one
k!, 1/k! mod p pair from `_factorials`, one loop at a prime by Wilson's
reflection, which the residue record passes; called without it, the Bell
and Stirling rows build their own. The tables' O(p^2) oracles are in
`tests/oracles.py`, except the Stirling triangle, which also serves rows
whose factorials are not units mod m. `bell_mod` is the O(p) explicit sum
over the power table j^(p-1) that the residue record builds anyway. Where
Fermat's theorem makes the powers constant, no table is built: the
Stirling row S(p, .) mod p reads j^p = j off the 1/k! column, and
Bell_{p-1} mod p, where every j^(p-1) = 1, is 1 - D_{p-1}. Every other
power table (`_powers`) walks the memo `_factorization` of 1..N, grown by
doubling, so no call sieves.
(p-1)!, !p and Der_{p-1} mod p^e have one route, the run tree
`run_columns`, one product tree over a run's primes walked once: at width
1 ((p-1)! alone) for the Wilson campaigns and `qpm_zero`, 2 (with !p) for
`kurepa_zero`, 3 (with Der_{p-1}) for the Gertsch campaigns. Width 1 at
e <= 3 and width 2 at e = 1 walk only to n = (p+1)/2, as Costa, Gerbicz
and Harvey's Wilson search (2014) does, and `_unfold` reads the columns
off h! by Morley's congruence and off (h!, !(h+1), Der_h) by Wilson's
reflection, checking each prime. Its spans
compose in `_then` and reduce in `_mod` alone, by `%` below `_DIV_BITS` =
8,192 bits and from there by `_rem`, Burnikel and Ziegler's recursive
division (1998), which needs no reciprocal and takes about 0.35x `%`'s time
at 65,536 bits; from that size on a right child's product reads its
operands reduced mod the child's modulus. The walk forms each readers'
product only where it keeps it, and is a generator only above a block
end, plain recursion (`_fill`) below. `_steps`, the exact binary splitting,
also gives `exact.left_factorial`. `wilson_column` turns the (p-1)! column
mod p^2 into W_p by C-level passes, and `gertsch_column` the width-3
columns into Gertsch_p mod p by one loop mod p and `_fermat_sum`'s slice
sums, which read only the memo `_primes`: no power table, so the record
stays its independent oracle. The three quotients by p, `fermat_quotient`,
`wilson_quotient` and `gertsch_quotient`, each check that p divides their
numerator and raise InvariantViolation otherwise.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice, repeat, zip_longest
from math import gcd, isqrt, prod
from operator import add, floordiv, mod, mul, neg

from ._memo import Memo
from .errors import InvariantViolation
from .modmath import sieve_upto

# No compiled kernels exist; the flag is recorded with each benchmark result.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# Per-prime loops

def factorial_mod(k: int, m: int) -> int:
    """k! mod m, O(k) multiplies."""
    f = 1 % m
    for n in range(2, k + 1):
        f = f * n % m
    return f


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


# ---------------------------------------------------------------------------
# Power series mod m

# Up to this many terms the Bell recurrence and `_series_div` solve
# their coefficients directly, one C-level sum per coefficient.
_LEAF_TERMS = 32
# From this many terms in the shorter operand a series product is two
# half-size big-int multiplies (KS2) instead of one (KS1). CPython's
# Karatsuba multiply costs n^1.58, so two halves cost about 2/3 of the
# whole; below this size the extra packing outweighs that (measured with
# Python 3.11 on a 2-core x86-64 host: KS2 1.0-1.2x KS1's time at 128-192
# terms, 0.8-0.9x at 256-512).
_KS2_TERMS = 256
# From this many terms in the shorter operand the product is five
# quarter-size multiplies (KS4, `_ks4`) instead of KS2's two halves. KS4's
# time over KS2's for two random L-term operands mod a prime near L, full
# and cut to L terms (medians of 31 interleaved calls, Python 3.11 on the
# same host): 0.98-1.04x at L = 512, 0.97-1.01x at 768, 0.95-0.97x at
# 1,000, 0.93-0.96x at 1,250, 0.91-0.94x at 1,500 and 0.89-0.92x at
# 2,000-3,000.
_KS4_TERMS = 1000


def _series_mul(a: list[int], b: list[int], n: int, m: int) -> list[int]:
    """The first n coefficients of a(x) * b(x) mod m, for coefficients in
    [0, m), from big-int products (Kronecker substitution).

    Each list is packed into an int, one coefficient per w-byte slot. A
    product coefficient is a sum of at most min(len a, len b) products below
    m^2, so with w bytes above that bound no slot overflows into the next.
    w is that bound's byte length and is not rounded up to a word: a wider
    slot would make the multiply itself larger. For w <= 8 `_pack` and
    `_unpack` convert between slots and 8-byte words with w slice copies.

    The shorter operand's length alone picks the route. Below `_KS2_TERMS`
    terms this is one product at x = 2^(8w) (Harvey's KS1). From there on
    it is two products of half the size at x = +-2^(4w) (Harvey's KS2,
    2009): with the even and odd coefficients packed apart,
    A(+-x) = E +- (O << 4w); then h+ + h- = 2 sum_k c_2k 2^(8wk) and
    h+ - h- = 2^(4w+1) sum_k c_2k+1 2^(8wk), the two halves of the product
    in w-byte slots again. From `_KS4_TERMS` terms on it is five products
    of a quarter of the size, at x = +-2^(2w) and 2^(2w) i (`_ks4`).
    """
    a, b = a[:n], b[:n]
    short = min(len(a), len(b))
    w = (2 * (m - 1).bit_length() + short.bit_length() + 7) // 8
    if short < _KS2_TERMS:
        slots = max(n, len(a) + len(b))
        buf = (_pack(a, w) * _pack(b, w)).to_bytes(slots * w, "little")
        return _unpack(buf, n, w, m)
    if short >= _KS4_TERMS:
        return _ks4(a, b, n, m, w)
    s = 4 * w
    ea, oa = _pack(a[0::2], w), _pack(a[1::2], w) << s
    eb, ob = _pack(b[0::2], w), _pack(b[1::2], w) << s
    hp, hm = (ea + oa) * (eb + ob), (ea - oa) * (eb - ob)
    size = (max(n, len(a) + len(b)) + 1) // 2 * w
    c = [0] * n
    c[0::2] = _unpack(((hp + hm) >> 1).to_bytes(size, "little"), (n + 1) // 2, w, m)
    c[1::2] = _unpack(((hp - hm) >> (s + 1)).to_bytes(size, "little"), n // 2, w, m)
    return c


def _ks4(a: list[int], b: list[int], n: int, m: int, w: int) -> list[int]:
    """`_series_mul`'s product from five quarter-size multiplies (Harvey's
    KS4, 2009), for a, b already cut to n terms and slots of w bytes.

    With x = 2^(2w), x^4 = 2^(8w) is the slot base, and an operand whose four
    residue classes mod 4 are packed apart as P0..P3 is
    A(x) = E + O, A(-x) = E - O and A(ix) = E' + iO', for E, E' = P0 +- x^2 P2
    and O, O' = x P1 +- x^3 P3. The product h = sum_r x^r Q_r, Q_r the
    product's class r in slots, comes from h(x), h(-x) and the Gaussian
    product h(ix) = Re + i Im, three real multiplies:
    Q0 = (h+ + h- + 2Re)/4, x^2 Q2 = (h+ + h- - 2Re)/4,
    x Q1 = (h+ - h- + 2Im)/4 and x^3 Q3 = (h+ - h- - 2Im)/4, all exact.
    """
    s = 2 * w

    def points(v):  # A(x), A(-x), E' and O'
        p0, p1, p2, p3 = [_pack(v[r::4], w) for r in range(4)]
        e, o = p0 + (p2 << 2 * s), (p1 << s) + (p3 << 3 * s)
        return e + o, e - o, p0 - (p2 << 2 * s), (p1 << s) - (p3 << 3 * s)

    ap, am, ar, ai = points(a)
    bp, bm, br, bi = points(b)
    hp, hm = ap * bp, am * bm
    rr, ii = ar * br, ai * bi
    re2, im2 = 2 * (rr - ii), 2 * ((ar + ai) * (br + bi) - rr - ii)
    sums, diffs = hp + hm, hp - hm
    size = (max(n, len(a) + len(b)) + 3) // 4 * w
    c = [0] * n
    for r, q in enumerate(((sums + re2) >> 2, (diffs + im2) >> (2 + s),
                           (sums - re2) >> (2 + 2 * s), (diffs - im2) >> (2 + 3 * s))):
        c[r::4] = _unpack(q.to_bytes(size, "little"), len(range(r, n, 4)), w, m)
    return c


# Slots wider than a word (m^2 * len above 2^64: m above about 2^24 for 5e4
# terms) keep one to_bytes or from_bytes per coefficient, under KS1, KS2 and
# KS4 alike. No table of the record reaches them, but the public
# `bell_sequence_mod(n, m)` does, through `_bell_solve`, at a large m that
# is composite, or prime with n < m - 1.
if array("Q").itemsize != 8:
    raise ImportError("kurepa needs 8-byte array('Q') items")
# _BYTE[j]: where a native word keeps its j-th least significant byte
_BYTE = range(7, -1, -1) if sys.byteorder == "big" else range(8)


def _pack(v: list[int], w: int) -> int:
    """The int whose i-th little-endian w-byte slot holds v[i] < 256^w."""
    if w > 8:
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in v]),
                              "little")
    src = array("Q", v).tobytes()
    dst = bytearray(len(v) * w)
    for j in range(w):
        dst[j::w] = src[_BYTE[j]::8]
    return int.from_bytes(dst, "little")


def _unpack(buf: bytes, n: int, w: int, m: int) -> list[int]:
    """The first n little-endian w-byte slots of buf, each reduced mod m;
    buf holds at least n slots."""
    if w > 8:
        return [int.from_bytes(buf[i:i + w], "little") % m
                for i in range(0, n * w, w)]
    out = bytearray(8 * n)
    for j in range(w):
        out[_BYTE[j]::8] = buf[j:n * w:w]
    return [c % m for c in memoryview(out).cast("Q")]


def _series_div(c: list[int] | None, s: list[int], n: int, m: int) -> list[int]:
    """The first n coefficients of c(x)/s(x) mod m, or of 1/s(x) for
    c = None; s[0] must be a unit mod m, and coefficients lie in [0, m).

    Up to `_LEAF_TERMS` terms each coefficient is solved directly:
    y_k = (c_k - sum_{j=1..k} s_j y_(k-j)) / s_0. Above that, s is inverted
    to k = ceil(n/2) terms, g, by the same recursion. For 1/s this is
    Newton's step: if s*g = 1 + x^k * e, then 1/s = g - x^k * g*e mod x^n,
    as n - k <= k; so the precisions halve from the top down and each level
    makes two products, s*g and g*e. For c/s it is Karp and Markstein's
    division (1997): y = c*g is c/s mod x^k, the residual c - s*y is
    x^k * r, and c/s = y + x^k * g*r mod x^n. That is the products of the
    full-length inverse and one more, c*g; none has more than n terms.
    """
    if n <= _LEAF_TERMS:
        u = pow(s[0], -1, m)
        rev = [*islice(chain(s[1:n], repeat(0)), n)][::-1]  # 0, s_(n-1), ..., s_1
        y = []
        for k, ck in enumerate(islice(chain([1] if c is None else c, repeat(0)), n)):
            y.append((ck - sum(map(mul, y, rev[n - k:]))) * u % m)
        return y
    k = (n + 1) // 2
    g = _series_div(None, s, k, m)
    if c is None:
        e = _series_mul(s, g, n, m)[k:]
        return g + [-x % m for x in _series_mul(g, e, n - k, m)]
    y = _series_mul(c, g, k, m)
    sy = _series_mul(s, y, n, m)[k:]
    r = [(a - b) % m for a, b in zip_longest(c[k:n], sy, fillvalue=0)]
    return y + _series_mul(g, r, n - k, m)


def _unit_top(n: int, m: int) -> int:
    """The largest k <= n with k! a unit mod m (k below m's least prime),
    by trial division up to min(n, isqrt(m)): past isqrt(m) without a
    divisor, m's least prime is m itself."""
    for k in range(2, min(n, isqrt(m)) + 1):
        if m % k == 0:
            return k - 1
    return min(n, m - 1) if m > 1 else n


def _factorials(n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """((k! mod m), (1/k! mod m)) for k = 0..n, n! a unit mod m; tuples, as
    several readers share one pair. Plain loops: faster than accumulate.

    At n = m - 1 with (m-1)! = -1 (mod m), which by Wilson's theorem means
    m is prime, 1/k! = (-1)^(k+1) (m-1-k)!: the k! column reversed, with
    the even k negated, and no second loop."""
    fact = [1 % m] * (n + 1)
    for k in range(1, n + 1):
        fact[k] = fact[k - 1] * k % m
    if n == m - 1 > 0 and fact[n] == n:
        inv_fact = fact[::-1]
        inv_fact[0::2] = [m - x for x in inv_fact[0::2]]
    else:
        inv_fact = _inverse_factorials(n, m, pow(fact[n], -1, m))
    return tuple(fact), tuple(inv_fact)


def _inverse_factorials(n: int, m: int, x: int) -> list[int]:
    """[1/k! mod m for k = 0..n] from x = 1/n! mod m, by 1/(k-1)! = k/k!."""
    inv_fact = [0] * (n + 1)
    for k in range(n, 0, -1):
        inv_fact[k], x = x, x * k % m
    inv_fact[0] = x
    return inv_fact


# `_primes`, the process's one list of small primes: N, to the primes <= N
# from `modmath.sieve_upto`, read by the power tables, the Gertsch column and
# `factorizer.factorize`. A list, not an array("I"), whose iteration makes
# each int anew: trial division below 1e6 took 8.2 against 7.3 ms (2-core
# host, Python 3.11). `_factorization`: N, to (j, q, j/q) for each composite
# j <= N in ascending order, q its least prime, which every power table
# walks. Tuples, not arrays, because the walk then unpacks ints that already
# exist (0.44 against 0.50 ms per power table at p near 1500), at about 125
# bytes per integer below N (25 MB at N = 2e5).
_factorization = Memo()
_primes = Memo()


def _grown(memo: Memo, n: int, build):
    """The table of memo's one entry, whose bound N is at least n: replaced
    under the memo's lock by build(max(n, 2N)) when N < n. Every reader
    after a build reads the same table, which nothing changes."""
    with memo.lock:
        top = max(memo, default=-1)  # -1: no table yet
        if top < n:
            top = max(n, 2 * top)
            table = build(top)
            memo.clear()
            memo[top] = table
        return memo[top]


def _factors(n: int) -> list[tuple[int, int, int]]:
    """The composites (j, q, j/q) of the factorization table covering 1..n."""
    return _grown(_factorization, n, _sieve_factors)


def _prime_table(n: int) -> list[int]:
    """The primes up to the prime memo's bound N >= n."""
    return _grown(_primes, n, sieve_upto)


def _sieve_factors(n: int) -> list[tuple[int, int, int]]:
    """(j, q, j/q) for each composite j <= n in ascending order, q its least
    prime, marked by the primes up to sqrt(n), largest first."""
    root = isqrt(n)
    primes = _prime_table(root)
    spf = [0] * (n + 1)  # the least prime factor of a composite; 0 otherwise
    for q in reversed(primes[:bisect_right(primes, root)]):
        spf[q * q::q] = [q] * len(range(q * q, n + 1, q))
    js = compress(range(n + 1), spf)
    return [(j, q, j // q) for j, q in zip(js, filter(None, spf))]


def _powers(n: int, e: int, m: int) -> list[int]:
    """[j^e mod m for j = 0..n] from the process's prime and factorization
    tables: one pow per prime j, then j^e = q^e * (j/q)^e for each
    composite j in ascending order, whose least prime q and cofactor j/q
    the table holds, so no call sieves."""
    primes = _prime_table(n)
    pw = [0] * (n + 1)
    pw[0] = pow(0, e, m)
    if n:
        pw[1] = 1 % m
    for q in primes[:bisect_right(primes, n)]:
        pw[q] = pow(q, e, m)
    composites = _factors(n)
    # (n + 1,) sorts after every (j, q, c) with j <= n and before the rest
    for j, q, c in composites[:bisect_right(composites, (n + 1,))]:
        pw[j] = pw[q] * pw[c] % m
    return pw


# ---------------------------------------------------------------------------
# Tables and Bell values mod m

def _alternating_sums(inv_fact, m: int) -> list[int]:
    """[D_t for t < len(inv_fact)], D_t = sum_{i<=t} (-1)^i/i! from
    inv_fact = (1/i! mod m); left unreduced, as each term is below m."""
    sgn = list(inv_fact)
    sgn[1::2] = [m - x for x in sgn[1::2]]
    return list(accumulate(sgn))


def _primitive_root(p: int) -> int:
    """The least primitive root mod a prime p: the least g whose power
    g^((p-1)/q) is not 1 for any prime q dividing p - 1."""
    qs, r, d = [], p - 1, 2
    while d * d <= r:
        if r % d == 0:
            qs.append(d)
            while r % d == 0:
                r //= d
        d += 1
    if r > 1:
        qs.append(r)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def _bell_row_prime(p: int, inv_fact) -> list[int]:
    """Bell_0..Bell_{p-1} mod a prime p, from inv_fact = (1/k! mod p), k < p.

    For n < p, Bell_n = sum_j w_j j^n with w_j = D_{p-1-j}/j! and
    D_t = sum_{i<=t} (-1)^i/i!: a length-L DFT over F_p, L = p - 1, once j
    runs over the powers g^a of a primitive root g. Bluestein's chirp-z
    turns it into one product: a*n = C(a+n,2) - C(a,2) - C(n,2), so
    Bell_n = g^(-C(n,2)) sum_a f_a g^(C(a+n,2)) with
    f_a = w_{g^a} g^(-C(a,2)), and g^(C(k+L,2)) = -g^(C(k,2))
    folds that correlation into a negacyclic one of size L x L. The n = 0
    bin is Bell_{p-1} (j^(p-1) = 1), and Bell_0 adds the j = 0 term to it.
    """
    L = p - 1
    w = list(map(mul, reversed(_alternating_sums(inv_fact, p)), inv_fact))
    g = _primitive_root(p)
    xs = [1] * L  # xs[a] = g^a, so xs[-a] = g^-a
    for a in range(1, L):
        xs[a] = xs[a - 1] * g % p
    # g^(C(k,2)) and g^(-C(k,2)), looked up in xs at C(k,2) mod L
    ex = list(map(mod, accumulate(range(L - 1), initial=0), repeat(L)))
    chirp = list(map(xs.__getitem__, ex))
    ichirp = list(map(xs.__getitem__, map(neg, ex)))
    f = [x * y % p for x, y in zip(map(w.__getitem__, xs), ichirp)]
    # c[L-1+n] - c[n-1] = sum_a f_a chirp_(a+n), as chirp_(k+L) = -chirp_k,
    # paired by zip for n = 1..L-1; at n = 0 the sum is c[L-1] alone
    c = _series_mul(f[::-1], chirp, 2 * L - 1, p)
    d0 = c[L - 1]
    return ([(w[0] + d0) % p]
            + [x * (a - b) % p for x, a, b in zip(ichirp[1:], c[L:], c)]
            + [d0])


def bell_seq_mod(n: int, m: int, facts: tuple | None = None) -> list[int]:
    """Bell_0..Bell_n mod m; facts, if given, is `_factorials(_unit_top(n, m), m)`.

    At a prime modulus with n >= m - 1 (seen as `_unit_top(n, m) == m - 1`)
    Bell_0..Bell_{m-1} come from one chirp product (`_bell_row_prime`).
    Otherwise, while k! is a unit mod m, Bell_k = k! b_k with sum b_k x^k =
    exp(e^x - 1); from B' = e^x B, (k+1) b_{k+1} = sum_{j<=k} b_j / (k-j)!,
    solved by divide and conquer: the left half's terms reach the right half
    in one series product. Past the last unit index t, umbrally
    Bell^(r+1) = (Bell + 1)^r (Bell_{r+1} = sum_k C(r,k) Bell_k), so
    Bell_{t+i+1} = sum_{j<=i} C(i,j) T_j with T_j = sum_k C(t,k) Bell_{k+j},
    and a short row C(i, .) by Pascal's rule. At a prime m, t = m - 1 and
    C(m-1, k) = (-1)^k (mod m), so T_j is two slice sums of the row, the
    Bell_{k+j} at even k less those at odd k (Bell_p..Bell_{p+5} mod p for
    the record). At a composite m, t < m - 1 and the row C(t, .) comes from
    factorials, then one dot product with it per value.
    """
    top = _unit_top(n, m)
    fact, inv_fact = facts or _factorials(top, m)
    prime = top == m - 1
    if prime:
        bell = _bell_row_prime(m, inv_fact)
    else:
        bell = _bell_solve(top, m, fact, inv_fact)
    if n == top:
        return bell
    if not prime:
        row = [fact[top] * x % m for x in map(mul, inv_fact, reversed(inv_fact))]
    ts, small = [], [1 % m]  # small: C(i, .) mod m
    for i in range(n - top):
        if prime:  # C(m-1, k) = (-1)^k (mod m)
            t = sum(bell[i:i + m:2]) - sum(bell[i + 1:i + m:2])
        else:
            t = sum(map(mul, row, islice(bell, i, None)))
        ts.append(t % m)
        bell.append(sum(map(mul, small, ts)) % m)
        small = [1 % m, *map(mod, map(add, small, small[1:]), repeat(m)), 1 % m]
    return bell


def _bell_solve(top: int, m: int, fact, inv_fact) -> list[int]:
    """Bell_0..Bell_top mod m by divide and conquer on B' = e^x B; every k!
    with k <= top must be a unit mod m."""
    b = [1 % m] + [0] * top
    acc = [0] * (top + 1)  # acc[k]: the terms of b[j] for j below the block

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _LEAF_TERMS:
            for k in range(max(lo, 1), hi):
                s = acc[k] + sum(map(mul, reversed(b[lo:k]), inv_fact))
                b[k] = s % m * inv_fact[k] % m * fact[k - 1] % m
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        c = _series_mul(b[lo:mid], inv_fact, hi - lo - 1, m)
        for k in range(mid, hi):
            acc[k] += c[k - 1 - lo]
        solve(mid, hi)

    solve(0, top + 1)
    return [f * x % m for f, x in zip(fact, b)]


def bell_mod(n: int, m: int, fact: int | None = None,
             pw: tuple[int, ...] | None = None) -> int:
    """Bell_n mod m. When n! is a unit mod m (n = p-1, m = p^e for an odd
    prime p), the O(n) explicit-Stirling sum
    Bell_n = sum_{j=1..n} (j^n/j!) D_{n-j}, D_t = sum_{i<=t} (-1)^i/i!,
    built with C-level accumulate and map. fact, when given, is n! mod m,
    which the record holds in its (p-1)! column, so only the backward loop
    for 1/k! runs. At n = m - 1 with fact = n (so (m-1)! = -1 mod m, and m
    is prime by Wilson's theorem) Fermat makes every j^n = 1, and the sum
    is 1 - D_n, as sum_{j=0..n} D_{n-j}/j! = sum_{s<=n} (1-1)^s/s! = 1: no
    power table. Otherwise pw, when given, holds j^n mod m for j = 0..n:
    the record's table mod p^3, built anyway for Lerch, the Fermat-quotient
    sum and sum_a a^(p-1); without it the call builds `_powers(n, n, m)`.
    When n! is not a unit mod m the value is read from `bell_seq_mod`."""
    if fact is None:
        fact = factorial_mod(n, m)
    if n == 0 or gcd(fact, m) != 1:
        return bell_seq_mod(n, m)[n]
    inv_fact = _inverse_factorials(n, m, pow(fact, -1, m))
    if n == m - 1 == fact:  # m prime: 1 - D_n
        return (1 - sum(inv_fact[0::2]) + sum(inv_fact[1::2])) % m
    if pw is None:
        pw = _powers(n, n, m)
    # j pairs with D_{n-j}; pw[0] = 0^n = 0 drops the j = 0 term
    return sum(map(mul, map(mul, pw, inv_fact),
                   reversed(_alternating_sums(inv_fact, m)))) % m


def _fermat_sum(p: int, v: list[int]) -> int:
    """sum_{j=1..p-1} q_p(j) v_j mod p for an odd prime p and a list v of
    length p, which this changes.

    As q_p(ab) = q_p(a) + q_p(b) (mod p), the sum is sum_r q_p(r) W_r over
    the primes r < p, W_r = sum_k sum of v_j over j = 0 mod r^k: one C-level
    slice sum per prime power, and no walk over composites. A prime
    r > sqrt(p) calls no pow: q_p(p - x) = q_p(x) + 1/x, from
    (p - x)^(p-1) = x^(p-1) + p/x (mod p^2), so p = s r + a with 0 < a < r
    gives q_p(r) = q_p(a) - q_p(s) + 1/a. Going down from the largest
    prime, W_r moves onto v_a and -v_s, indices whose primes come later,
    and W_r/a is owed; the owed fractions are summed over one common
    denominator, which one pow inverts.
    """
    primes = _prime_table(p - 1)
    root = bisect_right(primes, isqrt(p))
    num, den = 0, 1
    for r in reversed(primes[root:bisect_right(primes, p - 1)]):
        w = sum(v[r::r]) % p
        s, a = divmod(p, r)
        v[a] += w
        v[s] -= w
        num, den = (num * a + w * den) % p, den * a % p
    t = num * pow(den, -1, p)
    # the primes up to sqrt(p), over every power r^k < p
    for r in primes[:root]:
        w, rk = 0, r
        while rk < p:
            w += sum(v[rk::rk])
            rk *= r
        t += w % p * fermat_quotient(p, r)
    return t % p


def bernoulli_table_mod(p: int, facts: tuple) -> list[int]:
    """B_0..B_{p-2} mod p for a prime p, from facts = `_factorials(p - 1, p)`.
    The odd B_k vanish past B_1 = -1/2, and with y = x/2, u = y^2,
    x/(e^x - 1) + x/2 = y coth y = C(u)/S(u) for C(u) = sum_k u^k/(2k)! and
    S(u) = sum_k u^k/(2k+1)!; so B_2k = (2k)! 4^-k [u^k] C/S, one series
    division of half the table's length (`_series_div`)."""
    if p == 2:
        return [1]  # B_0 alone
    fact, inv_fact = facts
    h = (p - 1) // 2  # B_0, B_2, ..., B_{p-3}
    cs = _series_div(inv_fact[0::2], inv_fact[1::2], h, p)
    table = [0] * (p - 1)
    inv4, q = pow(4, -1, p), 1
    for k in range(h):
        table[2 * k] = fact[2 * k] * cs[k] % p * q % p
        q = q * inv4 % p
    table[1] = (p - 1) // 2  # B_1 = -1/2
    return table


def gregory_table_mod(p: int, facts: tuple) -> list[int]:
    """G_0..G_{p-2} mod p for a prime p, from facts = `_factorials(p - 1, p)`:
    the series inverse of log(1+x)/x = sum_k (-1)^k x^k/(k+1), with
    1/(k+1) = k!/(k+1)!."""
    fact, inv_fact = facts
    f = [(fact[k] if k % 2 == 0 else -fact[k]) * inv_fact[k + 1] % p
         for k in range(p - 1)]
    return _series_div(None, f, p - 1, p)


def stirling2_row_mod(n: int, m: int, facts: tuple | None = None) -> list[int]:
    """S(n,0)..S(n,n) mod m; facts, if given, is `_factorials(n - 1, m)`.

    When every k! with k < n is a unit mod m (n = m = p, say),
    S(n,k) = [x^k] of (sum_j j^n x^j/j!) * (sum_i (-1)^i x^i/i!) for k < n,
    and S(n,n) = 1. At n = m that makes m prime, so j^m = j by Fermat and
    j^m/j! = 1/(j-1)!: the first factor is the 1/k! column shifted, with no
    power table. Other rows come from the O(n^2) triangle.
    """
    if n == 0 or _unit_top(n - 1, m) < n - 1:
        return stirling2_row_mod_py(n, m)
    _, inv_fact = facts or _factorials(n - 1, m)
    if n == m:
        a = [0, *inv_fact[:n - 1]]
    else:
        a = [x * y % m for x, y in zip(_powers(n - 1, n, m), inv_fact)]
    b = list(inv_fact)
    b[1::2] = [-x % m for x in inv_fact[1::2]]
    return _series_mul(a, b, n, m) + [1 % m]


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


def fermat_quotient(p: int, a: int, e: int = 1) -> int:
    """q_p(a) = (a^(p-1) - 1)/p mod p^e.

    Fermat's little theorem makes a^(p-1) - 1 divisible by p for every prime
    p not dividing a; a failure signals a composite input, p | a, or a
    kernel bug.
    """
    t = pow(a, p - 1, p ** (e + 1))
    if (t - 1) % p:
        raise InvariantViolation(f"Fermat congruence failed at ({a}, {p})")
    return (t - 1) // p


def wilson_quotient(p: int, f: int) -> int:
    """(f + 1) / p, which is W_p mod p^(e-1), from f = (p-1)! mod p^e (e >= 2).

    Wilson's congruence makes f + 1 divisible by p for every prime; a failure
    signals a composite input or a kernel bug.
    """
    if (f + 1) % p:
        raise InvariantViolation(f"Wilson congruence failed at {p}")
    return (f + 1) // p


# ---------------------------------------------------------------------------
# Columns: ((p-1)! mod p^e, !p mod p^e), (p-1)! mod p^e alone, or the pair
# and Der_{p-1} mod p^e, for a run of primes at once.
#
# The state at n is (f, s) = ((n-1)!, sum_{k<n} k!), and step k maps it to
# (k*f, s + k*f); at n = p it holds ((p-1)!, !p), and the half routes stop
# at n = (p+1)/2 (`_unfold`). The steps k = a..b-1
# compose to f -> P*f, s -> s + Q*f with P = a(a+1)...(b-1) and
# Q = sum_{j=a}^{b-1} a(a+1)...j; a state is the steps from n = 1. Width 1
# carries (f,) and spans (P,) alone: one product and one reduction per join
# instead of three and two. Width 3 adds d = Der_{n-1}, the derangement
# number: step k maps d to k*d + (-1)^k, a span acts as d -> P*d + R, and
# spans compose as (P1*P2, Q1 + P1*Q2, P2*R1 + R2). `_then` alone composes
# two spans and `_mod` alone reduces one, past `_DIV_BITS` by `_rem`. The
# states at a run's primes come from one accumulating remainder tree
# (Costa, Gerbicz and Harvey, for Wilson quotients; Andrejic, Bostan and
# Tatarevic, for left factorials): one product tree of
# p^e over all the run's primes and one walk down it. A left span is read by its right
# sibling and by its parent's readers; it is reduced mod their product
# where that has fewer bits than the exact span, about
# (ns[mid] - ns[i]) log2 ns[mid], and kept exact below (`_readers`, which
# forms the product only where it can be kept). So the top of the tree
# reduces and its lower levels compose exact spans, whatever the blocks,
# which only mark where the walk yields. From `_DIV_BITS` on a right
# child's state is made from the state and the left span each reduced mod
# its modulus first (`_right_state`). A subtree with no block end inside
# is walked by plain recursion (`_fill`), and only the nodes above a block
# end are generators (`_walk`).

_LEAF_STEPS = 32

# Recursive division: `_then` and `_mod` reduce mod a modulus of at least
# _DIV_BITS bits by `_rem`, which leaves a quotient of at most
# _DIV_LEAF_BITS bits to native division. `_rem`'s time over `%`'s for an
# n-bit modulus and quotients of n/4, n/2, n and 2n bits (best of 15
# interleaved loops, two sessions, Python 3.11 on a 2-core x86-64 host):
# 0.99-1.03x for every shape at n = 4,096; at 6,000, 1.00-1.03x for the two
# short quotients and 0.84-0.87x for the long ones; at 8,192, 1.00-1.01x
# and 0.81-0.86x; 0.62-0.74x at 16,384, 0.34-0.40x at 65,536 and
# 0.27-0.33x at 131,072. On the scan benchmark, crossovers of 4,096, 6,000
# and 8,192 bits read level with each other. Over [3, 1e5] a 2,000-bit leaf
# took 0.70x the time of `%` alone, and leaves of 3,000-8,000 bits
# 0.60-0.66x.
_DIV_BITS = 8192
_DIV_LEAF_BITS = 4000


def _rem(x: int, m: int) -> int:
    """x % m for any int x and m > 0, by Burnikel and Ziegler's recursive
    division (1998), which needs no reciprocal: a 2n-by-n division, n the
    bits of m, is two 3n/2-by-n divisions, each one n-by-n/2 division and one
    multiply. Karatsuba's multiply makes it sub-quadratic, where CPython
    3.11's `%` is schoolbook. A quotient of at most `_DIV_LEAF_BITS` bits is
    left to native division, here and in the recursion; a longer x is
    divided in n-bit digits from the top, and x < 0 through its complement
    ~x = -x - 1 >= 0."""
    n = m.bit_length()
    if x.bit_length() - n <= _DIV_LEAF_BITS:
        return x % m
    if x < 0:
        return m - 1 - _rem(~x, m)
    # the top piece has at most 2n - 1 bits, below 2^n * m; digits follow
    j = (x.bit_length() - n) // n
    r = _div21(x >> (j * n), m, n)[1]
    mask = (1 << n) - 1
    for i in range(j - 1, -1, -1):
        r = _div21(r << n | (x >> (i * n)) & mask, m, n)[1]
    return r


def _div21(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of n bits and 0 <= a < 2^n * b. An odd n is made
    even by doubling a and b, which halves the remainder back."""
    if a.bit_length() - n <= _DIV_LEAF_BITS:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div32(a >> n, (a >> h) & mask, b, b1, b2, h)
    q2, r = _div32(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div32(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 * 2^h + a3, b) for b = b1 * 2^h + b2 of 2h bits, b1 of h
    bits, b2 and a3 below 2^h, and a quotient below 2^h.

    The quotient is estimated from the top halves alone, as
    min(a12 // b1, 2^h - 1), which b1's top bit makes at most two too large
    (Burnikel and Ziegler, Lemma 2); each correction adds b back."""
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div21(a12, b1, h)
    r = (r << h | a3) - q * b2
    for _ in range(2):
        if r >= 0:
            break
        q, r = q - 1, r + b
    if r < 0:
        raise InvariantViolation("recursive division needed a third correction")
    return q, r


def _then(x: tuple, y: tuple, m=None) -> tuple:
    """The steps x followed by the steps y, (P1*P2,) at width 1,
    (P1*P2, Q1 + P1*Q2) at width 2 or (P1*P2, Q1 + P1*Q2, P2*R1 + R2) at
    width 3, reduced mod m, or exact for m None."""
    if m is not None and m.bit_length() >= _DIV_BITS:
        return _mod(_then(x, y), m)
    if len(x) == 1:
        p = x[0] * y[0]
        return (p,) if m is None else (p % m,)
    if len(x) == 2:
        (p1, q1), (p2, q2) = x, y
        if m is None:
            return p1 * p2, q1 + p1 * q2
        return p1 * p2 % m, (q1 + p1 * q2) % m
    (p1, q1, r1), (p2, q2, r2) = x, y
    if m is None:
        return p1 * p2, q1 + p1 * q2, p2 * r1 + r2
    return p1 * p2 % m, (q1 + p1 * q2) % m, (p2 * r1 + r2) % m


def _mod(x: tuple, m: int) -> tuple:
    """The state or span x reduced mod m."""
    if m.bit_length() >= _DIV_BITS:
        return tuple(map(_rem, x, repeat(m)))
    if len(x) == 1:
        return (x[0] % m,)
    return (x[0] % m, x[1] % m) if len(x) == 2 else (x[0] % m, x[1] % m, x[2] % m)


def _steps(a: int, b: int, width: int = 2) -> tuple:
    """The exact span of the steps k = a..b-1 by binary splitting: (P, Q),
    (P,) at width 1 or (P, Q, R) at width 3."""
    if b - a <= _LEAF_STEPS:
        if width == 1:
            return (prod(range(a, b)),)
        f, q = 1, 0
        if width == 2:
            for k in range(a, b):
                f *= k
                q += f
            return f, q
        r = 0
        for k in range(a, b):
            f *= k
            q += f
            r = k * r - 1 if k & 1 else k * r + 1
        return f, q, r
    mid = (a + b) // 2
    return _then(_steps(a, mid, width), _steps(mid, b, width))


def _product_tree(nodes: list, i: int, j: int) -> tuple:
    """nodes[i] alone, or (product of the moduli of nodes[i:j], left, right);
    a node's modulus is its first entry."""
    if j - i == 1:
        return nodes[i]
    mid = (i + j) // 2
    left, right = _product_tree(nodes, i, mid), _product_tree(nodes, mid, j)
    return (left[0] * right[0], left, right)


def _readers(m: int, c, ns: list[int], i: int, mid: int):
    """The modulus the left span from ns[i] to ns[mid] is reduced by: the
    product m*c of its readers' moduli, m its right sibling's and c the
    product of its parent's readers (None: exact), or None, exact, where c
    is None or m*c has at least the exact span's estimated bits,
    (ns[mid] - ns[i]) log2 ns[mid]. m*c has bits(m) + bits(c) - 1 bits or
    one more, so a product that cannot be kept is not formed."""
    if c is None:
        return None
    bits = (ns[mid] - ns[i]) * ns[mid].bit_length()
    if m.bit_length() + c.bit_length() - 1 >= bits:
        return None
    r = m * c
    return None if r.bit_length() >= bits else r


def _right_state(x: tuple, span: tuple, m: int) -> tuple:
    """The state at the right child of modulus m, reduced mod m: x, the
    state at its left sibling reduced mod their parent's modulus, followed
    by the left span, which is exact or reduced mod all its readers. From
    `_DIV_BITS` on x and the span are each reduced mod m first, so the
    product is no longer than m needs. Below, the reductions cost more
    than they save: reducing at every node took 1.04x the time over
    windows of 7 primes below 600 at e = 2 and 3 (2-core host, Python
    3.11)."""
    if m.bit_length() >= _DIV_BITS:
        x, span = _mod(x, m), _mod(span, m)
    return _then(x, span, m)


def _fill(node: tuple, ns: list[int], i: int, j: int, x: tuple, c, out: list):
    """`_walk` for a subtree with no block end strictly inside (i, j): plain
    recursion, appending its states to out and returning its span."""
    if j - i == 1:
        out.append(x)
        return _steps(ns[i], ns[j], len(x)) if j < len(ns) else None
    _, left, right = node
    mid = (i + j) // 2
    span = _fill(left, ns, i, mid, _mod(x, left[0]),
                 _readers(right[0], c, ns, i, mid), out)
    rest = _fill(right, ns, mid, j, _right_state(x, span, right[0]), c, out)
    return None if rest is None else _then(span, rest, c)


def _walk(node: tuple, ns: list[int], i: int, j: int, x: tuple, c,
          ends: list[int], out: list):
    """Append the states at the step positions ns[i], ..., ns[j-1] to out,
    given the state x at ns[i] reduced mod node's modulus, and yield out's
    columns, emptying it, after each index in ends, the sorted ends of the
    blocks. Return the span of the steps from ns[i] to ns[j] reduced mod c,
    the product of the moduli that read it (exact for c None), or None when
    ns ends at j.

    A subtree with no block end strictly inside goes to `_fill`, so only
    the nodes above a block end are generators; the walk yields after that
    subtree if it ends a block."""
    k = bisect_right(ends, i)  # the first block end past i
    if ends[k] >= j:
        span = _fill(node, ns, i, j, x, c, out)
        if ends[k] == j:
            yield tuple(map(list, zip(*out)))
            out.clear()
        return span
    _, left, right = node
    mid = (i + j) // 2
    span = yield from _walk(left, ns, i, mid, _mod(x, left[0]),
                            _readers(right[0], c, ns, i, mid), ends, out)
    rest = yield from _walk(right, ns, mid, j, _right_state(x, span, right[0]),
                            c, ends, out)
    return None if rest is None else _then(span, rest, c)


def run_columns(blocks: list[list[int]], e: int, width: int = 2):
    """Yield ([(p-1)! mod p^e], [!p mod p^e]) for each block in turn, the
    first alone at width 1, and [Der_{p-1} mod p^e] third at width 3.

    The blocks are consecutive: each lists ascending primes, all below the
    next block's first. One product tree of p^e over the run's primes is
    built once; the state is carried from n = 1 to the first step position
    modulo its root M, in chunks of exact spans of about M's size, and one
    walk splits it down the tree, stepping each gap between positions once.
    The blocks only mark where the walk yields: each block's columns are
    computed when asked for, and the stride does not change the work. A
    subtree with no block end inside is computed whole, so its states, and
    the compositions that make its span, come out with the block it ends.
    The fold's chunks are about M's size; half or twice that measured level.

    Width 1 at e <= 3 and width 2 at e = 1 step to n = (p+1)/2 alone, and
    `_unfold` reads the columns off the state there, (h!,) or
    (h!, !(h+1), Der_h) for h = (p-1)/2, and checks each prime; width 3,
    width 2 at e >= 2 and width 1 at e >= 4 step to n = p. Over [3, 1e6]
    `wilson_zero` (width 1, e = 2) took 8.0 s and `kurepa_zero` (width 2,
    e = 1) 13.7 s, against 14.7 s and 17.8 s stepping to p (medians of 5
    alternated runs, 2-core host, Python 3.11). Reducing a big right
    child's operands first, forming only the readers' products that are
    kept and walking block-free subtrees without generators took them to
    5.8 s and 10.1 s, against 7.1 s and 11.6 s before (whole CLI runs,
    medians of 3 alternated runs, a later session on the same host). Over
    [3, 2e5] mod p^2 in blocks of 10,000 primes width 3 took 3.0-3.2 s.
    """
    ps = [p for block in blocks for p in block]
    if not ps:
        return
    half = width == 1 and e <= 3 or width == 2 and e == 1
    ns = [(p + 1) // 2 for p in ps] if half else ps
    carried = 3 if half and width == 2 else width
    tree = _product_tree([(p ** e,) for p in ps], 0, len(ps))
    m, first = tree[0], ns[0]
    x = (1 % m,) * carried  # (0!, 0!, Der_0) at n = 1
    chunk = max(_LEAF_STEPS, m.bit_length() // first.bit_length())
    for a in range(1, first, chunk):
        x = _then(x, _steps(a, min(a + chunk, first), carried), m)
    # the root's span has no reader: the empty product 1
    ends = sorted(set(accumulate(map(len, blocks))))
    states = _walk(tree, ns, 0, len(ns), x, 1, ends, [])
    if half:
        states = map(_unfold, filter(None, blocks), repeat(e), states)
    yield from states


def _unfold(ps: list[int], e: int, cols: tuple) -> tuple:
    """The columns at the primes ps, ([(p-1)! mod p^e],) from cols = ([h!],)
    at e <= 3, or ([(p-1)! mod p], [!p mod p]) from cols = ([h!], [!(h+1)],
    [Der_h]) mod p at e = 1, the states at n = h + 1, h = (p-1)/2.

    Each h! must satisfy (h!)^2 = (-1)^(h+1) (mod p), Wilson's congruence
    by the reflection k! (p-1-k)! = (-1)^(k+1) (mod p) at k = h, or else
    raise InvariantViolation naming p. Every composite fails it: an odd
    one's least prime divides h!, and at an even one, where the sign read
    from p mod 4 is +1, (h!)^2 + 1 is odd, or 2 at p = 4. Then
    Morley's congruence (1895), (-1)^h C(p-1, h) = 4^(p-1) (mod p^3) for
    p >= 5, gives (p-1)! = (-1)^h 4^(p-1) (h!)^2 (mod p^e). By the
    reflection the steps past h add sum_{j<h} (-1)^(j+1)/j! = -D_{h-1}, and
    1/h! = (-1)^(h+1) h!, so !p = !(h+1) + ((-1)^h Der_h - 1) h! (mod p).
    p = 2, which has no h, and p = 3 at e = 3, where Morley's congruence
    fails, are set directly."""
    fs, ks = [], []
    for p, x, *sd in zip(ps, *cols):
        sgn = -1 if p & 3 == 3 else 1  # (-1)^h at an odd p
        if p == 2 or p == 3 and e == 3:
            fs.append(p - 1)  # (p-1)! = p - 1
            ks.append(0)  # !2 = 0 (mod 2); p = 3 at e = 3 runs at width 1
        elif (x * x + sgn) % p:
            raise InvariantViolation(f"Wilson congruence failed at {p}")
        elif sd:
            s, d = sd
            fs.append(p - 1)
            ks.append((s + (sgn * d - 1) * x) % p)
        else:
            m = p ** e
            fs.append(sgn * pow(4, p - 1, m) * x * x % m)
    return (fs, ks) if len(cols) == 3 else (fs,)


def _factorial_columns(primes, e: int) -> tuple[list[int], list[int]]:
    """((p-1)! mod p^e, !p mod p^e) for every p in primes, in input order:
    `run_columns` with one block. Any list of primes works: unsorted, with
    repeats, or empty. At e = 1 a composite raises InvariantViolation."""
    ps = sorted(set(primes))
    if not ps:
        return [], []
    fs, ks = next(run_columns([ps], e))
    f_at, k_at = dict(zip(ps, fs)), dict(zip(ps, ks))
    return [f_at[p] for p in primes], [k_at[p] for p in primes]


def wilson_column(primes, fs) -> list[int]:
    """W_p mod p from fs = (p-1)! mod p^2, by C-level passes. Where some p
    does not divide f + 1, the block is walked through `wilson_quotient`,
    whose InvariantViolation names the first such p."""
    ws = list(map(add, fs, repeat(1)))
    if any(map(mod, ws, primes)):
        for p, f in zip(primes, fs):
            wilson_quotient(p, f)
    return list(map(mod, map(floordiv, ws, primes), primes))


def gertsch_column(primes, fs, ks, ds) -> list[int]:
    """Gertsch_p mod p from the width-3 columns fs = (p-1)!, ks = !p and
    ds = Der_{p-1} mod p^2, with one loop mod p per prime.

    The explicit sum and j^(p-1) = 1 + p q_p(j) give Bell_{p-1} =
    1 - D_{p-1} + p T (mod p^2), D_{p-1} = Der_{p-1}/(p-1)! and
    T = sum_j q_p(j) u_j mod p, u_j = D_{p-1-j}/j!. By Wilson's reflection
    u_j = -e_{p-1-j} (mod p) for e_n = (-1)^n Der_n = 1 - n e_{n-1}, so
    `_fermat_sum` of the reversed e is -T. Wilson's congruence on f,
    e_{p-1} = d (mod p) and the Gertsch numerator's divisibility each
    raise InvariantViolation when they fail."""
    gs = []
    for p, f, k, d in zip(primes, fs, ks, ds):
        wilson_quotient(p, f)
        e, x = [1] * p, 1
        for n in range(1, p):
            x = (1 - n * x) % p
            e[n] = x
        if (x - d) % p:
            raise InvariantViolation(f"derangement column failed at {p}")
        e.reverse()
        b2 = 1 - d * pow(f, -1, p * p) - p * _fermat_sum(p, e)
        gs.append(gertsch_quotient(p, k, b2 % (p * p)))
    return gs
