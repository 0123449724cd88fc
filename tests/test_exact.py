import itertools
import math
import random
from fractions import Fraction

import pytest

from kurepa import exact
from kurepa.errors import CapacityError, DomainError
from oracles import left_factorials_py


class TestLeftFactorial:
    def test_values(self):
        assert exact.left_factorial(0) == 0
        assert exact.left_factorial(1) == 1
        assert exact.left_factorial(5) == 34
        assert exact.left_factorial(6) == 154

    def test_prime_indices(self):
        known = {3: 4, 5: 34, 7: 874, 11: 4_037_914, 13: 522_956_314,
                 17: 22_324_392_524_314}
        for p, k in known.items():
            assert exact.left_factorial(p) == k

    def test_successor_property(self):
        for n in range(1, 40):
            assert (exact.left_factorial(n + 1)
                    == exact.left_factorial(n) + math.factorial(n))

    def test_binary_splitting_matches_loop(self):
        for n, want in enumerate(left_factorials_py(3000)):
            assert exact.left_factorial(n) == want, n

    def test_binary_splitting_matches_loop_seeded(self):
        for n in random.Random(20261019).sample(range(3001, 20_001), 5):
            *_, want = left_factorials_py(n)
            assert exact.left_factorial(n) == want, n

    def test_successor_report_reads_the_given_values(self):
        # the catalog's C29 passes the record's (!p, !(p+1)) and p!; a wrong
        # value shows as a failed identity
        for n in (1, 2, 7, 10):
            lf, lf_next = exact.left_factorial(n), exact.left_factorial(n + 1)
            fact = exact.factorial(n)
            assert (exact._successor_report(n, lf, lf_next, fact)
                    == exact.successor_identities(n))
            assert not exact._successor_report(n, lf, lf_next + 1, fact).step_holds
            assert not exact._successor_report(n, lf, lf_next, fact + 1).step_holds
        assert not exact._successor_report(
            10, 1, exact.left_factorial(11), exact.factorial(10)).factorial_diff_holds


class TestBell:
    def test_values(self):
        assert exact.bell_exact(0) == 1
        assert exact.bell_exact(4) == 15
        assert exact.bell_exact(10) == 115_975
        assert exact.bell_exact(16) == 10_480_142_147

    def test_equals_stirling_row_sums(self):
        for n in range(13):
            assert exact.bell_exact(n) == sum(exact.stirling2_row(n))

    def test_cap(self):
        with pytest.raises(CapacityError):
            exact.bell_exact(10_000)


def brute_derangements(n):
    return sum(1 for perm in itertools.permutations(range(n))
               if all(perm[i] != i for i in range(n)))


def brute_stirling2(n, k):
    count = 0

    def gen(i, blocks):
        nonlocal count
        if i == n:
            count += len(blocks) == k
            return
        for b in blocks:
            b.append(i)
            gen(i + 1, blocks)
            b.pop()
        blocks.append([i])
        gen(i + 1, blocks)
        blocks.pop()

    gen(0, [])
    return count


class TestDerangement:
    def test_small(self):
        assert exact.derangement_exact(0) == 1
        assert exact.derangement_exact(1) == 0

    def test_brute_force_oracle(self):
        for n in range(8):
            assert exact.derangement_exact(n) == brute_derangements(n)

    def test_closed_form(self):
        # n! * sum_{k<=n} (-1)^k / k!
        for n in range(30):
            s = sum(Fraction((-1) ** k, math.factorial(k)) for k in range(n + 1))
            assert exact.derangement_exact(n) == math.factorial(n) * s


class TestStirling2:
    def test_edges(self):
        for n in range(8):
            assert exact.stirling2(n, n) == 1
        assert exact.stirling2(4, 2) == 7

    def test_brute_force_oracle(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert exact.stirling2(n, k) == brute_stirling2(n, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            exact.stirling2(3, 4)


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: Akiyama-Tanigawa gives B_1 = +1/2; flip to -1/2."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return out


class TestBernoulli:
    def test_first_values(self):
        assert exact.bernoulli_exact(0) == 1
        assert exact.bernoulli_exact(1) == Fraction(-1, 2)
        assert exact.bernoulli_exact(2) == Fraction(1, 6)
        assert exact.bernoulli_exact(3) == 0
        assert exact.bernoulli_exact(12) == Fraction(-691, 2730)

    def test_akiyama_tanigawa_oracle(self):
        oracle = bernoulli_akiyama_tanigawa(40)
        for k in range(41):
            assert exact.bernoulli_exact(k) == oracle[k]

    def test_sign_and_vanishing(self):
        for m in range(1, 30):
            assert exact.bernoulli_exact(2 * m + 1) == 0
            b = exact.bernoulli_exact(2 * m)
            assert (b > 0) == (m % 2 == 1)

    def test_cap(self):
        with pytest.raises(CapacityError):
            exact.bernoulli_exact(258)


def gregory_integral_oracle(n):
    """G_n = (1/n!) * integral_0^1 x(x-1)...(x-n+1) dx, expanded exactly."""
    coeffs = [Fraction(1)]
    for i in range(n):
        new = [Fraction(0)] * (len(coeffs) + 1)
        for d, cf in enumerate(coeffs):
            new[d + 1] += cf
            new[d] -= cf * i
        coeffs = new
    integral = sum(cf / (d + 1) for d, cf in enumerate(coeffs))
    return integral / math.factorial(n)


class TestGregory:
    def test_first_values(self):
        assert exact.gregory_exact(0) == 1
        assert exact.gregory_exact(1) == Fraction(1, 2)
        assert exact.gregory_exact(2) == Fraction(-1, 12)
        assert exact.gregory_exact(3) == Fraction(1, 24)
        assert exact.gregory_exact(4) == Fraction(-19, 720)

    def test_integral_oracle(self):
        for n in range(13):
            assert exact.gregory_exact(n) == gregory_integral_oracle(n)

    def test_alternating_signs(self):
        for n in range(1, 40):
            assert ((-1) ** (n - 1)) * exact.gregory_exact(n) > 0


class TestQuotients:
    def test_wilson(self):
        assert exact.wilson_quotient_exact(3) == 1
        assert exact.wilson_quotient_exact(5) == 5
        assert exact.wilson_quotient_exact(7) == 103

    def test_wilson_composite(self):
        with pytest.raises(DomainError):
            exact.wilson_quotient_exact(9)

    def test_gertsch(self):
        assert exact.gertsch_quotient_exact(3) == 1
        assert exact.gertsch_quotient_exact(5) == 4
        assert exact.gertsch_quotient_exact(7) == 96
        assert exact.gertsch_quotient_exact(11) == 356540

    def test_gertsch_is_integer_up_to_61(self):
        # exactness is asserted inside; the call not raising is the check
        from kurepa.modmath import iter_primes
        for p in iter_primes(3, 61):
            g = exact.gertsch_quotient_exact(p)
            assert (exact.left_factorial(p) - exact.bell_exact(p - 1) + 1
                    == p * g)

    def test_lerch_and_h(self):
        assert exact.lerch_quotient_exact(3) == 0
        assert exact.lerch_quotient_exact(5) == 13
        assert exact.lerch_quotient_exact(7) == 1356
        assert exact.h_quotient_exact(3) == 0
        assert exact.h_quotient_exact(5) == Fraction(66, 5)
        assert exact.h_quotient_exact(7) == 1357

    def test_lerch_always_integral(self):
        from kurepa.modmath import iter_primes
        for p in iter_primes(3, 60):
            assert exact.lerch_quotient_exact(p).denominator == 1

    def test_agoh_giuga(self):
        assert exact.agoh_giuga_exact(3) == Fraction(1, 2)
        assert exact.agoh_giuga_exact(5) == Fraction(1, 6)
        assert exact.agoh_giuga_exact(13) == Fraction(-37, 210)

    def test_agoh_giuga_denominator_coprime_to_p(self):
        from kurepa.modmath import iter_primes
        for p in iter_primes(3, 97):
            assert exact.agoh_giuga_exact(p).denominator % p != 0

    def test_agoh_giuga_cap(self):
        with pytest.raises(CapacityError):
            exact.agoh_giuga_exact(263)

    def test_quotient_record(self):
        rec = exact.quotient_record(5)
        assert (rec.wilson, rec.lerch, rec.gertsch, rec.h) == \
            (5, 13, 4, Fraction(66, 5))


def hodge_series_oracle(gmax):
    """Reciprocal of sum_n u^n / (4^n (2n+1)!) with u = t^2."""
    a = [Fraction(1, 4 ** n * math.factorial(2 * n + 1)) for n in range(gmax + 1)]
    c = [Fraction(1)]
    for n in range(1, gmax + 1):
        c.append(-sum(a[k] * c[n - k] for k in range(1, n + 1)))
    return c


class TestHodge:
    def test_values(self):
        assert exact.hodge_bg_exact(0) == 1
        assert exact.hodge_bg_exact(1) == Fraction(-1, 24)
        assert exact.hodge_bg_exact(2) == Fraction(7, 5760)
        assert exact.hodge_bg_exact(3) == Fraction(-31, 967680)

    def test_series_oracle(self):
        oracle = hodge_series_oracle(12)
        for g in range(13):
            assert exact.hodge_bg_exact(g) == oracle[g]

    def test_alternating_series_gives_magnitudes(self):
        a = [Fraction((-1) ** n, 4 ** n * math.factorial(2 * n + 1))
             for n in range(9)]
        c = [Fraction(1)]
        for n in range(1, 9):
            c.append(-sum(a[k] * c[n - k] for k in range(1, n + 1)))
        for g in range(9):
            assert abs(exact.hodge_bg_exact(g)) == c[g]


class TestGiugaSum:
    def test_values(self):
        assert exact.giuga_sum(5) == 4     # 354 mod 5
        assert exact.giuga_sum(4) == 0     # composite witness
        assert exact.giuga_sum(3) == 2

    def test_prime_iff_minus_one_small(self):
        from kurepa.modmath import is_prime
        for n in range(2, 200):
            assert (int(exact.giuga_sum(n)) == n - 1) == is_prime(n)


class TestSuccessorIdentities:
    def test_holds(self):
        for n in (1, 2, 5, 6, 10):
            rep = exact.successor_identities(n)
            assert rep.step_holds and rep.factorial_diff_holds

    def test_genus_split_fails_as_reported(self):
        rep = exact.genus_split_report(1, 1)
        assert rep.lhs == 2 and rep.rhs == 6
        assert not rep.split_holds
        assert rep.diff_form_holds

    def test_genus_split_difference_form_always_holds(self):
        for g1 in range(1, 5):
            for g2 in range(1, 5):
                assert exact.genus_split_report(g1, g2).diff_form_holds
