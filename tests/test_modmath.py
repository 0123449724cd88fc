import math
import operator

import pytest
from hypothesis import given, strategies as st

from kurepa import config, modmath
from kurepa.errors import DomainError, EmptyRangeError, NotInvertibleError
from kurepa.modmath import (
    UNDEFINED,
    PrimeRange,
    Residue,
    is_prime,
    iter_primes,
    mod_inv,
    mod_pow,
    rational_residue,
    sieve_primes,
    sieve_upto,
)

# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233; psi_12 and psi_13 from Sorenson and Webster, Math. Comp. 86
# (2017) 985-1003). psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
PSI = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
       3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
       3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
       3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
       3_317_044_064_679_887_385_961_981)


def brute_primes(lo, hi):
    def isp(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True
    return [n for n in range(lo, hi + 1) if isp(n)]


class TestSieve:
    def test_small_windows(self):
        assert sieve_primes(2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert sieve_primes(3, 3) == [3]
        assert sieve_primes(24, 28) == []

    def test_empty_range_error(self):
        with pytest.raises(EmptyRangeError):
            sieve_primes(10, 9)
        with pytest.raises(DomainError):
            sieve_primes(1, 10)

    def test_matches_brute_force(self):
        assert sieve_primes(2, 500) == brute_primes(2, 500)
        assert sieve_primes(900, 1100) == brute_primes(900, 1100)

    def test_segment_boundaries(self, monkeypatch):
        # tiny segments force many blocks and off-by-one exposure
        monkeypatch.setattr(config, "SIEVE_SEGMENT", 64)
        assert list(iter_primes(9000, 11000)) == brute_primes(9000, 11000)
        monkeypatch.setattr(config, "SIEVE_SEGMENT", 10)
        assert list(iter_primes(2, 300)) == brute_primes(2, 300)

    def test_sieve_upto(self):
        assert sieve_upto(1) == []
        assert sieve_upto(2) == [2]
        assert sieve_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        # sieve_upto reads iter_primes, which takes its base primes from
        # sieve_upto(isqrt(n)): this pins the recursion's ends (n < 4) and
        # every prime square up to 400, plus 31^2
        for n in [*range(401), 961, 10**4]:
            assert sieve_upto(n) == brute_primes(2, n), n

    def test_fermat_cross_validation(self):
        # every sieved p satisfies a^(p-1) = 1 (mod p) for p not dividing a
        for p in sieve_primes(5, 2000):
            for a in (2, 3, 5):
                if a % p:
                    assert mod_pow(a, p - 1, p) == 1


class TestIsPrime:
    def test_small(self):
        assert [n for n in range(60) if is_prime(n)] == brute_primes(0, 59)

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911])
    def test_carmichael_rejected(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321])
    def test_base2_pseudoprimes_rejected(self, n):
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2 ** 61 - 1)
        assert is_prime(1_000_000_007)
        assert is_prime(10 ** 18 + 9)

    def test_large_composites(self):
        assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
        assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))

    def test_beyond_deterministic_bound_uses_bpsw(self):
        assert is_prime(2 ** 89 - 1)       # Mersenne prime, ~6.2e26
        assert not is_prime(2 ** 87 - 1)
        assert not is_prime((2 ** 61 - 1) ** 2)

    def test_agreement_with_sieve(self):
        assert [n for n in range(10 ** 5 + 1) if is_prime(n)] == sieve_primes(2, 10 ** 5)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_psi_k_is_composite(self, k):
        # psi_12 = 399165290221 * 798330580441 needs base 41
        n = PSI[k - 1]
        assert not any(modmath._miller_rabin_witness(n, a) for a in modmath._MR_WITNESSES[:k])
        assert any(modmath._miller_rabin_witness(n, a) for a in sieve_primes(2, 47))
        assert not is_prime(n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agreement_with_sieve_around_psi_k(self, k):
        lo, hi = max(2, PSI[k - 1] - 10 ** 4), PSI[k - 1] + 10 ** 4
        assert [n for n in range(lo, hi + 1) if is_prime(n)] == sieve_primes(lo, hi)

    # from psi_13 up is_prime runs the BPSW path itself
    @pytest.mark.parametrize("psi", sorted(set(PSI[4:12])))
    def test_agreement_with_bpsw_from_psi_k(self, psi):
        def bpsw(n):
            return (not modmath._miller_rabin_witness(n, 2)
                    and math.isqrt(n) ** 2 != n and modmath._strong_lucas_prp(n))
        for n in range(psi | 1, (psi | 1) + 1000, 2):
            assert is_prime(n) == bpsw(n), n


class TestBPSW:
    """is_prime above the deterministic Miller-Rabin bound: a strong base-2
    test, the perfect-square guard, then the strong Lucas chain."""

    M89, M107, M127 = 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1

    @pytest.mark.parametrize("n", [M89, M107, M127])
    def test_mersenne_primes(self, n):
        assert n > modmath._MR_DETERMINISTIC_BOUND
        assert is_prime(n)

    @pytest.mark.parametrize("n", [M89 * M107, M89 ** 2])
    def test_composites(self, n):
        assert not is_prime(n)

    def test_square_rejected_before_the_lucas_chain(self, monkeypatch):
        # A square has no D with Jacobi(D/n) = -1, so the Lucas parameter
        # search would never end. Only squares of Wieferich primes' products
        # pass the base-2 test, and the known ones lie below the bound, so a
        # base-2 liar is planted to reach the guard.
        monkeypatch.setattr(modmath, "_miller_rabin_witness", lambda n, a: False)
        monkeypatch.setattr(modmath, "_strong_lucas_prp", None)
        assert not is_prime(self.M89 ** 2)

    # OEIS A217255, the first strong Lucas pseudoprimes (Selfridge method A)
    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])
    def test_strong_lucas_pseudoprimes_pass(self, n):
        assert not is_prime(n)
        assert modmath._strong_lucas_prp(n)

    def test_strong_lucas_passes_primes(self):
        primes = sieve_primes(3, 3000) + [self.M89, self.M107, self.M127]
        assert all(map(modmath._strong_lucas_prp, primes))

    def test_strong_lucas_rejects_odd_composites(self):
        pseudo = {5459, 5777, 10877, 16109, 18971}
        for n in range(9, 20000, 2):
            if not is_prime(n) and math.isqrt(n) ** 2 != n:
                assert modmath._strong_lucas_prp(n) == (n in pseudo), n


class TestResidue:
    def test_normalization(self):
        assert Residue(-1, 7).value == 6
        assert Residue(15, 7).value == 1

    def test_arithmetic(self):
        a, b = Residue(5, 11), Residue(9, 11)
        assert (a + b).value == 3
        assert (a - b).value == 7
        assert (a * b).value == 1
        assert (a ** 3).value == pow(5, 3, 11)
        assert a.inverse() * a == 1
        assert int(a) == 5

    def test_negative_power(self):
        a = Residue(5, 11)
        assert a ** -1 == a.inverse() and a ** -3 == a.inverse() ** 3
        with pytest.raises(NotInvertibleError):
            Residue(2, 4) ** -1

    def test_modulus_mismatch(self):
        with pytest.raises(DomainError):
            Residue(1, 5) + Residue(1, 7)

    def test_int_comparison(self):
        assert Residue(5, 11) == 16
        assert Residue(5, 11) != 6

    def test_index(self):
        r = Residue(-2, 11)
        assert operator.index(r) == 9 and "abcdefghijk"[r] == "j"
        assert list(range(11))[Residue(14, 11):] == [3, 4, 5, 6, 7, 8, 9, 10]

    def test_undefined_is_falsy(self):
        assert bool(UNDEFINED) is False and not rational_residue(1, 3, 3)

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            Residue(0, 1)


class TestModKernels:
    def test_mod_pow_examples(self):
        assert mod_pow(2, 10, 1000) == 24
        assert mod_pow(3, 10, 121) == 1  # 11 is a Mirimanoff prime
        assert mod_pow(12345, 0, 7) == 1

    def test_mod_pow_negative_exp(self):
        with pytest.raises(DomainError):
            mod_pow(2, -1, 7)

    def test_mod_inv_examples(self):
        assert mod_inv(6, 7) == 6
        assert mod_inv(2, 5) == 3

    def test_mod_inv_not_invertible(self):
        with pytest.raises(NotInvertibleError) as e:
            mod_inv(6, 3)
        assert e.value.gcd == 3

    @given(st.integers(1, 10 ** 9), st.integers(2, 10 ** 9))
    def test_mod_inv_property(self, a, m):
        import math
        if math.gcd(a, m) == 1:
            assert (int(mod_inv(a, m)) * a) % m == 1
        else:
            with pytest.raises(NotInvertibleError):
                mod_inv(a, m)

    def test_rational_residue_examples(self):
        assert rational_residue(1, 2, 3) == 2
        assert rational_residue(1, 6, 7) == 6
        assert rational_residue(1, 6, 3) is UNDEFINED

    def test_rational_residue_zero_den(self):
        with pytest.raises(DomainError):
            rational_residue(1, 0, 5)

    @given(st.fractions(), st.fractions(), st.sampled_from([3, 5, 7, 11, 97]))
    def test_rational_residue_multiplicative(self, q1, q2, p):
        r1 = rational_residue(q1.numerator, q1.denominator or 1, p) \
            if q1.denominator else None
        q3 = q1 * q2
        r1 = rational_residue(q1.numerator, q1.denominator, p)
        r2 = rational_residue(q2.numerator, q2.denominator, p)
        r3 = rational_residue(q3.numerator, q3.denominator, p)
        if r1 is not UNDEFINED and r2 is not UNDEFINED and r3 is not UNDEFINED:
            assert r1 * r2 == r3


class TestPrimeRange:
    def test_iteration(self):
        assert list(PrimeRange(2, 20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert PrimeRange(24, 28).primes() == []

    def test_contains(self):
        r = PrimeRange(3, 100)
        assert 97 in r
        assert 91 not in r  # 7*13
        assert 101 not in r

    def test_validation(self):
        with pytest.raises(EmptyRangeError):
            PrimeRange(10, 3)
        with pytest.raises(DomainError):
            PrimeRange(0, 10)
