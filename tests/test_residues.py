import math
import random
import sys
import threading
import weakref
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from kurepa import _kernels as K
from kurepa import adele as A, checks as C, config, exact, residues as R
from kurepa.errors import CapacityError, DomainError, InvariantViolation
from kurepa.modmath import (PrimeRange, Residue, fraction_residue, is_prime, iter_primes,
                            mod_inv, sieve_primes)
from kurepa.residues import PrimeContext
from oracles import (bell_seq_mod_py, bernoulli_table_mod_py, gertsch_split_py,
                     gregory_table_mod_py, kurepa_gf_mod_py, kurepa_mod_py)


class TestKurepaKernels:
    def test_kurepa_mod(self):
        assert R.kurepa_mod(5, 1) == 4
        assert R.kurepa_mod(13, 1) == 10
        assert R.kurepa_mod(3, 2) == 4  # !3 = 4 < 9
        assert [int(R.kurepa_mod(2, e)) for e in (1, 2, 3)] == [0, 2, 2]  # !2 = 2

    def test_kurepa_gf(self):
        assert kurepa_gf_mod_py(5) == 4
        assert kurepa_gf_mod_py(11) == 1
        assert kurepa_gf_mod_py(3) == 1

    def test_dual_kernel_agreement(self):
        for p in iter_primes(3, 500):
            assert int(R.kurepa_mod(p, 1)) == kurepa_gf_mod_py(p)

    def test_bad_power(self):
        with pytest.raises(DomainError):
            R.kurepa_mod(5, 4)


class TestBellDerangement:
    def test_bell_mod(self):
        assert R.bell_mod(10, 11) == 2
        assert R.bell_mod(562, 563) == 107
        assert R.bell_mod(5, 5) == 2  # Bell_5 = 52

    def test_bell_cap(self):
        with pytest.raises(CapacityError):
            R.bell_mod(100_003, 7)

    def test_derangement(self):
        assert R.derangement_mod(4, 5) == int(R.kurepa_mod(5, 1))
        assert R.derangement_mod(0, 7) == 1
        assert R.derangement_mod(10, 11) == int(R.kurepa_mod(11, 1))

    def test_derangement_matches_exact(self):
        for n in range(25):
            for p in (7, 101):
                assert int(R.derangement_mod(n, p)) == exact.derangement_exact(n) % p


class TestQuotientKernels:
    def test_wilson(self):
        assert R.wilson_quotient_mod(11) == 1
        assert R.wilson_quotient_mod(563) == 0
        assert R.wilson_quotient_mod(7) == 103 % 7

    def test_wilson_composite_signals(self):
        with pytest.raises((InvariantViolation, DomainError)):
            R.wilson_quotient_mod(9)

    def test_wilson_mod_p2(self):
        for p in (5, 7, 13):
            w = exact.wilson_quotient_exact(p)
            assert int(R.wilson_quotient_mod(p, e=2)) == w % (p * p)

    def test_fermat(self):
        assert R.fermat_quotient_mod(1093, 2) == 0
        assert R.fermat_quotient_mod(11, 3) == 0
        assert R.fermat_quotient_mod(97, 1) == 0
        assert R.fermat_quotient_mod(2, 3) == 1              # (3 - 1)/2 mod 2

    def test_fermat_divides(self):
        with pytest.raises(DomainError):
            R.fermat_quotient_mod(7, 14)

    @pytest.mark.parametrize("e", [0, -1])
    def test_fermat_power_below_one_rejected(self, e):
        with pytest.raises(DomainError):
            R.fermat_quotient_mod(7, 2, e)

    def test_fermat_matches_exact(self):
        for p in (5, 7, 13):
            for a in range(1, p):
                assert (int(R.fermat_quotient_mod(p, a))
                        == exact.fermat_quotient_exact(a, p) % p)

    def test_lerch(self):
        assert R.lerch_quotient_mod(7) == 1356 % 7
        assert R.lerch_quotient_mod(5) == 13 % 5
        assert R.lerch_quotient_mod(3) == 0

    def test_lerch_matches_exact(self, monkeypatch):
        monkeypatch.setattr(config, "EXACT_POWER_SUM_CAP", 200)
        for p in iter_primes(3, 200):
            assert (int(R.lerch_quotient_mod(p))
                    == int(exact.lerch_quotient_exact(p)) % p), p

    def test_lerch_checks_primality_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(R, "is_prime", lambda n: calls.append(n) or True)
        R.lerch_quotient_mod(101)
        assert calls == [101]

    def test_gertsch(self):
        assert R.gertsch_quotient_mod(7) == 96 % 7
        assert R.gertsch_quotient_mod(3) == 1
        assert R.gertsch_quotient_mod(11) == 356540 % 11


class TestDivisibilityInvariants:
    """A value that breaks a proved divisibility raises InvariantViolation
    instead of yielding a quotient."""

    PRIMES = (3, 5, 7, 11, 13, 101)

    @pytest.mark.parametrize("p", PRIMES)
    def test_gertsch_numerator_off_by_one(self, p):
        m = p * p
        k2, b2 = exact.left_factorial(p) % m, exact.bell_exact(p - 1) % m
        assert K.gertsch_quotient(p, k2, b2) == exact.gertsch_quotient_exact(p) % p
        for bad in (k2 + 1, k2 - 1):
            with pytest.raises(InvariantViolation, match="Gertsch"):
                K.gertsch_quotient(p, bad, b2)

    @pytest.mark.parametrize("p", PRIMES)
    def test_lerch_with_planted_qsum(self, p):
        ctx = PrimeContext(p)
        ctx.qsum = (ctx.wilson + 1) % p  # shadows the cached property
        for _ in range(2):
            with pytest.raises(InvariantViolation, match="Lerch"):
                ctx.lerch

    @pytest.mark.parametrize("p", PRIMES)
    def test_ag_with_planted_exact_mismatch(self, monkeypatch, p):
        assert p - 1 <= config.EXACT_INDEX_CAP  # the exact path runs
        ag = exact._agoh_giuga
        monkeypatch.setattr(exact, "_agoh_giuga", lambda q: ag(q) + 1)
        ctx = PrimeContext(p)
        for _ in range(2):
            with pytest.raises(InvariantViolation, match=f"AG_{p}"):
                ctx.ag


class TestModTables:
    def test_bernoulli_entries(self):
        assert R.bernoulli_mod_table(7).value(1) == 3       # -1/2 mod 7
        assert R.bernoulli_mod_table(5).value(2) == 1       # 1/6 mod 5

    def test_bernoulli_table_oracle_p13(self):
        t = R.bernoulli_mod_table(13)
        assert len(t) == 12
        for k in range(12):
            assert t.value(k) == int(fraction_residue(exact.bernoulli_exact(k), 13))

    def test_bernoulli_invariants(self):
        for p in (5, 11, 101):
            t = R.bernoulli_mod_table(p)
            assert t.value(1) == int(fraction_residue(Fraction(-1, 2), p))
            for k in range(3, p - 1, 2):
                assert t.value(k) == 0

    @pytest.mark.parametrize("k", [-1, 6, 7])
    def test_bernoulli_index_out_of_range(self, k):
        # B_0..B_5 mod 7: a negative index must not wrap to the end
        with pytest.raises(DomainError):
            R.bernoulli_mod_table(7).value(k)

    def test_bernoulli_cap(self, monkeypatch):
        monkeypatch.setattr(config, "BERNOULLI_MOD_CAP", 5000)
        with pytest.raises(CapacityError):
            PrimeContext(7919).bern

    def test_gregory_entries(self):
        assert R.gregory_mod_table(3).value(1) == 2          # 1/2 mod 3
        assert R.gregory_mod_table(5).value(3) == 4          # 1/24 mod 5

    def test_gregory_table_oracle_p11(self):
        t = R.gregory_mod_table(11)
        assert len(t) == 9
        for n in range(1, 10):
            assert t.value(n) == int(fraction_residue(exact.gregory_exact(n), 11))

    def test_gregory_abs(self):
        t = R.gregory_mod_table(11)
        for n in range(1, 10):
            g = exact.gregory_exact(n)
            assert t.abs(n) == int(fraction_residue(abs(g), 11))


class TestBernoulliIndexSums:
    def test_small_values(self):
        assert int(R.bernoulli_index_sums(3).even) == 0
        assert int(R.bernoulli_index_sums(5).even) == 3      # 1/12 mod 5
        assert int(R.bernoulli_index_sums(7).alternating) == 0

    def test_wilson_relations(self):
        for p in iter_primes(3, 300):
            a = R.bernoulli_index_sums(p)
            w = int(R.wilson_quotient_mod(p))
            assert int(a.alternating) == (w + 2) % p
            assert int(a.plain) == (w + 1) % p
            assert int(a.even) == (w + int(mod_inv(2, p))) % p

    def test_offsets_between_sums(self):
        # alternating = 3/2 + even, plain = 1/2 + even, as residues
        for p in iter_primes(5, 100):
            a = R.bernoulli_index_sums(p)
            half = int(mod_inv(2, p))
            assert int(a.alternating) == (int(a.even) + 3 * half) % p
            assert int(a.plain) == (int(a.even) + half) % p

    def test_main_congruence(self):
        # !p * (factorial-weighted alternating sum) = weighted left-factorial sum
        for p in iter_primes(5, 300):
            lhs = int(R.kurepa_mod(p, 1)) * int(R.bernoulli_factorial_sum_mod(p)) % p
            assert lhs == int(R.bernoulli_left_factorial_sum_mod(p))

    def test_rhs_small_cases(self):
        # p=5: single term (B_2/2!)(K_2 - 1) = 1/12
        assert int(R.bernoulli_left_factorial_sum_mod(5)) == int(fraction_residue(Fraction(1, 12), 5))
        # p=7: independent exact evaluation
        want = (Fraction(1, 12) * (exact.left_factorial(2) - 1)
                + Fraction(-1, 720) * (exact.left_factorial(4) - 1))
        assert int(R.bernoulli_left_factorial_sum_mod(7)) == int(fraction_residue(want, 7))


class TestAgohGiuga:
    def test_values(self):
        assert R.agoh_giuga_mod(5) == 1     # 1/6 mod 5
        assert R.agoh_giuga_mod(7) == 6     # 1/6 mod 7 and W_7 + 1
        assert R.agoh_giuga_mod(3) == 2     # 1/2 mod 3

    def test_cross_path_agreement(self):
        # the function raises if the exact and Wilson paths disagree
        for p in iter_primes(3, 97):
            r = int(R.agoh_giuga_mod(p))
            assert r == int(fraction_residue(exact.agoh_giuga_exact(p), p))

    def test_special_quotient_pairs(self):
        assert R.special_quotient_mod(3, 2) == 0
        assert R.special_quotient_mod(7, 6) == 0
        assert R.special_quotient_mod(19, 14) == 0

    def test_special_quotient_domain(self):
        with pytest.raises(DomainError):
            R.special_quotient_mod(7, 21)


class TestBellWilsonSum:
    def test_values(self):
        assert int(R.bell_wilson_sum_mod(5)) == 3
        assert int(R.bell_wilson_sum_mod(7)) == 6
        assert R.bell_wilson_sum_mod(11) is R.FRACTIONAL
        assert R.bell_wilson_sum_mod(563) is R.FRACTIONAL

    @pytest.mark.parametrize("p, fractional", [(5, False), (7, False), (11, True),
                                               (563, True), (1031, True)])
    def test_p_squared_only_where_p_divides_bell(self, monkeypatch, p, fractional):
        # divisibility is decided mod p, where Fermat leaves no power table
        moduli, bell = [], K.bell_mod
        monkeypatch.setattr(K, "bell_mod", lambda *a: moduli.append(a[1]) or bell(*a))
        if fractional:
            monkeypatch.setattr(K, "_powers", lambda *a: pytest.fail(f"_powers{a}"))
        ctx = PrimeContext(p)
        assert (ctx.bell_wilson_sum is R.FRACTIONAL) == fractional
        assert ("bell3" in vars(ctx)) != fractional
        assert moduli == ([p] if fractional else [p, p ** 3]), moduli

    def test_exact_cross_check(self):
        # p=5: Bell_4/5 + W_5 = 3 + 5 = 8 = 3 (mod 5)
        assert int(R.bell_wilson_sum_mod(5)) == (exact.bell_exact(4) // 5
                                         + exact.wilson_quotient_exact(5)) % 5


class TestSums:
    def test_harmonic(self):
        assert R.harmonic_mod(5, 4, 1) == 0   # 1 + 3 + 2 + 4 = 10
        for p in (7, 13):
            for n in (1, 3, p - 1):
                for k in (1, 2):
                    want = sum(Fraction(1, m ** k) for m in range(1, n + 1))
                    assert int(R.harmonic_mod(p, n, k)) == int(fraction_residue(want, p))

    @pytest.mark.parametrize("c", [8, 9, 15])
    def test_harmonic_composite_raises(self, c):
        # 1 + 1/2 + 1/3 has no value mod 9
        with pytest.raises(DomainError):
            R.harmonic_mod(c, 3, 1)

    def test_sun_zagier(self):
        assert R.sun_zagier_sum(5, 1) == 1
        assert R.sun_zagier_sum(7, 1) == 1

    def test_sun_zagier_derangement_identity(self):
        for p in iter_primes(3, 60):
            for m in range(1, min(p, 9)):
                want = (-1) ** (m - 1) * exact.derangement_exact(m - 1) % p
                assert int(R.sun_zagier_sum(p, m)) == want

    def test_power_sum(self):
        # sum a^4 = 354; 354 mod 25 = 4
        assert int(R.power_sum_mod(5, 2)) == 354 % 25

    def test_power_sum_matches_pow_loop(self):
        rng = random.Random(3303)
        seeded = rng.sample(sieve_primes(10_000, 30_000), 5)
        for p in list(iter_primes(2, 300)) + seeded:
            for e in (1, 2, 3):
                m = p ** e
                want = sum(pow(a, p - 1, m) for a in range(1, p)) % m
                assert R.power_sum_mod(p, e) == Residue(want, m), (p, e)

    @pytest.mark.parametrize("p", [-2, 0, 1])
    def test_power_sum_rejects_small_modulus(self, p):
        with pytest.raises(DomainError):
            R.power_sum_mod(p, 1)

    @pytest.mark.parametrize("p, e", [(7, -1), (-5, 2), (9, 2)])
    def test_power_sum_rejects_bad_arguments(self, p, e):
        # p must be prime and e >= 1, as for fermat_quotient_mod
        with pytest.raises(DomainError):
            R.power_sum_mod(p, e)


class TestProfile:
    def test_profile_invariant(self):
        for p in (3, 5, 7, 11, 13, 97):
            prof = R.residue_profile(p)
            assert prof.k_mod == (prof.bell_mod - 1) % p

    def test_profile_matches_exact(self):
        p = 13
        prof = R.residue_profile(p, e=2)
        assert prof.k_mod == exact.left_factorial(p) % p ** 2
        assert prof.bell_mod == exact.bell_exact(p - 1) % p ** 2
        assert prof.der_mod == exact.derangement_exact(p - 1) % p
        assert prof.wilson_q == exact.wilson_quotient_exact(p) % p
        assert prof.gertsch_q == exact.gertsch_quotient_exact(p) % p
        assert prof.lerch_q == exact.lerch_quotient_exact(p) % p

    def test_profile_p3_has_no_q3(self):
        assert R.residue_profile(3).fermat_q3 is None

    def test_profile_composite(self):
        with pytest.raises(DomainError):
            R.residue_profile(10)

    def test_profile_bad_power(self):
        with pytest.raises(DomainError):
            R.residue_profile(7, 4)

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_profile_matches_exact_small_primes(self, monkeypatch, e):
        monkeypatch.setattr(config, "EXACT_POWER_SUM_CAP", 200)
        for p in iter_primes(3, 200):
            prof = R.residue_profile(p, e)
            w = exact.wilson_quotient_exact(p) % p
            assert (prof.p, prof.e) == (p, e)
            assert prof.k_mod == exact.left_factorial(p) % p ** e, p
            assert prof.bell_mod == exact.bell_exact(p - 1) % p ** e, p
            assert prof.der_mod == exact.derangement_exact(p - 1) % p, p
            assert prof.wilson_q == w, p
            assert prof.gertsch_q == exact.gertsch_quotient_exact(p) % p, p
            assert prof.fermat_q2 == exact.fermat_quotient_exact(2, p) % p, p
            assert prof.fermat_q3 == (exact.fermat_quotient_exact(3, p) % p
                                      if p != 3 else None), p
            assert prof.lerch_q == int(exact.lerch_quotient_exact(p)) % p, p
            assert prof.ag_q == int(fraction_residue(exact.agoh_giuga_exact(p), p)), p
            assert prof.bernoulli_sums == ((w + 2) % p, (w + 1) % p,
                                           (w + pow(2, -1, p)) % p), p

    def test_profile_matches_loops_random_window(self):
        # routes that share no code with PrimeContext: plain loops and pow()
        rng = random.Random(7013)
        pool = sieve_primes(2000, 4000)
        start = rng.randrange(len(pool) - 10)
        for p in pool[start:start + 10]:
            m3 = p ** 3
            k3 = kurepa_mod_py(p, m3)
            w2 = (K.factorial_mod(p - 1, m3) + 1) // p % p ** 2
            b3 = K.bell_seq_mod(p - 1, m3)[p - 1]
            s3 = sum(pow(a, p - 1, m3) for a in range(1, p)) % m3
            w = w2 % p
            q = lambda a: (pow(a, p - 1, p * p) - 1) // p  # noqa: E731
            lerch = ((s3 - (p - 1)) // p - w2) % p ** 2 // p
            for e in (1, 2, 3):
                prof = R.residue_profile(p, e)
                assert prof.k_mod == k3 % p ** e, (p, e)
                assert prof.bell_mod == b3 % p ** e, (p, e)
                assert prof.der_mod == k3 % p, (p, e)
                assert prof.wilson_q == w, (p, e)
                assert prof.gertsch_q == (k3 - b3 + 1) % p ** 2 // p, (p, e)
                assert (prof.fermat_q2, prof.fermat_q3) == (q(2), q(3)), (p, e)
                assert prof.lerch_q == lerch, (p, e)
                assert prof.ag_q == (w + 1) % p, (p, e)
                assert prof.bernoulli_sums == ((w + 2) % p, (w + 1) % p,
                                               (w + pow(2, -1, p)) % p), (p, e)

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_profile_builds_each_value_once(self, monkeypatch, e):
        calls = {"is_prime": 0, "_factorial_columns": 0, "bell_mod": 0}

        def counted(holder, name):
            fn = getattr(holder, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(holder, name, wrapper)
        for holder in (R, exact):
            counted(holder, "is_prime")
        counted(K, "_factorial_columns")
        counted(K, "bell_mod")
        R.residue_profile(101, e)  # 101 - 1 <= the exact-Bernoulli cap
        assert calls == {"is_prime": 1, "_factorial_columns": 1, "bell_mod": 1}


class TestPrecisionOnDemand:
    """Bell_{p-1} and the powers j^(p-1) are built once, mod p^3, at every
    p, and the p^2 readers read that build; only Bell mod p, which needs no
    power table, is built on its own."""

    @pytest.fixture
    def moduli(self, monkeypatch):
        seen = {"bell_mod": [], "_powers": []}
        for name, at in (("bell_mod", 1), ("_powers", 2)):
            def wrapper(*args, fn=getattr(K, name), name=name, at=at):
                seen[name].append(args[at])
                return fn(*args)
            monkeypatch.setattr(K, name, wrapper)
        return seen

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_profile(self, moduli, e):
        for p in (101, 1009, 1031, 1033):
            for calls in moduli.values():
                calls.clear()
            R.residue_profile(p, e)
            assert moduli == {"bell_mod": [p ** 3], "_powers": [p ** 3]}, (p, e)

    def test_gertsch_quotient(self, moduli):
        for p in (1031, 1021):
            for calls in moduli.values():
                calls.clear()
            R.gertsch_quotient_mod(p)
            assert moduli == {"bell_mod": [p ** 3], "_powers": [p ** 3]}, p

    def test_catalog(self, moduli):
        # C06 reads the powers, C23 their sum and C31 Bell, all off one build
        assert C.run_catalog(1013, 1033).ok
        primes = (1013, 1019, 1021, 1031, 1033)
        assert moduli == {"bell_mod": [p ** 3 for p in primes],
                          "_powers": [p ** 3 for p in primes]}

    @pytest.mark.parametrize("p", [101, 1021, 1031, 10007, 32771])
    def test_one_build_in_any_order(self, moduli, p):
        reads = [lambda c: c.qsum, lambda c: c.lerch, lambda c: c.gertsch,
                 lambda c: c.bell(1), lambda c: c.bell(2), lambda c: c.bell_wilson_sum,
                 lambda c: c.power_sum, lambda c: R.residue_profile(p, 3)]
        orders = [reads, reads[::-1]]
        for seed in range(4):
            orders.append(random.Random(seed).sample(reads, len(reads)))
        for order in orders:
            R._records.clear()
            for calls in moduli.values():
                calls.clear()
            ctx = R._record(p)  # the record residue_profile reads
            for read in order:
                read(ctx)
            assert moduli["_powers"] == [p ** 3]
            assert set(moduli["bell_mod"]) <= {p, p ** 3}
            assert moduli["bell_mod"].count(p ** 3) == 1


class TestStirlingRow:
    def test_prime_row_vanishes(self):
        for p in (5, 7, 11, 13):
            row = R.stirling2_row_mod(p, p)
            assert row[1] == 1 and row[p] == 1
            assert all(v == 0 for v in row[2:p])


# The public rows off the record's branch: a composite modulus, or a prime
# m with n < m - 1 (the Stirling row: n != m), against exact integers.
_OFF_RECORD = [(m, n) for m in (2, 3, 4, 6, 9, 12, 25, 49, 97)
               for n in (0, 1, 2, 5, 20, 60) if not (m > 2 and is_prime(m) and n >= m - 1)]


@pytest.mark.parametrize("m, n", _OFF_RECORD)
def test_public_rows_off_the_record_match_exact(m, n):
    assert R.bell_sequence_mod(n, m) == [b % m for b in exact.bell_sequence_exact(n)]
    assert R.stirling2_row_mod(n, m) == [s % m for s in exact.stirling2_row(n)]
    assert R.factorial_mod(n, m) == exact.factorial(n) % m
    assert not R._records  # neither row read or made a record


@pytest.mark.parametrize("m", [-3, 0, 1])
def test_rows_reject_bad_modulus(m):
    for fn in (R.bell_sequence_mod, R.stirling2_row_mod, R.bell_mod,
               R.factorial_mod, R.derangement_mod):
        with pytest.raises(DomainError):
            fn(10, m)


@pytest.mark.parametrize("fn", [R.stirling2_row_mod, R.factorial_mod])
def test_rows_reject_negative_index(fn):
    with pytest.raises(DomainError):
        fn(-1, 7)


class TestCapEnforcement:
    def test_gertsch_cap(self):
        with pytest.raises(CapacityError):
            R.gertsch_quotient_mod(100_003)

    def test_bell_wilson_sum_cap(self, monkeypatch):
        for name in ("bell_mod", "_powers", "_factorial_columns", "_factorials"):
            monkeypatch.setattr(K, name, lambda *a, name=name: pytest.fail(name))
        with pytest.raises(CapacityError, match="Bell_\\(p-1\\): p - 1 = 100002"):
            R.bell_wilson_sum_mod(100_003)

    def test_profile_cap(self):
        with pytest.raises(CapacityError):
            R.residue_profile(100_003)

    def test_bernoulli_sums_cap_before_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(K, "bernoulli_table_mod", lambda p: built.append(p))
        with pytest.raises(CapacityError):
            R.bernoulli_mod_table(100_003)
        for fn in (R.bernoulli_index_sums, R.bernoulli_factorial_sum_mod,
                   R.bernoulli_left_factorial_sum_mod):
            with pytest.raises(CapacityError):
                fn(100_003)
        assert built == []


# The per-prime !p, W_p and Gertsch_p read the block kernel on a one-prime
# block; checked against exact arithmetic and against the per-prime O(p) loops.

class TestBlockKernelPerPrime:
    def test_match_exact_small_primes(self):
        for p in iter_primes(3, 200):
            lf = exact.left_factorial(p)
            w = exact.wilson_quotient_exact(p)
            for e in (1, 2, 3):
                assert int(R.kurepa_mod(p, e)) == lf % p ** e, (p, e)
            for e in (1, 2):
                assert int(R.wilson_quotient_mod(p, e)) == w % p ** e, (p, e)
            assert int(R.gertsch_quotient_mod(p)) == exact.gertsch_quotient_exact(p) % p
            ctx = PrimeContext(p)
            assert ctx.columns == (math.factorial(p - 1) % p ** 3, lf % p ** 3)
            assert (ctx.kurepa(1), ctx.kurepa(2), ctx.wilson) == (lf % p, lf % p ** 2, w % p)

    def test_match_loops_random_window(self):
        rng = random.Random(20261018)
        pool = sieve_primes(10_000, 50_000)
        start = rng.randrange(len(pool) - 30)
        for p in pool[start:start + 30]:
            k3 = kurepa_mod_py(p, p ** 3)
            f3 = K.factorial_mod(p - 1, p ** 3)
            for e in (1, 2, 3):
                assert int(R.kurepa_mod(p, e)) == k3 % p ** e, (p, e)
            for e in (1, 2):
                assert int(R.wilson_quotient_mod(p, e)) == (f3 + 1) // p % p ** e, (p, e)
            b2 = K.bell_mod(p - 1, p * p)
            assert PrimeContext(p).gertsch == (k3 - b2 + 1) % p ** 2 // p
            assert PrimeContext(p).columns == (f3, k3)

    def test_gertsch_matches_split_oracle(self):
        # the split oracle never builds Bell_{p-1}, so it reaches past the
        # triangle's range: every prime to 3000, then seeded large primes
        for p in sieve_primes(5, 3000):
            assert int(R.gertsch_quotient_mod(p)) == gertsch_split_py(p), p
        rng = random.Random(20261018)
        for p in rng.sample(sieve_primes(50_000, 100_000), 6):
            assert PrimeContext(p).gertsch == gertsch_split_py(p), p

    @pytest.mark.parametrize("c", [9, 15, 25])
    def test_composites_raise(self, c):
        for fn in (lambda: R.kurepa_mod(c, 1), lambda: R.kurepa_mod(c, 3),
                   lambda: R.wilson_quotient_mod(c), lambda: R.wilson_quotient_mod(c, 2),
                   lambda: R.gertsch_quotient_mod(c), lambda: R.lerch_quotient_mod(c),
                   lambda: R.agoh_giuga_mod(c)):
            with pytest.raises(DomainError):
                fn()


class TestPrimeContexts:
    def test_window_records_match_lone_records(self):
        primes = list(iter_primes(3, 300)) + [10_007, 3, 5]  # any order, repeats
        got = [(ctx.p, ctx.columns, ctx.wilson, ctx.gertsch, ctx.lerch)
               for ctx in R.prime_contexts(primes)]
        want = []
        for p in primes:
            ctx = PrimeContext(p)
            want.append((p, ctx.columns, ctx.wilson, ctx.gertsch, ctx.lerch))
        assert got == want

    def test_every_prime_checked_before_the_block_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(K, "_factorial_columns", lambda *a: calls.append(a))
        for bad in ([3, 5, 9], [2, 3]):
            with pytest.raises(DomainError):
                next(R.prime_contexts(bad))
        assert calls == []

    def test_factorials_match_exact(self):
        for p in (3, 5, 7, 101):
            fact, inv_fact = PrimeContext(p).factorials
            assert fact == tuple(math.factorial(k) % p for k in range(p))
            assert inv_fact == tuple(pow(f, -1, p) for f in fact)

    def test_record_reads_match_oracles(self):
        # every mod-p value read off the record's one k!, 1/k! pair
        seeded = random.Random(20261018).sample(sieve_primes(11, 3000), 30)
        for ctx in R.prime_contexts([3, 5, 7] + seeded):
            p = ctx.p
            assert list(ctx.bern.values) == bernoulli_table_mod_py(p), p
            assert list(ctx.greg.values) == gregory_table_mod_py(p)[1:], p
            assert ctx.stirling_row == K.stirling2_row_mod_py(p, p), p
            assert ctx.bell_seq == bell_seq_mod_py(p + 5, p), p
            assert ctx.inv == [0] + [pow(k, -1, p) for k in range(1, p)], p
            assert ctx.der == int(R.derangement_mod(p - 1, p)), p

    def test_caps_reach_the_records(self, monkeypatch):
        monkeypatch.setattr(config, "BELL_MOD_CAP", 10)
        monkeypatch.setattr(config, "BERNOULLI_MOD_CAP", 20)
        ctx = next(R.prime_contexts([101]))
        monkeypatch.undo()  # read once, when the record is made
        with pytest.raises(CapacityError):
            ctx.gertsch
        with pytest.raises(CapacityError):
            ctx.greg
        assert ctx.wilson == int(R.wilson_quotient_mod(101))
        assert R.gertsch_quotient_mod(101) == R.PrimeContext(101).gertsch

    def test_no_yielded_record_is_held(self):
        it = R.prime_contexts([3, 5, 7])
        ctx = next(it)
        ctx.bern  # a cached table
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
        assert [ctx.p for ctx in it] == [5, 7]

    # The per-index loops the record's O(p) sums replaced, kept as oracles.

    @staticmethod
    def _gregory_sum_loop(ctx):
        return sum(ctx.greg.abs(n) * ctx.inv[n] for n in range(1, ctx.p - 1)) % ctx.p

    @staticmethod
    def _sun_zagier_loop(ctx, m):
        p, x = ctx.p, pow(-m, -1, ctx.p)
        s, t = 0, 1
        for b in ctx.bell_seq[1:p]:
            t = t * x % p
            s += b * t
        return s % p

    @staticmethod
    def _agoh_sum_loop(ctx, m):
        p, vals, inv = ctx.p, ctx.bern.values, ctx.inv
        s, t = 0, 1
        for k in range(1, p - 1):
            t = t * inv[m % p] % p
            s = (s + t * vals[k] % p * inv[k]) % p
        return s

    def test_record_sums_match_loops(self):
        seeded = random.Random(1018).sample(sieve_primes(2000, 4000), 5)
        for ctx in R.prime_contexts(list(iter_primes(3, 600)) + seeded):
            p = ctx.p
            assert ctx.gregory_sum == self._gregory_sum_loop(ctx), p
            for m in range(1, 7):
                if m % p:
                    assert ctx.sun_zagier(m) == self._sun_zagier_loop(ctx, m), (p, m)
            for m in [*range(-8, 0), *range(1, 9), 0, p, -2 * p]:
                assert ctx.agoh_sum(m) == self._agoh_sum_loop(ctx, m), (p, m)


class TestLoneRecord:
    """Consecutive per-prime calls at one prime and one pair of caps share
    the record that `R._record` holds; errors are never kept."""

    def test_one_build_per_prime_across_calls(self, monkeypatch):
        calls = {"is_prime": 0, "_factorial_columns": 0, "_factorials": 0}
        bell_moduli = []

        def counted(holder, name):
            fn = getattr(holder, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(holder, name, wrapper)
        for holder in (R, exact):
            counted(holder, "is_prime")
        counted(K, "_factorial_columns")
        counted(K, "_factorials")
        bell = K.bell_mod
        monkeypatch.setattr(K, "bell_mod",
                            lambda *a: bell_moduli.append(a[1]) or bell(*a))
        # one build mod p^3 at small and large p
        for p, moduli in ((101, [101 ** 3]), (1031, [1031 ** 3])):
            for name in calls:
                calls[name] = 0
            bell_moduli.clear()
            profiles = [R.residue_profile(p, e) for e in (1, 2, 3)]
            table = R.gregory_mod_table(p)
            g = R.gertsch_quotient_mod(p)
            assert calls == {"is_prime": 1, "_factorial_columns": 1, "_factorials": 1}, p
            assert bell_moduli == moduli, p
            assert [prof.gertsch_q for prof in profiles] == [int(g)] * 3
            assert list(table.values) == gregory_table_mod_py(p)[1:]

    @pytest.mark.parametrize("p", [1009, 2003, 3011])
    def test_public_rows_read_the_records_factorials(self, p, monkeypatch):
        R._records.clear()
        R.residue_profile(p, 1)
        calls = []
        factorials = K._factorials
        monkeypatch.setattr(K, "_factorials",
                            lambda *a: calls.append(a) or factorials(*a))
        rows = [R.stirling2_row_mod(p, p), R.bell_sequence_mod(p - 1, p),
                R.bell_sequence_mod(p + 5, p)]
        assert calls == []
        assert rows == [K.stirling2_row_mod(p, p), K.bell_seq_mod(p - 1, p),
                        K.bell_seq_mod(p + 5, p)]
        assert calls == [(p - 1, p)] * 3  # the kernels alone build their own

    @staticmethod
    def _outcome(fn):
        try:
            return fn()
        except (CapacityError, DomainError) as exc:
            return type(exc)

    def test_same_values_as_a_fresh_record(self, monkeypatch):
        rng = random.Random(20261019)
        primes = rng.sample(sieve_primes(3, 3000), 20)
        default = config.BELL_MOD_CAP, config.BERNOULLI_MOD_CAP
        calls = [
            lambda p, e: R.kurepa_mod(p, e),
            lambda p, e: R.wilson_quotient_mod(p, min(e, 2)),
            lambda p, e: R.lerch_quotient_mod(p),
            lambda p, e: R.gertsch_quotient_mod(p),
            lambda p, e: R.agoh_giuga_mod(p),
            lambda p, e: R.bell_wilson_sum_mod(p),
            lambda p, e: R.bernoulli_mod_table(p),
            lambda p, e: R.gregory_mod_table(p),
            lambda p, e: R.bernoulli_index_sums(p),
            lambda p, e: R.bernoulli_factorial_sum_mod(p),
            lambda p, e: R.bernoulli_left_factorial_sum_mod(p),
            lambda p, e: R.special_quotient_mod(p, e + 1),
            lambda p, e: R.sun_zagier_sum(p, e + 2),
            lambda p, e: R.residue_profile(p, e),
        ]
        p = primes[0]
        seen = []
        for _ in range(300):
            if rng.random() < 0.5:  # half the calls stay at the previous prime
                p = rng.choice(primes)
            caps = rng.choice([default, default, (p - 1, p), (10, 20)])
            monkeypatch.setattr(config, "BELL_MOD_CAP", caps[0])
            monkeypatch.setattr(config, "BERNOULLI_MOD_CAP", caps[1])
            e, i = rng.choice((1, 2, 3)), rng.randrange(len(calls))
            if rng.random() < 0.1:
                with pytest.raises(DomainError):
                    calls[i](rng.choice((9, 15, 3001 * 3)), e)
            got = self._outcome(lambda: calls[i](p, e))
            with monkeypatch.context() as m:
                m.setattr(R, "_record", PrimeContext)
                want = self._outcome(lambda: calls[i](p, e))
            assert got == want, (p, e, i, caps)
            seen.append((p, e))
        assert {e for _, e in seen} == {1, 2, 3}
        assert sum(a == b for a, b in zip(seen, seen[1:])) > 10  # repeats happen

    def test_composite_raises_every_call(self):
        R.gertsch_quotient_mod(101)
        for _ in range(3):
            for c in (9, 15, 10_001):
                with pytest.raises(DomainError):
                    R.gertsch_quotient_mod(c)
        assert R._record(101).p == 101

    def test_capacity_error_is_not_kept(self, monkeypatch):
        p = 1009
        for _ in range(2):
            with monkeypatch.context() as m, pytest.raises(CapacityError):
                m.setattr(config, "BELL_MOD_CAP", 10)
                R.residue_profile(p, 2)
        prof = R.residue_profile(p, 2)
        assert prof.bell_mod == K.bell_seq_mod(p - 1, p * p)[p - 1]
        monkeypatch.setattr(config, "BELL_MOD_CAP", 10)
        with pytest.raises(CapacityError):
            R.residue_profile(p, 2)

    def test_config_caps_read_at_call_time(self, monkeypatch):
        p = 151
        R.gertsch_quotient_mod(p)  # a record at the import-time caps
        monkeypatch.setattr(config, "BELL_MOD_CAP", 100)
        for call in (lambda: R.gertsch_quotient_mod(p), lambda: R.residue_profile(p),
                     lambda: PrimeContext(p).bell(2)):
            with pytest.raises(CapacityError, match="cap 100"):
                call()
        monkeypatch.setattr(config, "BERNOULLI_MOD_CAP", 100)
        with pytest.raises(CapacityError, match="Bernoulli table: p = 151"):
            R.bernoulli_mod_table(p)

    def test_invariant_violation_every_call(self, monkeypatch):
        columns = K._factorial_columns

        def corrupt(primes, e):
            fs, ks = columns(primes, e)
            return [f + 1 for f in fs], ks
        monkeypatch.setattr(K, "_factorial_columns", corrupt)
        for _ in range(3):
            with pytest.raises(InvariantViolation):
                R.wilson_quotient_mod(101)
            with pytest.raises(InvariantViolation):
                R.wilson_quotient_mod(101, 2)

    def test_windows_stay_out_of_the_slot(self):
        assert len(R._records) == 0
        list(R.prime_contexts([3, 5, 7]))
        assert len(R._records) == 0
        held = R._record(101)
        for ctx in R.prime_contexts([5, 101, 103]):
            ctx.gertsch
        assert len(R._records) == 1
        assert R._record(101) is held


class TestGregoryStore:
    """Every record takes p's Gregory table from one process-wide store,
    which holds at most config.BERNOULLI_MOD_CAP cells and evicts nothing."""

    @staticmethod
    def _count_builds(monkeypatch):
        built, build = [], K.gregory_table_mod
        monkeypatch.setattr(K, "gregory_table_mod",
                            lambda p, facts: built.append(p) or build(p, facts))
        return built

    @staticmethod
    def _held_cells():
        return sum(map(len, R._gregory_tables.values()))

    def test_once_per_prime_across_catalog_and_criterion_11(self, monkeypatch):
        built = self._count_builds(monkeypatch)
        assert C.run_catalog(3, 600).ok
        w = PrimeRange(3, 500)
        lhs = A.gamma_M(w)
        rhs = A.gamma_W(w) + A.ell_A(2, w) - A.embed_integer(1, w)
        assert lhs.compare(rhs).identical_on_window
        w = PrimeRange(7, 300)
        for k in (2, 3, 4):
            acc = reduce(add, (A.embed_integer((-1) ** (j - 1) * math.comb(k, j), w)
                               * A.ell_A(j + 1, w) for j in range(1, k + 1)))
            rhs = A.embed_integer((-1) ** k, w) * acc
            assert A.G_A(k, w).compare(rhs).identical_on_window, k
        assert sorted(built) == list(iter_primes(3, 600))
        assert len(built) == 108

    def test_built_and_stored_tables_match_the_oracle(self, monkeypatch):
        built = self._count_builds(monkeypatch)
        primes = list(iter_primes(3, 600)) + random.Random(1019).sample(
            sieve_primes(2000, 4000), 2)
        for p in primes:
            first = PrimeContext(p).greg  # built
            second = PrimeContext(p).greg  # read from the store
            want = gregory_table_mod_py(p)[1:]
            assert list(first.values) == want, p
            assert list(second.values) == want, p
        assert built == primes
        assert sorted(R._gregory_tables) == sorted(primes)

    def test_bound_keeps_the_first_part(self, monkeypatch):
        # the store's bound is the records' table cap, so every table up to
        # p = 100 is built and the first ones fill the store
        bound = 100
        monkeypatch.setattr(config, "BERNOULLI_MOD_CAP", bound)
        built = self._count_builds(monkeypatch)
        for ctx in R.prime_contexts(iter_primes(3, bound)):
            ctx.greg
            assert self._held_cells() <= bound
        kept = list(iter_primes(3, 23))  # 1 + 3 + ... + 21 = 82 cells; 29 adds 27
        assert sorted(R._gregory_tables) == kept
        assert built == list(iter_primes(3, bound))
        p = 97
        table = PrimeContext(p).greg
        assert list(table.values) == K.gregory_table_mod(p, K._factorials(p - 1, p))[1:]
        assert p not in R._gregory_tables
        built.clear()
        assert PrimeContext(p).greg == table
        assert built == [p]  # not kept, so built again
        assert sorted(R._gregory_tables) == kept and self._held_cells() == 82

    def test_cap_checked_before_the_store(self, monkeypatch):
        p = 101
        PrimeContext(p).greg
        assert p in R._gregory_tables
        built = self._count_builds(monkeypatch)
        facts = []
        monkeypatch.setattr(K, "_factorials", lambda *a: facts.append(a))
        with monkeypatch.context() as m:
            m.setattr(config, "BERNOULLI_MOD_CAP", p - 1)
            with pytest.raises(CapacityError, match="Gregory table: p = 101 exceeds the cap 100"):
                PrimeContext(p).greg
            res = C.run_catalog(p, p, ids=["C18", "C19"])
        assert [(o.check_id, o.skipped) for o in res.outcomes] == [("C18", True),
                                                                   ("C19", True)]
        assert list(PrimeContext(p).greg.values) == gregory_table_mod_py(p)[1:]
        assert built == [] and facts == []  # a hit builds no table and no k!

    def test_two_threads_share_the_store(self):
        w = PrimeRange(3, 400)
        got = [None, None]

        def read(i):
            got[i] = A.G_A(2, w)
        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside builds and inserts
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got[0].residues == got[1].residues
        assert got[0].undefined_at == got[1].undefined_at
        assert sorted(R._gregory_tables) == list(iter_primes(3, 400))
        assert self._held_cells() == sum(p - 2 for p in iter_primes(3, 400))

    def test_later_of_two_builds_gets_the_held_table(self, monkeypatch):
        PrimeContext(397).greg
        cells, racing, build = self._held_cells(), [], K.gregory_table_mod

        def raced(p, facts):  # a second record at p builds and stores first
            monkeypatch.setattr(K, "gregory_table_mod", build)
            racing.append(PrimeContext(p).greg)
            return build(p, facts)
        monkeypatch.setattr(K, "gregory_table_mod", raced)
        later = PrimeContext(401).greg
        assert later is racing[0] is R._gregory_tables[401]
        assert list(later.values) == gregory_table_mod_py(401)[1:]
        assert self._held_cells() == cells + 399  # one table's cells, not two
