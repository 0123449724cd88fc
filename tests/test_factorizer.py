import inspect
import random
import sys

import pytest

from kurepa import factorizer as F
from kurepa.errors import DomainError
from kurepa.exact import left_factorial
from kurepa.modmath import is_prime
from oracles import kurepa_gcds_py


class TestFactorize:
    def test_small_rows(self):
        assert F.factorize(33).factors == ((3, 1), (11, 1))
        assert F.factorize(153).factors == ((3, 2), (17, 1))
        assert F.factorize(873).factors == ((3, 2), (97, 1))

    def test_prime_input(self):
        f = F.factorize(10 ** 9 + 7)
        assert f.factors == ((10 ** 9 + 7, 1),) and f.complete

    def test_recomposition_random(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(2, 10 ** 12)
            f = F.factorize(n)
            assert f.complete
            assert f.recompose() == n
            for p, _e in f.factors:
                assert is_prime(p)

    def test_needs_rho(self):
        # two 9-digit primes: beyond the trial bound, below its square
        n = 1_000_000_007 * 1_000_000_009
        f = F.factorize(n)
        assert f.factors == ((1_000_000_007, 1), (1_000_000_009, 1))

    def test_rho_on_larger_semiprime(self):
        p, q = 2_147_483_647, 2_147_483_629  # both prime
        f = F.factorize(p * q)
        assert f.factors == ((q, 1), (p, 1))

    def test_budget_exhaustion_flags_partial(self):
        p, q = 1_000_000_007, 1_000_000_009
        f = F.factorize(p * p * q * q, budget=50)
        assert not f.complete
        assert f.cofactor > 1 and not is_prime(f.cofactor)
        assert f.recompose() == p * p * q * q

    def test_budget_is_the_parameter(self):
        # FACTOR_BUDGET is the default of each budget parameter, its one channel
        n = 1_000_003 * 1_000_033
        f = F.factorize(n, budget=1)
        assert not f.complete and f.recompose() == n
        assert F.factorize(n).factors == ((1_000_003, 1), (1_000_033, 1))
        for fn in (F.factorize, F.left_factorial_minus_one_table):
            assert fn.__defaults__[-1] == F.FACTOR_BUDGET

    def test_rho_backtracks_and_advances_the_schedule(self):
        # factorize trial-divides these away; called directly, rho meets a
        # gcd of n (25, 35, 49: the backtrack) and a degenerate cycle (25,
        # 35, 125: c += 2), and still returns a proper factor
        src, first = inspect.getsourcelines(F._brent_rho)
        backtrack = first + next(i for i, s in enumerate(src) if "backtrack" in s) + 1
        advance = first + next(i for i, s in enumerate(src) if "c += 2" in s)
        ran, outer = set(), sys.gettrace()

        def lines(frame, event, arg):
            ran.add(frame.f_lineno)
            return lines

        sys.settrace(lambda frame, event, arg:
                     lines if frame.f_code is F._brent_rho.__code__ else None)
        try:
            found = {n: F._brent_rho(n, F._Budget(10 ** 6)) for n in (25, 35, 49, 125)}
        finally:
            sys.settrace(outer)
        assert all(1 < d < n and n % d == 0 for n, d in found.items()), found
        assert {backtrack, advance} <= ran

    def test_determinism(self):
        n = 1_000_003 * 1_000_033 * 999_983
        assert F.factorize(n) == F.factorize(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            F.factorize(1)

    def test_str_format(self):
        assert str(F.factorize(153)) == "3^2 x 17"


class TestLeftFactorialTable:
    def test_example_rows(self):
        rows = F.left_factorial_minus_one_table(13)
        assert rows[9 - 3].factors == ((3, 2), (11, 1), (467, 1))      # n=9
        assert rows[13 - 3].factors == ((3, 2), (11, 2), (23, 1), (20879, 1))
        assert rows[0].factors == ((3, 1),)                            # n=3

    def test_gate(self):
        for n_max in (2, 31):
            with pytest.raises(DomainError, match=r"\[3, 30\]"):
                F.left_factorial_minus_one_table(n_max)

    def test_rows_recompose(self):
        for n, f in zip(range(3, 15), F.left_factorial_minus_one_table(14)):
            assert f.n == left_factorial(n) - 1
            assert f.complete and f.recompose() == f.n


class TestGcd:
    def test_small(self):
        import math
        assert math.gcd(4, 6) == 2  # n = 3 case by hand
        rep = F.kurepa_gcd_check(10)
        assert rep.all_two and rep.failures == ()

    def test_scan_500(self):
        rep = F.kurepa_gcd_check(500)
        assert rep.all_two

    def test_matches_direct_computation(self):
        import math
        for n in range(3, 40):
            g = math.gcd(left_factorial(n), math.factorial(n))
            assert g == 2

    def test_matches_exact_gcds_every_n(self):
        gcds = list(kurepa_gcds_py(2000))
        for n in range(3, 2001):
            failures = tuple((m, g) for m, g in gcds[:n - 2] if g != 2)
            assert F.kurepa_gcd_check(n) == F.GcdReport(n, not failures, failures)

    def test_planted_zero_takes_one_exact_gcd_per_n_from_it(
            self, monkeypatch, plant_kurepa_zero):
        import math
        q, n_max = 101, 300
        lf = plant_kurepa_zero(q)
        gcd, calls = math.gcd, []
        monkeypatch.setattr(math, "gcd", lambda a, b: calls.append(a) or gcd(a, b))
        rep = F.kurepa_gcd_check(n_max)
        assert len(calls) == n_max - q + 1
        want = tuple((n, gcd(lf(n), math.factorial(n))) for n in range(q, n_max + 1))
        assert not rep.all_two and rep.failures == want
        assert all(g % (2 * q) == 0 for _, g in want)
        calls.clear()
        assert F.kurepa_gcd_check(q - 1) == F.GcdReport(q - 1, True, ())
        assert calls == []


class TestStabilization:
    """!n mod p stabilizes at !p for n >= p, so p divides every !n - 1
    (n >= p) exactly when !p = 1 (mod p)."""

    def test_persistent_small_primes(self):
        # !3 = 4 = 1 (mod 3) and !11 = 1 (mod 11): persistent factors
        for p in (3, 11):
            assert left_factorial(p) % p == 1
            for n in range(p, p + 15):
                assert (left_factorial(n) - 1) % p == 0

    def test_non_persistent(self):
        for p in (5, 7, 13):
            assert left_factorial(p) % p != 1
            for n in range(p, p + 15):
                assert (left_factorial(n) - 1) % p != 0

    def test_reference_rows_reflect_it(self):
        from kurepa.tables import FACTORIZATIONS, ERRATA
        for n, facs in FACTORIZATIONS.items():
            err = ERRATA.get(("factorizations", n))
            if err:
                facs = err["corrected"]
            primes = {p for p, _ in facs}
            assert 3 in primes
            if n >= 11:
                assert 11 in primes
