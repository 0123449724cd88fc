import random
from fractions import Fraction

import pytest

from kurepa import _kernels as K
from kurepa import adele as A
from kurepa import config, exact
from kurepa import residues as R
from kurepa.errors import CapacityError, DomainError
from kurepa.modmath import PrimeRange, fraction_residue, iter_primes, sieve_primes
from oracles import kurepa_mod_py

W_SMALL = PrimeRange(3, 13)


class TestEmbedding:
    def test_embed_half(self):
        e = A.embed_rational(Fraction(1, 2), W_SMALL)
        assert e.residues == {3: 2, 5: 3, 7: 4, 11: 6, 13: 7}
        assert not e.undefined_at

    def test_embed_zero(self):
        e = A.embed_rational(Fraction(0), W_SMALL)
        assert all(v == 0 for v in e.residues.values())

    def test_embed_sixth(self):
        e = A.embed_rational(Fraction(1, 6), PrimeRange(3, 7))
        assert e.undefined_at == {3}
        assert e.residues == {5: 1, 7: 6}


class TestRingOps:
    def test_additive_identity(self):
        a = A.embed_rational(Fraction(3, 7), W_SMALL)
        z = A.embed_rational(Fraction(0), W_SMALL)
        assert (a + z).residues == a.residues

    def test_mul_inverse(self):
        half = A.embed_rational(Fraction(1, 2), W_SMALL)
        two = A.embed_rational(Fraction(2), W_SMALL)
        one = A.embed_rational(Fraction(1), W_SMALL)
        assert (half * two).residues == one.residues

    def test_thirds(self):
        a = A.embed_rational(Fraction(1, 3), W_SMALL)
        b = A.embed_rational(Fraction(2, 3), W_SMALL)
        s = a + b
        assert s.undefined_at == {3}
        one = A.embed_rational(Fraction(1), W_SMALL)
        assert all(s.residues[p] == one.residues[p] for p in s.residues)

    def test_window_mismatch(self):
        with pytest.raises(DomainError):
            A.embed_rational(Fraction(1), W_SMALL) + \
                A.embed_rational(Fraction(1), PrimeRange(3, 17))


class TestComparison:
    def test_self_comparison(self):
        a = A.gamma_W(W_SMALL)
        cmp = a.compare(a)
        assert cmp.identical_on_window
        assert cmp.mismatch_primes == ()
        assert cmp.agree_from == 3

    def test_shift_by_30(self):
        w = W_SMALL
        a = A.embed_rational(Fraction(1, 2), w)
        b = A.embed_rational(Fraction(1, 2) + 30, w)
        cmp = a.compare(b)
        # they agree exactly at primes dividing 30
        assert cmp.mismatch_primes == (7, 11, 13)
        assert cmp.agree_from is None

    def test_agree_from(self):
        w = PrimeRange(3, 30)
        a = A.embed_rational(Fraction(6), w)
        b = A.embed_rational(Fraction(0), w)
        cmp = a.compare(b)  # 6 = 0 only at p = 3 (and 2, outside)
        assert cmp.mismatch_primes == (5, 7, 11, 13, 17, 19, 23, 29)

    def test_undefined_excluded(self):
        w = PrimeRange(3, 7)
        a = A.embed_rational(Fraction(1, 3), w)
        b = A.embed_rational(Fraction(1, 3), w)
        assert a.compare(b).identical_on_window


class TestLog:
    def test_log_one_vanishes(self):
        e = A.log_A(1, PrimeRange(3, 50))
        assert all(v == 0 for v in e.residues.values())

    def test_wieferich_zero(self):
        e = A.log_A(2, PrimeRange(1090, 1100))
        assert e.residues[1093] == 0

    def test_additivity_2_3(self):
        w = PrimeRange(3, 200)
        l6 = A.log_A(6, w)
        s = A.log_A(2, w) + A.log_A(3, w)
        assert l6.compare(s).identical_on_window

    def test_additivity_random_rationals(self):
        rng = random.Random(7)
        w = PrimeRange(3, 100)
        for _ in range(25):
            x = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            y = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            lhs = A.log_A(x * y, w)
            rhs = A.log_A(x, w) + A.log_A(y, w)
            assert lhs.compare(rhs).identical_on_window

    def test_rational_log_matches_quotient_difference(self):
        # q_p(a/b) = q_p(a) - q_p(b) (mod p), each from exact integers
        rng = random.Random(20261018)
        w = PrimeRange(3, 500)
        for _ in range(20):
            x = Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** 6),
                         rng.randint(1, 10 ** 6))
            a, b = x.numerator, x.denominator
            e = A.log_A(x, w)
            assert e.undefined_at == {p for p in w if a * b % p == 0}
            for p in e.defined_primes():
                assert e.residues[p] == (exact.fermat_quotient_exact(a, p)
                                         - exact.fermat_quotient_exact(b, p)) % p

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            A.log_A(0, W_SMALL)

    def test_ell(self):
        w = PrimeRange(3, 60)
        e = A.ell_A(2, w)
        for p in e.defined_primes():
            assert e.residues[p] == 2 * exact.fermat_quotient_exact(2, p) % p


class TestConstants:
    def test_gamma_kp_table(self):
        g = A.gamma_Kp(PrimeRange(3, 17))
        assert [g.residues[p] for p in (3, 5, 7, 11, 13, 17)] == [1, 4, 6, 1, 10, 13]

    def test_gamma_w_wilson_prime(self):
        g = A.gamma_W(PrimeRange(550, 570))
        assert g.residues[563] == 0

    def test_gamma_g_small(self):
        g = A.gamma_G(PrimeRange(3, 11))
        assert g.residues[7] == 96 % 7

    def test_gamma_q_identities(self):
        w = PrimeRange(3, 60)
        assert A.gamma_Q(1, w).compare(A.gamma_AG(w)).identical_on_window
        q2 = A.gamma_Q(2, w)
        assert q2.residues[3] == 0
        q6 = A.gamma_Q(6, w)
        assert q6.residues[7] == 0
        # gamma_Q(m) = gamma_AG + log_A(m) away from p | m
        rhs = A.gamma_AG(w) + A.log_A(6, w)
        assert q6.compare(rhs).identical_on_window

    def test_za_ga_values(self):
        assert A.Z_A(2, PrimeRange(5, 7)).residues[5] == 0       # B_3 = 0
        assert A.Z_A(3, PrimeRange(5, 7)).residues[7] == 1       # B_4/3 mod 7
        assert A.G_A(2, PrimeRange(5, 7)).residues[5] == 4       # G_3 mod 5

    def test_za_undefined_below_k(self):
        z = A.Z_A(5, PrimeRange(3, 11))
        assert z.undefined_at == {3, 5}

    def test_gamma_m_equals_wilson_plus_ell2_minus_1(self):
        w = PrimeRange(3, 200)
        lhs = A.gamma_M(w)
        rhs = A.gamma_W(w) + A.ell_A(2, w) - A.embed_integer(1, w)
        assert lhs.compare(rhs).identical_on_window

    def test_ga_expansion(self):
        w = PrimeRange(7, 100)
        for k in (2, 3, 4):
            lhs = A.G_A(k, w)
            import math
            acc = None
            for j in range(1, k + 1):
                term = A.ell_A(j + 1, w)
                coeff = A.embed_integer((-1) ** (j - 1) * math.comb(k, j), w)
                part = coeff * term
                acc = part if acc is None else acc + part
            rhs = A.embed_integer((-1) ** k, w) * acc
            assert lhs.compare(rhs).identical_on_window

    def test_gamma_kp_equals_bell_minus_one(self):
        w = PrimeRange(3, 100)
        lhs = A.gamma_Kp(w)
        bell = A.build_element(w, lambda p: R.bell_mod(p - 1, p))
        rhs = bell - A.embed_integer(1, w)
        assert lhs.compare(rhs).identical_on_window

    def test_gamma_kp_nonvanishing_reported(self):
        g = A.gamma_Kp(PrimeRange(3, 1000))
        assert g.zero_primes() == []

    def test_gamma_w_zero_primes(self):
        g = A.gamma_W(PrimeRange(3, 600))
        assert g.zero_primes() == [5, 13, 563]


class TestSerialization:
    def test_round_trip(self):
        e = A.gamma_AG(PrimeRange(3, 40))
        back = A.AdeleElement.from_json(e.to_json())
        assert back.window == e.window
        assert back.residues == e.residues
        assert back.undefined_at == e.undefined_at

    def test_json_shape(self):
        import json
        e = A.embed_rational(Fraction(1, 6), PrimeRange(3, 7))
        obj = json.loads(e.to_json())
        assert obj["window"] == [3, 7]
        assert obj["residues"] == [[5, 1], [7, 6]]
        assert obj["undefined_at"] == [3]


class TestCapacity:
    def test_gamma_m_cap_propagates(self):
        with pytest.raises(CapacityError,
                           match="Gregory table: p = 100003 exceeds the cap 100000"):
            A.gamma_M(PrimeRange(100_000, 100_100))

    def test_gamma_g_cap_propagates(self):
        cap = config.BELL_MOD_CAP
        with pytest.raises(CapacityError, match=rf"Bell_\(p-1\): p - 1 = \d+ exceeds the cap {cap}"):
            A.gamma_G(PrimeRange(cap - 10, cap + 20))


# The named constants read the window's residue records (one block pass),
# checked against exact rationals, the block scans and the per-prime loops.

def _named(w):
    return {"gamma_W": A.gamma_W(w), "gamma_M": A.gamma_M(w), "gamma_G": A.gamma_G(w),
            "gamma_L": A.gamma_L(w), "gamma_AG": A.gamma_AG(w), "gamma_Kp": A.gamma_Kp(w),
            **{f"gamma_Q({m})": A.gamma_Q(m, w) for m in (2, 3, 6)},
            **{f"G_A({k})": A.G_A(k, w) for k in (2, 3, 4)},
            **{f"Z_A({k})": A.Z_A(k, w) for k in (2, 3, 4)}}


def _exact_named(p):
    """Every named constant at p from exact arithmetic; None where undefined."""
    def fr(x):
        return int(fraction_residue(x, p))
    w = exact.wilson_quotient_exact(p) % p
    ag = fr(exact.agoh_giuga_exact(p))
    return {"gamma_W": w,
            "gamma_M": sum(fr(abs(exact.gregory_exact(n))) * pow(n, -1, p)
                           for n in range(1, p - 1)) % p,
            "gamma_G": exact.gertsch_quotient_exact(p) % p,
            "gamma_L": fr(exact.lerch_quotient_exact(p)),
            "gamma_AG": ag,
            "gamma_Kp": exact.left_factorial(p) % p,
            **{f"gamma_Q({m})": (ag + exact.fermat_quotient_exact(m, p)) % p
               if m % p else None for m in (2, 3, 6)},
            **{f"G_A({k})": fr(exact.gregory_exact(p - k)) if p > k else None
               for k in (2, 3, 4)},
            **{f"Z_A({k})": fr(exact.bernoulli_exact(p - k) / k) if p > k else None
               for k in (2, 3, 4)}}


def _column_named(primes):
    """The constants a campaign reads, from the columns mod p^2 of one
    run-tree block; !p mod p is the !p column reduced mod p."""
    fs, ks2, ds = next(K.run_columns([primes], 2, 3))
    ws, gs = K.wilson_column(primes, fs), K.gertsch_column(primes, fs, ks2, ds)
    ks = [k % p for p, k in zip(primes, ks2)]
    q2 = [(pow(2, p - 1, p * p) - 1) // p for p in primes]
    return {"gamma_W": ws, "gamma_Kp": ks, "gamma_G": gs,
            "gamma_AG": [(w + 1) % p for p, w in zip(primes, ws)],
            "gamma_Q(2)": [(w + 1 + q) % p for p, w, q in zip(primes, ws, q2)]}


class TestWindowRoute:
    def test_named_constants_match_exact_and_scans(self, monkeypatch):
        monkeypatch.setattr(config, "EXACT_POWER_SUM_CAP", 200)
        w = PrimeRange(3, 400)
        primes = w.primes()
        got = _named(w)
        for p in iter_primes(3, 200):
            for name, want in _exact_named(p).items():
                if want is None:
                    assert p in got[name].undefined_at, (name, p)
                else:
                    assert got[name].residues[p] == want, (name, p)
        for name, col in _column_named(primes).items():
            assert [got[name].residues[p] for p in primes] == col, name

    def test_named_constants_match_scans_random_window(self):
        rng = random.Random(8008)
        pool = sieve_primes(10_000, 20_000)
        start = rng.randrange(len(pool) - 30)
        primes = pool[start:start + 30]
        w = PrimeRange(primes[0], primes[-1])
        got = {"gamma_W": A.gamma_W(w), "gamma_Kp": A.gamma_Kp(w), "gamma_G": A.gamma_G(w),
               "gamma_AG": A.gamma_AG(w), "gamma_Q(2)": A.gamma_Q(2, w)}
        assert all(e.defined_primes() == primes for e in got.values())
        for name, col in _column_named(primes).items():
            assert [got[name].residues[p] for p in primes] == col, name
        for p in primes:
            assert got["gamma_Kp"].residues[p] == kurepa_mod_py(p, p), p
            assert got["gamma_W"].residues[p] == \
                (K.factorial_mod(p - 1, p * p) + 1) // p % p, p

    def test_window_from_two(self):
        w = PrimeRange(2, 13)
        kp = A.gamma_Kp(w)
        assert kp.residues == {2: 0, **A.gamma_Kp(W_SMALL).residues}  # !2 = 2
        undefined_at_two = [A.gamma_Q(2, w), A.gamma_Q(6, w)] + \
            [f(k, w) for f in (A.G_A, A.Z_A) for k in (2, 3, 4)]
        for e in undefined_at_two:
            assert 2 in e.undefined_at and 2 not in e.residues
        for f in (A.gamma_W, A.gamma_M, A.gamma_G, A.gamma_L, A.gamma_AG,
                  lambda w: A.gamma_Q(3, w)):
            with pytest.raises(DomainError, match="odd prime required, got 2"):
                f(w)

    def test_named_constants_are_built_by_build_element(self, monkeypatch):
        built = []
        build = A.build_element
        monkeypatch.setattr(A, "build_element",
                            lambda w, fn: built.append(build(w, fn)) or built[-1])
        got = _named(PrimeRange(3, 50))
        assert built == list(got.values())

    def test_one_block_pass_per_window(self, monkeypatch):
        calls = []
        columns = K._factorial_columns
        monkeypatch.setattr(K, "_factorial_columns",
                            lambda ps, e: calls.append(e) or columns(ps, e))
        g = A.gamma_W(PrimeRange(3, 2000))
        assert calls == [3]
        assert g.zero_primes() == [5, 13, 563]
