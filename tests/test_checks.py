import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from kurepa import _kernels as K
from kurepa import checks as C
from kurepa import config, exact, factorizer, modmath, residues, search
from kurepa import tables as T
from kurepa.errors import DomainError, EmptyRangeError
from oracles import kurepa_gcds_py


class TestRunCheck:
    def test_c01_example(self):
        o = C.run_check("C01", 13)
        assert (o.lhs, o.rhs, o.holds) == (10, 10, True)

    def test_c12_at_71(self):
        o = C.run_check("C12", 71)
        assert o.holds
        assert o.lhs[0] == 0  # V_71 = W_71 + 2 = 0 (mod 71)

    def test_c31_measurement(self):
        o = C.run_check("C31", 11)
        assert not o.holds  # 11 is not in the agreement set
        assert C.CATALOG["C31"].kind == "measure"

    def test_record_at_another_prime(self):
        ctx = residues.PrimeContext(7)
        with pytest.raises(DomainError):
            C.run_check("C05", 5, ctx)
        assert C.run_check("C05", 7, ctx) == C.run_check("C05", 7)

    @staticmethod
    def _c11_lhs_loop(ctx):
        # sum_k H_n^(k) B_k/k with the harmonic sums updated per k
        p, vals, inv = ctx.p, ctx.bern.values, ctx.inv
        lhs = []
        for n in range(1, min(4, p)):
            pows, s = [1] * (n + 1), 0
            for k in range(1, p - 1):
                h = 0
                for m in range(1, n + 1):
                    pows[m] = pows[m] * inv[m] % p
                    h += pows[m]
                s = (s + h % p * vals[k] % p * inv[k]) % p
            lhs.append(s)
        return tuple(lhs)

    def test_c11_lhs_matches_harmonic_loop(self):
        seeded = random.Random(1018).sample(modmath.sieve_primes(2000, 4000), 5)
        for ctx in residues.prime_contexts(list(modmath.iter_primes(5, 600)) + seeded):
            assert C._c11(ctx)[0] == self._c11_lhs_loop(ctx), ctx.p

    def test_skip_marker(self):
        o = C.run_check("C13", 3)  # needs p >= 5
        assert o.skipped

    def test_skip_past_a_cap_builds_nothing(self, monkeypatch):
        # the record's Bernoulli and Bell caps, the exact cap and half of it
        built = []
        monkeypatch.setattr(K, "bernoulli_table_mod", lambda *a: built.append(a))
        monkeypatch.setattr(K, "bell_seq_mod", lambda *a: built.append(a))
        for check_id, p, caps in (("C07", 11, {"BERNOULLI_MOD_CAP": 10}),
                                  ("C01", 23, {"BELL_MOD_CAP": 21}),
                                  ("C14", 263, {}), ("C16", 131, {})):
            with monkeypatch.context() as m:
                for name, cap in caps.items():
                    m.setattr(config, name, cap)
                o = C.run_check(check_id, p, residues.PrimeContext(p))
            assert o.skipped and o.note == "not applicable", check_id
        assert built == []

    def test_raised_exact_cap_widens_c14_to_c16(self, monkeypatch):
        # C14-C16 read the exact-Bernoulli cap at each call, not at import
        monkeypatch.setattr(config, "EXACT_BERNOULLI_CAP", 600)
        for check_id, p in (("C14", 263), ("C15", 263), ("C16", 199)):
            o = C.run_check(check_id, p)
            assert not o.skipped and o.holds, (check_id, o)
        assert len(C.run_check("C16", 199).lhs) == 3  # B_396, B_594 and B_198

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            C.run_check("C99", 7)

    def test_scan_note_carries_residue(self):
        o = C.run_check("C26", 13)
        assert o.holds and "10" in o.note


class TestRunCatalog:
    def test_c01_to_c05_over_600(self):
        res = C.run_catalog(3, 600, ids=["C01", "C02", "C03", "C04", "C05"])
        assert res.ok
        assert not res.assertion_failures
        bad = [o for o in res.outcomes if not o.skipped and not o.holds]
        assert bad == []

    def test_repeated_id_runs_once(self):
        once = C.run_catalog(3, 20, ids=["C01"])
        twice = C.run_catalog(3, 20, ids=["C01", "C01"])
        assert len(twice.outcomes) == len(once.outcomes) == 7
        assert twice.summary() == once.summary()
        mixed = C.run_catalog(3, 20, ids=["C02", "C01", "C02"])
        assert Counter(o.check_id for o in mixed.outcomes) == {"C01": 7, "C02": 7}
        with pytest.raises(DomainError, match="C99"):
            C.run_catalog(3, 20, ids=["C01", "C99", "C01"])

    def test_c18_over_500(self):
        res = C.run_catalog(3, 500, ids=["C18"])
        assert res.ok
        assert all(o.holds for o in res.outcomes if not o.skipped)

    def test_measurements_never_fail_run(self):
        res = C.run_catalog(3, 100, ids=["C31", "C32"])
        assert res.ok  # despite many holds=False findings
        assert len(res.findings) > 0
        agree = [o.p for o in res.outcomes
                 if o.check_id == "C31" and not o.skipped and o.holds]
        assert agree == [3, 7]

    def test_one_primality_check_and_inverse_table_per_prime(self, monkeypatch):
        # the record's inverses, tables and Der_{p-1} read one k!, 1/k! pair
        # mod p; bell_mod inverts the record's (p-1)! mod p^2 and builds none
        primality, pairs = [], []
        original = modmath.is_prime
        for name, mod in list(sys.modules.items()):
            if name.startswith("kurepa") and getattr(mod, "is_prime", None) is original:
                monkeypatch.setattr(mod, "is_prime",
                                    lambda n: primality.append(n) or original(n))
        factorials, columns, blocks = K._factorials, K._factorial_columns, []
        monkeypatch.setattr(K, "_factorials",
                            lambda n, m: pairs.append((n, m)) or factorials(n, m))
        monkeypatch.setattr(K, "_factorial_columns",
                            lambda ps, e: blocks.append(list(ps)) or columns(ps, e))
        res = C.run_catalog(3, 600)
        assert res.ok
        primes = list(modmath.iter_primes(3, 600))
        assert primality == primes
        assert sorted(pairs) == [(p - 1, p) for p in primes]
        assert blocks == [primes]  # one block pass for the window

    def test_one_exact_factorial_per_prime(self, monkeypatch):
        # C24, C25 and C29 read the record's p! rather than each building it
        calls, original = [], math.factorial

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(math, "factorial", counted)
        monkeypatch.setattr(exact, "factorial", counted)
        res = C.run_catalog(11, 400, ids=["C24", "C25", "C29"])
        assert res.ok and all(not o.skipped for o in res.outcomes)
        # the genus splits of C29 take (2g - 1)! for 2g - 1 <= 7 only
        assert [n for n in calls if n > 7] == list(modmath.iter_primes(11, 400))

    def test_composite_raises(self):
        with pytest.raises(DomainError):
            C.run_check("C05", 9)
        with pytest.raises(DomainError):
            C.PrimeContext(9)
        assert C.PrimeContext is residues.PrimeContext

    def test_deterministic(self):
        a = C.run_catalog(3, 60)
        b = C.run_catalog(3, 60)
        assert a.outcomes == b.outcomes

    def test_sorted_by_id_then_p(self):
        res = C.run_catalog(3, 60, ids=["C05", "C01"])
        keys = [(o.check_id, o.p) for o in res.outcomes]
        assert keys == sorted(keys)

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            C.run_catalog(3, 10, ids=["nope"])

    @pytest.mark.parametrize("lo, hi", [(2, 2), (24, 28)])
    def test_window_without_odd_primes_is_empty(self, lo, hi):
        res = C.run_catalog(lo, hi)
        assert (res.lo, res.hi, res.outcomes, res.ok) == (lo, hi, [], True)

    def test_hi_below_lo_names_the_callers_range(self):
        with pytest.raises(EmptyRangeError, match=r"\[5, 4\]"):
            C.run_catalog(5, 4)

    def test_summary_counts(self):
        res = C.run_catalog(3, 60, ids=["C16"])
        s = res.summary()["C16"]
        assert s["failed"] == 0 and s["held"] > 0


class TestKurepaRoute:
    """C25 reads the Kurepa zeros below each prime from
    `search.kurepa_zeros`, which `run_catalog` extends to the window's top
    before its first record, and takes the exact gcd(!p, p!) only past a
    zero."""

    @pytest.fixture(scope="class")
    def gcds(self):
        return dict(kurepa_gcds_py(2000))

    @staticmethod
    def _c25(outcomes):
        return [(o.p, o.lhs, o.holds) for o in outcomes if o.check_id == "C25"]

    def test_every_prime_to_2000(self, gcds):
        res = C.run_catalog(3, 2000, ids=["C25"])
        assert self._c25(res.outcomes) == [
            (p, gcds[p], gcds[p] == 2) for p in modmath.iter_primes(3, 2000)]

    def test_windows_past_3(self, gcds):
        res = C.run_catalog(1009, 1500, ids=["C25"])
        assert self._c25(res.outcomes) == [
            (p, gcds[p], True) for p in modmath.iter_primes(1009, 1500)]
        lo = random.Random(25).randint(2000, 3700)
        res = C.run_catalog(lo, lo + 300, ids=["C25"])
        want = [math.gcd(exact.left_factorial(p), math.factorial(p))
                for p in modmath.iter_primes(lo, lo + 300)]
        assert [o.lhs for o in res.outcomes] == want == [2] * len(want)

    def test_lone_record(self, gcds):
        for p in (3, 5, 7, 1009, 1999):
            o = C.run_check("C25", p)
            assert (o.lhs, o.holds) == (gcds[p], True)

    def test_planted_zero_fails_from_it(self, plant_kurepa_zero):
        q = 101
        lf = plant_kurepa_zero(q)

        def want(p):
            g = math.gcd(lf(p), math.factorial(p))
            return p, g, g == 2

        # below the window, inside it, and for lone records
        for lo, hi in ((3, 300), (53, 300), (103, 300)):
            res = C.run_catalog(lo, hi, ids=["C25"])
            assert self._c25(res.outcomes) == [want(p) for p in modmath.iter_primes(lo, hi)]
        assert [C.run_check("C25", p).holds for p in (97, 101, 103, 211)] == [
            True, False, False, False]
        assert want(101)[1] == 202
        # windows that are not every prime in their range
        for window in ([5, 103], [103, 5], [5, 103, 101, 97]):
            for ctx in residues.prime_contexts(window):
                assert C.run_check("C25", ctx.p, ctx).holds == (ctx.p < q)

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    def test_consecutive_windows_scan_each_prime_once(self, monkeypatch, gcds, order):
        # 16 consecutive windows of [3, 600], as the catalog benchmark cuts them
        rng = random.Random(2201)
        primes = list(modmath.iter_primes(3, 600))
        cuts = sorted(rng.sample(range(1, len(primes)), 15))
        windows = [(primes[a], primes[b - 1])
                   for a, b in zip([0, *cuts], [*cuts, len(primes)])]
        if order == "shuffled":
            rng.shuffle(windows)
        scanned, inside = Counter(), []
        run, columns = search.run_campaign, K.run_columns

        def campaign(*a, **k):
            inside.append(a)
            try:
                return run(*a, **k)
            finally:
                inside.pop()

        def counted(blocks, e, width=2):
            if inside:
                scanned.update(p for block in blocks for p in block)
            return columns(blocks, e, width)
        monkeypatch.setattr(search, "run_campaign", campaign)
        monkeypatch.setattr(K, "run_columns", counted)
        got = []
        for lo, hi in windows:
            got += self._c25(C.run_catalog(lo, hi, ids=["C25"]).outcomes)
        assert sorted(got) == [(p, gcds[p], gcds[p] == 2) for p in primes]
        assert all(n == 1 for n in scanned.values()), scanned

    def test_one_pass_per_window_and_only_for_c25(self, monkeypatch):
        calls, run = [], search.run_campaign
        monkeypatch.setattr(search, "run_campaign",
                            lambda *a, **k: calls.append(a) or run(*a, **k))
        others = [i for i in C.check_ids() if i != "C25"]
        assert C.run_catalog(101, 300, ids=others).ok
        assert calls == []
        assert C.run_catalog(101, 300).ok
        assert calls == [("kurepa_zero", 3, 300)]
        calls.clear()
        assert C.run_catalog(3, 300, ids=["C25"]).ok
        assert calls == []

    @pytest.mark.parametrize("planted", [False, True])
    @pytest.mark.parametrize("first", ["C25", "gcd_check"])
    def test_one_prefix_for_c25_and_gcd_check(self, monkeypatch, plant_kurepa_zero,
                                              first, planted):
        q, hi = 101, 300
        if planted:
            plant_kurepa_zero(q)
        calls, run = [], search.run_campaign
        monkeypatch.setattr(search, "run_campaign",
                            lambda *a, **k: calls.append(a) or run(*a, **k))
        steps = [lambda: C.run_catalog(q, hi, ids=["C25"]).ok,
                 lambda: factorizer.kurepa_gcd_check(hi).all_two]
        if first == "gcd_check":
            steps.reverse()
        assert steps[0]() is not planted
        assert calls == [("kurepa_zero", 3, hi)]
        assert steps[1]() is not planted
        assert calls == [("kurepa_zero", 3, hi)]


class TestTables:
    def test_table1(self):
        rep = C.reproduce_table("table1")
        assert rep.ok and len(rep.rows) == 6 and not rep.diffs

    def test_quotients(self):
        rep = C.reproduce_table("quotients")
        assert rep.ok and not rep.diffs
        # H_5 stays rational
        row5 = next(r for r in rep.rows if r[0] == 5)
        assert row5[4] == Fraction(66, 5)

    def test_gertsch(self):
        rep = C.reproduce_table("gertsch")
        assert rep.ok and len(rep.rows) == 17 and not rep.diffs

    def test_agoh_giuga_known_misprints(self):
        rep = C.reproduce_table("agoh_giuga")
        assert rep.ok
        assert sorted(d.row for d in rep.diffs) == [31, 71]
        assert all(d.known for d in rep.diffs)

    def test_bell_wilson(self):
        rep = C.reproduce_table("bell_wilson")
        assert rep.ok and not rep.diffs
        assert len(rep.rows) == 108  # all odd primes <= 600
        assert [r[0] for r in rep.extra_rows] == [569, 571, 577, 587, 593, 599]
        rows = {r[0]: r[1:] for r in rep.rows}
        assert rows[5] == (0, 0, 3)
        assert rows[7] == (0, 5, 6)
        assert rows[563] == (107, 0, "Fractional")

    def test_factorizations_known_misprint(self):
        rep = C.reproduce_table("factorizations", n_max=22)
        assert rep.ok
        assert [d.row for d in rep.diffs] == [21]
        assert rep.diffs[0].known

    def test_factorizations_read_the_factorizer_table(self, monkeypatch):
        # `table factorizations` and `factor-ln1` share one route
        calls, table = [], factorizer.left_factorial_minus_one_table
        monkeypatch.setattr(factorizer, "left_factorial_minus_one_table",
                            lambda n_max: calls.append(n_max) or table(n_max))
        rep = C.reproduce_table("factorizations", n_max=12)
        assert calls == [12]
        assert [r[0] for r in rep.rows] == list(range(3, 13))

    @pytest.mark.parametrize("n_max", [2, 31])
    def test_factorizations_outside_3_to_30(self, monkeypatch, n_max):
        # the range check comes before anything is factored
        monkeypatch.setattr(factorizer, "factorize", None)
        with pytest.raises(DomainError, match=r"\[3, 30\]"):
            C.reproduce_table("factorizations", n_max=n_max)

    def test_unknown_table(self):
        with pytest.raises(DomainError):
            C.reproduce_table("nope")

    def test_errata_entries_differ_from_reference(self):
        for (name, row), e in T.ERRATA.items():
            assert e["printed"] != e["corrected"]


class TestFindings:
    def test_lehmer_sum_never_p_integral(self):
        for p in (3, 5, 7, 11, 13):
            rep = C.lehmer_sum_report(p)
            assert not rep["defined_mod_p"]
            assert rep["residue"] is None

    def test_hodge_series_report(self):
        rep = C.hodge_series_report(8)
        assert rep["agree"]
        assert rep["computed_b3"] == Fraction(-31, 967680)
        assert rep["published_b3"] != rep["computed_b3"]

    def test_findings_report(self):
        rep = C.findings_report(pmax=60)
        assert rep["gertsch_wilson_agreement"] == [3, 7]
        assert rep["power_sum_mod_p3_holds_at"] == [3]
        assert not rep["genus_split"].split_holds
        assert "agoh_giuga:31" in rep["errata"]

    def test_c23_note_reports_mod_p3(self):
        o = C.run_check("C23", 5)
        assert o.holds
        assert "mod p^3" in o.note
        # 325 = 13 * 25 is not divisible by 125
        assert "0 (also" not in o.note


class TestAgreementSetsAtScale:
    def test_c31_c32_agreement_to_3000(self):
        res = C.run_catalog(3, 3000, ids=["C31", "C32"])
        assert res.ok
        for cid in ("C31", "C32"):
            agree = [o.p for o in res.outcomes
                     if o.check_id == cid and not o.skipped and o.holds]
            assert agree == [3, 7, 2887], cid


class TestStability:
    def test_table_reproduction_stable(self):
        a = C.reproduce_table("table1")
        b = C.reproduce_table("table1")
        assert a.rows == b.rows and a.diffs == b.diffs

    def test_exact_memo_thread_safe(self):
        import threading
        from kurepa import exact
        results = []

        def worker():
            results.append(exact.bernoulli_exact(200))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert results[0] == exact.bernoulli_exact(200)
