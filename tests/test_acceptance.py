"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime. Every comparison is exact equality; the stated wall-clock
budgets are asserted as hard limits."""

import random
import time
from fractions import Fraction

from kurepa import _kernels, adele, exact, residues, search, tables
from kurepa.checks import run_catalog
from kurepa.modmath import PrimeRange, fraction_residue, iter_primes
from oracles import kurepa_gf_mod_py

_REPORT = []


def _criterion(n, label, budget_s):
    """Decorator: time the body, print PASS/FAIL, enforce the budget."""
    def wrap(fn):
        def run():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                dt = time.monotonic() - t0
                print(f"ACCEPTANCE {n:02d} {label}: FAIL ({dt:.2f} s)")
                raise
            dt = time.monotonic() - t0
            print(f"ACCEPTANCE {n:02d} {label}: PASS ({dt:.2f} s)")
            assert dt < budget_s, f"budget exceeded: {dt:.2f}s >= {budget_s}s"
        run.__name__ = fn.__name__
        return run
    return wrap


@_criterion(1, "left-factorial/Bell table p<=17", 1.0)
def test_criterion_01_table1():
    rep = tables.reproduce_table("table1")
    assert rep.ok and not rep.diffs and len(rep.rows) == 6


@_criterion(2, "quotient table (W, L, Gertsch, H) p<=7", 1.0)
def test_criterion_02_quotients():
    rep = tables.reproduce_table("quotients")
    assert rep.ok and not rep.diffs
    rows = {r[0]: r[1:] for r in rep.rows}
    assert rows[3] == (1, Fraction(0), 1, Fraction(0))
    assert rows[5] == (5, Fraction(13), 4, Fraction(66, 5))
    assert rows[7] == (103, Fraction(1356), 96, Fraction(1357))


@_criterion(3, "Gertsch quotient table p<=61 exact", 10.0)
def test_criterion_03_gertsch_table():
    rep = tables.reproduce_table("gertsch")
    assert rep.ok and not rep.diffs and len(rep.rows) == 17
    assert exact.gertsch_quotient_exact(61) == tables.GERTSCH[61]


@_criterion(4, "Agoh-Giuga quotient table p<=97 exact rationals", 30.0)
def test_criterion_04_agoh_giuga_table():
    rep = tables.reproduce_table("agoh_giuga")
    assert rep.ok and len(rep.rows) == 24
    # every diff is a recorded misprint whose corrected value we match
    assert sorted(d.row for d in rep.diffs) == [31, 71]
    for d in rep.diffs:
        assert d.known
        assert d.computed == tables.ERRATA[("agoh_giuga", d.row)]["corrected"]


@_criterion(5, "Bell/Wilson/sum longtable, all primes <= 600", 120.0)
def test_criterion_05_longtable():
    rep = tables.reproduce_table("bell_wilson")
    assert rep.ok and not rep.diffs
    rows = {r[0]: r[1:] for r in rep.rows}
    assert rows[5] == (0, 0, 3)
    assert rows[7] == (0, 5, 6)
    assert rows[563] == (107, 0, "Fractional")
    # every printed reference row is covered
    assert set(tables.BELL_WILSON) <= set(rows)


@_criterion(6, "search-campaign fixtures", 120.0)
def test_criterion_06_search_fixtures():
    assert search.run_campaign("wilson_zero", 3, 10_000).hits == [5, 13, 563]
    t0 = time.monotonic()
    assert search.run_campaign("wieferich", 3, 1_000_000).hits == [1093, 3511]
    assert time.monotonic() - t0 < 60
    t0 = time.monotonic()
    assert search.run_campaign("mirimanoff", 3, 1_100_000).hits == [11, 1_006_003]
    assert time.monotonic() - t0 < 60
    assert search.run_campaign("gertsch_wilson", 3, 3000).hits == [3, 7, 2887]
    assert search.run_campaign("wilson_plus_two", 3, 2000).hits == [3, 7, 71]
    assert search.run_campaign("wilson_plus_half", 3, 1500).hits == [3, 227, 1163]
    qpm = search.run_campaign("qpm_zero", 3, 37, params={"m_max": 20}).hits
    for pair in [(2, 3), (6, 7), (14, 19), (5, 23), (19, 31), (20, 37)]:
        assert pair in qpm


@_criterion(7, "congruence catalog [3,1000], assertion class", 300.0)
def test_criterion_07_catalog():
    ids = [f"C{i:02d}" for i in range(1, 26)] + ["C28", "C29", "C30"]
    res = run_catalog(3, 1000, ids=ids)
    assert res.ok
    assert res.assertion_failures == []
    for o in res.outcomes:
        if not o.skipped:
            assert o.holds, (o.check_id, o.p)
    # the left-factorial/Bernoulli congruence holds at every 5 <= p <= 1000
    c13 = [o for o in res.outcomes if o.check_id == "C13" and not o.skipped]
    assert len(c13) == len(list(iter_primes(5, 1000)))
    assert all(o.holds for o in c13)


@_criterion(8, "oracle equivalence p<=97; dual left-factorial kernels p<=1e4", 120.0)
def test_criterion_08_oracle_equivalence():
    for p in iter_primes(3, 97):
        prof = residues.residue_profile(p)
        assert prof.k_mod == exact.left_factorial(p) % p
        assert prof.bell_mod == exact.bell_exact(p - 1) % p
        assert prof.der_mod == exact.derangement_exact(p - 1) % p
        assert prof.wilson_q == exact.wilson_quotient_exact(p) % p
        assert prof.gertsch_q == exact.gertsch_quotient_exact(p) % p
        assert prof.fermat_q2 == exact.fermat_quotient_exact(2, p) % p
        if p != 3:
            assert prof.fermat_q3 == exact.fermat_quotient_exact(3, p) % p
        assert prof.lerch_q == int(exact.lerch_quotient_exact(p)) % p
        assert prof.ag_q == int(fraction_residue(exact.agoh_giuga_exact(p), p))
        v = Fraction(1) + sum(Fraction((-1) ** k) * exact.bernoulli_exact(k) / k
                              for k in range(1, p - 1))
        v_star = Fraction(1) + sum(exact.bernoulli_exact(k) / k
                                   for k in range(1, p - 1))
        v_prime = sum((exact.bernoulli_exact(2 * m) / (2 * m)
                       for m in range(1, (p - 3) // 2 + 1)), Fraction(0))
        assert prof.bernoulli_sums == (int(fraction_residue(v, p)),
                                int(fraction_residue(v_star, p)),
                                int(fraction_residue(v_prime, p)))
    primes = list(iter_primes(3, 10_000))
    # the one block run_campaign("kurepa_zero", ...) reads at the default stride
    direct = next(_kernels.run_columns([primes], 1))[1]
    gf = [kurepa_gf_mod_py(p) for p in primes]
    assert direct == gf


@_criterion(9, "nonvanishing scans to 1e5", 600.0)
def test_criterion_09_nonvanishing():
    assert search.run_campaign("kurepa_zero", 3, 100_000).hits == []
    primes = list(iter_primes(3, 100_000))
    ks = next(_kernels.run_columns([primes], 1))[1]
    # Bell_{p-1} = !p + 1 (mod p), asserted independently as C01 over
    # [3,1000]; through it the same column covers Bell_{p-1} != 1
    for p, k in zip(primes, ks):
        assert k != 0
        assert (k + 1) % p != 1


@_criterion(10, "factorizations of !n - 1", 300.0)
def test_criterion_10_factorizations():
    rep = tables.reproduce_table("factorizations", n_max=24)
    assert rep.ok
    assert [d.row for d in rep.diffs] == [21] and rep.diffs[0].known
    # the rows past 24, with 20+ digit prime factors, also reproduce
    from kurepa.factorizer import left_factorial_minus_one_table
    rows = left_factorial_minus_one_table(30)
    for n, f in zip(range(3, 31), rows):
        assert f.complete
        err = tables.ERRATA.get(("factorizations", n))
        want = err["corrected"] if err else tables.FACTORIZATIONS[n]
        assert f.factors == tuple(want)


@_criterion(11, "residue-family identities over prime windows", 120.0)
def test_criterion_11_adele_identities():
    w = PrimeRange(3, 500)
    lhs = adele.gamma_M(w)
    rhs = adele.gamma_W(w) + adele.ell_A(2, w) - adele.embed_integer(1, w)
    assert lhs.compare(rhs).identical_on_window

    rng = random.Random(1093)
    for _ in range(100):
        x = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        y = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        both = adele.log_A(x * y, w)
        split = adele.log_A(x, w) + adele.log_A(y, w)
        assert both.compare(split).identical_on_window

    import math
    w2 = PrimeRange(7, 300)
    for k in (2, 3, 4):
        lhs = adele.G_A(k, w2)
        acc = None
        for j in range(1, k + 1):
            part = adele.embed_integer((-1) ** (j - 1) * math.comb(k, j), w2) \
                * adele.ell_A(j + 1, w2)
            acc = part if acc is None else acc + part
        rhs = adele.embed_integer((-1) ** k, w2) * acc
        assert lhs.compare(rhs).identical_on_window


@_criterion(12, "campaign resumability, 20 random interrupts", 120.0)
def test_criterion_12_resumability():
    import os
    import tempfile
    rng = random.Random(563)
    # only qpm_zero takes m_max; any other campaign refuses it
    cases = [("wilson_zero", 3, 2500, {}), ("wilson_plus_two", 3, 2500, {}),
             ("kurepa_zero", 3, 5000, {}), ("qpm_zero", 3, 37, {"m_max": 20})]
    full = {name: search.run_campaign(name, lo, hi, params=params)
            for name, lo, hi, params in cases}
    with tempfile.TemporaryDirectory() as tmp:
        for trial in range(20):
            name, lo, hi, params = cases[trial % len(cases)]
            stride = rng.choice([5, 11, 23, 47, 80])
            blocks = rng.randint(1, 5)
            path = os.path.join(tmp, f"t{trial}.json")
            search.run_campaign(name, lo, hi, checkpoint_path=path,
                                stride=stride, stop_after_blocks=blocks,
                                params=params)
            resumed = search.run_campaign(name, lo, hi, checkpoint_path=path,
                                          resume=True, stride=stride,
                                          params=params)
            assert resumed.hits == full[name].hits, (name, trial)
