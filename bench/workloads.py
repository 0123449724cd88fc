"""The three benchmark workloads: inputs drawn from the seed, rounds of timed
operations, and the correctness gate applied to every operation.

Every workload runs on one thread in its own process. A run repeats rounds
of the same structure, each with fresh inputs drawn from (seed, round); the
number of rounds follows from --seconds (see ROUND_SECONDS), so counts repeat
exactly for a seed. The program only ever receives the generated inputs. Checks run after the timed phase, with tracing removed, so
they cost the timed operations nothing.

Why each workload exists (README.md gives the layer -> metric map in full):

scan     Checkpointed kurepa_zero and wilson_zero campaigns over [3, SCAN_TO],
         plus one campaign interrupted and resumed. The O(p)-per-prime scan
         kernels do almost all the work; search writes and loads checkpoints.
         No Bell, Bernoulli, Gregory or Stirling table runs, so table work
         must show no change here while remainder-tree scans show.
catalog  The whole congruence catalog C01..C32 over [3, CATALOG_TO] in
         seed-chosen sub-windows, five reference tables and the criterion-11
         residue-family identities. Many small primes, each building every
         O(p^2) table once, plus ~300 is_prime calls per prime: primality
         checked once and any extra small-p cost of series tables show here.
deep     A few large primes, one from each stratum of DEEP_STRATA, each taking
         residue_profile at e = 1, 2, 3 and the Gregory, Stirling and Bell
         rows, plus a gertsch_wilson campaign over consecutive primes. O(p^2)
         kernels at large p: an O(p) Bell_{p-1} and series tables show here;
         beside catalog it shows a kernel that wins at large p but loses at
         small p.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
import traceback
import types
from collections import Counter
from fractions import Fraction
from functools import cached_property

# The layer modules, in the order the per-layer metrics list them.
MODULES = ("modmath", "_kernels", "residues", "exact", "checks", "search",
           "adele", "tables")

# -- scan ---------------------------------------------------------------------
SCAN_TO = 20_000
SCAN_CAMPAIGNS = ("kurepa_zero", "wilson_zero")
SCAN_FIXTURES = {"kurepa_zero": (), "wilson_zero": (5, 13, 563)}
# Checkpoint strides (primes per block). Close together, so the seed varies
# the checkpoint cadence without changing the size of an operation much.
SCAN_STRIDES = (120, 124, 128, 132)

# -- catalog ------------------------------------------------------------------
CATALOG_TO = 600
CATALOG_WINDOWS = 16
C31_AGREEMENT = (3, 7, 2887)
TABLES = ("table1", "quotients", "gertsch", "agoh_giuga", "bell_wilson")
GAMMA_M_WINDOW = (3, 500)      # the criterion-11 windows
G_A_WINDOW = (7, 300)
G_A_KS = (2, 3, 4)
LOG_A_PAIRS = 4
LOG_A_MAX = 500

# -- deep ---------------------------------------------------------------------
# Narrow strata (5 to 7 primes each) keep the cost of a round within a few
# percent for every seed. They stop at 3040: the six operations of one prime
# near 5000 take ~27 s on a 2-core host, more than a run can hold with a
# second round.
DEEP_STRATA = ((1000, 1040), (2000, 2040), (3000, 3040))
DEEP_EXPONENTS = (1, 2, 3)
GW_BAND = (1500, 1540)         # first prime of the gertsch_wilson window
GW_PRIMES = 24
GW_STRIDE = 2

# Seconds one round takes at the seed commit on a 2-core host without numba.
# A run does rounds(name, seconds) rounds: about --seconds of work there, and
# the same work on every commit and every host, traced or not, so each run
# of a workload has the same operations and the same tail percentile.
ROUND_SECONDS = {"scan": 7.5, "catalog": 7.5, "deep": 15.0}


def rounds(name: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[name]))


# Wall time of reference_work() at nominal speed on the reference host. The
# reference host's speed drifts by up to +-30% over seconds to minutes (other
# tenants share its cores), and every timing it takes drifts with it. Each
# operation's time is therefore scaled by REFERENCE_S over the wall time of
# reference_work() run just before it: the result is the operation's time at
# nominal host speed. Over 90 s on that host this cut the spread of a scan
# kernel's time from 0.10 to 0.01 of its median, and of a Bell triangle's
# from 0.14 to 0.04. The raw wall times are kept in the run record.
REFERENCE_S = 0.006


def reference_work() -> float:
    """Wall seconds of a fixed pure-Python loop shaped like the library's
    kernels (a Bell-style triangle of small ints, then modular products);
    it calls no kurepa code."""
    t = time.perf_counter()
    m = 1_000_003
    row = [1]
    for _ in range(150):
        new = [row[-1]]
        for x in row:
            new.append((new[-1] + x) % m)
        row = new
    s = 1
    for i in range(1, 50_000):
        s = s * i % m
    return time.perf_counter() - t


def load_program(root: str) -> types.SimpleNamespace:
    """Import kurepa from root/src, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kurepa", "__init__.py")):
        raise SystemExit(f"kurepa sources not found under {src}")
    sys.path.insert(0, src)
    import importlib
    mods = {m: importlib.import_module(f"kurepa.{m}") for m in MODULES}
    where = os.path.dirname(os.path.dirname(os.path.abspath(mods["modmath"].__file__)))
    if where != os.path.abspath(src):
        raise SystemExit(f"kurepa was imported from {where}, not {src}")
    return types.SimpleNamespace(**mods)


class Recorder:
    """Timed operations of one run and the checks deferred until after it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []       # raw wall seconds per operation
        self.reference: list[float] = []   # reference_work() just before each
        self.failed: set[int] = set()
        self.failed_checks: Counter = Counter()   # layer -> failed checks
        self.primes = 0
        self._checks: list[tuple[int, str, object]] = []
        self._ref = None

    def begin(self):
        """Measure the host's speed, then tag the spans that follow with the
        next operation's id. Call right before the operation's clock starts."""
        self._ref = reference_work()
        if self.tracer is not None:
            self.tracer.op_id = len(self.times)

    def add(self, layer: str, seconds: float, check=None) -> int:
        i = len(self.times)
        self.times.append(seconds)
        self.reference.append(self._ref)
        if check is not None:
            self._checks.append((i, layer, check))
        return i

    def nominal_times(self) -> list[float]:
        """Operation times scaled to nominal host speed (see REFERENCE_S)."""
        return [t * REFERENCE_S / r for t, r in zip(self.times, self.reference)]

    def check_later(self, i: int, layer: str, check):
        self._checks.append((i, layer, check))

    def raised(self, i: int):
        self.failed.add(i)
        traceback.print_exc(file=sys.stderr)

    def call(self, layer: str, fn, check):
        """Time fn() as one operation; check(result) runs after the run."""
        self.begin()
        t = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.raised(self.add(layer, time.perf_counter() - t))
            return None
        self.add(layer, time.perf_counter() - t, lambda: check(out))
        return out

    def verify(self):
        for i, layer, check in self._checks:
            try:
                ok = check()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print(f"correctness check failed on operation {i} ({layer})",
                      file=sys.stderr)
                self.failed.add(i)
                self.failed_checks[layer] += 1


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _campaign(k, rec: Recorder, name: str, lo: int, hi: int, expected,
              path: str, stride: int, resume_from=None, stop_after=None):
    """Run one campaign; each checkpoint block is one operation, timed
    between progress callbacks and checked against expected(lo_b, hi_b)."""
    if resume_from is None:
        state = {"last_p": lo - 1, "hits": 0, "scanned": 0}
    else:
        state = {"last_p": resume_from.last_p, "hits": len(resume_from.hits),
                 "scanned": resume_from.scanned}

    def progress(ck):
        now = time.perf_counter()
        got = tuple(ck.hits[state["hits"]:])
        a, b = state["last_p"] + 1, ck.last_p
        rec.add("search", now - state["t"], lambda: got == tuple(expected(a, b)))
        rec.primes += ck.scanned - state["scanned"]
        state.update(last_p=ck.last_p, hits=len(ck.hits), scanned=ck.scanned)
        rec.begin()
        state["t"] = time.perf_counter()

    rec.begin()
    state["t"] = time.perf_counter()
    try:
        return k.search.run_campaign(
            name, lo, hi, checkpoint_path=path, resume=resume_from is not None,
            stride=stride, workers=1, stop_after_blocks=stop_after,
            progress=progress)
    except Exception:
        rec.raised(rec.add("search", time.perf_counter() - state["t"]))
        return None


class Workload:
    name = ""

    def __init__(self, k, seed: int):
        self.k = k          # namespace of kurepa modules
        self.seed = seed

    def inputs(self, r: int) -> dict:
        """The generated inputs of round r; the program sees only these."""
        raise NotImplementedError

    def run_round(self, rec: Recorder, inp: dict, tmpdir: str):
        raise NotImplementedError


class Scan(Workload):
    name = "scan"

    def __init__(self, k, seed):
        super().__init__(k, seed)
        self.n_primes = len(k.modmath.sieve_primes(3, SCAN_TO))

    def inputs(self, r):
        rng = _rng(self.name, self.seed, r)
        stride = rng.choice(SCAN_STRIDES)
        blocks = -(-self.n_primes // stride)
        return {"stride": stride,
                "resume": rng.choice(SCAN_CAMPAIGNS),
                "interrupt": rng.randint(1, blocks - 1)}

    def run_round(self, rec, inp, tmpdir):
        def run(name, path, **kw):
            fixture = SCAN_FIXTURES[name]
            return _campaign(self.k, rec, name, 3, SCAN_TO,
                             lambda a, b: [h for h in fixture if a <= h <= b],
                             path, inp["stride"], **kw)

        full = {name: run(name, f"{tmpdir}/{name}.json") for name in SCAN_CAMPAIGNS}
        name = inp["resume"]
        path = f"{tmpdir}/{name}.resume.json"
        cut = run(name, path, stop_after=inp["interrupt"])
        resumed = run(name, path, resume_from=cut) if cut is not None else None
        if resumed is not None and full[name] is not None:
            want, got = full[name].hits, resumed.hits
            rec.check_later(len(rec.times) - 1, "search", lambda: got == want)


class Catalog(Workload):
    name = "catalog"

    def __init__(self, k, seed):
        super().__init__(k, seed)
        self.primes = k.modmath.sieve_primes(3, CATALOG_TO)
        cost = [p * p for p in self.primes]        # O(p^2) tables per prime
        self.cum = [0]
        for c in cost:
            self.cum.append(self.cum[-1] + c)

    def _windows(self, rng) -> list[tuple[int, int]]:
        """Consecutive sub-windows covering [3, CATALOG_TO], each of about
        equal expected cost, the cuts jittered by the seed."""
        total, n = self.cum[-1], len(self.primes)
        cuts, last = [], 0
        for j in range(1, CATALOG_WINDOWS):
            target = total * (j + rng.uniform(-0.1, 0.1)) / CATALOG_WINDOWS
            idx = next(i for i in range(1, n + 1) if self.cum[i] >= target)
            idx = min(max(idx, last + 1), n - (CATALOG_WINDOWS - j))
            cuts.append(idx)
            last = idx
        bounds, lo = [], 3
        for idx in cuts:
            hi = self.primes[idx - 1]
            bounds.append((lo, hi))
            lo = hi + 1
        bounds.append((lo, CATALOG_TO))
        return bounds

    def inputs(self, r):
        rng = _rng(self.name, self.seed, r)
        windows = self._windows(rng)
        pairs = [(Fraction(rng.randint(1, LOG_A_MAX), rng.randint(1, LOG_A_MAX)),
                  Fraction(rng.randint(1, LOG_A_MAX), rng.randint(1, LOG_A_MAX)))
                 for _ in range(LOG_A_PAIRS)]
        return {"windows": windows, "log_a_pairs": pairs}

    def run_round(self, rec, inp, tmpdir):
        k = self.k
        for lo, hi in inp["windows"]:
            want_primes = [p for p in self.primes if lo <= p <= hi]
            want_c31 = [p for p in C31_AGREEMENT if lo <= p <= hi]
            res = rec.call("checks", lambda lo=lo, hi=hi: k.checks.run_catalog(lo, hi),
                           lambda res, w=want_primes, c=want_c31: _catalog_ok(res, w, c))
            if res is not None:
                rec.primes += len(want_primes)
        for name in TABLES:
            rec.call("tables", lambda name=name: k.tables.reproduce_table(name),
                     lambda rep: _table_ok(k, rep))
        ad, PR = k.adele, k.modmath.PrimeRange
        ident = lambda cmp: cmp.identical_on_window  # noqa: E731

        def gamma_m():
            w = PR(*GAMMA_M_WINDOW)
            rhs = ad.gamma_W(w) + ad.ell_A(2, w) - ad.embed_integer(1, w)
            return ad.gamma_M(w).compare(rhs)
        rec.call("adele", gamma_m, ident)

        def g_a(kk):
            w = PR(*G_A_WINDOW)
            acc = None
            for j in range(1, kk + 1):
                part = ad.embed_integer((-1) ** (j - 1) * math.comb(kk, j), w) \
                    * ad.ell_A(j + 1, w)
                acc = part if acc is None else acc + part
            return ad.G_A(kk, w).compare(ad.embed_integer((-1) ** kk, w) * acc)
        for kk in G_A_KS:
            rec.call("adele", lambda kk=kk: g_a(kk), ident)

        def log_a(x, y):
            w = PR(*GAMMA_M_WINDOW)
            return ad.log_A(x * y, w).compare(ad.log_A(x, w) + ad.log_A(y, w))
        for x, y in inp["log_a_pairs"]:
            rec.call("adele", lambda x=x, y=y: log_a(x, y), ident)


def _catalog_ok(res, primes, c31) -> bool:
    seen = sorted({o.p for o in res.outcomes})
    agree = [o.p for o in res.outcomes
             if o.check_id == "C31" and not o.skipped and o.holds]
    return res.ok and seen == primes and agree == c31


def _table_ok(k, rep) -> bool:
    errata = k.tables.ERRATA
    return rep.ok and all(d.known and (rep.name, d.row) in errata
                          for d in rep.diffs)


class Deep(Workload):
    name = "deep"

    def __init__(self, k, seed):
        super().__init__(k, seed)
        self.strata = [k.modmath.sieve_primes(lo, hi - 1) for lo, hi in DEEP_STRATA]
        self.gw_starts = k.modmath.sieve_primes(*GW_BAND)
        self.gw_after = k.modmath.sieve_primes(GW_BAND[0], GW_BAND[1] + 40 * GW_PRIMES)

    def inputs(self, r):
        rng = _rng(self.name, self.seed, r)
        primes = [rng.choice(s) for s in self.strata]
        i = self.gw_after.index(rng.choice(self.gw_starts))
        return {"primes": primes, "gw_window": self.gw_after[i:i + GW_PRIMES]}

    def run_round(self, rec, inp, tmpdir):
        res = self.k.residues
        for p in inp["primes"]:
            oracle = _Oracle(p)
            outs = [rec.call("residues", lambda p=p, e=e: res.residue_profile(p, e),
                             lambda prof, e=e, o=oracle: o.profile_ok(prof, e))
                    for e in DEEP_EXPONENTS]
            outs.append(rec.call("residues", lambda p=p: res.gregory_mod_table(p),
                                 oracle.gregory_ok))
            outs.append(rec.call("residues", lambda p=p: res.stirling2_row_mod(p, p),
                                 oracle.stirling_ok))
            outs.append(rec.call("residues", lambda p=p: res.bell_sequence_mod(p - 1, p),
                                 oracle.bell_ok))
            if all(o is not None for o in outs):
                rec.primes += 1
        window = inp["gw_window"]

        def expected(a, b):
            return [q for q in window if a <= q <= b
                    and res.gertsch_quotient_mod(q) == res.wilson_quotient_mod(q)]
        _campaign(self.k, rec, "gertsch_wilson", window[0], window[-1], expected,
                  f"{tmpdir}/gertsch_wilson.json", GW_STRIDE)


class _Oracle:
    """Proved congruences at one prime, computed by routes that share no
    kernel with the library: plain loops and pow(). Built lazily, so the
    timed phase pays nothing for it."""

    def __init__(self, p: int):
        self.p = p

    @cached_property
    def wilson(self) -> int:
        p, m2, f = self.p, self.p * self.p, 1
        for n in range(2, p):
            f = f * n % m2
        return (f + 1) // p % p

    @cached_property
    def left_factorial(self) -> int:
        """!p mod p."""
        p, f, s = self.p, 1, 1
        for n in range(1, p):
            f = f * n % p
            s += f
        return s % p

    def q(self, a: int) -> int:
        p = self.p
        return (pow(a, p - 1, p * p) - 1) // p % p

    def profile_ok(self, prof, e: int) -> bool:
        p, w = self.p, self.wilson
        return (prof.p == p and prof.e == e
                and prof.wilson_q == w
                and prof.k_mod % p == self.left_factorial
                and (prof.bell_mod - 1 - prof.k_mod) % p == 0
                and prof.der_mod == prof.k_mod % p
                and prof.bernoulli_sums == ((w + 2) % p, (w + 1) % p,
                                            (w + pow(2, -1, p)) % p)
                and prof.ag_q == (w + 1) % p)

    def gregory_ok(self, table) -> bool:
        p = self.p
        s = 0
        for n in range(1, p - 1):
            s = (s + table.abs(n) * pow(n, -1, p)) % p
        if s != (self.wilson + 2 * self.q(2) - 1) % p:
            return False
        for kk in (2, 3, 4):
            acc = 0
            for j in range(1, kk + 1):
                term = math.comb(kk, j) * ((j + 1) * self.q(j + 1) % p) % p
                acc = acc + term if j % 2 == 1 else acc - term
            if table.value(p - kk) != (acc % p if kk % 2 == 0 else -acc % p):
                return False
        return True

    def stirling_ok(self, row) -> bool:
        p = self.p
        return (len(row) == p + 1 and row[1] == 1 and row[p] == 1
                and not any(row[2:p]))

    def bell_ok(self, seq) -> bool:
        return len(seq) == self.p and (seq[-1] - 1) % self.p == self.left_factorial


WORKLOADS = {w.name: w for w in (Scan, Catalog, Deep)}
