"""Table-driven catalog of named congruence checks, evaluated per prime.

Checks come in three kinds:

* ``assert``  - proved congruences; any violation is a build-stopping bug.
* ``measure`` - contested identities measured for their agreement set
                (C31/C32: the Gertsch-vs-Wilson family).
* ``scan``    - open-conjecture nonvanishing scans (C26/C27); a hit is a
                reportable counterexample event, never a run failure.

Each descriptor states the congruence and its classical attribution; run
outcomes materialize both sides so reports are self-contained.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

from . import config, exact, residues, search
from .errors import CapacityError, DomainError, EmptyRangeError
from .modmath import fraction_residue, iter_primes
from .residues import PrimeContext, prime_contexts  # PrimeContext re-exported
from .tables import reproduce_table  # re-exported: catalog + tables in one place

__all__ = [
    "CheckDescriptor",
    "CheckOutcome",
    "CATALOG",
    "check_ids",
    "run_check",
    "run_catalog",
    "CatalogResult",
    "reproduce_table",
    "lehmer_sum_report",
    "hodge_series_report",
    "findings_report",
]


class CheckOutcome(NamedTuple):
    check_id: str
    p: int
    lhs: object
    rhs: object
    holds: bool
    note: str = ""
    skipped: bool = False

    def as_dict(self) -> dict:
        return {"id": self.check_id, "p": self.p, "lhs": _plain(self.lhs),
                "rhs": _plain(self.rhs), "holds": self.holds,
                "note": self.note, "skipped": self.skipped}


def _plain(v):
    return list(v) if isinstance(v, tuple) else v


class CheckDescriptor(NamedTuple):
    id: str
    kind: str                    # assert | measure | scan
    statement: str
    attribution: str
    min_p: int = 3
    run: Callable[["PrimeContext"], tuple] = None  # -> (lhs, rhs[, note])


# ---------------------------------------------------------------------------
# Check implementations

def _c01(ctx):
    return ctx.kurepa(1), (ctx.bell_seq[ctx.p - 1] - 1) % ctx.p


def _c02(ctx):
    return ctx.der, ctx.kurepa(1)


def _c03(ctx):
    return ctx.bell_seq[ctx.p], 2 % ctx.p


def _c04(ctx):
    p, bs = ctx.p, ctx.bell_seq
    lhs = tuple(bs[n + p] for n in range(6))
    rhs = tuple((bs[n + 1] + bs[n]) % p for n in range(6))
    return lhs, rhs


def _c05(ctx):
    return ctx.fact(ctx.p), ctx.p - 1


def _c06(ctx):
    return ctx.qsum, ctx.wilson


def _c07(ctx):
    p = ctx.p
    ms = range(2, min(p, 6))
    lhs = tuple(ctx.agoh_sum(m) for m in ms)
    rhs = tuple((ctx.wilson + ctx.q(m)) % p for m in ms)
    return lhs, rhs


def _c08(ctx):
    p = ctx.p
    ms = range(2, min(p, 6))
    lhs = tuple(ctx.agoh_sum(-m) for m in ms)
    rhs = tuple((ctx.wilson + ctx.q(m) + ctx.inv[m]) % p for m in ms)
    return lhs, rhs


def _c09(ctx):
    return ctx.agoh_sum(1), ctx.wilson


def _c10(ctx):
    return ctx.agoh_sum(-1), (ctx.wilson + 1) % ctx.p


def _c11(ctx):
    # sum_k H_n^(k) B_k/k = sum_{m<=n} sum_k m^(-k) B_k/k
    p = ctx.p
    ns = range(1, min(4, p))
    lhs = tuple(s % p for s in accumulate(ctx.agoh_sum(m) for m in ns))
    rhs = tuple((n * ctx.wilson + ctx.q(math.factorial(n))) % p for n in ns)
    return lhs, rhs


def _c12(ctx):
    p = ctx.p
    s = ctx.bern_sums
    lhs = (int(s.alternating), int(s.plain), int(s.even))
    rhs = ((ctx.wilson + 2) % p, (ctx.wilson + 1) % p,
           (ctx.wilson + ctx.inv[2]) % p)
    return lhs, rhs


def _c13(ctx):
    p = ctx.p
    return ctx.kurepa(1) * ctx.bern_factorial_sum % p, ctx.bern_left_factorial_sum


def _c14(ctx):
    p = ctx.p
    lhs = fraction_residue(exact.bernoulli_exact(p - 1) + Fraction(1, p) - 1, p)
    return int(lhs), ctx.wilson


def _c15(ctx):
    p = ctx.p
    r = p * (p + 1) * exact.bernoulli_exact(p - 1) - math.factorial(p - 1)
    return int(fraction_residue(r, p * p)), 0


def _c16(ctx):
    p = ctx.p
    cap = config.EXACT_BERNOULLI_CAP
    pairs = [(n, k) for n, k in ((2, 1), (3, 1), (3, 2)) if n * (p - 1) <= cap]
    if not pairs:
        raise CapacityError(f"exact Bernoulli capped at index {cap} (asked {2 * (p - 1)})")
    lhs = tuple(int(fraction_residue(
        exact.bernoulli_exact(n * (p - 1)) - exact.bernoulli_exact(k * (p - 1)), p))
        for n, k in pairs)
    rhs = tuple((n - k) * ctx.wilson % p for n, k in pairs)
    return lhs, rhs


def _c17(ctx):
    p, row = ctx.p, ctx.stirling_row
    return (row[1], row[p], max(row[2:p])), (1, 1, 0)


def _c18(ctx):
    return ctx.gregory_sum, (ctx.wilson + 2 * ctx.q(2) - 1) % ctx.p


def _c19(ctx):
    p = ctx.p
    lhs, rhs = [], []
    for k in (2, 3, 4):
        lhs.append(ctx.greg.value(p - k))
        s = 0
        for j in range(1, k + 1):
            ell = (j + 1) * ctx.q(j + 1) % p
            term = math.comb(k, j) * ell % p
            s = (s + term) if j % 2 == 1 else (s - term)
        rhs.append(s % p if k % 2 == 0 else (-s) % p)
    return tuple(lhs), tuple(rhs)


def _c20(ctx):
    return ctx.ag, (ctx.wilson + 1) % ctx.p


def _c21(ctx):
    p = ctx.p
    ms = range(1, min(p, 7))
    lhs = tuple(ctx.q(p - m) for m in ms)
    rhs = tuple((ctx.q(m) + ctx.inv[m]) % p for m in ms)
    return lhs, rhs


def _c22(ctx):
    p, inv = ctx.p, ctx.inv
    return (sum(inv[1:p:2]) - sum(inv[2:p:2])) % p, 2 * ctx.q(2) % p


def _c23(ctx):
    p = ctx.p
    m2 = p * p
    lhs = (ctx.power_sum - p - ctx.fact(m2)) % m2
    m3 = p ** 3
    r3 = (ctx.power_sum - p - ctx.fact(m3)) % m3
    note = f"mod p^3 residue: {r3}" + ("" if r3 else " (also divisible by p^3)")
    return lhs, 0, note


def _c24(ctx):
    lf, lf_next = ctx.left_factorials
    return lf_next - lf - ctx.factorial_exact, 0


def _c25(ctx):
    # gcd(!p, p!) = 2 exactly while no odd prime q <= p has !q = 0 (mod q)
    return (math.gcd(ctx.left_factorials[0], ctx.factorial_exact)
            if search.kurepa_zeros(ctx.p) else 2), 2


def _c26(ctx):
    hit = ctx.kurepa(1) == 0
    note = f"!p mod p = {ctx.kurepa(1)}" + (" COUNTEREXAMPLE" if hit else "")
    return int(not hit), 1, note


def _c27(ctx):
    b = ctx.bell_seq[ctx.p - 1]
    hit = b == 1
    note = f"Bell_(p-1) mod p = {b}" + (" COUNTEREXAMPLE" if hit else "")
    return int(not hit), 1, note


def _c28(ctx):
    return ctx.bell_seq[ctx.p - 1], (ctx.der + 1) % ctx.p


_SPLITS = [exact.genus_split_report(g1, g2) for g1, g2 in ((1, 1), (1, 2), (2, 2))]
_SPLITS_NOTE = "; ".join(
    f"claimed split (g1={s.g1},g2={s.g2}): {s.lhs} vs {s.rhs} -> {s.split_holds}"
    for s in _SPLITS)


def _c29(ctx):
    rep = exact._successor_report(ctx.p, *ctx.left_factorials,
                                  ctx.factorial_exact)
    lhs = (int(rep.step_holds), int(rep.factorial_diff_holds),
           int(all(s.diff_form_holds for s in _SPLITS)))
    return lhs, (1, 1, 1), _SPLITS_NOTE


def _c30(ctx):
    p = ctx.p
    ms = range(1, min(p, 7))
    lhs = tuple(ctx.sun_zagier(m) for m in ms)
    rhs = tuple((-1) ** (m - 1) * exact.derangement_exact(m - 1) % p for m in ms)
    return lhs, rhs


def _c31(ctx):
    p = ctx.p
    m2 = p * p
    lhs = (ctx.kurepa(2) - ctx.bell(2)) % m2
    rhs = ctx.fact(m2)
    note = "agreement measured; equivalent to Gertsch_p = W_p (mod p)"
    return lhs, rhs, note


def _c32(ctx):
    g = ctx.gertsch  # first, so a capped Bell_{p-1} raises before the power table
    return ctx.qsum, g, "agreement measured (Lerch makes this Gertsch_p = W_p)"


_D = CheckDescriptor
CATALOG: dict[str, CheckDescriptor] = {d.id: d for d in [
    _D("C01", "assert", "!p = Bell_{p-1} - 1 (mod p)", "Gertsch", run=_c01),
    _D("C02", "assert", "Der_{p-1} = !p (mod p)", "Gertsch/Mijajlovic", run=_c02),
    _D("C03", "assert", "Bell_p = 2 (mod p)", "Touchard", run=_c03),
    _D("C04", "assert", "Bell_{n+p} = Bell_{n+1} + Bell_n (mod p), n <= 5",
       "Touchard", run=_c04),
    _D("C05", "assert", "(p-1)! = -1 (mod p)", "Wilson", run=_c05),
    _D("C06", "assert", "sum_a q_p(a) = W_p (mod p)", "Lerch", run=_c06),
    _D("C07", "assert", "sum_k m^-k B_k/k = W_p + q_p(m) (mod p), 2<=m<min(p,6)",
       "Agoh/Lehmer", min_p=5, run=_c07),
    _D("C08", "assert",
       "sum_k (-1)^k m^-k B_k/k = W_p + q_p(m) + 1/m (mod p), 2<=m<min(p,6)",
       "Agoh/Lehmer", min_p=5, run=_c08),
    _D("C09", "assert", "sum_k B_k/k = W_p (mod p)", "Glaisher", run=_c09),
    _D("C10", "assert", "sum_k (-1)^k B_k/k = W_p + 1 (mod p)", "Glaisher", run=_c10),
    _D("C11", "assert", "sum_k H_n^(k) B_k/k = n W_p + q_p(n!) (mod p), n<=3",
       "Agoh", min_p=5, run=_c11),
    _D("C12", "assert",
       "Bernoulli index sums (alt, plain, even) = W_p + (2, 1, 1/2) (mod p)",
       "E. Lehmer/Glaisher", run=_c12),
    _D("C13", "assert",
       "!p * sum_k (-1)^k B_k/k! = sum_m B_2m/(2m)! (!(2m)-1) (mod p)",
       "Vladimirov", min_p=5, run=_c13),
    _D("C14", "assert", "W_p = B_{p-1} + 1/p - 1 (mod p), exact rationals",
       "Glaisher/Beeger", run=_c14),
    _D("C15", "assert", "p(p+1) B_{p-1} = (p-1)! (mod p^2), exact rationals",
       "Carlitz", run=_c15),
    _D("C16", "assert", "(n-k) W_p = B_{n(p-1)} - B_{k(p-1)} (mod p)",
       "Agoh", run=_c16),
    _D("C17", "assert", "S(p,k) = 0 (mod p) for 2<=k<=p-1; S(p,1)=S(p,p)=1",
       "Lagrange/Fermat", min_p=5, run=_c17),
    _D("C18", "assert", "sum |G_n|/n = W_p + 2 q_p(2) - 1 (mod p)",
       "Kaneko-Matsusaka-Seki", run=_c18),
    _D("C19", "assert",
       "G_{p-k} = (-1)^k sum_j (-1)^(j-1) C(k,j) (j+1) q_p(j+1) (mod p), k=2..4",
       "Kaneko-Matsusaka-Seki", min_p=7, run=_c19),
    _D("C20", "assert", "AG_p = W_p + 1 (mod p) [derived: Glaisher + von Staudt]",
       "derived", run=_c20),
    _D("C21", "assert", "q_p(p-m) = q_p(m) + 1/m (mod p), 1<=m<min(p,7)",
       "Lerch", run=_c21),
    _D("C22", "assert", "sum_m (-1)^m/(m+1) = 2 q_p(2) (mod p)",
       "Glaisher", run=_c22),
    _D("C23", "assert", "sum_a a^(p-1) - p - (p-1)! = 0 (mod p^2)",
       "Lerch", run=_c23),
    _D("C24", "assert", "!(p+1) = !p + p! exactly", "Kurepa", run=_c24),
    _D("C25", "assert", "gcd(!p, p!) = 2", "Kurepa", run=_c25),
    _D("C26", "scan", "!p != 0 (mod p) [conjecture scan]", "Kurepa",
       run=_c26),
    _D("C27", "scan", "Bell_{p-1} != 1 (mod p) [conjecture scan]",
       "Gertsch/Barsky", run=_c27),
    _D("C28", "assert", "Bell_{p-1} = Der_{p-1} + 1 (mod p)", "Gertsch", run=_c28),
    _D("C29", "assert", "left-factorial successor identities, exact",
       "Kurepa", run=_c29),
    _D("C30", "assert",
       "sum_{0<k<p} Bell_k/(-m)^k = (-1)^(m-1) Der_{m-1} (mod p), m<min(p,7)",
       "Sun-Zagier", run=_c30),
    _D("C31", "measure", "!p - Bell_{p-1} = (p-1)! (mod p^2)",
       "measured agreement set", run=_c31),
    _D("C32", "measure", "sum_a q_p(a) = Gertsch_p (mod p)",
       "measured agreement set", run=_c32),
]}


def check_ids() -> list[str]:
    return sorted(CATALOG)


def run_check(check_id: str, p: int,
              ctx: Optional[PrimeContext] = None) -> CheckOutcome:
    """Evaluate one check at one prime. It is skipped as not applicable at
    p < min_p, and when a value it reads is past its cap: the record, or
    the exact Bernoulli oracle for C14-C16, raises CapacityError before it
    builds that value. Every cap is the `config` value, read by the record
    when it is made and by the oracle at each call. Without a ctx it reads
    the lone record of `residues._record`, which consecutive calls at one p
    share; a ctx at another prime than p raises DomainError."""
    if check_id not in CATALOG:
        raise DomainError(f"unknown check id {check_id!r}")
    desc = CATALOG[check_id]
    if ctx is None:
        ctx = residues._record(p)
    elif ctx.p != p:
        raise DomainError(f"record is at p = {ctx.p}, not at p = {p}")
    if desc.min_p <= p:
        try:
            out = desc.run(ctx)
        except CapacityError:
            pass
        else:
            lhs, rhs = out[0], out[1]
            note = out[2] if len(out) > 2 else ""
            return CheckOutcome(check_id, p, lhs, rhs, holds=lhs == rhs, note=note)
    return CheckOutcome(check_id, p, None, None, holds=True,
                        note="not applicable", skipped=True)


class CatalogResult:
    __slots__ = ("lo", "hi", "outcomes")

    def __init__(self, lo: int, hi: int,
                 outcomes: Optional[list[CheckOutcome]] = None):
        self.lo, self.hi = lo, hi
        self.outcomes = [] if outcomes is None else outcomes

    @property
    def assertion_failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if not (o.skipped or o.holds)
                and CATALOG[o.check_id].kind == "assert"]

    @property
    def findings(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if not (o.skipped or o.holds)
                and CATALOG[o.check_id].kind != "assert"]

    @property
    def ok(self) -> bool:
        return not self.assertion_failures

    def summary(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for o in self.outcomes:
            row = out.setdefault(o.check_id,
                                 {"held": 0, "failed": 0, "skipped": 0})
            row["skipped" if o.skipped else "held" if o.holds else "failed"] += 1
        return out


def run_catalog(lo: int, hi: int, ids: Optional[list[str]] = None) -> CatalogResult:
    """Run a subset (default: all) of the catalog over the primes in [lo, hi],
    each named check once per prime.

    Outcomes are deterministic and sorted by (id, p); assertion-class
    failures make .ok false, measurement/scan findings never do. When C25
    runs, one `search.kurepa_zeros(hi)` call covers the Kurepa zeros of
    every prime in the window before the first one is read. A window with
    no odd prime gives an empty result; hi < lo raises EmptyRangeError.
    """
    if ids is None:
        ids = check_ids()
    else:
        for i in ids:
            if i not in CATALOG:
                raise DomainError(f"unknown check id {i!r}")
        ids = list(dict.fromkeys(ids))  # a repeated id runs once
    if hi < lo:
        raise EmptyRangeError(f"empty prime range [{lo}, {hi}]")
    if "C25" in ids:
        search.kurepa_zeros(hi)
    result = CatalogResult(lo, hi)
    primes = iter_primes(max(lo, 3), hi) if hi >= 3 else ()
    for ctx in prime_contexts(primes):
        for check_id in ids:
            result.outcomes.append(run_check(check_id, ctx.p, ctx))
    result.outcomes.sort(key=lambda o: (o.check_id, o.p))
    return result


# ---------------------------------------------------------------------------
# Findings for the contested identities that are reported, never asserted

def lehmer_sum_report(p: int) -> dict:
    """Evaluate W_p =? B_{2(p-1)} + B_{p-1} (mod p) on exact rationals.

    Both Bernoulli numbers have p in their denominator (von Staudt-Clausen)
    and the poles add, so the right side is never p-integral; the report
    records that rather than asserting some regularization.
    """
    s = exact.bernoulli_exact(2 * (p - 1)) + exact.bernoulli_exact(p - 1)
    defined = s.denominator % p != 0
    residue = int(fraction_residue(s, p)) if defined else None
    wilson = int(residues.wilson_quotient_mod(p))
    return {
        "p": p,
        "sum": s,
        "defined_mod_p": defined,
        "residue": residue,
        "matches_wilson": (residue == wilson) if defined else None,
        "note": ("comparable" if defined else
                 "right side has denominator divisible by p; comparison undefined"),
    }


def hodge_series_report(gmax: int = 8) -> dict:
    """Compare the closed-form b_g against the series oracle.

    The oracle inverts the power series sum_n u^n / (4^n (2n+1)!) (the even
    generating series with u = t^2); its coefficients equal b_g exactly,
    while the sin-form inversion (alternating series) gives |b_g|. The
    report also records the one published b_3 denominator that disagrees
    with the closed form.
    """
    n = gmax
    a = [Fraction(1, 4 ** i * math.factorial(2 * i + 1)) for i in range(n + 1)]
    c = [Fraction(1)]
    for i in range(1, n + 1):
        c.append(-sum(a[k] * c[i - k] for k in range(1, i + 1)))
    formula = [exact.hodge_bg_exact(g) for g in range(n + 1)]
    return {
        "gmax": gmax,
        "formula": formula,
        "series": c,
        "agree": formula == c,
        "published_b3": Fraction(-31, 9676780),
        "computed_b3": formula[3] if gmax >= 3 else None,
        "note": "published b_3 denominator (9676780) disagrees with the "
                "closed form (967680); the closed form is used throughout",
    }


def findings_report(pmax: int = 100) -> dict:
    """Bundle of the known contested/measured results at desk scale."""
    from .tables import ERRATA
    c31 = run_catalog(3, pmax, ids=["C31"])
    agree = [o.p for o in c31.outcomes if not o.skipped and o.holds]
    p3 = [ctx.p for ctx in prime_contexts(iter_primes(3, min(pmax, 60)))
          if (ctx.power_sum - ctx.p - ctx.fact(ctx.p ** 3)) % ctx.p ** 3 == 0]
    return {
        "errata": {f"{t}:{r}": e["note"] for (t, r), e in ERRATA.items()},
        "gertsch_wilson_agreement": agree,
        "power_sum_mod_p3_holds_at": p3,
        "hodge": hodge_series_report(6)["note"],
        "genus_split": exact.genus_split_report(1, 1),
        "lehmer_sum_p5": lehmer_sum_report(5)["note"],
    }
