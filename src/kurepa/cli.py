"""Command-line surface.

Exit codes: 0 success / findings-only, 1 assertion or table mismatch,
2 usage error, 3 capacity (a kernel cap was exceeded).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import adele, checks, config, factorizer, residues, search, tables
from .errors import CapacityError, CheckpointError, DomainError, KurepaError
from .modmath import PrimeRange

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(_fmt(x) for x in v) + ")"
    if v is None:
        return "-"
    return str(v)


def _emit_rows(rows: list[dict], fmt: str, out):
    """rows: list of dicts sharing keys; values already plain. No rows print
    nothing, except `[]` as JSON."""
    if fmt == "json":
        json.dump(rows, out, default=_fmt)
        out.write("\n")
    elif not rows:
        return
    elif fmt == "csv":
        w = csv.writer(out)
        w.writerow(rows[0].keys())
        for r in rows:
            w.writerow([_fmt(v) for v in r.values()])
    else:
        keys = list(rows[0].keys())
        widths = [max(len(k), max(len(_fmt(r[k])) for r in rows)) for k in keys]
        out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(_fmt(r[k]).ljust(w)
                                for k, w in zip(keys, widths)).rstrip() + "\n")


def cmd_residues(args) -> int:
    prof = residues.residue_profile(args.p, args.pow)
    _emit_rows([prof.as_dict()], args.format, sys.stdout)
    return EXIT_OK


def cmd_check(args) -> int:
    res = checks.run_catalog(args.from_, args.to, ids=[args.id])
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as dest:
        _emit_rows([o.as_dict() for o in res.outcomes], args.format, dest)
    kind = checks.CATALOG[args.id].kind
    if kind != "assert":
        findings = [o for o in res.outcomes if not o.skipped and not o.holds]
        print(f"# {args.id} ({kind}): {len(findings)} finding(s) over "
              f"[{args.from_}, {args.to}]", file=sys.stderr)
        return EXIT_OK
    return EXIT_OK if res.ok else EXIT_MISMATCH


def cmd_catalog(args) -> int:
    ids = None if args.ids is None else args.ids.split(",")
    res = checks.run_catalog(args.from_, args.to, ids=ids)
    rows = [{"id": cid, **counts} for cid, counts in sorted(res.summary().items())]
    _emit_rows(rows, args.format, sys.stdout)
    for o in res.assertion_failures:
        print(f"FAIL {o.check_id} p={o.p}: {_fmt(o.lhs)} != {_fmt(o.rhs)}",
              file=sys.stderr)
    for o in res.findings:
        print(f"finding {o.check_id} p={o.p}: {_fmt(o.lhs)} vs {_fmt(o.rhs)} {o.note}",
              file=sys.stderr)
    return EXIT_OK if res.ok else EXIT_MISMATCH


# the keyword that --nmax sets, for the tables that take a bound
_TABLE_BOUNDS = {"factorizations": "n_max", "bell_wilson": "hi"}


def cmd_table(args) -> int:
    kwargs = {}
    if args.nmax is not None:
        if args.name not in _TABLE_BOUNDS:
            raise DomainError(f"table {args.name} takes no --nmax")
        kwargs[_TABLE_BOUNDS[args.name]] = args.nmax
    rep = tables.reproduce_table(args.name, **kwargs)
    rows = [{"row": r[0], "values": r[1:]} for r in rep.rows]
    _emit_rows(rows, args.format, sys.stdout)
    for d in rep.diffs:
        tag = "known misprint" if d.known else "MISMATCH"
        print(f"{tag} row {d.row} [{d.column}]: reference {_fmt(d.reference)} "
              f"!= computed {_fmt(d.computed)} {d.note}", file=sys.stderr)
    print(f"# {rep.name}: {len(rep.rows)} rows, "
          f"{len(rep.unknown_diffs)} unexplained diff(s), "
          f"{len(rep.diffs) - len(rep.unknown_diffs)} known misprint(s)",
          file=sys.stderr)
    return EXIT_OK if rep.ok else EXIT_MISMATCH


def cmd_search(args) -> int:
    params = {}
    if args.m_max is not None:
        params["m_max"] = args.m_max
    ck = search.run_campaign(
        args.campaign, args.from_, args.to,
        checkpoint_path=args.checkpoint, resume=args.resume,
        stride=args.stride, params=params)
    print(json.dumps({
        "campaign": ck.campaign, "lo": ck.lo, "hi": ck.hi,
        "hits": ck.hits,
        "scanned": ck.scanned, "elapsed_s": round(ck.elapsed_s, 3),
        "primes_per_second": round(ck.primes_per_second, 1),
    }))
    if args.verify:
        rep = search.verify_expected(args.campaign, ck)
        print(f"# verify {rep.status}: expected {rep.expected}, "
              f"found {rep.found}", file=sys.stderr)
        if rep.status == "fail":
            return EXIT_MISMATCH
    return EXIT_OK


_ADELE_CONSTANTS = {
    "gamma_W": lambda w, a: adele.gamma_W(w),
    "gamma_M": lambda w, a: adele.gamma_M(w),
    "gamma_G": lambda w, a: adele.gamma_G(w),
    "gamma_L": lambda w, a: adele.gamma_L(w),
    "gamma_AG": lambda w, a: adele.gamma_AG(w),
    "gamma_Kp": lambda w, a: adele.gamma_Kp(w),
    "gamma_Q": lambda w, a: adele.gamma_Q(a.m, w),
    "G_A": lambda w, a: adele.G_A(a.k, w),
    "Z_A": lambda w, a: adele.Z_A(a.k, w),
    "log": lambda w, a: adele.log_A(_rational(a.x), w),
    "ell": lambda w, a: adele.ell_A(_rational(a.x), w),
    "embed": lambda w, a: adele.embed_rational(_rational(a.x), w),
}


def _rational(x: str) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"--x must be a rational a/b with b != 0, got {x!r}") from None


def cmd_adele(args) -> int:
    window = PrimeRange(args.pmin, args.pmax)
    elem = _ADELE_CONSTANTS[args.constant](window, args)
    if args.format == "json":
        print(elem.to_json())
    else:
        rows = [{"p": p, "residue": elem.residues[p]}
                for p in elem.defined_primes()]
        _emit_rows(rows, args.format, sys.stdout)
        if elem.undefined_at:
            print(f"# undefined at: {sorted(elem.undefined_at)}", file=sys.stderr)
    return EXIT_OK


def cmd_factor_ln1(args) -> int:
    rows = factorizer.left_factorial_minus_one_table(args.nmax,
                                                     budget=args.budget)
    out = [{"n": n, "factorization": str(f), "complete": f.complete}
           for n, f in enumerate(rows, start=3)]
    _emit_rows(out, args.format, sys.stdout)
    return EXIT_OK if all(f.complete for f in rows) else EXIT_MISMATCH


def _add_format(p):
    p.add_argument("--format", choices=("human", "csv", "json"),
                   default="human")


def _add_caps(p):
    p.add_argument("--bell-cap", type=int, default=config.BELL_MOD_CAP,
                   help="largest n for Bell_n mod m and the Bell row (O(n) "
                        "for one value when n! is a unit mod m)")
    p.add_argument("--bernoulli-cap", type=int,
                   default=config.BERNOULLI_MOD_CAP,
                   help="largest p for the Bernoulli/Gregory tables mod p")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kurepa",
        description="Left factorials, Bell/Wilson/Gertsch quotients, and "
                    "prime residue families: tables, congruence checks, and "
                    "search campaigns.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residues", help="full residue profile of one prime")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--pow", type=int, choices=(1, 2, 3), default=1,
                   help="modulus power for the left-factorial/Bell pair")
    _add_format(p)
    _add_caps(p)
    p.set_defaults(fn=cmd_residues)

    p = sub.add_parser("check", help="run one congruence check over a range")
    p.add_argument("--id", required=True)
    p.add_argument("--from", dest="from_", type=int, default=3)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--out", help="write outcomes to a file instead of stdout")
    _add_format(p)
    _add_caps(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("catalog", help="run the whole check catalog")
    p.add_argument("--from", dest="from_", type=int, default=3)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--ids", help="comma-separated subset of check ids")
    _add_format(p)
    _add_caps(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("table", help="reproduce a reference table and diff it")
    p.add_argument("name", choices=tables.TABLE_NAMES)
    p.add_argument("--nmax", type=int,
                   help="factorizations: last n; bell_wilson: last prime; "
                        "no other table takes it")
    _add_format(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("search", help="run a checkpointed search campaign")
    p.add_argument("campaign", choices=sorted(search.CAMPAIGNS))
    p.add_argument("--from", dest="from_", type=int, default=3)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--checkpoint", help="checkpoint file path")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint")
    p.add_argument("--stride", type=int, default=config.CHECKPOINT_STRIDE,
                   help="primes per checkpoint block")
    p.add_argument("--m-max", type=int, default=None,
                   help="qpm_zero only: largest m to test; any other "
                   "campaign refuses it")
    p.add_argument("--verify", action="store_true",
                   help="compare hits against the desk-scale fixture")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("adele", help="evaluate a residue-family constant")
    p.add_argument("constant", choices=sorted(_ADELE_CONSTANTS))
    p.add_argument("--pmin", type=int, default=3)
    p.add_argument("--pmax", type=int, default=1000)
    p.add_argument("--m", type=int, default=2, help="gamma_Q: the base m")
    p.add_argument("--k", type=int, default=2, help="G_A/Z_A: the index k")
    p.add_argument("--x", default="2", help="log/ell/embed: rational a/b")
    _add_format(p)
    p.set_defaults(fn=cmd_adele)

    p = sub.add_parser("factor-ln1",
                       help="factor !n - 1 for 3 <= n <= nmax")
    p.add_argument("--nmax", type=int, default=24, help="at most 30")
    p.add_argument("--budget", type=int, default=config.FACTOR_BUDGET)
    _add_format(p)
    p.set_defaults(fn=cmd_factor_ln1)

    return ap


def main(argv=None) -> int:
    """Run one command. `--bell-cap` and `--bernoulli-cap` set their `config`
    caps for the command alone: both are restored however it ends."""
    ap = build_parser()
    args = ap.parse_args(argv)
    saved = config.BELL_MOD_CAP, config.BERNOULLI_MOD_CAP
    try:
        config.BELL_MOD_CAP = getattr(args, "bell_cap", saved[0])
        config.BERNOULLI_MOD_CAP = getattr(args, "bernoulli_cap", saved[1])
        return args.fn(args)
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KurepaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    finally:
        config.BELL_MOD_CAP, config.BERNOULLI_MOD_CAP = saved


if __name__ == "__main__":
    sys.exit(main())
