"""Self-test of the benchmark harness.

Checks that the span wrappers see calls made through directly imported
names, that every original function is back after a traced run, and that a
tiny run of each workload, traced and untraced, passes its correctness gate
and emits exactly the metric names and units listed in BENCHMARK.json.

Usage (from the repository root): python3 bench/selftest.py
"""

from __future__ import annotations

import inspect
import json
import os
import re
import sys

import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Inputs small enough for the whole self-test to take seconds.
TINY = {
    "SCAN_TO": 3000,
    "CATALOG_TO": 120,
    "CATALOG_WINDOWS": 4,
    "GAMMA_M_WINDOW": (3, 100),
    "G_A_WINDOW": (7, 60),
    "LOG_A_PAIRS": 2,
    "DEEP_STRATA": ((100, 110), (211, 230)),
    "GW_BAND": (150, 160),
    "GW_PRIMES": 4,
}


def snapshot() -> dict:
    """Every attribute of every kurepa module and class, by identity."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "kurepa" or modname.startswith("kurepa.")):
            continue
        holders = [mod] + [c for c in vars(mod).values()
                           if inspect.isclass(c) and c.__module__ == modname]
        for h in holders:
            for attr, obj in vars(h).items():
                out[(modname, getattr(h, "__name__", modname), attr)] = id(obj)
    return out


def check_direct_imports(k):
    import kurepa.cli  # noqa: F401  (holds its own is_prime)
    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(getattr(h, "__name__", ""), a) for h, a, _ in tracer.patched}
        for holder, attr in [("kurepa.residues", "is_prime"), ("kurepa.cli", "is_prime"),
                             ("kurepa.search", "iter_primes"),
                             ("kurepa.checks", "iter_primes"),
                             ("kurepa.adele", "inverse_table"),
                             ("kurepa.checks", "reproduce_table"),
                             ("kurepa", "is_prime")]:
            assert (holder, attr) in patched, f"{holder}.{attr} was not wrapped"
        k.residues.lerch_quotient_mod(101)
    finally:
        tracer.restore()
    totals = tracer.totals()
    assert totals["modmath.is_prime"]["calls"] >= 100, totals.get("modmath.is_prime")
    assert totals["residues.fermat_quotient_mod"]["calls"] == 100
    assert snapshot() == before, "tracer.restore() left a wrapper behind"
    print("ok  wrappers see directly imported names; originals restored")


def check_benchmark_json(bench: dict):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]] + \
        [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "duplicate metric or workload name"
    for n in names:
        assert NAME.match(n), n
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert len(bench["per_layer"]) <= 128
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    print("ok  BENCHMARK.json is well formed")


def check_tiny_runs(k, bench: dict):
    for attr, value in TINY.items():
        setattr(workloads, attr, value)
    run.SETUP_PROBES = 2
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert want[1] == {n: u for n, u, _ in spans.per_layer_spec()}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            before = snapshot()
            result, record = run.run(name, 7, 0.1, bool(trace), k)
            assert snapshot() == before, "a traced run left a wrapper behind"
            assert result["correct"] and result["failed"] == 0, (name, trace)
            assert result["attempted"] >= 1
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want[trace], (name, trace, set(got) ^ set(want[trace]))
            for n, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, n)
            if trace:
                assert os.path.isfile(record["spans_file"])
            print(f"ok  {name} trace={trace}: {result['attempted']} operations, "
                  f"{len(got)} metrics")
    m = run.run("catalog", 7, 0.1, True, k)[0]["metrics"]
    assert m["modmath.is_prime.calls"]["value"] > 0
    assert m["checks.C06.s"]["value"] > 0 and m["tables.reproduce_table.self_s"]["value"] > 0


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    k = workloads.load_program(run.ROOT)
    check_benchmark_json(bench)
    check_direct_imports(k)
    check_tiny_runs(k, bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
