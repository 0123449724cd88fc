"""Span tracing for the kurepa benchmark, installed from outside the package.

``Tracer.install()`` replaces every public function of the eight layer
modules with a timing wrapper, in the defining module and in every other
``kurepa`` module that imported the same object directly (``residues.is_prime``,
``search.iter_primes``, ``adele.inverse_table``, ...). ``restore()`` puts the
originals back. Spans (name, start, end, parent span, operation id) stay in
memory in flat arrays and are written out once, when the run ends.

Self time of a span is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

# Metric prefix -> module. "_kernels" is spelled "kernels" in metric names,
# which must start with a letter or digit.
LAYERS = {
    "modmath": "kurepa.modmath",
    "kernels": "kurepa._kernels",
    "residues": "kurepa.residues",
    "exact": "kurepa.exact",
    "checks": "kurepa.checks",
    "search": "kurepa.search",
    "adele": "kurepa.adele",
    "tables": "kurepa.tables",
}

# Private functions and methods that are layer boundaries worth a span.
EXTRA = {
    "search.scan": ("kurepa.search", "_scan_block"),
    "search.checkpoint.write": ("kurepa.search", "Checkpoint.write"),
}


def _n_cells(n: int) -> int:
    return n * (n + 1) // 2


# Computed size units per call, from the arguments: they measure the input,
# not the operations the current algorithm performs.
CELLS = {
    "kernels.bell_mod": lambda a: _n_cells(a[0]),
    "kernels.bell_seq_mod": lambda a: _n_cells(a[0]),
    "kernels.bernoulli_table_mod": lambda a: _n_cells(a[0] - 2),
    "kernels.gregory_table_mod": lambda a: _n_cells(a[0] - 2),
    "kernels.stirling2_row_mod": lambda a: _n_cells(a[0]),
}
MULTS = {
    "kernels.kurepa_scan": lambda a: sum(a[0]),
    "kernels.wilson_scan": lambda a: sum(a[0]),
    "kernels.gertsch_wilson_scan": lambda a: sum(a[0]),
}
# Kernels whose distinct argument tuples are counted for the .repeat ratio.
REPEAT = frozenset(CELLS) | {"kernels.inverse_table"}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or attr.endswith("_py"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


class Tracer:
    """Records spans while installed; aggregates them into per-name totals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.units: Counter = Counter()
        self.args: dict[str, Counter] = defaultdict(Counter)
        self.failures: Counter = Counter()
        self._last_exc = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _raised(self, name: str, exc: BaseException):
        # an exception is charged once, to the innermost span it left
        if exc is not self._last_exc:
            self._last_exc = exc
            self.failures[name.split(".", 1)[0]] += 1

    def _record(self, name: str, args: tuple, kwargs: dict, result):
        if name in CELLS:
            self.units[name + ".cells"] += CELLS[name](args)
        elif name in MULTS:
            self.units[name + ".mults"] += MULTS[name](args)
        elif name == "adele.build_element":
            self.units[name + ".primes"] += len(result.residues) + len(result.undefined_at)
        elif name == "search.checkpoint.write":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.units[name + ".bytes"] += os.path.getsize(path)
        if name in REPEAT:
            key = args + tuple(sorted((k, v) for k, v in kwargs.items() if k != "fast"))
            self.args[name][key] += 1

    def wrap(self, name: str, fn):
        """Return a wrapper that records one span per call of ``fn``
        (one per resumption for a generator function)."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            nid = self._intern(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = tracer._open(nid)
                        try:
                            x = next(it)
                        except StopIteration:
                            return
                        except BaseException as e:
                            tracer._raised(name, e)
                            raise
                        finally:
                            tracer._close(i)
                        yield x
                finally:
                    it.close()
            return gen_wrapper

        if name == "checks.run_check":
            # one span name per catalog entry, so each check gets its own cost
            def span_name(args, kwargs):
                return tracer._intern("checks." + (args[0] if args else kwargs["check_id"]))
        else:
            nid = self._intern(name)

            def span_name(args, kwargs):
                return nid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(span_name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._raised(name, e)
                raise
            finally:
                tracer._close(i)
            tracer._record(name, args, kwargs, result)
            return result
        return wrapper

    # -- patching -----------------------------------------------------------

    def targets(self) -> dict[str, object]:
        """Span name -> original function, for everything ``install`` wraps."""
        out = {}
        for layer, modname in LAYERS.items():
            for attr, fn in _public_functions(importlib.import_module(modname)):
                out[f"{layer}.{attr}"] = fn
        for name, (modname, path) in EXTRA.items():
            obj = importlib.import_module(modname)
            for part in path.split("."):
                obj = getattr(obj, part)
            out[name] = obj
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped = {id(fn): self.wrap(name, fn) for name, fn in self.targets().items()}
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kurepa" or n.startswith("kurepa."))]
        holders += [c for m in holders for c in vars(m).values()
                    if inspect.isclass(c) and c.__module__ == m.__name__]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patched.append((holder, attr, obj))
        for holder, attr, obj in self._patched:
            setattr(holder, attr, wrapped[id(obj)])

    def restore(self):
        for holder, attr, obj in reversed(self._patched):
            setattr(holder, attr, obj)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name[i]],
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def repeat(self, name: str) -> float:
        seen = self.args.get(name)
        if not seen:
            return 0.0
        return sum(seen.values()) / len(seen)

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path: str):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("# name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")


def per_span_cost(reps: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain call, measured here."""
    def plain(x):
        return x

    tracer = Tracer()
    wrapped = tracer.wrap("calibrate.plain", plain)
    best_plain = best_wrapped = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        for k in range(reps):
            plain(k)
        best_plain = min(best_plain, time.perf_counter() - t)
        t = time.perf_counter()
        for k in range(reps):
            wrapped(k)
        best_wrapped = min(best_wrapped, time.perf_counter() - t)
        tracer = Tracer()
        wrapped = tracer.wrap("calibrate.plain", plain)
    return max(best_wrapped - best_plain, 0.0) / reps


# -- per-layer metrics ---------------------------------------------------------

TABLE_KERNELS = ("bell_mod", "bell_seq_mod", "bernoulli_table_mod",
                 "gregory_table_mod", "stirling2_row_mod")
SCAN_KERNELS = ("kurepa_scan", "wilson_scan", "gertsch_wilson_scan")
CHECK_IDS = tuple(f"C{i:02d}" for i in range(1, 33))


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [("modmath.is_prime.calls", "count", "lower"),
            ("modmath.is_prime.self_s", "s", "lower"),
            ("modmath.is_prime.calls_per_prime", "ratio", "lower"),
            ("modmath.iter_primes.self_s", "s", "lower")]
    for k in TABLE_KERNELS:
        spec += [(f"kernels.{k}.calls", "count", "lower"),
                 (f"kernels.{k}.self_s", "s", "lower"),
                 (f"kernels.{k}.cells", "cells", "lower"),
                 (f"kernels.{k}.cells_per_s", "cells/s", "higher"),
                 (f"kernels.{k}.repeat", "ratio", "lower")]
    for k in SCAN_KERNELS:
        spec += [(f"kernels.{k}.calls", "count", "lower"),
                 (f"kernels.{k}.self_s", "s", "lower"),
                 (f"kernels.{k}.mults", "mults", "lower"),
                 (f"kernels.{k}.mults_per_s", "mults/s", "higher")]
    for k in ("inverse_table", "factorial_mod", "kurepa_mod"):
        spec += [(f"kernels.{k}.calls", "count", "lower"),
                 (f"kernels.{k}.self_s", "s", "lower")]
    spec.append(("kernels.inverse_table.repeat", "ratio", "lower"))
    for f in ("residue_profile", "lerch_quotient_mod", "gertsch_quotient_mod",
              "bernoulli_index_sums", "fermat_quotient_mod"):
        spec.append((f"residues.{f}.self_s", "s", "lower"))
    spec += [("residues.fermat_quotient_mod.calls", "count", "lower"),
             ("residues.wilson_quotient_mod.calls", "count", "lower"),
             ("exact.left_factorial.self_s", "s", "lower"),
             ("exact.bernoulli_exact.self_s", "s", "lower"),
             ("checks.run_catalog.self_s", "s", "lower")]
    spec += [(f"checks.{c}.s", "s", "lower") for c in CHECK_IDS]
    spec += [("search.run_campaign.self_s", "s", "lower"),
             ("search.scan.self_s", "s", "lower"),
             ("search.checkpoint.writes", "count", "lower"),
             ("search.checkpoint.write_s", "s", "lower"),
             ("search.checkpoint.bytes", "bytes", "lower"),
             ("search.resume.load_s", "s", "lower"),
             ("adele.build_element.self_s", "s", "lower"),
             ("adele.build_element.primes", "count", "lower"),
             ("tables.reproduce_table.self_s", "s", "lower")]
    for layer in LAYERS:
        spec += [(f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.failures", "count", "lower")]
    spec.append(("trace.overhead_frac", "ratio", "lower"))
    return spec


def layer_metrics(tracer: Tracer, primes: int, failed_checks: Counter,
                  wall_s: float, span_cost: float) -> dict[str, float]:
    """Every per-layer metric of a traced run; a layer the workload never
    reached reads 0."""
    totals = tracer.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def rate(units, seconds):
        return units / seconds if seconds > 0 else 0.0

    out = {"modmath.is_prime.calls": get("modmath.is_prime", "calls"),
           "modmath.is_prime.self_s": get("modmath.is_prime", "self_s"),
           "modmath.is_prime.calls_per_prime":
               rate(get("modmath.is_prime", "calls"), primes),
           "modmath.iter_primes.self_s": get("modmath.iter_primes", "self_s")}
    for k in TABLE_KERNELS + SCAN_KERNELS + ("inverse_table", "factorial_mod",
                                             "kurepa_mod"):
        name = f"kernels.{k}"
        out[name + ".calls"] = get(name, "calls")
        out[name + ".self_s"] = get(name, "self_s")
        unit = "cells" if k in TABLE_KERNELS else "mults" if k in SCAN_KERNELS else None
        if unit:
            size = tracer.units[f"{name}.{unit}"]
            out[f"{name}.{unit}"] = size
            out[f"{name}.{unit}_per_s"] = rate(size, get(name, "self_s"))
        if name in REPEAT:
            out[name + ".repeat"] = tracer.repeat(name)
    for f in ("residue_profile", "lerch_quotient_mod", "gertsch_quotient_mod",
              "bernoulli_index_sums", "fermat_quotient_mod"):
        out[f"residues.{f}.self_s"] = get(f"residues.{f}", "self_s")
    for f in ("fermat_quotient_mod", "wilson_quotient_mod"):
        out[f"residues.{f}.calls"] = get(f"residues.{f}", "calls")
    for f in ("exact.left_factorial", "exact.bernoulli_exact",
              "checks.run_catalog", "search.run_campaign", "search.scan",
              "adele.build_element", "tables.reproduce_table"):
        out[f + ".self_s"] = get(f, "self_s")
    for c in CHECK_IDS:
        out[f"checks.{c}.s"] = get(f"checks.{c}", "incl_s")
    out["search.checkpoint.writes"] = get("search.checkpoint.write", "calls")
    out["search.checkpoint.write_s"] = get("search.checkpoint.write", "incl_s")
    out["search.checkpoint.bytes"] = tracer.units["search.checkpoint.write.bytes"]
    out["search.resume.load_s"] = get("search.load_checkpoint", "incl_s")
    out["adele.build_element.primes"] = tracer.units["adele.build_element.primes"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for name, row in totals.items()
                                     if name.split(".", 1)[0] == layer)
        out[f"{layer}.failures"] = tracer.failures[layer] + failed_checks[layer]
    out["trace.overhead_frac"] = rate(tracer.span_count() * span_cost, wall_s)
    return out
