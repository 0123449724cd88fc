"""Run one kurepa benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload scan|catalog|deep --seed N --seconds S --trace 0|1

kurepa is imported from ./src and from nowhere else. A run does as many
rounds of the workload as take about S seconds at the seed commit. With
--trace 0 it reports the end-to-end metrics, set-up time being the median
over several fresh processes. With --trace 1 it wraps the public functions
of the eight layer modules and reports the per-layer metrics; the spans are
written to .bench_run/. Every line names a metric and its unit; the last
line is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 9
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("primes_per_s", "primes/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) per probe: the time from starting a fresh
    interpreter until kurepa is imported and the workload's inputs exist, and
    the probe's reference_work() time."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        t = time.monotonic()
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        ready, ref = done.stdout.split()[-2:]
        out.append((float(ready) - t, float(ref)))
    return out


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile that
    has at least TAIL_BEYOND samples beyond it, by nearest rank: the
    (TAIL_BEYOND + 1)-th largest time. With fewer samples, the largest."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def git_commit(root: str):
    """HEAD's commit read from .git without running git; None outside a
    repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def run(name: str, seed: int, seconds: float, trace: bool, k=None):
    """Run one workload; returns (result, record)."""
    if k is None:
        k = workloads.load_program(ROOT)
    setup = None if trace else measure_setup(name, seed)
    wl = workloads.WORKLOADS[name](k, seed)
    tracer = tracing.Tracer() if trace else None
    rec = workloads.Recorder(tracer)
    os.makedirs(WORKDIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR)
    rounds = workloads.rounds(name, seconds)
    timed = 0.0
    try:
        if tracer:
            tracer.install()
        try:
            for r in range(rounds):
                inp = wl.inputs(r)
                t = time.perf_counter()
                wl.run_round(rec, inp, tmpdir)
                timed += time.perf_counter() - t
        finally:
            if tracer:
                tracer.restore()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    rec.verify()

    times = rec.nominal_times()
    tail_value, tail_q, beyond = tail(times)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "operations": len(times), "timed_s": timed,
        "primes": rec.primes,
        "reference_s": {"nominal": workloads.REFERENCE_S,
                        "median": statistics.median(rec.reference),
                        "min": min(rec.reference), "max": max(rec.reference)},
        "raw": {"primes_per_s": rec.primes / sum(rec.times),
                "op_p50_s": statistics.median(rec.times),
                "op_tail_s": tail(rec.times)[0]},
        "failed_frac": len(rec.failed) / len(times),
        "op_tail": {"percentile": tail_q, "samples": len(times),
                    "beyond": beyond},
        "host": platform.node(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "have_numba": bool(k._kernels.HAVE_NUMBA),
        "commit": git_commit(ROOT),
    }
    if trace:
        units = {n: u for n, u, _ in tracing.per_layer_spec()}
        cost = tracing.per_span_cost()
        metrics = tracing.layer_metrics(tracer, rec.primes, rec.failed_checks,
                                        timed, cost)
        path = os.path.join(WORKDIR, f"spans-{name}-{seed}.tsv.gz")
        tracer.write(path)
        record.update(spans=tracer.span_count(), span_cost_s=cost, spans_file=path)
    else:
        units = dict(END_TO_END)
        metrics = {
            "setup_s": statistics.median(s * workloads.REFERENCE_S / r for s, r in setup),
            "primes_per_s": rec.primes / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["raw"]["setup_s"] = statistics.median(s for s, _ in setup)
        record["setup_runs"] = setup
    result = {"correct": not rec.failed, "attempted": len(times),
              "failed": len(rec.failed),
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"kurepa benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={record['rounds']} "
          f"operations={record['operations']} timed={record['timed_s']:.3f} s")
    for n, m in result["metrics"].items():
        print(f"  {n:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    if not result["correct"]:
        print("correctness gate failed; see the messages above", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
