#!/usr/bin/env python3
"""symdex benchmark: one seeded, single-process, closed-loop client.

    python3 perfbench/run.py --workload finite_lattice --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run sets up, then runs whole passes of requests
until the next pass would end after ``--seconds``, and prints the
end-to-end metrics. With ``--trace 1`` it runs a fixed number of passes
twice, untraced and then with spans recorded around every public
function of every layer, and prints the per-layer metrics. The last line
of standard output is one JSON object; the lines before it are for
people. Workloads, metrics and seeds are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / "_run"

SETUP_REPEATS = 5
# Passes of the traced run; fixed so that two traced runs on one seed
# make exactly the same calls.
TRACE_PASSES = {"finite_lattice": 2, "hull_lp": 1, "cli_reports": 1}
MAX_LOGGED_FAILURES = 5


# The CPU this runs on changes speed by up to 2x, both in phases of
# seconds and in flickers of tens of milliseconds (shared cores), and
# symdex is pure CPU work, so raw wall times of two runs are not
# comparable. A fixed pure-Python probe therefore runs before and after
# every timed call, and every time measured in one pass (or in set-up)
# is scaled to a machine on which the probe takes REFERENCE_PROBE_S, by
# the median probe time of that pass, which a flicker caught by a few
# probes does not move. Raw wall times are printed alongside.
REFERENCE_PROBE_S = 2e-3


def _probe_kernel():
    acc: dict[int, Fraction] = {}
    total = Fraction(0)
    for i in range(1, 240):
        q = Fraction(i % 7 - 3, i % 5 + 1)
        total += q * q
        acc[i % 13] = acc.get(i % 13, Fraction(0)) + q
    return sorted(acc.items()), total


def probe() -> float:
    """Seconds the probe kernel takes right now (collector paused)."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    _probe_kernel()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def speed_factor(probes) -> float:
    """Scale from this machine's time to reference time."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def percentile(values, q) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeats_to_medians(keys, values) -> list[float]:
    """Replace each sample by the median of all samples of the same
    request. A request that repeats (cli_reports runs the same requests
    every pass) is measured by the median of its repeats, so one slow
    repeat cannot decide a percentile; unique requests are unchanged."""
    groups: dict[str, list[float]] = {}
    for key, value in zip(keys, values):
        groups.setdefault(key, []).append(value)
    medians = {key: statistics.median(vals) for key, vals in groups.items()}
    return [medians[key] for key in keys]


class Run:
    """One benchmark process: the workload, its counters and its clock."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from workloads import WORKLOADS

        self.factory = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fresh(self):
        """Import symdex afresh and build the workload on that copy."""
        from workloads import Library

        lib = Library()
        return lib, self.factory(lib, self.seed, self.workdir)

    def setup(self):
        """Import, input generation and warm-up, repeated; returns the
        last copy and the median set-up time."""
        times, probes = [], []
        for _ in range(SETUP_REPEATS):
            probes.append(probe())
            start = time.perf_counter()
            lib, wl = self.fresh()
            wl.make_pass(0)
            wl.warmup()
            times.append(time.perf_counter() - start)
            probes.append(probe())
        lib.clear_enum_cache()
        # keep the benchmark's own long-lived objects out of every later
        # collection, as they would be in a real CLI process
        gc.collect()
        gc.freeze()
        return lib, wl, statistics.median(times) * speed_factor(probes)

    def fail(self, tag, reason):
        self.failed += 1
        if len(self.failures) < MAX_LOGGED_FAILURES:
            self.failures.append(f"{tag}: {reason}")

    def one_pass(self, lib, wl, index, stats, tracer=None):
        """Run one pass; add its scaled times to ``stats``; return the
        request digests."""
        digests, probes, latency, oracle, keys, oracle_keys = [], [], [], [], [], []
        requests = wl.make_pass(index)
        gc.collect()  # every pass starts from the same collector state
        for pos, request in enumerate(requests):
            tag = f"p{index}r{pos}"
            self.attempted += 1
            if hasattr(wl, "before"):
                wl.before()
            probes.append(probe())
            if tracer is not None:
                tracer.request = self.attempted
                tracer.active = True
            try:
                start = time.perf_counter()
                output = wl.run(request)
                latency.append(time.perf_counter() - start)
                keys.append(wl.repeat_key(request) or tag)
            except Exception:
                self.fail(tag, traceback.format_exc(limit=3))
                digests.append(None)
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            probes.append(probe())
            outcome = wl.finish(request, output, tag)
            digests.append(outcome.digest)
            stats["report_bytes"] += outcome.report_bytes
            by_command = stats["bytes_by_command"]
            command = outcome.command or "library"
            by_command[command] = by_command.get(command, 0) + outcome.report_bytes
            ok = outcome.ok
            if outcome.report is not None:
                replayed, elapsed = self.oracle(lib, outcome.report, stats, tracer)
                oracle.append(elapsed)
                oracle_keys.append(keys[-1])
                probes.append(probe())
                ok = ok and replayed
            if not ok:
                self.fail(tag, "; ".join(outcome.notes) or "oracle replay failed")
        factor = speed_factor(probes)
        stats["latency"].extend(x * factor for x in latency)
        stats["oracle"].extend(x * factor for x in oracle)
        stats["keys"].extend(keys)
        stats["oracle_keys"].extend(oracle_keys)
        stats["raw_latency"].extend(latency)
        stats["raw_oracle"].extend(oracle)
        return digests

    def oracle(self, lib, report: Path, stats, tracer=None) -> tuple[bool, float]:
        """Replay ``report`` through ``symdex oracle``; (clean, seconds)."""
        verdict = report.with_suffix(".verdict.json")
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            code = lib.cli_main(["oracle", "--in", str(report), "--out", str(verdict)])
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        if code != 0:
            return False, elapsed
        result = json.loads(verdict.read_bytes())
        by_command = stats["bytes_by_command"]
        by_command["oracle"] = by_command.get("oracle", 0) + verdict.stat().st_size
        stats["replay_entries"] += result["result"]["checked"]
        return result["result"]["failed"] == [], elapsed


def new_stats():
    return {"latency": [], "oracle": [], "keys": [], "oracle_keys": [], "raw_latency": [], "raw_oracle": [],
            "report_bytes": 0, "bytes_by_command": {}, "replay_entries": 0}


def environment_lines(run: Run, seconds, trace) -> list[str]:
    return [
        f"workload {run.workload} seed {run.seed} seconds {seconds} trace {trace}",
        f"python {platform.python_version()} ({platform.python_implementation()}) "
        f"on {platform.system()} {platform.machine()}, nproc {os.cpu_count()}, one client, closed loop",
    ]


def measure(run: Run, seconds: float) -> tuple[dict, list[str]]:
    lib, wl, setup_s = run.setup()
    stats = new_stats()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        run.one_pass(lib, wl, passes, stats)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    busy = sum(stats["latency"])
    latency = repeats_to_medians(stats["keys"], stats["latency"])
    oracle = repeats_to_medians(stats["oracle_keys"], stats["oracle"])
    lines = [
        f"{passes} passes, {run.attempted} requests, {len(latency)} timed, {len(oracle)} oracle replays,"
        f" {time.perf_counter() - start:.2f} s measuring",
        f"samples: latency_p50/p90 from {len(latency)} requests"
        f" ({len(latency) - int(0.9 * len(latency))} beyond p90), oracle_p50/p90 from {len(oracle)}"
        f" replays ({len(oracle) - int(0.9 * len(oracle))} beyond p90)",
        f"failed_frac {run.failed / max(run.attempted, 1)} ratio ({run.failed} of {run.attempted})",
        f"raw wall clock: latency p50 {percentile(stats['raw_latency'], 50) * 1e3:.3f} ms,"
        f" p90 {percentile(stats['raw_latency'], 90) * 1e3:.3f} ms,"
        f" oracle p50 {percentile(stats['raw_oracle'], 50) * 1e3:.3f} ms;"
        f" speed factor {sum(stats['raw_latency']) / busy if busy else 0.0:.3f} (raw / scaled)",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(latency) / busy if busy else 0.0, "1/s"),
        "latency_p50_ms": (percentile(latency, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latency, 90) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "oracle_p50_ms": (percentile(oracle, 50) * 1e3, "ms"),
        "oracle_p90_ms": (percentile(oracle, 90) * 1e3, "ms"),
        "report_bytes": (stats["report_bytes"] / passes, "B"),
    }
    return metrics, lines


def run_traced(run: Run) -> tuple[dict, list[str]]:
    from tracer import LAYERS, Tracer

    passes = TRACE_PASSES[run.workload]

    def run_passes(lib, wl, tracer=None):
        stats = new_stats()
        digests = [run.one_pass(lib, wl, i, stats, tracer) for i in range(passes)]
        return digests, stats

    lib, wl, _ = run.setup()
    plain_digests, plain = run_passes(lib, wl)
    lib, wl, _ = run.setup()
    tracer = Tracer()
    tracer.install(lib.layer_modules(LAYERS))
    traced_digests, stats = run_passes(lib, wl, tracer)
    if traced_digests != plain_digests:
        run.fail("trace", "traced results differ from untraced results")
    # paired by request, so one slow request on either side cannot dominate
    ratios = [t / p for t, p in zip(stats["latency"], plain["latency"])]
    overhead = statistics.median(ratios) - 1 if ratios else 0.0
    plain_busy, traced_busy = sum(plain["latency"]), sum(stats["latency"])
    trace_file = WORKDIR / f"trace-{run.workload}.tsv.gz"
    tracer.write(trace_file)
    lines = [
        f"{passes} passes untraced then traced, {len(stats['latency'])} requests each:"
        f" {plain_busy:.3f} s untraced, {traced_busy:.3f} s traced,"
        f" median per-request overhead {overhead:.1%}",
        f"{tracer.span_count()} spans written to {trace_file.relative_to(HERE.parent)}",
    ]
    metrics = tracer.layer_metrics(stats["bytes_by_command"], stats["replay_entries"], overhead)
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import symdex
    except ImportError as exc:
        print(f"perfbench: cannot import symdex from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(symdex.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: symdex was imported from {symdex.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(args.workload, args.seed, workdir)
        for line in environment_lines(run, args.seconds, args.trace):
            print(line)
        if args.trace:
            metrics, lines = run_traced(run)
        else:
            metrics, lines = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
