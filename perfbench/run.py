"""latticebox benchmark: one workload per process, checked outputs, JSON last.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload box_reuse --seed 1 --seconds 20 --trace 0

--trace 0 runs the timed loop untraced and reports the end-to-end metrics;
--trace 1 runs a fixed, seeded op list untraced and again with spans
around every call into the package, in whole rounds, and reports the
per-layer metrics. perfbench/README.md describes the workloads, metrics
and checks.
Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The package is
imported from src/ of the same checkout; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from spans import OP, Tracer  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
MIN_OPS = 100
IMPORT_REPEATS = 9
SETUP_REPEATS = 5
STEADY = 1.15
# A run goes on past --seconds until at least half of its ops are steady,
# and stops at this multiple of --seconds. With fewer than MIN_OPS steady
# ops it then times the MIN_OPS ops whose surrounding probes were fastest.
MAX_STRETCH = 1.5


def load_package():
    """The latticebox package from src/ of this checkout, never another copy."""
    src = wl.ROOT / "src"
    if not (src / "latticebox" / "__init__.py").is_file():
        raise ImportError(f"no latticebox package under {src}")
    sys.path.insert(0, str(src))
    import latticebox

    if Path(latticebox.__file__).resolve().parent != src / "latticebox":
        raise ImportError(f"latticebox imported from {latticebox.__file__}")
    return latticebox


def child_seconds(code: str) -> float:
    """Run code in a fresh interpreter that prints one float; return it."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=wl.ROOT,
        env=wl.cli_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def import_seconds(module: str, repeats: int) -> float:
    """Median time to import module in a fresh interpreter."""
    code = (
        "import time\nt = time.perf_counter()\n"
        f"import {module}\nprint(time.perf_counter() - t)"
    )
    return statistics.median(child_seconds(code) for _ in range(repeats))


def interpreter_seconds(repeats: int) -> float:
    """Median wall time of a bare `python -c pass`, start to exit."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def loop_probe() -> None:
    """A fixed pure-Python loop: the speed probe of the library workloads."""
    total, seen = 0, {}
    for i in range(3000):
        total += i * i % 7
        seen[i % 97] = total


def interpreter_probe() -> None:
    """A bare interpreter start: the speed probe of the CLI workload."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


class SpeedProbe:
    """Tracks the machine's speed during a run with a fixed piece of work.

    On a shared host the same code runs up to twice as slowly for stretches
    of seconds while neighbours load a CPU, and each CPU has its own slow
    stretches. The probe never runs package code. It is timed between ops,
    at most once per interval. When it reads slow, it is timed on the other
    allowed CPUs too, and the run moves to the fastest (children inherit
    the choice). An op is steady when the probes on both sides of it are
    within STEADY of the run's fastest probe. Only steady ops are timed, so
    the figures describe the program on an unloaded CPU rather than the
    neighbours' load.
    """

    def __init__(self, work, every_ns: int):
        self.work = work
        self.every_ns = every_ns
        self.allowed = os.sched_getaffinity(0)
        self.cpu = min(self.allowed)
        self.times: list[int] = []
        self.fastest = None
        self.last = 0
        self.take()

    def _time_on(self, cpu: int) -> int:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter_ns()
        self.work()
        return time.perf_counter_ns() - start

    def take(self) -> None:
        took = self._time_on(self.cpu)
        if self.fastest is None or took > STEADY * self.fastest:
            for cpu in sorted(self.allowed - {self.cpu}):
                other = self._time_on(cpu)
                if other < took:
                    took, self.cpu = other, cpu
            os.sched_setaffinity(0, {self.cpu})
        self.fastest = took if self.fastest is None else min(self.fastest, took)
        self.last = time.perf_counter_ns()
        self.times.append(took)

    def close(self) -> None:
        os.sched_setaffinity(0, self.allowed)

    def maybe(self) -> int:
        """Probe if due; return the index of the latest probe."""
        if time.perf_counter_ns() - self.last >= self.every_ns:
            self.take()
        return len(self.times) - 1

    def steady(self, samples, at_least: int = 0) -> list[tuple]:
        """The steady samples.

        When fewer than at_least ops are steady, the at_least ops whose
        slower surrounding probe was fastest stand in for them.
        """
        t = self.times
        ranked = sorted(
            (max(t[s[1]], t[s[1] + 1]), s) for s in samples if s[1] + 1 < len(t)
        )
        limit = STEADY * self.fastest
        count = sum(1 for slowest, _ in ranked if slowest <= limit)
        return [s for _, s in ranked[: max(count, at_least)]]


def mix_stats(timed, samples) -> tuple[float, float, float]:
    """(ops per second, p50 ns, p90 ns) of the whole op mix, from timed ops.

    Ops of one kind (a lattice, a shape, a command) differ in cost, and
    probes fall around short ops more easily than around long ones. So
    each kind keeps its share of all ops: a timed op weighs its kind's
    share over the kind's timed count. A kind with no timed op falls back
    to all of its ops.
    """
    every: dict = {}
    steady: dict = {}
    for lat, _, kind in samples:
        every.setdefault(kind, []).append(lat)
    for lat, _, kind in timed:
        steady.setdefault(kind, []).append(lat)
    weighted = sorted(
        (lat, len(all_lats) / len(lats))
        for kind, all_lats in every.items()
        for lats in [steady.get(kind) or all_lats]
        for lat in lats
    )
    total = sum(w for _, w in weighted)
    mean_ns = sum(lat * w for lat, w in weighted) / total

    def quantile(q: float) -> float:
        # midpoint of each sample's weight, interpolated linearly
        below = 0.0
        points = []
        for lat, w in weighted:
            points.append(((below + w / 2) / total, lat))
            below += w
        if q <= points[0][0]:
            return points[0][1]
        for (c0, v0), (c1, v1) in zip(points, points[1:]):
            if q <= c1:
                return v0 + (v1 - v0) * (q - c0) / (c1 - c0)
        return points[-1][1]

    return 1e9 / mean_ns, quantile(0.5), quantile(0.9)


def make_workload(name: str, lb, smoke: bool):
    cls = wl.WORKLOADS[name]
    if cls is wl.CliCorpus:
        return cls(lb, subset=4 if smoke else None)
    w = cls(lb)
    if smoke and cls is wl.BoxReuse:
        w.pool_size = 24
    return w


def plain_layers(w, lb):
    return w.layers() if isinstance(w, wl.CliCorpus) else wl.library_layers(lb)


def traced_layers(w, tracer: Tracer, plain):
    if isinstance(w, wl.CliCorpus):
        return w.traced_layers(tracer, plain)
    return tracer.layers(plain, wl.LIBRARY_SPANS)


def pass_length(w, prepared) -> int:
    """Ops in one pass; the CLI loop stops only after whole passes."""
    return len(prepared) if isinstance(w, wl.CliCorpus) else 1


def percentile(sorted_values, q: float) -> float:
    """Percentile by linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timed_loop(w, L, prepared, inputs, probe, seconds: float, min_ops: int):
    """Run checked ops until the stop rule holds; return (samples, failures).

    A sample is (latency ns, index of the probe taken before the op, kind
    of op).
    """
    per_pass = pass_length(w, prepared)
    samples: list[tuple[int, int, object]] = []
    failures: list[str] = []
    counts: Counter = Counter()
    checked = -1
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(samples) >= min_ops and not len(samples) % per_pass:
            if elapsed >= MAX_STRETCH * seconds:
                break
            if checked < len(probe.times):  # re-count only after a new probe
                checked = len(probe.times)
                if len(probe.steady(samples)) >= max(min_ops, len(samples) / 2):
                    break
        before = probe.maybe()
        inp = next(inputs)
        t0 = time.perf_counter_ns()
        try:
            out = w.run(L, prepared, inp)
        except Exception as exc:  # an unexpected outcome is a failed op
            samples.append((time.perf_counter_ns() - t0, before, w.kind(inp)))
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        samples.append((time.perf_counter_ns() - t0, before, w.kind(inp)))
        try:
            w.check(L, prepared, inp, out, counts)
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    probe.take()  # closes the interval of the last op
    return samples, failures


def measure(w, lb, seed: int, seconds: float, smoke: bool) -> dict:
    """The untraced run: set-up, then the timed loop of checked ops."""
    rng = random.Random(f"{w.name}:{seed}")
    specs = w.generate(rng)
    L = plain_layers(w, lb)
    if isinstance(w, wl.CliCorpus):
        probe = SpeedProbe(interpreter_probe, every_ns=250_000_000)
    else:
        probe = SpeedProbe(loop_probe, every_ns=10_000_000)
    min_ops = 2 if smoke else MIN_OPS
    try:
        import_s = import_seconds(w.import_module, 1 if smoke else IMPORT_REPEATS)
        prep_times = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            probe.take()  # moves to a quieter CPU if this one has slowed
            start = time.perf_counter()
            prepared = w.prepare(L, specs)
            prep_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(prep_times)
        inputs = w.inputs(rng, prepared)
        samples, failures = timed_loop(w, L, prepared, inputs, probe, seconds, min_ops)
    finally:
        probe.close()

    if isinstance(w, wl.CliCorpus):
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    steady = len(probe.steady(samples))
    timed = probe.steady(samples, at_least=min_ops)
    ops_per_s, p50_ns, p90_ns = mix_stats(timed, samples)
    everything = sorted(lat for lat, _, _ in samples)
    probe_times = sorted(probe.times)
    return {
        "attempted": len(samples),
        "failures": failures,
        "notes": [
            f"steady ops {steady} of {len(samples)}, timed {len(timed)}; "
            f"probe us: fastest {probe.fastest / 1e3:.1f}, "
            f"p50 {percentile(probe_times, 0.5) / 1e3:.1f}, "
            f"p90 {percentile(probe_times, 0.9) / 1e3:.1f}",
            f"all ops: p50 {percentile(everything, 0.5) / 1e6:.4f} ms, "
            f"p90 {percentile(everything, 0.9) / 1e6:.4f} ms",
        ],
        "metrics": {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (p50_ns / 1e6, "ms"),
            "op_p90_ms": (p90_ns / 1e6, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        },
    }


def trace_run(w, lb, seed: int, seconds: float, smoke: bool) -> dict:
    """The traced run over a fixed op list, in whole rounds.

    Each round prepares with spans, runs every op untraced, then runs it
    again traced, requires the same result and checks it. Every round does
    the same work, so calls and self times are reported per round; exact
    counts come from the first round.
    """
    rng = random.Random(f"{w.name}:{seed}")
    specs = w.generate(rng)
    plain = plain_layers(w, lb)
    tracer = Tracer()
    L = traced_layers(w, tracer, plain)
    prepared = w.prepare(plain, specs)
    inputs = w.inputs(rng, prepared)
    if isinstance(w, wl.CliCorpus):
        op_list = [next(inputs) for _ in range(len(prepared))]
    else:
        op_list = [next(inputs) for _ in range(4 if smoke else w.trace_ops)]
    staged = getattr(w, "run_staged", None)

    failures: list[str] = []
    counts: Counter = Counter()
    untraced_ns = 0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        round_counts = counts if rounds == 0 else Counter()
        tracer.op_id = "setup"
        w.count_setup(w.prepare(L, specs), round_counts)
        for op_id, inp in enumerate(op_list):
            t0 = time.perf_counter_ns()
            try:
                expected = w.run(plain, prepared, inp)
            except Exception as exc:
                expected = exc
            untraced_ns += time.perf_counter_ns() - t0
            tracer.op_id = op_id
            try:
                with tracer.span(OP):
                    out = (staged or w.run)(L, prepared, inp)
                if isinstance(expected, Exception):
                    raise expected
                # a staged op also returns its intermediate objects
                if (out[0] != expected[0]) if staged else (out != expected):
                    raise wl.Failure("traced result differs from untraced")
                w.check(L, prepared, inp, out, round_counts)
            except Exception as exc:
                if rounds == 0:
                    failures.append(f"op {op_id}: {type(exc).__name__}: {exc}")
        rounds += 1

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{w.name}-{seed}.jsonl")
    totals, op_ns = tracer.totals()
    metrics: dict[str, tuple] = {}
    for name in wl.SPAN_NAMES:
        calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls // rounds, "count")
        metrics[f"{name}.self_s"] = (self_ns / 1e9 / rounds, "s")
        metrics[f"{name}.share"] = (self_ns / op_ns if op_ns else 0.0, "ratio")
    if isinstance(w, wl.CliCorpus):
        interp = interpreter_seconds(1 if smoke else IMPORT_REPEATS)
        imported = import_seconds("latticebox.cli", 1 if smoke else IMPORT_REPEATS)
    else:
        interp = imported = 0.0
    metrics["cli.interpreter_s"] = (interp, "s")
    metrics["cli.import_s"] = (imported, "s")
    for name in wl.COUNT_NAMES:
        metrics[name] = (counts[name], "count")
    metrics["trace.overhead_ratio"] = (op_ns / untraced_ns, "ratio")
    return {"attempted": len(op_list), "failures": failures, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the harness test"
    )
    args = parser.parse_args(argv)

    try:
        lb = load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    w = make_workload(args.workload, lb, args.smoke)
    run = trace_run if args.trace else measure
    try:
        result = run(w, lb, args.seed, args.seconds, args.smoke)
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    failures = result["failures"]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    print(f"  ops {result['attempted']}  failed {len(failures)}  "
          f"fail_ratio {len(failures) / result['attempted']:.6f}")
    for note in result.get("notes", ()):
        print(f"  {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
