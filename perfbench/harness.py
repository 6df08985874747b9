"""Measurement loop, set-up timing, traced runs and the metrics they give.

Every iteration imports ramify afresh (its modules are dropped from
``sys.modules`` first), so every iteration starts with cold caches, as a
command-line run does, and iterations are alike.  Import and field
construction are set-up, not solve time; set-up is timed separately in
fresh interpreter processes, so it includes the standard-library imports a
command-line run pays for.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LayerTotals, Tracer, aggregate, kept_fraction, span_seconds
from workloads import timed_unif_of

SETUP_REPEATS = 7

# On a shared machine this process runs slower by a quarter or more for
# seconds to minutes at a time, with the load of other tenants.  An
# untraced run therefore times a fixed loop of standard-library work for
# REF_SLICE_S between every two timed windows of work, and scales each
# window's times by the loop's mean rate on its two sides over REF_RATE,
# the loop's typical rate per second on the machine the benchmark was
# defined on (a 2-vCPU Xeon VM, Python 3.11).  A change to ramify moves a
# scaled time exactly as it moves the measured one; a busy neighbour moves
# the measured time and the rate together.  Measured figures are printed
# beside the scaled ones.
REF_RATE = 150.0
REF_SLICE_S = 0.25

# The probe times its polynomials in passes for PROBE_SECONDS / 2 before the
# first solve, once after each solve, and for PROBE_SECONDS / 2 after the
# last, so that its calls spread over the whole run.
PROBE_SECONDS = 5.0

# name -> unit, every one printed by an untraced run
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "analyze_p50_us": "us",
    "analyze_p99_us": "us",
}

_COUNTED = ("calls", "count")
_SECONDS = ("s", "s")
_RATIO = ("pass_frac", "ratio")

# layer span names and the metrics each gives (metric suffix, unit)
LAYERS = {
    "enumeration.ram": (("s", "s"), ("branches", "count"), ("results", "count")),
    "enumeration.fine": (("s", "s"), ("branches", "count"), ("results", "count")),
    "enumeration.res": (("s", "s"), ("branches", "count"), ("results", "count")),
    "enumeration.unif": (("s", "s"), ("branches", "count"), ("results", "count")),
    "validity.weak": (_COUNTED, _SECONDS, _RATIO),
    "validity.weak_fine": (_COUNTED, _SECONDS, _RATIO),
    "validity.leaf": (_COUNTED, _SECONDS, _RATIO),
    "validity.leaf_fine": (_COUNTED, _SECONDS, _RATIO),
    "validity.guard": (_COUNTED, _SECONDS),
    "validity.phi0": (_COUNTED, _SECONDS),
    "validity.equiv": (_COUNTED, _SECONDS),
    "residue_field.solve": (_COUNTED, _SECONDS),
    "residue_field.orbits": (_COUNTED, _SECONDS),
    "residue_field.cosets": (_COUNTED, _SECONDS),
    "templates.build": (_COUNTED, _SECONDS),
    "templates.truncate": (_COUNTED, _SECONDS),
    "templates.reduce": (_COUNTED, _SECONDS, ("kept_frac", "ratio")),
    "templates.compute_Sm": (_COUNTED, _SECONDS),
    "templates.cardinality": (_COUNTED, _SECONDS),
    "templates.expand": (_COUNTED, _SECONDS, ("polys", "count")),
    "analyzer.survey": (_SECONDS, ("tables", "count"), ("polygons", "count")),
    "analyzer.unif_of": (_COUNTED, _SECONDS),
    "analyzer.residues": (_COUNTED, _SECONDS),
    "selftest.check": (("self_s", "s"),),
    "serialize.encode": (_COUNTED, _SECONDS),
}

MODULES = ("enumeration", "validity", "residue_field", "templates", "analyzer", "serialize", "bench")

# name -> unit, every one printed by a traced run
PER_LAYER = {f"{layer}.{suffix}": unit for layer, ms in LAYERS.items() for suffix, unit in ms}
PER_LAYER["residue_field.make_field.s"] = "s"
PER_LAYER.update({f"{module}.self_s": "s" for module in MODULES})
PER_LAYER.update(
    {
        "trace.solve_s": "s",
        "trace.untraced_solve_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.self_sum_s": "s",
        "trace.spans": "count",
        "trace.absent": "count",
        "checks.failed_frac": "ratio",
    }
)

PACKAGE = "ramify"
SUBMODULES = ("ramify.serialize", "ramify.selftest")

_SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import importlib
for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
import ramify
for spec in json.loads(sys.argv[3]):
    ramify.BinomialContext(ramify.make_field(*spec))
print(time.perf_counter() - t0)
"""


def _ramify_modules() -> dict:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    }


@contextlib.contextmanager
def fresh_ramify(src: Path):
    """Import ramify from ``src`` with no module state left from earlier imports.

    Whatever ramify modules were loaded before are put back on exit, so a
    caller in the same process keeps the objects it already holds.
    """
    saved = _ramify_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module(PACKAGE)
        for name in SUBMODULES:
            importlib.import_module(name)
        origin = Path(package.__file__).resolve()
        if not origin.is_relative_to(src.resolve()):
            raise ImportError(f"ramify was imported from {origin}, not from {src}")
        yield package
    finally:
        sys.path.remove(str(src))
        for name in _ramify_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def time_setup(workload, src: Path) -> float:
    """Seconds a fresh interpreter spends importing ramify and building the fields."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            _SETUP_CODE,
            str(src),
            json.dumps([PACKAGE, *SUBMODULES]),
            json.dumps(workload.fields),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip())


def _reference_loop() -> None:
    # int keys only: no garbage-collected objects, so the heap the program
    # leaves behind does not change the loop's speed
    table: dict[int, int] = {}
    for i in range(20000):
        key = (i % 101) * 13 + i % 13
        table[key] = table.get(key, 0) + i * 3 // 7


class ReferenceClock:
    """Turns measured times into reference-speed times; see REF_RATE.

    Each call of :meth:`factor` closes the window of work since the
    previous call (or since the clock was made) with a reference slice.
    A disabled clock times nothing and scales by 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rates: list[float] = []
        self._before = self._slice() if enabled else REF_RATE

    def _slice(self) -> float:
        loops = 0
        t0 = time.perf_counter()
        while True:
            _reference_loop()
            loops += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= REF_SLICE_S:
                break
        self.rates.append(loops / elapsed)
        return self.rates[-1]

    def factor(self) -> float:
        """Reference seconds per measured second for the window just ended."""
        if not self.enabled:
            return 1.0
        after = self._slice()
        factor = (self._before + after) / 2 / REF_RATE
        self._before = after
        return factor


def nearest_rank(sorted_values: list, fraction: float):
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


class Run:
    """One benchmark run: iterations, checks and the report lines."""

    def __init__(self, workload, seed: int, seconds: float, src: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.src = src
        self.attempted = 0
        self.failures: list[str] = []
        self.report: list[str] = []
        self.clock = ReferenceClock(enabled=False)

    def record(self, checks) -> None:
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(label)

    def passes(self, rm, polys, seconds: float, latencies: list[list[float]]):
        """Time ``unif_of`` on every polynomial in passes until ``seconds`` are up.

        At least one pass.  Appends each call's scaled time to that
        polynomial's list in ``latencies``; returns the first pass's results.
        """
        started = time.perf_counter()
        first = None
        while first is None or time.perf_counter() - started < seconds:
            timed = [timed_unif_of(rm, f) for f in polys]
            factor = self.clock.factor()
            for values, (_, ns) in zip(latencies, timed):
                values.append(ns * factor)
            if first is None:
                first = [got for got, _ in timed]
        return first

    def untraced(self, budget: float, analyze: bool):
        """Solve in fresh imports until the next solve would overrun ``budget``.

        At least one solve.  Returns the scaled and the measured solve
        times and, when ``analyze`` is set, every scaled ``unif_of`` time
        of each analyzed polynomial: one per solve for a workload whose
        solve analyzes, else one per probe pass.
        """
        probing = bool(analyze and self.workload.probe_size)
        latencies: list[list[float]] = []
        if probing:
            # a fresh import of its own, so that the solves start cold
            with fresh_ramify(self.src) as rm:
                tables = self.workload.probe_tables(rm, self.workload.setup(rm))
                latencies = [[] for _ in tables]
                self.passes(rm, [f for _, f in tables], PROBE_SECONDS / 2, latencies)
            del rm, tables
        started = time.perf_counter()
        scaled: list[float] = []
        measured: list[float] = []
        last = False
        while not last:
            with fresh_ramify(self.src) as rm:
                ctxs = self.workload.setup(rm)
                t0 = time.perf_counter()
                out = self.workload.solve(rm, ctxs, self.seed)
                solve = time.perf_counter() - t0
                factor = self.clock.factor()
                measured.append(solve)
                scaled.append(solve * factor)
                self.record(self.workload.check(out))
                last = time.perf_counter() - started + solve > budget
                if analyze and out.latencies_ns:
                    latencies = latencies or [[] for _ in out.latencies_ns]
                    for values, ns in zip(latencies, out.latencies_ns):
                        values.append(ns * factor)
                if probing:
                    tables = self.workload.probe_tables(rm, ctxs)
                    polys = [f for _, f in tables]
                    seconds = PROBE_SECONDS / 2 if last else 0.0
                    results = self.passes(rm, polys, seconds, latencies)
                    if last:
                        self.record(self.workload.probe_checks(rm, ctxs, out, tables, results))
                    del tables, polys, results
                del out, ctxs
            del rm
            # free this import's modules before the next one is made
            gc.collect()
        return scaled, measured, latencies

    def measure(self) -> dict:
        """End-to-end metrics, tracing off, in reference-speed time."""
        self.clock = ReferenceClock()
        setups = [time_setup(self.workload, self.src) for _ in range(SETUP_REPEATS)]
        setup_factor = self.clock.factor()
        solves, measured, per_poly = self.untraced(self.seconds, analyze=True)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # each polynomial's typical call, then percentiles over polynomials
        latencies = sorted(statistics.median(values) for values in per_poly)
        calls = sum(map(len, per_poly))
        beyond = len(latencies) - math.ceil(0.99 * len(latencies))
        rates = self.clock.rates
        self.report += [
            f"reference loop: {len(rates)} slices, rate {min(rates):.1f} to "
            f"{max(rates):.1f} per s against REF_RATE {REF_RATE}",
            f"setup_s: median of {len(setups)} fresh interpreters, "
            f"measured {statistics.median(setups):.6f} s",
            f"solve_s: median of {len(solves)} solves, measured "
            + " ".join(f"{s:.4f}" for s in measured)
            + " s",
            f"analyze: {len(latencies)} polynomials, {calls} unif_of calls, "
            f"{beyond} polynomials beyond p99",
        ]
        return {
            "setup_s": statistics.median(setups) * setup_factor,
            "solve_s": statistics.median(solves),
            "peak_rss_mb": peak_kb / 1024,
            "analyze_p50_us": nearest_rank(latencies, 0.50) / 1e3,
            "analyze_p99_us": nearest_rank(latencies, 0.99) / 1e3,
        }

    def trace(self, dump_dir: Path | None) -> dict:
        """Per-layer metrics from one traced solve, after untraced ones for the overhead."""
        _, solves, _ = self.untraced(self.seconds / 2, analyze=False)
        with fresh_ramify(self.src) as rm:
            tracer = Tracer()
            tracer.install()
            try:
                ctxs = self.workload.setup(rm)
                out = tracer.root("bench", lambda: self.workload.solve(rm, ctxs, self.seed))
            finally:
                tracer.uninstall()
            self.record(self.workload.check(out))
            metrics = layer_metrics(tracer, rm.cardinality)
        del out
        if dump_dir is not None:
            dump_dir.mkdir(parents=True, exist_ok=True)
            path = dump_dir / f"spans-{self.workload.name}-seed{self.seed}.tsv.gz"
            tracer.dump(path)
            self.report.append(f"spans written to {path}")
        for name in tracer.absent:
            self.report.append(f"absent: {name} (not wrapped)")
        untraced = statistics.median(solves)
        traced = metrics["trace.solve_s"]
        metrics["trace.untraced_solve_s"] = untraced
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_frac"] = (traced - untraced) / untraced
        return metrics


def layer_metrics(tracer: Tracer, cardinality=None) -> dict:
    """Per-layer metrics of the spans under the ``bench`` root.

    ``cardinality`` is the unwrapped template counter, used after the run to
    measure how much the traced reductions kept.
    """
    totals, root_ns = aggregate(tracer, "bench")
    kept = kept_fraction(tracer, cardinality) if cardinality else 0.0
    metrics: dict[str, float] = {}
    for layer, suffixes in LAYERS.items():
        t = totals.get(layer) or LayerTotals()
        values = {
            "calls": t.calls,
            "s": t.self_ns / 1e9,
            "self_s": t.self_ns / 1e9,
            "pass_frac": t.passed / t.calls if t.calls else 0.0,
            "branches": t.a,
            "results": t.b,
            "tables": t.a,
            "polygons": t.b,
            "polys": t.items,
            "kept_frac": kept,
        }
        for suffix, _ in suffixes:
            metrics[f"{layer}.{suffix}"] = values[suffix]
    metrics["residue_field.make_field.s"] = span_seconds(tracer, "residue_field.make_field")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            sum(t.self_ns for name, t in totals.items() if name.split(".")[0] == module) / 1e9
        )
    metrics["trace.solve_s"] = root_ns / 1e9
    metrics["trace.self_sum_s"] = sum(t.self_ns for t in totals.values()) / 1e9
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.absent"] = len(tracer.absent)
    return metrics


def run(workload, seed: int, seconds: float, trace: bool, src: Path, dump_dir=None):
    """One run; returns the result object and the report lines."""
    bench = Run(workload, seed, seconds, src)
    if trace:
        metrics = bench.trace(dump_dir)
    else:
        metrics = bench.measure()
    failed = len(bench.failures)
    if trace:
        metrics["checks.failed_frac"] = failed / bench.attempted
        units = PER_LAYER
    else:
        units = END_TO_END
    bench.report.append(
        f"checks: {bench.attempted} attempted, {failed} failed, "
        f"failed_frac {failed / bench.attempted:.6g}"
    )
    bench.report += [f"FAILED: {label}" for label in bench.failures[:20]]
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, bench.report
