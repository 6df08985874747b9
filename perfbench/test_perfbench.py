"""Tests of the benchmark's own harness, at toy sizes.

They show that a corrupted result or digest is counted as a failure, that
a wrapped name the program no longer defines is reported rather than
raised, that traced self times add up to the traced solve time, and that
``BENCHMARK.json`` names exactly the metrics the harness prints.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from pathlib import Path

import harness
from harness import END_TO_END, PER_LAYER, fresh_ramify, layer_metrics, run
from tracer import Target, Tracer, _ok
from workloads import WORKLOADS, Census, Classes, Roundtrip, Selftest, digest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def solved(workload, seed: int = 1):
    with fresh_ramify(SRC) as rm:
        ctxs = workload.setup(rm)
        out = workload.solve(rm, ctxs, seed)
        tables = workload.probe_tables(rm, ctxs)
        results = [rm.unif_of(f) for _, f in tables]
        probe_checks = workload.probe_checks(rm, ctxs, out, tables, results) if tables else []
    return out, probe_checks


def recorded(out) -> dict:
    return {**out.counts, "digest": digest(out.doc)}


def failed_frac(checks) -> float:
    return sum(not ok for _, ok in checks) / len(checks)


def test_corrupted_result_or_digest_is_counted():
    census = Census(2, 8, {}, probe_size=64)
    out, probe_checks = solved(census)
    census.expected = recorded(out)
    assert failed_frac(census.check(out) + probe_checks) == 0

    out.doc = out.doc.replace('"points"', '"pionts"', 1)
    assert failed_frac(census.check(out)) > 0

    census.expected = recorded(out) | {"digest": "0" * 64}
    assert failed_frac(census.check(out)) > 0

    census.expected = recorded(out) | {"fine": out.counts["fine"] + 1}
    assert failed_frac(census.check(out)) > 0

    # a census that lost a polygon no longer explains every probed polynomial
    with fresh_ramify(SRC) as rm:
        ctxs = census.setup(rm)
        out = census.solve(rm, ctxs, 1)
        tables = census.probe_tables(rm, ctxs)
        results = [rm.unif_of(f) for _, f in tables]
        out.data = [fine for fine in out.data if fine != results[0].res.polygon]
        assert failed_frac(census.probe_checks(rm, ctxs, out, tables, results)) > 0


def test_wrong_analysis_is_counted_per_polynomial():
    roundtrip = Roundtrip(2, 4, {})
    out, _ = solved(roundtrip)
    roundtrip.expected = recorded(out)
    assert failed_frac(roundtrip.check(out)) == 0
    own, got = out.data
    other = next(i for i, inv in enumerate(own) if inv != own[0])
    got[0] = own[other]
    checks = roundtrip.check(out)
    assert sum(not ok for _, ok in checks) == 1


def test_harness_reports_failures_without_raising(monkeypatch):
    monkeypatch.setattr(harness, "PROBE_SECONDS", 0.2)
    result, report = run(Census(2, 4, {"fine": -1}, probe_size=64), 1, 0.01, False, SRC)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("FAILED: fine == -1") for line in report)


def test_missing_wrapped_name_is_reported_not_raised():
    targets = (
        Target("ramify.validity:no_such_function", "validity.weak"),
        Target("ramify.no_such_module:anything", "validity.weak"),
        Target("ramify.validity:weak_ram_ok", "validity.weak", _ok),
    )
    census = Census(2, 8, {}, probe_size=64)
    with fresh_ramify(SRC) as rm:
        tracer = Tracer(targets)
        tracer.install()
        try:
            ctxs = census.setup(rm)
            tracer.root("bench", lambda: census.solve(rm, ctxs, 1))
        finally:
            tracer.uninstall()
        assert not hasattr(rm.validity.weak_ram_ok, "__wrapped__")
    assert tracer.absent == ["ramify.validity.no_such_function", "ramify.no_such_module.anything"]
    metrics = layer_metrics(tracer)
    assert metrics["trace.absent"] == 2
    assert metrics["validity.weak.calls"] > 0


def traced(workload):
    with fresh_ramify(SRC) as rm:
        tracer = Tracer()
        tracer.install()
        try:
            ctxs = workload.setup(rm)
            out = tracer.root("bench", lambda: workload.solve(rm, ctxs, 1))
        finally:
            tracer.uninstall()
    return out, layer_metrics(tracer)


def test_traced_self_times_add_up_and_counts_match_the_search():
    out, metrics = traced(Census(2, 16, {}))
    assert metrics["trace.absent"] == 0
    modules = sum(metrics[f"{m}.self_s"] for m in ("enumeration", "validity", "residue_field",
                  "templates", "analyzer", "serialize", "bench"))
    assert abs(modules - metrics["trace.solve_s"]) < 1e-6
    assert abs(metrics["trace.self_sum_s"] - metrics["trace.solve_s"]) < 1e-6
    # the paper's effort metric; every visited hull branch passed one weak test
    assert metrics["enumeration.ram.branches"] == out.counts["ram_branches"] == 1602
    assert metrics["validity.weak.calls"] * metrics["validity.weak.pass_frac"] == 1602
    # each valid hull is re-checked once on entry to the fine search
    assert metrics["validity.guard.calls"] == out.counts["ram"] == 340
    assert metrics["enumeration.fine.results"] == out.counts["fine"] == 447


def test_generator_items_and_reductions_are_traced():
    out, metrics = traced(Roundtrip(2, 4, {}))
    assert metrics["templates.expand.polys"] == out.counts["polynomials"]
    assert metrics["templates.expand.calls"] == out.counts["unif"]
    assert metrics["analyzer.unif_of.calls"] == out.counts["polynomials"]
    assert metrics["templates.reduce.calls"] == out.counts["unif"]


def test_toy_classes_and_selftest_pass_their_own_probes():
    toys = (
        Classes("toy", (2, 2, 1, 1), 4, {}, probe_size=64),
        Selftest("toy", ((2, 2, 3),), {}, probe_size=64),
    )
    for workload in toys:
        out, probe_checks = solved(workload)
        workload.expected = recorded(out)
        assert failed_frac(workload.check(out) + probe_checks) == 0
    assert out.counts["tables"] == 32 and out.counts["problem_lines"] == 0


def cli_output(argv: list[str]) -> str:
    with fresh_ramify(SRC):
        cli = importlib.import_module("ramify.cli")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(argv) == 0
    return buffer.getvalue()


def test_documents_are_what_the_command_line_prints():
    out, _ = solved(Census(2, 8, {}, probe_size=64))
    assert out.doc == cli_output(["enumerate", "--p", "2", "--degree", "8", "--level", "fine"])
    out, _ = solved(Roundtrip(2, 4, {}))
    argv = ["enumerate", "--p", "2", "--degree", "4", "--level", "unif"]
    assert out.doc == cli_output(argv + ["--truncate", "--reduce", "--expand"])
    out, _ = solved(Selftest("toy", ((2, 2, 3),), {}, probe_size=64))
    assert out.doc == cli_output(["selftest", "--case", "2:2:3"])


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    expectations = json.loads((HERE / "expectations.json").read_text())
    for row in expectations["moves"]:
        assert row["workload"] in WORKLOADS
        assert row["end_to_end"] in END_TO_END
        assert all(name in PER_LAYER for name in row["layer_metrics"])
    for name, baseline in expectations["baseline"].items():
        assert name in WORKLOADS and set(baseline) == set(END_TO_END)
