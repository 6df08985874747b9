"""The benchmark's workloads: fixed mathematical inputs, exact expected outputs.

Each workload is one process, one thread, a closed loop with one client:
the next call starts when the previous one returned.  A workload

* ``setup``: builds its base fields and binomial contexts;
* ``solve``: makes the timed calls through ramify's public functions and
  serializes the results as the command line does (the canonical JSON);
* ``check``: compares counts and the digest of the canonical JSON with the
  values recorded at the commit that defined the benchmark;
* ``probe_tables``: random Eisenstein polynomials of the workload's fields
  and degrees, on which the harness times ``unif_of``; each analysis must
  give a fine polygon the workload enumerated and a valid uniformizer
  residue.

Every check is one attempted check; a false one is one failure.  Only the
round trip uses the seed, for the order of its analyze calls: the other
workloads, their probe polynomials included, are fixed mathematical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any

LEVELS = ("ram", "fine", "res", "unif")


@dataclass
class Output:
    """What one solve produced; ``doc`` is the canonical JSON text.

    ``latencies_ns`` holds the ``unif_of`` time of each polynomial, by
    polynomial, for a workload whose solve itself analyzes.
    """

    doc: str
    counts: dict[str, int]
    data: Any = None
    latencies_ns: list[int] = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def walk(rm, ctx, n: int, level: str):
    """The four public enumerators down to ``level``, in canonical order.

    Returns the objects found at each level and the branches each level's
    searches visited, as reported by their ``EnumStats`` (0 where a stats
    record no longer carries the counter, which the checks then report).
    """
    enumerators = {
        "fine": rm.enumerate_fine_polygons,
        "res": rm.enumerate_residue_classes,
        "unif": rm.enumerate_unif_classes,
    }
    rams, stats = rm.enumerate_ram_polygons(ctx, n)
    found = {"ram": rams}
    branches = {"ram": getattr(stats, "branches_visited", 0)}
    frontier = rams
    for lv in LEVELS[1 : LEVELS.index(level) + 1]:
        enumerate_level = enumerators[lv]
        found[lv], branches[lv] = [], 0
        for obj in frontier:
            results, stats = enumerate_level(ctx, obj)
            found[lv].extend(results)
            branches[lv] += getattr(stats, "branches_visited", 0)
        frontier = found[lv]
    return found, branches


def cli_document(rm, ctx, n: int, level: str, records: list) -> str:
    """The text ``ramify enumerate --format json`` prints for these records."""
    S = rm.serialize
    doc = {
        "schema": S.SCHEMA_VERSION,
        "field": S.field_to_json(ctx.base),
        "degree": n,
        "level": level,
        "count": len(records),
        "results": records,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def random_table(rm, ctx, n: int, top: int, rng: random.Random):
    """A random Eisenstein polynomial of degree n with varied coefficient valuations.

    The constant coefficient has valuation 1; every other coefficient gets
    a valuation drawn from 1..top, or is zero (drawn as top + 1).  Digits
    above the leading one are random up to depth top + 1.
    """
    elements = sorted(ctx.base.fq.elements())
    units = elements[1:]
    table = {}
    for i in range(n):
        lead = 1 if i == 0 else rng.randint(1, top + 1)
        if lead <= top:
            table[(i, lead)] = rng.choice(units)
            for k in range(lead + 1, top + 2):
                table[(i, k)] = rng.choice(elements)
    return rm.EisensteinData.from_digit_map(ctx.base, n, table)


def timed_unif_of(rm, f) -> tuple[Any, int]:
    t0 = time.perf_counter_ns()
    invariant = rm.unif_of(f)
    return invariant, time.perf_counter_ns() - t0


def compare(expected: dict[str, Any], out: Output) -> list[tuple[str, bool]]:
    checks = []
    for key, want in expected.items():
        got = digest(out.doc) if key == "digest" else out.counts.get(key)
        checks.append((f"{key} == {want}", got == want))
    return checks


class Workload:
    name: str
    fields: tuple[tuple[int, int, int, Any], ...]
    expected: dict[str, Any]

    def setup(self, rm) -> list:
        return [rm.BinomialContext(rm.make_field(*spec)) for spec in self.fields]

    def solve(self, rm, ctxs: list, seed: int) -> Output:
        raise NotImplementedError

    def check(self, out: Output) -> list[tuple[str, bool]]:
        return compare(self.expected, out)

    # how many random polynomials the probe draws
    probe_size = 0

    def probe_cases(self) -> list[tuple[int, int, int]]:
        """(ctx index, degree, top valuation) cases the probe draws from.

        A coefficient of valuation above e * v_p(n) + 1 never attains a
        ramification point (the leading term's does first), so drawing
        valuations up to that top reaches every fine polygon.
        """
        return []

    def probe_tables(self, rm, ctxs: list) -> list:
        """(ctx, polynomial) pairs, the same in every run and every import."""
        rng = random.Random(0)
        cases = self.probe_cases()
        tables = []
        for _ in range(self.probe_size):
            index, n, top = rng.choice(cases)
            tables.append((ctxs[index], random_table(rm, ctxs[index], n, top, rng)))
        return tables

    def enumerated_fines(self, rm, ctxs: list, out: Output) -> set:
        """Every fine polygon a probed polynomial may have."""
        raise NotImplementedError

    def probe_checks(self, rm, ctxs, out, tables, results) -> list[tuple[str, bool]]:
        known = self.enumerated_fines(rm, ctxs, out)
        return [
            (
                f"random table {i} analyzed to an enumerated, valid invariant",
                got.res.polygon in known and rm.is_valid_with_unif(ctx, got).ok,
            )
            for i, ((ctx, _), got) in enumerate(zip(tables, results))
        ]


def _vp(p: int, n: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class Census(Workload):
    """Q_p degree n at level ``fine``: the paper's census."""

    def __init__(self, p: int, n: int, expected: dict, probe_size: int = 2048):
        self.name = f"census-q{p}-{n}"
        self.fields = ((p, 1, 1, 1),)
        self.n = n
        self.expected = expected
        self.probe_size = probe_size

    def solve(self, rm, ctxs, seed):
        (ctx,) = ctxs
        found, branches = walk(rm, ctx, self.n, "fine")
        records = [rm.serialize.invariant_to_json(obj) for obj in found["fine"]]
        return Output(
            doc=cli_document(rm, ctx, self.n, "fine", records),
            counts={
                "ram": len(found["ram"]),
                "fine": len(found["fine"]),
                "ram_branches": branches["ram"],
            },
            data=found["fine"],
        )

    def probe_cases(self):
        p = self.fields[0][0]
        return [(0, self.n, 1 + _vp(p, self.n))]

    def enumerated_fines(self, rm, ctxs, out):
        return set(out.data)


def _template_record(rm, inv, R, polys=None):
    """The record ``enumerate --truncate --reduce [--expand]`` prints."""
    S = rm.serialize
    record = {
        "invariant": S.invariant_to_json(inv),
        "template": S.template_to_json(R),
        "cardinality": rm.cardinality(R),
    }
    if polys is not None:
        record["polynomials"] = [S.polynomial_to_json(f) for f in polys]
    return record


def _reduced_templates(rm, ctx, invariants):
    for inv in invariants:
        T = rm.truncate_krasner(rm.template_for_invariant(ctx, inv), inv.res.polygon.J0)
        yield inv, rm.reduce_template(ctx, T, inv)


class Classes(Workload):
    """All ``unif`` classes of one degree over a base field, with reduced templates."""

    def __init__(self, name: str, field_spec, n: int, expected: dict, probe_size: int = 4096):
        self.name = name
        self.fields = (field_spec,)
        self.n = n
        self.expected = expected
        self.probe_size = probe_size

    def solve(self, rm, ctxs, seed):
        (ctx,) = ctxs
        found, _ = walk(rm, ctx, self.n, "unif")
        pairs = list(_reduced_templates(rm, ctx, found["unif"]))
        records = [_template_record(rm, inv, R) for inv, R in pairs]
        counts = {lv: len(found[lv]) for lv in LEVELS}
        counts["cardinality"] = sum(record["cardinality"] for record in records)
        return Output(cli_document(rm, ctx, self.n, "unif", records), counts, pairs)

    def probe_cases(self):
        p, _, e, _ = self.fields[0]
        return [(0, self.n, 1 + e * _vp(p, self.n))]

    def enumerated_fines(self, rm, ctxs, out):
        return {inv.res.polygon for inv, _ in out.data}


class Selftest(Workload):
    """``run_selftest()`` on the given survey cases: the survey oracle."""

    def __init__(self, name: str, cases, expected: dict, probe_size: int = 8192):
        self.name = name
        self.cases = tuple(cases)
        self.fields = tuple(sorted({(p, 1, 1, 1) for p, _, _ in self.cases}))
        self.expected = expected
        self.probe_size = probe_size

    def solve(self, rm, ctxs, seed):
        lines: list[str] = []
        tables: list[int] = []
        survey = getattr(rm.selftest, "brute_force_survey", None)
        if survey is not None:
            # count the surveyed tables where run_selftest looks the survey up

            def counted(*args, **kwargs):
                result = survey(*args, **kwargs)
                tables.append(sum(len(group) for group in result.values()))
                return result

            rm.selftest.brute_force_survey = counted
        try:
            passed = rm.selftest.run_selftest(self.cases, report=lines.append)
        finally:
            if survey is not None:
                rm.selftest.brute_force_survey = survey
        counts = {
            "passed": int(bool(passed)),
            "problem_lines": sum(line.startswith("  ") for line in lines),
        }
        if survey is not None:
            counts["tables"] = sum(tables)
        return Output("\n".join(lines) + "\n", counts)

    def check(self, out):
        # without the survey name to count at, the table count goes unchecked
        expected = {
            key: want
            for key, want in self.expected.items()
            if key != "tables" or key in out.counts
        }
        return compare(expected, out)

    def probe_cases(self):
        primes = [p for p, _, _, _ in self.fields]
        return [(primes.index(p), n, depth) for p, n, depth in self.cases]

    def enumerated_fines(self, rm, ctxs, out):
        contexts = {ctx.base.p: ctx for ctx in ctxs}
        return {
            fine
            for p, n, _ in self.cases
            for fine in rm.enumerate_invariants(contexts[p], n, "fine")[0]
        }


class Roundtrip(Workload):
    """Expand every reduced ``unif`` template and analyze each polynomial back."""

    def __init__(self, p: int, n: int, expected: dict):
        self.name = f"roundtrip-q{p}-{n}"
        self.fields = ((p, 1, 1, 1),)
        self.n = n
        self.expected = expected

    def solve(self, rm, ctxs, seed):
        (ctx,) = ctxs
        found, _ = walk(rm, ctx, self.n, "unif")
        invariants = found["unif"]
        records, polys = [], []
        for index, (inv, R) in enumerate(_reduced_templates(rm, ctx, invariants)):
            expanded = list(rm.expand_template(R))
            records.append(_template_record(rm, inv, R, expanded))
            polys.extend((index, f) for f in expanded)
        doc = cli_document(rm, ctx, self.n, "unif", records)
        order = list(range(len(polys)))
        random.Random(seed).shuffle(order)
        got: list[Any] = [None] * len(polys)
        latencies = [0] * len(polys)
        for position in order:
            got[position], latencies[position] = timed_unif_of(rm, polys[position][1])
        own = [invariants[index] for index, _ in polys]
        counts = {"unif": len(invariants), "polynomials": len(polys)}
        return Output(doc, counts, (own, got), latencies)

    def check(self, out):
        own, got = out.data
        checks = compare(self.expected, out)
        checks += [
            (f"polynomial {i} returns its own invariant", a == b)
            for i, (a, b) in enumerate(zip(own, got))
        ]
        return checks


CENSUS_Q2_32 = Census(
    2,
    32,
    {
        "ram": 4948,
        "fine": 6849,
        "ram_branches": 29730,
        "digest": "c8db0927a9ef5e091d98c76fef3c63e9895a155ecf6534f94bf97720d03abe3f",
    },
)

CLASSES_F9_9 = Classes(
    "classes-f9-9",
    (3, 2, 1, "g"),
    9,
    {
        "ram": 24,
        "fine": 26,
        "res": 181,
        "unif": 817,
        "cardinality": 95913,
        "digest": "77b9c0b49bcfa8aa0a30f3ef97874e2c4c663b8a37a6ba769e4a4a06b5f247ae",
    },
)

SELFTEST_DEFAULT = Selftest(
    "selftest-default",
    ((2, 2, 3), (2, 4, 5), (3, 3, 3)),
    {
        "passed": 1,
        "problem_lines": 0,
        "tables": 537442,
        "digest": "947df3167df6e4b818d73778a4fe029d507e48cfedd25798e993695f2a87c143",
    },
)

ROUNDTRIP_Q2_12 = Roundtrip(
    2,
    12,
    {
        "unif": 31,
        "polynomials": 7382,
        "digest": "1b9c6e1e9cd79b4b30f288adb2f44db751839d7d89f784176a40e653fee75902",
    },
)

WORKLOADS = {
    w.name: w for w in (CENSUS_Q2_32, CLASSES_F9_9, SELFTEST_DEFAULT, ROUNDTRIP_Q2_12)
}
