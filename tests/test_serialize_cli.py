import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramify.selftest
import ramify.validity
from ramify import cli, serialize
from ramify.analyzer import parse_integer_polynomial
from ramify.binomials import BinomialContext, vp
from ramify.enumeration import enumerate_invariants
from ramify.polygons import FinePolygon, FinePolygonWithResidues, RamPolygon
from ramify.residue_field import make_field
from ramify.selftest import problem_line, survey_case_problems
from ramify.templates import (
    expand_template,
    reduce_template,
    template_for_invariant,
    truncate_krasner,
)
from ramify.validity import Violation


def test_field_json_round_trip():
    K = make_field(3, 2, 2, "g")
    data = serialize.field_to_json(K)
    # one read-only record per field, its modulus a tuple that JSON writes as a list
    assert data["modulus"] == (1, 0, 1)
    assert serialize.field_to_json(make_field(3, 2, 2, "g")) is data
    assert json.loads(json.dumps(data))["modulus"] == [1, 0, 1]
    assert serialize.field_from_json(data) == K


def test_invariant_json_round_trips(ctx_q2, ctx_q3):
    for ctx, n in ((ctx_q2, 4), (ctx_q3, 3)):
        base = ctx.base
        for level, loader in [
            ("ram", serialize.ram_from_json),
            ("fine", serialize.fine_from_json),
            ("res", serialize.res_from_json),
            ("unif", serialize.unif_from_json),
        ]:
            for obj in enumerate_invariants(ctx, n, level)[0]:
                data = json.loads(json.dumps(serialize.invariant_to_json(obj)))
                assert loader(base, data) == obj


def test_fine_json_marks_tame_points(ctx_q2):
    Ps = FinePolygon(2, 6, ((1, 6), (2, 0), (4, 0), (6, 0)))
    # the record's arrays are tuples, which JSON writes as lists: read it as written
    data = json.loads(json.dumps(serialize.fine_to_json(Ps)))
    assert data["tame"] == [4, 6]
    assert data["hull"] == [[1, 6], [2, 0], [6, 0]]
    rels = {spec["x"]: spec["rel"] for spec in data["point_specs"]}
    assert rels == {1: "=", 2: "=", 4: "=", 6: "="}


@pytest.mark.parametrize("spec, n", [((2, 1, 1, 1), 12), ((3, 1, 1, 1), 6), ((2, 2, 1, "g"), 6)])
def test_polygon_records_share_the_polygons_tuples(spec, n):
    # a record adds no array the polygon holds already, and no container the
    # cyclic collector tracks beyond itself and its point-record tuple
    ctx = BinomialContext(make_field(*spec))
    for P in enumerate_invariants(ctx, n, "ram")[0]:
        assert serialize.ram_to_json(P)["vertices"] is P.vertices
    fines = enumerate_invariants(ctx, n, "fine")[0]
    records = [serialize.fine_to_json(Ps) for Ps in fines]
    assert len(records) > 1 and records[0]["tame"]
    for Ps, data in zip(fines, records):
        assert data["points"] is Ps.points and data["hull"] is Ps.hull.vertices
        assert data["tame"] is records[0]["tame"] == tuple(Ps.tame_abscissas())
    unifs = enumerate_invariants(ctx, n, "unif")[0]
    for data in records + [serialize.unif_to_json(inv) for inv in unifs]:
        assert type(data["point_specs"]) is tuple
        for record in data["point_specs"]:
            assert all(type(value) in (int, str) for value in record.values()), record
            assert not gc.is_tracked(record)
    for inv in unifs:
        data = serialize.unif_to_json(inv)
        assert data["hull"] is inv.res.polygon.hull.vertices
        assert data["tame"] is records[0]["tame"]


def _reference_ram_records(P):
    """(x, J, rel, rho) per p-power up to p^(v_p(n)), then (n, 0) if n is not one."""
    vertices = dict(P.vertices)
    top_s = vp(P.p, P.n)
    records = []
    for s in range(top_s + 1):
        x = P.p**s
        if x in vertices:
            records.append((x, vertices[x], "=", None))
        else:
            records.append((x, math.ceil(P.value_at(x)), ">=", None))
    if P.n != P.p**top_s:
        records.append((P.n, 0, "=", None))
    return records


def _reference_fine_records(Pstar, residues=()):
    """(x, J, rel, rho) per p-power up to p^(v_p(n)), then per point beyond."""
    rho_at = {x: str(rho) for (x, _), rho in zip(Pstar.points, residues)}
    points = dict(Pstar.points)
    top_s = vp(Pstar.p, Pstar.n)
    records = []
    for s in range(top_s + 1):
        x = Pstar.p**s
        if x in points:
            records.append((x, points[x], "=", rho_at.get(x)))
        else:
            records.append((x, math.floor(Pstar.hull.value_at(x)), ">", None))
    for x, J in Pstar.points:
        if x > Pstar.p**top_s:
            records.append((x, J, "=", rho_at.get(x)))
    return records


def _reference_records(obj):
    if isinstance(obj, RamPolygon):
        return _reference_ram_records(obj)
    if isinstance(obj, FinePolygon):
        return _reference_fine_records(obj)
    res = obj if isinstance(obj, FinePolygonWithResidues) else obj.res
    return _reference_fine_records(res.polygon, res.residues)


# (p, f, e, gamma spec, degrees)
POINT_SPEC_CASES = [
    (2, 1, 1, 1, range(1, 17)),
    (3, 1, 1, 1, (9,)),
    (2, 1, 2, 1, (8,)),
    (2, 2, 1, "g", (8,)),
]


@pytest.mark.parametrize("p, f, e, gamma, degrees", POINT_SPEC_CASES)
def test_point_specs_match_reference_records(p, f, e, gamma, degrees):
    ctx = BinomialContext(make_field(p, f, e, gamma))
    for n in degrees:
        for level in ("ram", "fine", "res", "unif"):
            for obj in enumerate_invariants(ctx, n, level)[0]:
                records = serialize.invariant_to_json(obj)["point_specs"]
                assert all(r["rel"] == "=" for r in records if "rho" in r)
                found = [(r["x"], r["J"], r["rel"], r.get("rho")) for r in records]
                assert found == _reference_records(obj), (level, obj)


def test_residue_and_slot_records_are_shared_and_never_changed():
    ctx = BinomialContext(make_field(3, 2, 1, "g"))
    reduced: dict = {}
    for inv in enumerate_invariants(ctx, 6, "unif")[0]:
        assert serialize.unif_to_json(inv)["phi0"] == str(inv.phi0)
        assert "phi0" not in serialize.res_to_json(inv.res)
        assert serialize.res_to_json(inv.res) is serialize.res_to_json(inv.res)
        T = truncate_krasner(template_for_invariant(ctx, inv), inv.res.polygon.J0)
        record = serialize.template_to_json(reduce_template(ctx, T, inv))
        reduced.setdefault(inv.res.polygon, []).append(record)
    shared = 0
    for records in reduced.values():
        for a, b in itertools.combinations(records, 2):
            for slot_a, slot_b in itertools.product(a["slots"], b["slots"]):
                if slot_a == slot_b:
                    assert slot_a is slot_b
                    shared += 1
    assert shared > 0


def _leaf_records(ctx, kind):
    """The Q_2 degree-16 ram, fine or res records, or the polynomial records that
    ``enumerate --p 2 --degree 4 --level unif --truncate --reduce --expand`` lists."""
    if kind != "polynomials":
        return [serialize.invariant_to_json(P) for P in enumerate_invariants(ctx, 16, kind)[0]]
    polynomials = []
    for inv in enumerate_invariants(ctx, 4, "unif")[0]:
        T = truncate_krasner(template_for_invariant(ctx, inv), inv.res.polygon.J0)
        R = reduce_template(ctx, T, inv)
        polynomials += map(serialize.polynomial_to_json, expand_template(R))
    return polynomials


def test_point_and_digit_records_are_shared_and_never_changed(ctx_q2):
    kinds = ("fine", "res", "ram", "polynomials")
    caches = (serialize._point_record, serialize._digit_record, serialize.res_to_json)
    records = {}
    for kind in kinds:
        records[kind] = _leaf_records(ctx_q2, kind)
        leaves = [leaf for record in records[kind]
                  for leaf in record["digits" if kind == "polynomials" else "point_specs"]]
        # equal records are one object, and fewer objects than records
        distinct = {}
        for leaf in leaves:
            assert distinct.setdefault(tuple(sorted(leaf.items())), leaf) is leaf
        assert len(distinct) < len(leaves)
    text = json.dumps(records, sort_keys=True)
    # each kind rebuilt alone from empty caches: no later kind changed a shared record
    for kind in kinds:
        for cache in caches:
            cache.cache_clear()
        fresh = _leaf_records(ctx_q2, kind)
        assert fresh == records[kind], kind
        assert json.dumps(fresh, sort_keys=True) == json.dumps(records[kind], sort_keys=True)
    assert json.dumps(records, sort_keys=True) == text


def test_template_json_round_trip(ctx_q2):
    invs, _ = enumerate_invariants(ctx_q2, 2, "unif")
    T = truncate_krasner(template_for_invariant(ctx_q2, invs[0]), 1)
    data = json.loads(json.dumps(serialize.template_to_json(T)))
    assert serialize.template_from_json(data) == T


def test_polynomial_json_round_trip(ctx_q2):
    f = parse_integer_polynomial(ctx_q2.base, "x^8+2x^7+2x^6+2x^4+2")
    data = json.loads(json.dumps(serialize.polynomial_to_json(f)))
    assert serialize.polynomial_from_json(ctx_q2.base, data) == f


def test_csv_rows_round_trip(ctx_q2, ctx_q3):
    for ctx, n in ((ctx_q2, 4), (ctx_q3, 3)):
        for level in ("ram", "fine", "res", "unif"):
            for index, obj in enumerate(enumerate_invariants(ctx, n, level)[0]):
                row = serialize.invariant_to_csv_row(level, index, obj)
                assert serialize.invariant_from_csv_row(ctx.base, level, row) == obj


# ---------------------------------------------------------------------------
# CLI


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_enumerate_json_and_csv_agree(capsys):
    code, out_json, _ = run_cli(
        ["enumerate", "--p", "2", "--degree", "4", "--level", "unif"], capsys
    )
    assert code == 0
    doc = json.loads(out_json)
    assert doc["schema"] == 1 and doc["level"] == "unif"

    code, out_csv, _ = run_cli(
        ["enumerate", "--p", "2", "--degree", "4", "--level", "unif", "--format", "csv"],
        capsys,
    )
    assert code == 0
    base = make_field(2, 1, 1, 1)
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == serialize.CSV_COLUMNS["unif"]
    from_csv = [
        serialize.invariant_from_csv_row(base, "unif", row) for row in rows[1:]
    ]
    from_json = [
        serialize.unif_from_json(base, record) for record in doc["results"]
    ]
    assert from_csv == from_json
    assert doc["count"] == len(from_csv)


def test_cli_enumerate_deterministic_across_runs(capsys):
    args = ["enumerate", "--p", "2", "--degree", "8", "--level", "fine", "--stats"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_enumerate_expand_degree_two(capsys):
    code, out, _ = run_cli(
        [
            "enumerate",
            "--p",
            "2",
            "--degree",
            "2",
            "--level",
            "unif",
            "--expand",
            "--reduce",
            "--truncate",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    sizes = sorted(r["cardinality"] for r in doc["results"])
    assert sizes == [2, 4]
    assert sum(len(r["polynomials"]) for r in doc["results"]) == 6


def test_cli_truncate_prints_templates_without_expand(capsys):
    argv = ["enumerate", "--p", "2", "--degree", "4", "--level", "unif", "--truncate"]
    docs = {}
    for extra in ([], ["--reduce"], ["--reduce", "--expand"]):
        code, out, _ = run_cli(argv + extra, capsys)
        assert code == 0
        docs[tuple(extra)] = json.loads(out)["results"]
    plain, reduced, expanded = docs.values()
    assert {tuple(sorted(r)) for r in plain + reduced} == {("cardinality", "invariant", "template")}
    assert [r["invariant"] for r in plain] == [r["invariant"] for r in reduced]
    assert sum(r["cardinality"] for r in reduced) < sum(r["cardinality"] for r in plain)
    assert [{k: r[k] for k in r if k != "polynomials"} for r in expanded] == reduced
    assert [len(r["polynomials"]) for r in expanded] == [r["cardinality"] for r in reduced]


def test_cli_refuses_templates_it_cannot_print(capsys):
    for extra in (["--level", "ram", "--truncate"], ["--level", "res", "--truncate"],
                  ["--level", "unif", "--reduce"],
                  ["--level", "fine", "--truncate", "--format", "csv"],
                  ["--level", "unif", "--truncate", "--reduce", "--format", "csv"]):
        code, out, err = run_cli(["enumerate", "--p", "2", "--degree", "4", *extra], capsys)
        assert (code, out) == (2, ""), extra
        assert err.startswith("error: ")


def test_cli_config_errors(capsys):
    bad_flag_combos = [
        ["enumerate", "--p", "2", "--degree", "2", "--level", "ram", "--expand",
         "--truncate"],
        ["enumerate", "--p", "2", "--degree", "2", "--level", "fine", "--reduce"],
        ["enumerate", "--p", "2", "--degree", "2", "--level", "unif", "--expand"],
        ["enumerate", "--p", "4", "--degree", "2", "--level", "ram"],
        ["enumerate", "--p", "2", "--degree", "0", "--level", "ram"],
        ["analyze", "--p", "2"],
        ["analyze", "--p", "2", "--f", "2", "x^2-2"],
        ["selftest", "--case", "2:8:5"],
        ["selftest", "--case", "nonsense"],
        ["selftest", "--case", "4:2:3"],
        ["selftest", "--case", "1:2:3"],
    ]
    for args in bad_flag_combos:
        code, _, err = run_cli(args, capsys)
        assert code == 2, args
        assert "error" in err


def run_process(*argv, preexec_fn=None):
    """``python -m ramify.cli *argv`` as a user runs it, with a timeout for a hang."""
    src = Path(__import__("ramify").__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "ramify.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=preexec_fn,
    )


def cap(limit):
    """A ``preexec_fn`` that caps the child's address space at ``limit`` bytes,
    so a regression fails fast instead of taking memory."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cli_rejects_huge_fields_before_primality():
    # trial division of an 18-digit prime, or forming 2^(10^18), would hang;
    # the q guard must reject both first.  Run as a process: exit code and
    # stderr exactly as a user sees them, and a timeout in place of a hang.
    for field in (["--p", "1000000000000000003"], ["--p", "2", "--f", str(10**18)]):
        done = run_process("enumerate", *field, "--degree", "2", "--level", "ram")
        assert done.returncode == 2, field
        assert "exceeds the enumeration guard" in done.stderr
        assert "Traceback" not in done.stderr


def test_cli_listing_that_exhausts_memory_exits_2():
    # the F_9 degree-3 listing passes the 2^24 guard but not a 256 MiB address
    # space: it ends with the configuration code, not a traceback and exit 1,
    # the selftest-mismatch code, and prints no partial document
    done = run_process("enumerate", "--p", "3", "--f", "2", "--degree", "3", "--level", "fine",
                       "--truncate", "--expand", preexec_fn=cap(256 * 2**20))
    assert done.returncode == 2
    assert done.stderr == "error: out of memory\n"
    assert done.stdout == ""


def test_cli_selftest_rejects_huge_case_before_forming_its_size():
    # 3^(10^8) takes minutes to form; the guard must reject the case first.
    # 2:24:1 is inside 2^24 tables but has 2^23 valuation signatures, past
    # the 2^18 the selftest surveys
    for case in ("3:10000:10000", "2:24:1"):
        done = run_process("selftest", "--case", case, preexec_fn=cap(192 * 2**20))
        assert done.returncode == 2, case
        assert "exceeds the survey guard" in done.stderr
        assert "Traceback" not in done.stderr


# sha256 of `ramify selftest` stdout, taken before the survey shared its rows
SELFTEST_STDOUT_SHA256 = "947df3167df6e4b818d73778a4fe029d507e48cfedd25798e993695f2a87c143"


def test_cli_selftest_runs_under_a_192_mib_address_space_cap():
    # the default cases survey 537,442 tables, decided box by box
    done = run_process("selftest", preexec_fn=cap(192 * 2**20))
    assert done.returncode == 0, done.stderr[-2000:]
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == SELFTEST_STDOUT_SHA256


def test_cli_selftest_surveys_degree_eight_under_a_192_mib_address_space_cap():
    # Q_2 degree 8 to depth 3 spans 2^24 digit tables, exactly the survey
    # guard, 2^23 of them Eisenstein; the survey decides them box by box and
    # builds none, where a table object each would take on the order of 1 GB.
    # Degree 1 to depth 24 (Q_2) or 15 (Q_3) is one box of 2^23 or 2*3^14
    # tables, decided without making a row of it.  2:12:2 (3^11 signatures),
    # 2:19:1 (2^18, at the signature guard) and 3:15:1 (2^14) are the grid at
    # the guards
    for case in ("2:8:3", "2:1:24", "3:1:15", "2:12:2", "2:19:1", "3:15:1"):
        done = run_process("selftest", "--case", case, preexec_fn=cap(192 * 2**20))
        assert done.returncode == 0, (case, done.stderr[-2000:])
        p, n, depth = case.split(":")
        assert done.stdout == f"selftest p={p} n={n} depth={depth}: ok\n"


def test_cli_expand_rejects_huge_listing_before_expanding():
    # the degree-8 fine templates hold 291,468,941,408 polynomials
    done = run_process(
        "enumerate", "--p", "2", "--degree", "8", "--level", "fine", "--truncate",
        "--expand",
    )
    assert done.returncode == 2
    assert "291468941408 polynomials" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_cli_analyze_rejects_deeply_nested_json(tmp_path):
    # json.loads recurses once per nesting level and raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    done = run_process("analyze", "--p", "2", "--json", str(path))
    assert done.returncode == 3
    assert "nested too deeply" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_analyze_rejects_huge_degree_or_depth_before_allocating(tmp_path):
    # a ~100-byte document naming k = 10^9 or n = 10^12 would allocate n rows
    # of k digits; the bounds reject it first, under a capped address space
    for n, k in ((2, 10**9), (10**12, 1)):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": n, "digits": [{"i": 0, "k": k, "residue": "1"}]}))
        start = time.perf_counter()
        done = run_process("analyze", "--p", "2", "--json", str(path), preexec_fn=cap(2**30))
        assert time.perf_counter() - start < 1.0  # interpreter start-up included
        assert done.returncode == 3, (n, k)
        assert "beyond 4096/1024" in done.stderr
        assert "Traceback" not in done.stderr


def test_cli_enumerate_rejects_huge_degree_or_J0_range_before_searching():
    # each of these ran the hull search without limit; the degree and J0-range
    # bounds refuse them first, under a capped address space
    for field, degree, level, bound in (
        (["--p", "2"], "4444", "ram", "[1, 4096]"),
        (["--p", "2", "--e", "100000000"], "2", "ram", "exceeds 512"),
        (["--p", "3"], "99999999", "fine", "[1, 4096]"),
        (["--p", "2"], "128", "ram", "= 896 exceeds 512"),
    ):
        start = time.perf_counter()
        done = run_process(
            "enumerate", *field, "--degree", degree, "--level", level, preexec_fn=cap(2**30)
        )
        assert time.perf_counter() - start < 1.0  # interpreter start-up included
        assert done.returncode == 2, (field, degree)
        assert bound in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


def test_cli_analyze_degree_eight(capsys):
    code, out, _ = run_cli(["analyze", "--p", "2", "x^8+2x^7+2x^6+2x^4+2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["fine"]["points"] == [[1, 7], [2, 6], [4, 4], [8, 0]]
    assert doc["polygon"]["vertices"] == [[1, 7], [8, 0]]
    assert doc["phi0"] == "1"


def test_cli_analyze_quadratic(capsys):
    code, out, _ = run_cli(["analyze", "--p", "2", "x^2-2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["polygon"]["vertices"] == [[1, 2], [2, 0]]
    assert doc["phi0"] == "1"


def test_cli_analyze_json_input(capsys, tmp_path):
    doc = {"n": 2, "digits": [{"i": 0, "k": 1, "residue": "1"}]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["analyze", "--p", "2", "--json", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["polygon"]["vertices"] == [[1, 2], [2, 0]]


def test_cli_analyze_rejects_non_eisenstein(capsys, tmp_path):
    # not Eisenstein, no term at all, a term with more digits than int() converts
    for text in ["x^2-1", "", "+", "x^2+2" + "0" * 5000]:
        code, _, err = run_cli(["analyze", "--p", "2", text], capsys)
        assert code == 3, text[:20]
        assert "Eisenstein" in err
    path = tmp_path / "poly.json"
    # digit-table documents of the wrong shape, the wrong type, or with a bad
    # element literal are malformed input, like a non-Eisenstein table
    for doc in [
        {"n": 2},
        [1, 2],
        "x^2-2",
        {"n": "2", "digits": [{"i": 0, "k": 1, "residue": "1"}]},
        {"n": 2, "digits": [{"i": 0.5, "k": 1, "residue": "1"}]},
        {"n": 2, "digits": [{"i": 0, "k": 1, "residue": 1}]},
        {"n": 2, "digits": [{"i": 0, "k": 1, "residue": "x"}]},
        {"n": 2, "digits": [{"i": 0, "k": 1, "residue": "1,1"}]},
        {"n": 2, "digits": [{"i": 0, "k": 1}]},
        {"n": 2, "digits": {"i": 0}},
    ]:
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["analyze", "--p", "2", "--json", str(path)], capsys)
        assert code == 3, doc
        assert "Eisenstein" in err
    # a file that is not UTF-8 is unreadable input, like a missing file
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(["analyze", "--p", "2", "--json", str(path)], capsys)
    assert code == 2
    assert "error" in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "digits", "i", "k", "residue"]), children),
    max_leaves=12,
)
_DIGIT_ENTRIES = st.fixed_dictionaries(
    {
        "i": st.integers(-1, 65),
        "k": st.integers(-1, 5),
        "residue": st.sampled_from(["0", "1", "2", "1,1", "0,1", "1,1,1", "x", ""]),
    }
)
# mostly Eisenstein: a unit constant digit first, later entries may undo it
_TABLES = st.integers(1, 64).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n),
            "digits": st.lists(
                st.fixed_dictionaries(
                    {
                        "i": st.integers(0, n - 1),
                        "k": st.integers(1, 4),
                        "residue": st.sampled_from(["0", "1", "0,1", "1,1"]),
                    }
                ),
                max_size=8,
            ).map(lambda entries: [{"i": 0, "k": 1, "residue": "1"}, *entries]),
        }
    )
)
_DOCUMENTS = (
    _JSON_VALUES
    | _TABLES
    | st.fixed_dictionaries(
        {
            "n": st.integers(-1, 64) | _JSON_VALUES,
            "digits": st.lists(_DIGIT_ENTRIES | _JSON_VALUES, max_size=8) | _JSON_VALUES,
        }
    )
)


@settings(max_examples=300, deadline=None)
@given(
    doc=_DOCUMENTS,
    field=st.sampled_from([["--p", "2"], ["--p", "3"], ["--p", "2", "--f", "2"]]),
)
def test_cli_analyze_json_documents_exit_cleanly(doc, field):
    # any small JSON document: a result or a documented error, never a traceback
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = cli.main(["analyze", *field, "--json", "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3)


_JUNK = st.text(alphabet="-+:,x^0123456789g ", max_size=8)


def _mostly(valid, invalid):
    """Mostly a value from ``valid``, else one from ``invalid`` or junk (None)."""
    choices = valid * 4 + invalid + [None]
    return st.sampled_from(choices).flatmap(lambda v: _JUNK if v is None else st.just(v))


def _flat(parts):
    return [arg for part in parts for arg in part]


# --p, then at most one more field option
_FIELD = st.tuples(
    _mostly(["2", "3"], ["0", "4", "-3", "1000000000000000003"]).map(lambda v: ["--p", v]),
    st.sampled_from([None, None, ("--f", "2"), ("--e", "2"), ("--gamma", "g")]).flatmap(
        lambda opt: _mostly([opt[1]], ["0", "-1", "1,1,1"]).map(lambda v: [opt[0], v])
        if opt
        else st.just([])
    ),
).map(_flat)
_ENUMERATE_ARGV = st.tuples(
    st.just(["enumerate"]),
    _FIELD,
    _mostly(["1", "2", "3", "4"], ["0", "-1", "4444", "99999999"]).map(
        lambda v: ["--degree", v]
    ),
    _mostly(["ram", "fine", "res", "unif"], ["all"]).map(lambda v: ["--level", v]),
    st.one_of(
        st.sampled_from(
            [[], ["--stats"], ["--format", "csv", "--stats"], ["--truncate", "--expand"]]
            + [["--truncate", "--reduce"], ["--truncate", "--reduce", "--expand"]]
        ),
        st.lists(
            st.sampled_from(["--stats", "--truncate", "--reduce", "--expand", "csv"]), max_size=5
        ),
    ),
).map(_flat)
_ANALYZE_ARGV = st.tuples(
    st.just(["analyze"]),
    _FIELD,
    st.one_of(
        _mostly(["x^2+2", "x^4+2x+2", "x^3+3", "x^8+2x^7+2"], ["x^2-1", "x^0", "", "+"]).map(
            lambda v: [v]
        ),
        st.text(alphabet="x^+-*0123456789 ", max_size=12).map(lambda v: [v]),
        st.sampled_from([["--json", "-"], [], ["x^2+2", "--json", "-"]]),
    ),
).map(_flat)
_SELFTEST_ARGV = st.tuples(
    st.just(["selftest"]),
    st.lists(
        _mostly(["2:2:3", "3:3:2", "2:3:2"], ["4:2:3", "2:0:3", "2:30:30"]).map(
            lambda v: ["--case", v]
        ),
        min_size=1,  # no --case runs the built-in cases, far beyond a fuzz budget
        max_size=2,
    ).map(_flat),
).map(_flat)


@settings(max_examples=200, deadline=None)
@given(
    argv=_ENUMERATE_ARGV | _ANALYZE_ARGV | _SELFTEST_ARGV,
    stdin=st.sampled_from(['{"n": 2, "digits": [{"i": 0, "k": 1, "residue": "1"}]}', "[", ""]),
)
def test_cli_argv_exits_cleanly(argv, stdin):
    # bounded degrees and cases, junk and out-of-range values: a result or a
    # documented error (argparse exits 2 itself), never a traceback
    stdin_, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin_
    assert code in (0, 2, 3), argv


def test_cli_selftest_small_cases(capsys):
    code, out, _ = run_cli(["selftest", "--case", "2:2:3", "--case", "3:3:2"], capsys)
    assert code == 0
    assert out.count(": ok") == 2


def test_selftest_detects_injected_ore2_fault(survey_q2_n4, monkeypatch):
    # a kernel that dropped the Ore 2 condition would admit fine polygons no
    # polynomial attains, e.g. [(1, 8), (4, 0)] in degree 4, whose segment
    # gives p^1 the least ordinate 6 with ceil(6 / 4) - B(4, 2) = 1 > 0; with
    # that polygon among what the selftest enumerates, the survey cross-check
    # must object
    ctx = BinomialContext(make_field(2, 1, 1, 1))
    faulty = FinePolygon(2, 4, ((1, 8), (4, 0)))
    report = ramify.validity.is_valid_fine(ctx, faulty)
    assert report.violations == (Violation.ORE2,)
    real = ramify.selftest.enumerate_invariants

    def with_fault(ctx_, n, level):
        found, stats = real(ctx_, n, level)
        return found + [faulty], stats

    monkeypatch.setattr(ramify.selftest, "enumerate_invariants", with_fault)
    problems = survey_case_problems(ctx, 4, 5, survey=survey_q2_n4)
    assert ("enumerated but not surveyed:", faulty.points) in problems
    assert any("enumerated but not surveyed" in problem_line(p) for p in problems)


def test_python_dash_m_ramify_runs_the_command_line():
    src = Path(__import__("ramify").__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "ramify", "selftest", "--case", "2:2:3"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "selftest p=2 n=2 depth=3: ok\n"


def test_selftest_clean_on_small_case(ctx_q2, survey_q2_n2):
    assert survey_case_problems(ctx_q2, 2, 3, survey=survey_q2_n2) == []
