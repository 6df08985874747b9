"""Command-line front end: enumerate invariants, analyze polynomials, selftest.

Exit codes: 0 success, 1 selftest mismatch, 2 configuration error or out
of memory, 3 malformed or non-Eisenstein polynomial input.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys

from . import serialize
from .analyzer import (
    MAX_DEGREE,
    SURVEY_GUARD,
    NotEisensteinError,
    parse_integer_polynomial,
    unif_of,
)
from .binomials import BinomialContext, vp
from .enumeration import Level, enumerate_invariants
from .residue_field import make_field
from .selftest import DEFAULT_CASES, run_selftest
from .templates import (
    cardinality,
    expand_template,
    reduce_template,
    template_for_fine,
    template_for_invariant,
    truncate_krasner,
)


# the largest J0 range n*e*v_p(n) enumerate searches: the hull search tree
# grows fast with it (Q_2 degree 64, 384: 28-34 s CPU and 242 MB max RSS at level
# ram, 56-59 s and 369 MB at level fine, most of it the JSON, in one process on a
# 2-vCPU VM; degree 128, 896: no end)
MAX_J0_RANGE = 512
# the most valuation signatures a selftest case may survey, one polygon computation
# each: (1+depth)^(n-1) (2:19:1, 2^18: 1.2-1.8 s, 67 MB, 2 vCPUs)
MAX_SURVEY_SIGNATURES = 2**18


class ConfigError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramify",
        description="Invariants and polynomial templates of totally ramified "
        "p-adic field extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=int, required=True, help="residue characteristic")
        p.add_argument("--f", type=int, default=1, help="residue degree of K")
        p.add_argument("--e", type=int, default=1, help="absolute ramification index of K")
        p.add_argument("--gamma", default="1", help="uniformizer residue of pi w.r.t. p")

    enum = sub.add_parser("enumerate", help="enumerate invariants of a given degree")
    add_field_options(enum)
    enum.add_argument("--degree", type=int, required=True)
    enum.add_argument("--level", choices=["ram", "fine", "res", "unif"], required=True)
    enum.add_argument("--format", choices=["json", "csv"], default="json")
    enum.add_argument("--stats", action="store_true", help="report branch counters")
    enum.add_argument("--truncate", action="store_true", help="apply the Krasner cutoff")
    enum.add_argument("--reduce", action="store_true", help="apply uniformizer-change reduction")
    enum.add_argument("--expand", action="store_true", help="list template polynomials")

    analyze = sub.add_parser("analyze", help="invariants of one Eisenstein polynomial")
    add_field_options(analyze)
    analyze.add_argument("polynomial", nargs="?", help='integer form, e.g. "x^2-2"')
    analyze.add_argument("--json", dest="json_file", help="digit-table JSON file, - for stdin")

    self_p = sub.add_parser("selftest", help="run the survey-vs-enumerator cross-checks")
    self_p.add_argument(
        "--case",
        action="append",
        default=None,
        metavar="p:n:depth",
        help="override the built-in desk-scale cases",
    )
    return parser


def _write_json(doc, out) -> None:
    """``json.dump(doc, out, indent=2, sort_keys=True)`` and a newline, 8,192 chunks a write."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while batch := "".join(itertools.islice(chunks, 8192)):
        out.write(batch)
    out.write("\n")


def _make_context(args) -> BinomialContext:
    try:
        base = make_field(args.p, args.f, args.e, args.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return BinomialContext(base)


def cmd_enumerate(args, out) -> int:
    if args.truncate and args.level not in ("fine", "unif"):
        raise ConfigError("--truncate requires --level fine or unif")
    if args.reduce and args.level != "unif":
        raise ConfigError("--reduce requires --level unif")
    if (args.reduce or args.expand) and not args.truncate:
        raise ConfigError("--reduce and --expand require --truncate (templates must be finite)")
    if args.truncate and args.format == "csv":
        raise ConfigError("template output is JSON only")
    if not 1 <= args.degree <= MAX_DEGREE:
        raise ConfigError(f"--degree must be in [1, {MAX_DEGREE}]")
    ctx = _make_context(args)
    J0_range = args.degree * ctx.base.e * vp(ctx.base.p, args.degree)
    if J0_range > MAX_J0_RANGE:
        raise ConfigError(f"J0 range n*e*v_p(n) = {J0_range} exceeds {MAX_J0_RANGE}")
    results, stats = enumerate_invariants(ctx, args.degree, Level(args.level))

    if args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(serialize.CSV_COLUMNS[args.level])
        for index, obj in enumerate(results):
            writer.writerow(serialize.invariant_to_csv_row(args.level, index, obj))
        if args.stats:
            print(
                f"branches_visited={stats.branches_visited} results={len(results)}",
                file=sys.stderr,
            )
        return 0

    records = [serialize.invariant_to_json(obj) for obj in results]
    if args.truncate:
        templates = []
        for obj in results:
            if args.level == "fine":
                T = truncate_krasner(template_for_fine(ctx, obj), obj.J0)
            else:
                T = truncate_krasner(template_for_invariant(ctx, obj), obj.res.polygon.J0)
                if args.reduce:
                    T = reduce_template(ctx, T, obj)
            templates.append(T)
        # count before expanding: a listing holds the product of the slot sizes
        sizes = [cardinality(T) for T in templates]
        if args.expand and sum(sizes) > SURVEY_GUARD:
            raise ConfigError(
                f"--expand would list {sum(sizes)} polynomials, more than {SURVEY_GUARD}"
            )
        records = [
            {"invariant": record, "template": serialize.template_to_json(T), "cardinality": size}
            for record, T, size in zip(records, templates, sizes)
        ]
        if args.expand:
            for record, T in zip(records, templates):
                record["polynomials"] = [serialize.polynomial_to_json(f) for f in expand_template(T)]
    doc = {
        "schema": serialize.SCHEMA_VERSION,
        "field": serialize.field_to_json(ctx.base),
        "degree": args.degree,
        "level": args.level,
        "count": len(results),
        "results": records,
    }
    if args.stats:
        doc["stats"] = {
            "branches_visited": stats.branches_visited,
            "results": len(results),
        }
    _write_json(doc, out)
    return 0


def cmd_analyze(args, out) -> int:
    ctx = _make_context(args)
    if (args.polynomial is None) == (args.json_file is None):
        raise ConfigError("provide exactly one of a polynomial string or --json")
    if args.polynomial is not None:
        if ctx.base.e != 1 or ctx.base.f != 1:
            raise ConfigError("integer polynomial input requires e = f = 1")
        f = parse_integer_polynomial(ctx.base, args.polynomial)
    else:
        if args.json_file == "-":
            text = sys.stdin.read()
        else:
            with open(args.json_file, encoding="utf-8") as handle:
                text = handle.read()
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise NotEisensteinError("JSON document nested too deeply") from exc
        f = serialize.polynomial_from_json(ctx.base, data)
    invariant = unif_of(f)
    fine = invariant.res.polygon
    doc = {
        "schema": serialize.SCHEMA_VERSION,
        "field": serialize.field_to_json(ctx.base),
        "polynomial": serialize.polynomial_to_json(f),
        "polygon": serialize.ram_to_json(fine.hull),
        "fine": serialize.fine_to_json(fine),
        "residues": serialize.res_to_json(invariant.res),
        "phi0": str(invariant.phi0),
    }
    _write_json(doc, out)
    return 0


def cmd_selftest(args, out) -> int:
    cases = DEFAULT_CASES
    if args.case:
        parsed = []
        for text in args.case:
            try:
                p, n, depth = (int(part) for part in text.split(":"))
            except ValueError:
                raise ConfigError(f"bad case {text!r}, expected p:n:depth")
            if not 1 <= n or depth < 1:
                raise ConfigError(f"bad case {text!r}")
            try:
                make_field(p, 1, 1, 1)
            except ValueError as exc:
                raise ConfigError(f"bad case {text!r}: {exc}") from exc
            # p >= 2 here, so an exponent past the guard's bit length exceeds it
            # and p^(n*depth) and the signature count are formed only when small
            if (n * depth >= SURVEY_GUARD.bit_length() or p ** (n * depth) > SURVEY_GUARD
                    or (1 + depth) ** (n - 1) > MAX_SURVEY_SIGNATURES):
                raise ConfigError(f"case {text!r} exceeds the survey guard")
            parsed.append((p, n, depth))
        cases = tuple(parsed)
    ok = run_selftest(cases, report=lambda line: print(line, file=out))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "enumerate":
            return cmd_enumerate(args, sys.stdout)
        if args.command == "analyze":
            return cmd_analyze(args, sys.stdout)
        return cmd_selftest(args, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotEisensteinError as exc:
        print(f"error: not an Eisenstein polynomial: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a listing too large for this process's memory; exit 1 means a selftest mismatch
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
