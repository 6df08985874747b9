"""Exhaustive cross-checks of the enumerators against the brute-force survey.

Each case fixes a base field, a degree and a digit depth, iterates every
digit table to that depth, and verifies that

* the fine polygons attained by the survey are exactly those produced by
  the branch-and-prune enumerators,
* every surveyed polynomial satisfies the digit constraints of the
  template attached to its fine polygon,
* every surveyed polynomial obeys the Ore bound on the leftmost ordinate,
* the residues and uniformizer digit of every surveyed polynomial pass
  the residue-level validity tests.

All checks are exact; each discrepancy is a (kind, subject) pair that
:func:`problem_line` formats only if printed, as one fault can fail every table.

The per-table checks decompose by rows.  A template slot (i, k) with
k <= depth reads row i alone, so a table meets its template exactly when
each of its n rows meets that row's slots, and the residue check reads only
each row's leading pair (F_i, phi_i).  The survey's tables share their
q^depth row objects, so each (i, row) is decided once per fine polygon and a
table costs n memo lookups plus one residue lookup keyed by its leading pairs.
"""

from __future__ import annotations

from .analyzer import EisensteinData, brute_force_survey, leading_pair, unif_of
from .binomials import BinomialContext, vp
from .enumeration import Level, enumerate_invariants
from .polygons import FinePolygon, decompose
from .residue_field import make_field
from .templates import Template, template_for_fine
from .validity import is_valid_fine, is_valid_with_unif

DEFAULT_CASES: tuple[tuple[int, int, int], ...] = ((2, 2, 3), (2, 4, 5), (3, 3, 3))
MAX_PROBLEM_LINES = 20  # diffs printed per case: one fault can fail every table


def problem_line(problem: tuple[str, object]) -> str:
    return "{} {}".format(*problem)


def survey_case_problems(
    ctx: BinomialContext,
    n: int,
    bound: int,
    survey: dict[FinePolygon, list[EisensteinData]] | None = None,
) -> list[tuple[str, object]]:
    """All mismatches for one case as (kind, subject) pairs; empty means the case passes."""
    problems: list[tuple[str, object]] = []
    if survey is None:
        survey = brute_force_survey(ctx, n, bound)
    enumerated, _ = enumerate_invariants(ctx, n, Level.FINE)
    surveyed_set = set(survey)
    enumerated_set = set(enumerated)
    for fine in sorted(surveyed_set - enumerated_set, key=lambda f: f.points):
        problems.append(("surveyed but not enumerated:", fine.points))
    for fine in sorted(enumerated_set - surveyed_set, key=lambda f: f.points):
        problems.append(("enumerated but not surveyed:", fine.points))

    e, p = ctx.base.e, ctx.base.p
    vn = e * vp(p, n)
    zero = ctx.base.fq.zero
    for fine, group in survey.items():
        J0 = fine.J0
        _, b0 = decompose(J0, n)
        if not min(n * e * vp(p, b0), n * vn) <= J0 <= n * vn:
            problems.append((f"Ore bound violated by leftmost ordinate {J0} of", fine.points))
        row_slots = None
        if fine in enumerated_set:
            row_slots = _row_slots(template_for_fine(ctx, fine), bound)
        # (i, id(row)) -> (row i meets its slots, (F_i, phi_i)).  Keyed by id:
        # hashing a row calls each digit's __hash__; the survey keeps every
        # row alive while this memo lives, and its tables share their rows
        seen: dict[tuple[int, int], tuple[bool, tuple]] = {}
        residues_ok: dict[tuple, bool] = {}
        for f in group:
            rows = f.digits
            inside = True
            lead = []
            for key in enumerate(map(id, rows)):
                verdict = seen.get(key)
                if verdict is None:
                    i = key[0]
                    ok = row_slots is None or _row_meets(rows[i], row_slots[i], zero)
                    verdict = seen[key] = (ok, leading_pair(rows[i], zero))
                inside = inside and verdict[0]
                lead.append(verdict[1])
            if not inside:
                problems.append(("polynomial outside its template:", rows))
            # residue data depends only on each coefficient's valuation and
            # leading digit
            key = tuple(lead)
            ok = residues_ok.get(key)
            if ok is None:
                ok = residues_ok[key] = _residues_consistent(ctx, f)
            if not ok:
                problems.append(("residue data inconsistent for:", rows))
    return problems


def _row_slots(T: Template, depth: int) -> list[list[tuple[int, frozenset]]]:
    """The slots (i, k) of ``T`` with k <= depth, listed per row i as (k, allowed)."""
    row_slots: list[list[tuple[int, frozenset]]] = [[] for _ in range(T.n)]
    for (i, k), allowed in T.slots.items():
        if k <= depth:
            row_slots[i].append((k, allowed))
    return row_slots


def _row_meets(row: tuple, slots: list[tuple[int, frozenset]], zero) -> bool:
    """Whether the trimmed digit row has an allowed digit at every listed slot."""
    return all((row[k - 1] if 1 <= k <= len(row) else zero) in allowed for k, allowed in slots)


def _residues_consistent(ctx: BinomialContext, f: EisensteinData) -> bool:
    inv = unif_of(f)
    return is_valid_fine(ctx, inv.res.polygon).ok and is_valid_with_unif(ctx, inv).ok


def run_selftest(
    cases: tuple[tuple[int, int, int], ...] = DEFAULT_CASES, report=print
) -> bool:
    """Run all cases, print one line per case plus its first diffs; True iff all pass."""
    all_ok = True
    for p, n, bound in cases:
        ctx = BinomialContext(make_field(p, 1, 1, 1))
        problems = survey_case_problems(ctx, n, bound)
        status = "ok" if not problems else f"FAILED ({len(problems)} mismatches)"
        report(f"selftest p={p} n={n} depth={bound}: {status}")
        for problem in problems[:MAX_PROBLEM_LINES]:
            report(f"  {problem_line(problem)}")
        if len(problems) > MAX_PROBLEM_LINES:
            report(f"  ... and {len(problems) - MAX_PROBLEM_LINES} more")
        all_ok = all_ok and not problems
    return all_ok
