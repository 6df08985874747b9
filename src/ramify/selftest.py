"""Exhaustive cross-checks of the enumerators against the brute-force survey.

Each case fixes a base field, a degree and a digit depth, covers every
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
each row's leading pair (F_i, phi_i).  So a survey box, one row range per
coefficient, is decided without building its tables: template membership
once per (coefficient, row index), and the residue check once per
combination of the leading pairs in its ranges, on one representative
table.  Only a group with a failing box is walked table by table, in order,
through the same verdicts, to list its faults.
"""

from __future__ import annotations

import itertools

from .analyzer import EisensteinData, SurveyGroup, brute_force_survey, leading_pair, unif_of
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
    survey: dict[FinePolygon, SurveyGroup] | None = None,
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
        rows = group.rows
        meets = None  # meets[i][k]: row k meets coefficient i's slots
        if fine in enumerated_set:
            row_slots = _row_slots(template_for_fine(ctx, fine), bound)
            meets = [[_row_meets(row, slots, zero) for row in rows] for slots in row_slots]
        # the first row of each leading pair stands for every row with that pair
        first: dict[tuple, int] = {}
        rep = [first.setdefault(leading_pair(row, zero), k) for k, row in enumerate(rows)]
        residues_ok: dict[tuple[int, ...], bool] = {}  # keyed by representative rows
        failing = False
        for box in group.boxes:
            if meets is not None and not all(all(m[r.start:r.stop]) for m, r in zip(meets, box)):
                failing = True
            for key in itertools.product(*[dict.fromkeys(rep[r.start:r.stop]) for r in box]):
                representative = EisensteinData(ctx.base, n, tuple(map(rows.__getitem__, key)))
                residues_ok[key] = _residues_consistent(ctx, representative)
                failing = failing or not residues_ok[key]
        if not failing:
            continue
        # a failing group reports table by table, in order, from the same verdicts
        for choice in group.indices():
            table = tuple(map(rows.__getitem__, choice))
            if meets is not None and not all(m[k] for m, k in zip(meets, choice)):
                problems.append(("polynomial outside its template:", table))
            if not residues_ok[tuple(map(rep.__getitem__, choice))]:
                problems.append(("residue data inconsistent for:", table))
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
