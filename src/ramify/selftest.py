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

The checks are decided per survey group, the boxes (valuation signatures)
of one fine polygon, without building a table.  Every row of leading
valuation F has zero digits below F, a unit at F and any digit above it, so
whether all of them meet coefficient i's template slots reads off the slots
alone, once per (coefficient, leading valuation).  The residues read phi_0
and, per point (j, R_j), the leading digit phi_b of its minimizer b, whose
valuation n*(B(b, j) + F_b - 1) + b = R_j fixes: every box of the group has
the same F_b there.  So ``analyzer.decorate`` gives each choice of those
units its invariant from the group's polygon plan, once, and each is
checked.  Only a failing group is walked table by table, in order, each
table getting its invariant through ``unif_of``, to list its faults.
"""

from __future__ import annotations

import itertools

from .analyzer import SurveyGroup, brute_force_survey, decorate, unif_of
from .binomials import BinomialContext, vp
from .enumeration import Level, enumerate_invariants
from .polygons import FinePolygon, InvariantWithUnif, decompose, polygon_plan
from .residue_field import make_field
from .templates import template_for_fine
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

    base, fq = ctx.base, ctx.base.fq
    e, p = base.e, base.p
    vn = e * vp(p, n)
    zero, units, every = frozenset([fq.zero]), frozenset(fq.units()), frozenset(fq.elements())

    def digits_at(F, k):
        """The digits at depth k of the rows of leading valuation F."""
        return zero if F is None or F > k else units if F == k else every

    valuations = (None, *range(1, bound + 1))
    for fine, group in survey.items():
        J0 = fine.J0
        _, b0 = decompose(J0, n)
        if not min(n * e * vp(p, b0), n * vn) <= J0 <= n * vn:
            problems.append((f"Ore bound violated by leftmost ordinate {J0} of", fine.points))
        slots = []  # (i, k, allowed) with k <= bound
        if fine in enumerated_set:
            T = template_for_fine(ctx, fine)
            slots = [(i, k, allowed) for (i, k), allowed in T.slots.items() if k <= bound]
        # per coefficient i, the F for which some row of leading valuation F misses a slot of i
        outside: dict[int, set] = {}
        for i, k, allowed in slots:
            for F in valuations:
                if not digits_at(F, k) <= allowed:
                    outside.setdefault(i, set()).add(F)
        fits = not any(box[i] in Fs for box in group.boxes for i, Fs in outside.items())
        steps = polygon_plan(base, n, fine.points)[1]
        # the residues read phi_0 and each point's minimizer phi_b, whose F_b the plan fixes
        read = sorted({0, *(b for _, _, b, *_ in steps if b < n)})
        first = group.boxes[0]
        if any(box[b] != first[b] for box in group.boxes for b in read):
            raise AssertionError(f"the boxes of {fine.points} differ at a minimizer")

        def unif_ok(phis: tuple) -> bool:
            lead = {b: (first[b], phi) for b, phi in zip(read, phis)}
            lead[n] = (0, fq.one)
            inv = InvariantWithUnif(decorate(fine, steps, lead), phis[0])
            return is_valid_with_unif(ctx, inv).ok

        fine_ok = is_valid_fine(ctx, fine).ok
        if fits and fine_ok and all(map(unif_ok, itertools.product(fq.units(), repeat=len(read)))):
            continue
        # a failing group reports table by table, in order
        for f in group:
            if not all(f.digit(i, k) in allowed for i, k, allowed in slots):
                problems.append(("polynomial outside its template:", f.digits))
            if not (fine_ok and is_valid_with_unif(ctx, unif_of(f)).ok):
                problems.append(("residue data inconsistent for:", f.digits))
    return problems


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
