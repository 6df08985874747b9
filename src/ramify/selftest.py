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

All checks are exact; any discrepancy is reported as a diff line.
"""

from __future__ import annotations

from .analyzer import EisensteinData, brute_force_survey, residues_of
from .binomials import BinomialContext, vp
from .enumeration import Level, enumerate_invariants
from .polygons import FinePolygon, decompose
from .residue_field import make_field
from .templates import Template, template_for_fine
from .validity import ResidueForcedError, admissible_phi0, is_valid_fine

DEFAULT_CASES: tuple[tuple[int, int, int], ...] = ((2, 2, 3), (2, 4, 5), (3, 3, 3))


def matches_template(T: Template, f: EisensteinData, depth: int) -> bool:
    """Digit membership below ``depth`` (the template may extend deeper)."""
    for (i, k), allowed in T.slots.items():
        if k <= depth and f.digit(i, k) not in allowed:
            return False
    return True


def survey_case_problems(
    ctx: BinomialContext,
    n: int,
    bound: int,
    survey: dict[FinePolygon, list[EisensteinData]] | None = None,
) -> list[str]:
    """All mismatches for one case; empty means the case passes."""
    problems: list[str] = []
    if survey is None:
        survey = brute_force_survey(ctx, n, bound)
    enumerated, _ = enumerate_invariants(ctx, n, Level.FINE)
    surveyed_set = set(survey)
    enumerated_set = set(enumerated)
    for fine in sorted(surveyed_set - enumerated_set, key=lambda f: f.points):
        problems.append(f"surveyed but not enumerated: {fine.points}")
    for fine in sorted(enumerated_set - surveyed_set, key=lambda f: f.points):
        problems.append(f"enumerated but not surveyed: {fine.points}")

    e, p = ctx.base.e, ctx.base.p
    vn = e * vp(p, n)
    templates: dict[FinePolygon, Template] = {}
    residue_cache: dict[tuple, bool] = {}
    for fine, group in survey.items():
        if fine in enumerated_set:
            templates[fine] = template_for_fine(ctx, fine)
        J0 = fine.J0
        _, b0 = decompose(J0, n)
        if not min(n * e * vp(p, b0), n * vn) <= J0 <= n * vn:
            problems.append(f"Ore bound violated by leftmost ordinate {J0} of {fine.points}")
        T = templates.get(fine)
        for f in group:
            if T is not None and not matches_template(T, f, bound):
                problems.append(f"polynomial outside its template: {f.digits}")
            # residue data depends only on each coefficient's valuation and
            # leading digit
            key = (fine, f.leading())
            ok = residue_cache.get(key)
            if ok is None:
                ok = _residues_consistent(ctx, f)
                residue_cache[key] = ok
            if not ok:
                problems.append(f"residue data inconsistent for: {f.digits}")
    return problems


def _residues_consistent(ctx: BinomialContext, f: EisensteinData) -> bool:
    decorated = residues_of(f)
    if not is_valid_fine(ctx, decorated.polygon).ok:
        return False
    try:
        admissible = admissible_phi0(ctx, decorated)
    except ResidueForcedError:
        return False
    return f.digit(0, 1) in admissible


def run_selftest(
    cases: tuple[tuple[int, int, int], ...] = DEFAULT_CASES, report=print
) -> bool:
    """Run all cases, print one line per case plus any diffs; True iff all pass."""
    all_ok = True
    for p, n, bound in cases:
        ctx = BinomialContext(make_field(p, 1, 1, 1))
        problems = survey_case_problems(ctx, n, bound)
        status = "ok" if not problems else f"FAILED ({len(problems)} mismatches)"
        report(f"selftest p={p} n={n} depth={bound}: {status}")
        for line in problems:
            report(f"  {line}")
        all_ok = all_ok and not problems
    return all_ok
