"""The survey oracle decides per group what the per-table check decides per table.

``survey_case_problems`` decides each survey group, the boxes (valuation
signatures) of one fine polygon, from the template slots per (coefficient,
leading valuation) and one residue check per choice of the units its
polygon plan reads, and walks only the failing groups.  The per-table check
it replaced is kept here as the reference: ``matches_template`` over every
slot, and the residue check keyed by ``(fine, leading(f))``.  Both must
give the same problem list, line for line, on the default cases and under
injected faults, including faults that fail one group or one combination.
"""

import hashlib
import itertools

import pytest

from ramify import cli, selftest
from ramify.analyzer import EisensteinData, brute_force_survey, residues_of, unif_of
from ramify.binomials import vp
from ramify.enumeration import Level, enumerate_invariants
from ramify.polygons import decompose, polygon_plan
from ramify.validity import ValidityReport, Violation, admissible_phi0, is_valid_fine
from reference import leading


def matches_template(T, f, depth):
    """Digit membership below ``depth`` (the template may extend deeper)."""
    for (i, k), allowed in T.slots.items():
        if k <= depth and f.digit(i, k) not in allowed:
            return False
    return True


def _reference_residues_consistent(ctx, f):
    # through the oracle's own name, so a fault injected there reaches both
    inv = unif_of(f)
    return is_valid_fine(ctx, inv.res.polygon).ok and selftest.is_valid_with_unif(ctx, inv).ok


def reference_problems(ctx, n, bound, survey):
    """The per-table check: every slot read per table, residues keyed by leading(f)."""
    problems = []
    enumerated, _ = enumerate_invariants(ctx, n, Level.FINE)
    surveyed_set = set(survey)
    enumerated_set = set(enumerated)
    for fine in sorted(surveyed_set - enumerated_set, key=lambda f: f.points):
        problems.append(f"surveyed but not enumerated: {fine.points}")
    for fine in sorted(enumerated_set - surveyed_set, key=lambda f: f.points):
        problems.append(f"enumerated but not surveyed: {fine.points}")
    e, p = ctx.base.e, ctx.base.p
    vn = e * vp(p, n)
    residue_cache = {}
    for fine, group in survey.items():
        T = selftest.template_for_fine(ctx, fine) if fine in enumerated_set else None
        J0 = fine.J0
        _, b0 = decompose(J0, n)
        if not min(n * e * vp(p, b0), n * vn) <= J0 <= n * vn:
            problems.append(f"Ore bound violated by leftmost ordinate {J0} of {fine.points}")
        for f in group:
            if T is not None and not matches_template(T, f, bound):
                problems.append(f"polynomial outside its template: {f.digits}")
            key = (fine, leading(f))
            ok = residue_cache.get(key)
            if ok is None:
                ok = residue_cache[key] = _reference_residues_consistent(ctx, f)
            if not ok:
                problems.append(f"residue data inconsistent for: {f.digits}")
    return problems


@pytest.fixture
def default_cases(ctx_q2, ctx_q3, survey_q2_n2, survey_q2_n4, survey_q3_n3):
    assert selftest.DEFAULT_CASES == ((2, 2, 3), (2, 4, 5), (3, 3, 3))
    return [
        (ctx_q2, 2, 3, survey_q2_n2),
        (ctx_q2, 4, 5, survey_q2_n4),
        (ctx_q3, 3, 3, survey_q3_n3),
    ]


def _narrow_one_slot(real, bound):
    """template_for_fine with one digit fewer at the first row whose slot at ``bound`` has two."""

    def narrowed(ctx, fine):
        T = real(ctx, fine)
        for i in range(T.n):
            allowed = T.slot(i, bound)
            if len(allowed) >= 2:
                return T.with_slots({(i, bound): allowed - {max(allowed)}})
        return T

    return narrowed


REFUSED = ValidityReport.from_violations([Violation.RESIDUE_SYSTEM])


def _refuse_one_phi0(real):
    """is_valid_with_unif refusing the largest admissible phi0 of each decoration."""

    def refused(ctx, inv):
        admissible = admissible_phi0(ctx, inv.res)
        return REFUSED if admissible and inv.phi0 == max(admissible) else real(ctx, inv)

    return refused


def test_oracle_matches_the_per_table_reference(default_cases):
    for ctx, n, bound, survey in default_cases:
        problems = selftest.survey_case_problems(ctx, n, bound, survey=survey)
        assert problems == reference_problems(ctx, n, bound, survey) == []


@pytest.fixture
def fault_cases(ctx_q2, ctx_q3, survey_q2_n2, survey_q3_n3):
    # a fault reports up to every table, and each line formats its table in
    # both checks, so degree 4 runs at depth 3 (2,048 tables), not 5
    return [
        (ctx_q2, 2, 3, survey_q2_n2),
        (ctx_q2, 4, 3, brute_force_survey(ctx_q2, 4, 3)),
        (ctx_q3, 3, 3, survey_q3_n3),
    ]


@pytest.mark.parametrize("fault", ["narrowed slot", "dropped phi0"])
def test_oracle_matches_the_reference_under_a_fault(fault_cases, monkeypatch, fault):
    if fault == "narrowed slot":
        kind = "polynomial outside its template"
    else:
        kind = "residue data inconsistent"
    for ctx, n, bound, survey in fault_cases:
        with monkeypatch.context() as patch:
            if fault == "narrowed slot":
                patch.setattr(
                    selftest, "template_for_fine",
                    _narrow_one_slot(selftest.template_for_fine, bound),
                )
            else:
                patch.setattr(
                    selftest, "is_valid_with_unif", _refuse_one_phi0(selftest.is_valid_with_unif)
                )
            problems = selftest.survey_case_problems(ctx, n, bound, survey=survey)
            expected = reference_problems(ctx, n, bound, survey)
        lines = [selftest.problem_line(problem) for problem in problems]
        assert any(line.startswith(kind) for line in lines), (n, bound)
        assert lines == expected, (n, bound)


def _kinds_and_tables(lines):
    return {tuple(line.split(": ", 1)) for line in lines}


def test_oracle_walks_only_the_group_whose_template_fails(ctx_q2, monkeypatch):
    # one polygon's template loses a digit, so its boxes fail and the other
    # groups pass box by box without a walk
    survey = brute_force_survey(ctx_q2, 4, 3)
    real = selftest.template_for_fine
    narrow = _narrow_one_slot(real, 3)
    target = [fine for fine in survey if narrow(ctx_q2, fine).slots != real(ctx_q2, fine).slots][-1]
    monkeypatch.setattr(
        selftest, "template_for_fine",
        lambda ctx, fine: narrow(ctx, fine) if fine == target else real(ctx, fine),
    )
    problems = selftest.survey_case_problems(ctx_q2, 4, 3, survey=survey)
    lines = [selftest.problem_line(problem) for problem in problems]
    assert lines == reference_problems(ctx_q2, 4, 3, survey)
    inside = {("polynomial outside its template", str(f.digits)) for f in survey[target]}
    assert lines and _kinds_and_tables(lines) <= inside
    assert len(lines) < len(survey[target]) and len(survey) > 1


def test_oracle_walks_only_the_tables_whose_residue_combination_fails(
    ctx_q3, survey_q3_n3, monkeypatch
):
    # the phi0 of one table is dropped for that table's residues alone: other
    # leading-digit combinations in the same boxes, and every other group, pass
    group = max(survey_q3_n3.values(), key=len)
    f = next(itertools.islice(group, len(group) // 2, None))
    target, dropped = residues_of(f), f.digit(0, 1)
    real = selftest.is_valid_with_unif
    monkeypatch.setattr(
        selftest, "is_valid_with_unif",
        lambda ctx, inv: REFUSED if (inv.res, inv.phi0) == (target, dropped) else real(ctx, inv),
    )
    problems = selftest.survey_case_problems(ctx_q3, 3, 3, survey=survey_q3_n3)
    lines = [selftest.problem_line(problem) for problem in problems]
    assert lines == reference_problems(ctx_q3, 3, 3, survey_q3_n3)
    failing = {
        ("residue data inconsistent for", str(g.digits))
        for g in group if residues_of(g) == target and g.digit(0, 1) == dropped
    }
    assert ("residue data inconsistent for", str(f.digits)) in failing
    assert _kinds_and_tables(lines) == failing and len(lines) == len(failing) < len(group)


def _read(base, n, fine):
    """The coefficients whose units the residues read: 0 and each plan step's b < n."""
    return {0} | {b for _, _, b, *_ in polygon_plan(base, n, fine.points)[1] if b < n}


def _boxes_agree_at_minimizers(base, n, fine, boxes):
    """Every box has the same F_b, not None, at each plan step's b < n."""
    read = _read(base, n, fine)
    values = {tuple(box[b] for b in read) for box in boxes}
    return len(values) == 1 and None not in next(iter(values))


@pytest.mark.parametrize("case", [(2, 2, 3), (2, 4, 5), (3, 3, 3), (2, 8, 3), (3, 7, 2)])
def test_the_boxes_of_a_group_agree_at_its_minimizers(ctx_q2, ctx_q3, case):
    # n*(B(b, j) + F_b - 1) + b = R_j fixes F_b, so the first box's units stand
    # for the group's; a box of another polygon that differs there breaks this
    p, n, bound = case
    ctx = ctx_q2 if p == 2 else ctx_q3
    survey = brute_force_survey(ctx, n, bound)
    for fine, group in survey.items():
        assert _boxes_agree_at_minimizers(ctx.base, n, fine, group.boxes), fine.points
    # 3:7:2 is tame, one polygon
    assert len(survey) == 1 or any(
        not _boxes_agree_at_minimizers(ctx.base, n, fine, [group.boxes[0], other.boxes[0]])
        for fine, group in survey.items() for other in survey.values()
    )


def test_oracle_refuses_a_group_that_mixes_boxes(ctx_q2):
    # a box of another polygon, put in a group, fails the minimizer check
    survey = brute_force_survey(ctx_q2, 4, 3)
    group, box = next(
        (group, other.boxes[0]) for fine, group in survey.items() for other in survey.values()
        if not _boxes_agree_at_minimizers(ctx_q2.base, 4, fine, [group.boxes[0], other.boxes[0]])
    )
    group.boxes.append(box)
    with pytest.raises(AssertionError, match="minimizer"):
        selftest.survey_case_problems(ctx_q2, 4, 3, survey=survey)


@pytest.mark.parametrize("case, invariants", [((3, 3, 3), 10), ((2, 4, 3), 8)])
def test_residue_verdicts_are_decided_once_per_invariant(
    ctx_q2, ctx_q3, monkeypatch, case, invariants
):
    # one residue check per distinct InvariantWithUnif over the survey, not
    # per box or leading-digit combination: a group decorates once per choice
    # of the units its plan reads, (q-1)^|read|, and a passing survey walks
    # no table, so unif_of never runs
    p, n, bound = case
    ctx = ctx_q2 if p == 2 else ctx_q3
    survey = brute_force_survey(ctx, n, bound)
    distinct = {unif_of(f) for group in survey.values() for f in group}
    calls, decorations, analyses = [], [], []
    real, real_decorate = selftest.is_valid_with_unif, selftest.decorate
    monkeypatch.setattr(
        selftest, "is_valid_with_unif", lambda ctx, inv: calls.append(inv) or real(ctx, inv)
    )
    monkeypatch.setattr(
        selftest, "decorate",
        lambda *args: decorations.append(args) or real_decorate(*args),
    )
    monkeypatch.setattr(selftest, "unif_of", lambda f: analyses.append(f) or unif_of(f))
    assert selftest.survey_case_problems(ctx, n, bound, survey=survey) == []
    assert len(calls) == len(distinct) == invariants and set(calls) == distinct
    reads = [_read(ctx.base, n, fine) for fine in survey]
    assert len(decorations) == sum((p - 1) ** len(read) for read in reads) == invariants
    assert analyses == []


def test_selftest_prints_at_most_twenty_problem_lines_per_case(ctx_q2, monkeypatch, capsys):
    # refusing the only Q_2 phi0 fails the residue check of every table, and
    # only the printed lines are formatted
    total = sum(map(len, brute_force_survey(ctx_q2, 4, 3).values()))
    monkeypatch.setattr(
        selftest, "is_valid_with_unif", _refuse_one_phi0(selftest.is_valid_with_unif)
    )
    formatted = []
    real_line = selftest.problem_line
    monkeypatch.setattr(
        selftest, "problem_line", lambda problem: formatted.append(problem) or real_line(problem)
    )
    assert cli.main(["selftest", "--case", "2:4:3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert total == 2048 and int(lines[-1].split()[2]) == total - selftest.MAX_PROBLEM_LINES
    assert len(formatted) == selftest.MAX_PROBLEM_LINES
    assert lines[0] == f"selftest p=2 n=4 depth=3: FAILED ({total} mismatches)"
    assert len(lines) == 1 + selftest.MAX_PROBLEM_LINES + 1
    assert all(line.startswith("  residue data inconsistent") for line in lines[1:-1])
    assert lines[-1] == f"  ... and {total - selftest.MAX_PROBLEM_LINES} more"


def test_tables_keep_a_trimmed_tuple_row_as_the_same_object(ctx_q2):
    fq = ctx_q2.base.fq
    zero, one = fq.zero, fq.one
    row0, row1, empty = (one,), (zero, one), ()
    f = EisensteinData(ctx_q2.base, 3, (row0, row1, empty))
    assert all(kept is given for kept, given in zip(f.digits, (row0, row1, empty)))
    # a tuple with trailing zeros and a list row are still trimmed
    g = EisensteinData(ctx_q2.base, 3, ((one, zero), [zero, one, zero], (zero, zero)))
    assert g.digits == ((one,), (zero, one), ())
    assert all(type(row) is tuple for row in g.digits)
    assert f == g and hash(f) == hash(g)


def test_survey_tables_share_their_rows(ctx_q2, survey_q2_n4):
    # a group makes its rows while it iterates, each once, and every table of
    # one iteration shares them; the dict keeps each row alive, so no id is reused
    for group in survey_q2_n4.values():
        rows = {id(row): row for f in group for row in f.digits}
        assert len(rows) == len(set(rows.values())) <= 2**5


# sha256 of every group, in order, as (fine points, digit indices per table),
# taken from the survey that looked each table's polygon up by FinePolygon
SURVEY_DIGESTS = {
    (2, 2, 3): "9730405a3dec2abaa635559ef56f8248129a555e54d8d56413638588cdd08596",
    (3, 3, 3): "9f7fcd7728e416fe9089cf5b45ee7149dcf2d30711c76158b15fa7f5ce947494",
    (2, 4, 3): "25209792cef1eb4fe7a0bc22c0103f13ae5c7a28f87e49394094153d55692737",
}


@pytest.mark.parametrize("case", sorted(SURVEY_DIGESTS))
def test_survey_keeps_its_groups_and_their_order(ctx_q2, ctx_q3, case):
    p, n, bound = case
    survey = brute_force_survey(ctx_q2 if p == 2 else ctx_q3, n, bound)
    doc = repr([
        (fine.points, [[[d.index for d in row] for row in f.digits] for f in group])
        for fine, group in survey.items()
    ])
    assert hashlib.sha256(doc.encode()).hexdigest() == SURVEY_DIGESTS[case]
