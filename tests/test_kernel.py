"""The closed-form validity kernel against the reference engine, check by check.

``validity`` decides a pair of points and a piece (a point at an absent
exponent s) in closed form; ``reference.condition_violations`` runs every
condition over a depth-bound function.  Every pair of points (s, J) with
J <= cap = n * v(n), the only ordinates the memo keeps, is compared, each point
alone too.  A piece reads the polygon's value y = N / D at p^s only through
ceil((y - i) / n) and floor((y - i) / n) for i = n and i = b, the point's
coefficient; these change only where y - i is a multiple of n.  So the pieces
compared, for every point t and every exponent s other than its own, take y at
each such step in [0, cap] and at one value strictly between each two
consecutive ones, in both forms: every answer a piece can give over [0, cap].
The hull search's column check, the candidates J at an exponent S whose pair
with a point t passes, is compared over every J <= cap at once, for every t and
every S other than its exponent.
"""

import pytest

from ramify import validity
from ramify.binomials import BinomialContext, vp
from ramify.polygons import decompose
from ramify.residue_field import make_field
from reference import piece_violations, weak_violations

# (field spec (p, f, e, gamma), degree)
KERNEL_CASES = [
    ((2, 1, 1, 1), 8),
    ((2, 1, 1, 1), 16),
    ((2, 1, 1, 1), 32),
    ((3, 1, 1, 1), 9),
    ((3, 1, 1, 1), 27),
    ((2, 2, 1, "g"), 8),
    ((3, 2, 1, "g"), 9),
    ((2, 1, 2, 1), 8),
]

KERNEL_IDS = [f"p{p}-f{f}-e{e}-n{n}" for (p, f, e, _), n in KERNEL_CASES]


def _points(ctx, n):
    p = ctx.base.p
    m = vp(p, n)
    cap = n * ctx.base.e * m
    return m, cap, [(s, p**s, J) for s in range(m + 1) for J in range(cap + 1)]


@pytest.mark.parametrize("spec, n", KERNEL_CASES, ids=KERNEL_IDS)
def test_every_pair_below_the_cap_is_the_engine_verdict(spec, n):
    ctx = BinomialContext(make_field(*spec))
    _, _, points = _points(ctx, n)
    tally = {True: 0, False: 0}
    for i, t in enumerate(points):
        for v in points[i:]:
            if v is t or v[0] != t[0]:
                found = validity._pair(ctx, n, t, v)
                assert set(found) == set(weak_violations(ctx, n, [t, v])), (t, v)
                assert found == validity._pair(ctx, n, v, t), (t, v)
                tally[not found] += 1
    assert tally[True] and tally[False]


def _values(b, n, cap):
    """(N, D) at each y in [0, cap] where y - n or y - b is a multiple of n, and
    midway between each two consecutive ones."""
    steps = sorted({0, cap} | {y for y in range(cap + 1) if y % n in (0, b % n)})
    return [(y, 1) for y in steps] + [(y + z, 2) for y, z in zip(steps, steps[1:])]


@pytest.mark.parametrize("spec, n", KERNEL_CASES, ids=KERNEL_IDS)
def test_every_piece_below_the_cap_is_the_engine_verdict(spec, n):
    ctx = BinomialContext(make_field(*spec))
    m, cap, points = _points(ctx, n)
    seen = set()
    for t in points:
        values = _values(decompose(t[2], n)[1], n, cap)
        for s in range(m + 1):
            if s == t[0]:
                continue
            for N, D in values:
                for strict in (False, True):
                    found = validity._piece(ctx, n, t, s, N, D, strict)
                    reference = piece_violations(ctx, n, t, s, N, D, strict)
                    assert set(found) == set(reference), (t, s, N, D, strict)
                    seen.update(found)
    # every condition a piece checks is met failing
    assert {validity.Violation.ORE2, validity.Violation.BOUNDING} <= seen


@pytest.mark.parametrize("spec, n", KERNEL_CASES, ids=KERNEL_IDS)
def test_every_column_below_the_cap_is_the_engine_verdict(spec, n):
    ctx = BinomialContext(make_field(*spec))
    _, cap, points = _points(ctx, n)
    # the engine's column of t at S: bit J set when {t, (S, p^S, J)} passes;
    # each unordered pair is run once and sets its bit in both columns
    columns = {}
    for i, t in enumerate(points):
        for v in points[i:]:
            if v[0] != t[0]:
                ok = not weak_violations(ctx, n, [t, v])
                columns[t, v[0]] = columns.get((t, v[0]), 0) | ok << v[2]
                columns[v, t[0]] = columns.get((v, t[0]), 0) | ok << t[2]
    # every ordinate <= cap, one above it (never set), and every other one
    every, alternate = (4 << cap) - 1, sum(1 << J for J in range(0, cap + 2, 2))
    tally = {True: 0, False: 0}
    for (t, S), expected in columns.items():
        assert validity.passing_column(ctx, n, t, S, every) == expected, (t, S)
        assert validity.passing_column(ctx, n, t, S, alternate) == expected & alternate, (t, S)
        passed = bin(expected).count("1")
        tally[True] += passed
        tally[False] += cap + 1 - passed
    assert tally[True] and tally[False]
