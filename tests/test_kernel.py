"""The closed-form validity kernel against the reference engine, check by check.

``validity`` decides every check in closed form over one integer per p-power,
a point's own ordinate J or, at an absent p-power, the least ordinate there;
``reference.condition_violations`` runs every condition over the rational
depth bound.  Every pair of points (s, J) with J <= cap = n * v(n), the Ore
bound, and a band of n ordinates above it is compared, each point alone too.
A piece (a point t at an absent exponent s) reads the segment's value y at
p^s only through ceil((y - i) / n) and floor((y - i) / n) for i = n and i = b,
the point's coefficient; these change only where y - i is a multiple of n.
So for every point t, every exponent s other than its own that can be
absent, and each value y at such a step in [0, cap] and strictly between two
consecutive ones, in both forms, points through t are placed with s absent
and the least ordinate of y there (``_configuration``), and the kernel's
full report on them is compared with the reference's pairs and pieces.  The
searches' column check, the candidates J at an exponent S whose pair with a
point t passes, is compared over every J <= cap at once, for every t that
passes alone and every S other than its exponent; the searches ask for no
other t.
"""

import pytest

from ramify import validity
from ramify.binomials import BinomialContext, vp
from ramify.enumeration import enumerate_fine_polygons, enumerate_ram_polygons
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


def _points(ctx, n, band=0):
    """(v_p(n), cap, every point (s, p^s, J) with J <= cap + band)."""
    p = ctx.base.p
    m = vp(p, n)
    cap = n * ctx.base.e * m
    return m, cap, [(s, p**s, J) for s in range(m + 1) for J in range(cap + band + 1)]


@pytest.mark.parametrize("spec, n", KERNEL_CASES, ids=KERNEL_IDS)
def test_every_pair_below_the_cap_is_the_engine_verdict(spec, n):
    ctx = BinomialContext(make_field(*spec))
    _, cap, points = _points(ctx, n, band=n)
    tally = {True: 0, False: 0, "above": 0}
    for i, t in enumerate(points):
        for v in points[i:]:
            if v is t or v[0] != t[0]:
                pair = [t] if v is t else [t, v]
                found = validity.violations(ctx, n, pair, every=True)
                assert set(found) == set(weak_violations(ctx, n, pair)), (t, v)
                assert found == validity.violations(ctx, n, pair[::-1], every=True), (t, v)
                tally[not found] += 1
                tally["above"] += max(t[2], v[2]) > cap
    assert tally[True] and tally[False] and tally["above"]


def _values(b, n, cap):
    """(N, D) at each y in [0, cap] where y - n or y - b is a multiple of n, and
    midway between each two consecutive ones."""
    steps = sorted({0, cap} | {y for y in range(cap + 1) if y % n in (0, b % n)})
    return [(y, 1) for y in steps] + [(y + z, 2) for y, z in zip(steps, steps[1:])]


def _least(N, D, strict):
    return N // D + 1 if strict else -(-N // D)


def _configuration(p, t, s, L, strict):
    """Sorted points through t with s absent, whose value at p^s has the least ordinate L.

    Where t's exponent leaves room, two points at s - 1 and s + 1 of one
    ordinate (L, or L - 1 when strict) bracket s; else s lies on a segment
    from t to a partner given the least ordinate that reaches L.  None when no
    such point exists: a value at p^s below every segment from t there.
    """
    s_t, x_t, J_t = t
    if s_t not in (s - 1, s + 1):
        J = L - strict
        points = [t, (s - 1, p ** (s - 1), J), (s + 1, p ** (s + 1), J)]
        return sorted(points) if J >= 0 else None
    x, s_w = p**s, 2 * s - s_t
    x_w = p**s_w
    # the value at x is (A + J k) / D for the partner's ordinate J, 0 < k < D
    A, k, D = J_t * abs(x_w - x), abs(x - x_t), abs(x_w - x_t)
    # the least J whose value has least ordinate >= L: a value over L - 1, or from it on when strict
    J = max(0, -((A - (L - 1) * D) // k) if strict else ((L - 1) * D - A) // k + 1)
    if _least(A + J * k, D, strict) != L:
        return None
    return sorted([t, (s_w, x_w, J)])


@pytest.mark.parametrize("spec, n", KERNEL_CASES, ids=KERNEL_IDS)
def test_every_piece_below_the_cap_is_the_engine_verdict(spec, n):
    ctx = BinomialContext(make_field(*spec))
    p = ctx.base.p
    m, cap, points = _points(ctx, n)
    seen, checked, missed = set(), set(), 0
    for t in points:
        values = _values(decompose(t[2], n)[1], n, cap)
        # an absent exponent lies strictly between two present ones
        for s in range(1, m):
            if s == t[0]:
                continue
            for strict in (False, True):
                for L in sorted({_least(N, D, strict) for N, D in values}):
                    positions = _configuration(p, t, s, L, strict)
                    if positions is None:
                        missed += 1
                        continue
                    if (tuple(positions), strict) in checked:
                        continue
                    checked.add((tuple(positions), strict))
                    found = validity.violations(ctx, n, positions, kind=1 + strict, every=True)
                    reference = set(weak_violations(ctx, n, positions))
                    for (s_u, x_u, J_u), (s_w, x_w, J_w) in zip(positions, positions[1:]):
                        for r in range(s_u + 1, s_w):
                            x = p**r
                            N, D = J_u * (x_w - x) + J_w * (x - x_u), x_w - x_u
                            for q in positions:
                                reference.update(piece_violations(ctx, n, q, r, N, D, strict))
                    assert set(found) == reference, (positions, strict)
                    seen.update(found)
    # every condition a piece checks is met failing; left out are only the
    # values no polygon through t takes at p^s
    assert {validity.Violation.ORE2, validity.Violation.BOUNDING} <= seen
    assert checked and missed < len(checked)


@pytest.mark.parametrize("spec, n", KERNEL_CASES, ids=KERNEL_IDS)
def test_every_column_below_the_cap_is_the_engine_verdict(monkeypatch, spec, n):
    ctx = BinomialContext(make_field(*spec))
    _, cap, points = _points(ctx, n)
    # a column is asked for only of a point t that passes alone: the engine's
    # column of t at S has bit J set when {t, (S, p^S, J)} passes; each
    # unordered pair is run once and sets its bit in the columns of the points
    # that pass alone
    alone = {t for t in points if not weak_violations(ctx, n, [t])}
    columns = {}
    for i, t in enumerate(points):
        for v in points[i:]:
            if v[0] != t[0]:
                ok = not weak_violations(ctx, n, [t, v])
                if t in alone:
                    columns[t, v[0]] = columns.get((t, v[0]), 0) | ok << v[2]
                if v in alone:
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
    # and neither search asks for the column of any other point
    real, asked = validity.passing_column, []

    def checked(ctx_, n_, t, S, mask):
        assert not weak_violations(ctx_, n_, [t]), t
        asked.append(S != t[0])
        return real(ctx_, n_, t, S, mask)

    monkeypatch.setattr(validity, "passing_column", checked)
    for P in enumerate_ram_polygons(ctx, n)[0]:
        enumerate_fine_polygons(ctx, P)
    assert asked and all(asked)
