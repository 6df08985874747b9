"""The searches' leaf verdicts against the full validity checks.

The hull search decides a leaf with ``valid_ram_ok`` (memoised pairs and
absent-exponent pieces) and the fine search with ``fine_ore_violations``
alone, its forced points satisfying the tame biconditional by construction;
``is_valid_ram`` and ``is_valid_fine`` take their own routes and are the
reference, and the fine comparison asserts that the reference finds no tame
violation.  The search tests wrap the verdict
function the enumerator looks up, so every leaf the search reaches is
compared, with the search's own verdict dict.

The fine leaf is compared by violation kinds, not by verdict alone: on
every hull tried, the ceil bound at an unattained lattice point gives the
same verdict as the strict-exclusion bound, but it misses some of the
violations, such as Ore2 at that point.
"""

import itertools

import pytest

from ramify import validity
from ramify.binomials import BinomialContext, vp, vp_binomial
from ramify.enumeration import (
    enumerate_fine_polygons,
    enumerate_invariants,
    enumerate_ram_polygons,
    enumerate_unif_classes,
)
from ramify.polygons import FinePolygon, InvariantWithUnif, RamPolygon, tame_zeros
from ramify.residue_field import is_prime, make_field
from ramify.validity import (
    Violation,
    admissible_phi0,
    equivalent_with_unif,
    is_valid_fine,
    is_valid_ram,
)

# (p, f, e, gamma spec, degrees)
LEAF_CASES = [
    (2, 1, 1, 1, (2, 4, 6, 8, 10, 12, 14, 16)),
    (3, 1, 1, 1, (9,)),
    (2, 1, 2, 1, (8,)),
    (2, 2, 1, "g", (8,)),
]

CASE_IDS = [f"p{p}-f{f}-e{e}" for p, f, e, _, _ in LEAF_CASES]


def _hull_of(p, n, positions):
    vertices = [(x, J) for _, x, J in positions]
    if vertices[-1][0] != n:
        vertices.append((n, 0))
    return RamPolygon(p, n, tuple(vertices))


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("p, f, e, gamma, degrees", LEAF_CASES, ids=CASE_IDS)
def test_hull_leaf_verdict_is_full_validity(monkeypatch, p, f, e, gamma, degrees, prune):
    ctx = BinomialContext(make_field(p, f, e, gamma))
    real = validity.valid_ram_ok
    tally = {True: 0, False: 0}

    def checked(ctx_, n, positions, verdicts, new=None):
        ok = real(ctx_, n, positions, verdicts, new)
        assert ok == is_valid_ram(ctx_, _hull_of(p, n, positions)).ok, positions
        tally[ok] += 1
        return ok

    monkeypatch.setattr(validity, "valid_ram_ok", checked)
    for n in degrees:
        enumerate_ram_polygons(ctx, n, prune=prune)
    # the leaves both pass and fail, so neither side of the check is idle
    assert tally[True] and tally[False]


def _forced_tame(p, n):
    return {j: 0 for j in range(p ** vp(p, n), n + 1) if vp_binomial(p, n, j) == 0}


def _fine_polygon(p, n, positions):
    points = _forced_tame(p, n) | {x: J for _, x, J in positions}
    return FinePolygon(p, n, tuple(points.items()))


def _fine_reference(ctx, p, n, positions) -> set:
    # every polygon here has its forced tame points, so the reference's
    # violations are all Ore-family ones
    violations = set(is_valid_fine(ctx, _fine_polygon(p, n, positions)).violations)
    assert Violation.TAME not in violations
    return violations


@pytest.mark.parametrize("p, f, e, gamma, degrees", LEAF_CASES, ids=CASE_IDS)
def test_fine_search_leaf_verdict_is_full_validity(monkeypatch, p, f, e, gamma, degrees):
    # unpruned, the fine search reaches every subset of every hull's candidates
    ctx = BinomialContext(make_field(p, f, e, gamma))
    real = validity.fine_ore_violations
    leaves = 0

    def checked(ctx_, n, positions, values):
        nonlocal leaves
        violations = real(ctx_, n, positions, values)
        assert set(violations) == _fine_reference(ctx_, p, n, positions), positions
        leaves += 1
        return violations

    for n in degrees:
        hulls, _ = enumerate_ram_polygons(ctx, n)
        with monkeypatch.context() as patch:
            patch.setattr(validity, "fine_ore_violations", checked)
            for P in hulls:
                enumerate_fine_polygons(ctx, P, prune=False)
    assert leaves


def _every_hull(monkeypatch, ctx, n):
    """The wild vertices of every polygon the unpruned hull search reaches."""
    hulls = []
    real = validity.valid_ram_ok

    def record(ctx_, n_, positions, verdicts, new=None):
        hulls.append(list(positions))
        return real(ctx_, n_, positions, verdicts, new)

    with monkeypatch.context() as patch:
        patch.setattr(validity, "valid_ram_ok", record)
        enumerate_ram_polygons(ctx, n, prune=False)
    return hulls


@pytest.mark.parametrize(
    "p, f, e, gamma, n",
    [
        (2, 1, 1, 1, 4),
        (2, 1, 1, 1, 8),
        (2, 1, 1, 1, 12),
        (3, 1, 1, 1, 9),
        (2, 1, 2, 1, 8),
        (2, 2, 1, "g", 8),
    ],
)
def test_fine_leaf_verdict_on_every_subset_of_every_hull(monkeypatch, p, f, e, gamma, n):
    # valid hulls or not: every lattice point of the hull at a non-vertex
    # p-power may be attained or excluded, and the verdict must match
    ctx = BinomialContext(make_field(p, f, e, gamma))
    m = vp(p, n)
    tally = {True: 0, False: 0}
    for wild in _every_hull(monkeypatch, ctx, n):
        values = _hull_of(p, n, wild).p_power_values()
        present = {s for s, _, _ in wild}
        candidates = [
            (s, p**s, values[s][0] // values[s][1])
            for s in range(1, m)
            if s not in present and values[s][0] % values[s][1] == 0
        ]
        for r in range(len(candidates) + 1):
            for chosen in itertools.combinations(candidates, r):
                positions = sorted(wild + list(chosen))
                violations = validity.fine_ore_violations(ctx, n, positions, values)
                assert set(violations) == _fine_reference(ctx, p, n, positions), positions
                tally[not violations] += 1
    assert tally[True] and tally[False]


def test_hull_leaf_pieces_are_keyed_by_segment(ctx_q2):
    # one dict, two weakly valid leaves with (2, *) absent inside different
    # segments: the piece of vertex (4, 4) at s = 1 passes on the first
    # segment and fails on the second, the second leaf's only failure
    verdicts = {}
    valid = [(0, 1, 9), (2, 4, 4), (3, 8, 0)]
    invalid = [(0, 1, 17), (2, 4, 4), (3, 8, 0)]
    assert is_valid_ram(ctx_q2, _hull_of(2, 8, valid)).ok
    assert not is_valid_ram(ctx_q2, _hull_of(2, 8, invalid)).ok
    assert validity.valid_ram_ok(ctx_q2, 8, valid, verdicts)
    assert not validity.valid_ram_ok(ctx_q2, 8, invalid, verdicts)


def test_tame_ok_reads_the_horizontal_face(ctx_q2):
    # degree 6: binomial(6, j) is odd exactly for j in {2, 4, 6}
    assert validity.tame_ok(ctx_q2, 6, {1: 6, 2: 0, 4: 0, 6: 0})
    assert not validity.tame_ok(ctx_q2, 6, {1: 6, 2: 0, 6: 0})
    assert not validity.tame_ok(ctx_q2, 6, {1: 6, 2: 0, 3: 0, 4: 0, 6: 0})
    # the one tame rule against the per-j loop, p^(v_p(n)) and n included
    assert tame_zeros(2, 6) == [2, 4, 6]
    for p in (2, 3, 5, 7):
        for n in range(1, 100):
            assert tame_zeros(p, n) == sorted(_forced_tame(p, n)), (p, n)
    for n in range(1, 100):
        assert validity.tame_ok(ctx_q2, n, _forced_tame(2, n)), n


# ---------------------------------------------------------------------------
# uniformizer classes in one pass


def _pairwise_classes(ctx, Pres):
    """The classes by the public pairwise check, first admissible phi0 kept."""
    reps = []
    for phi0 in sorted(admissible_phi0(ctx, Pres)):
        cand = InvariantWithUnif(Pres, phi0)
        if not any(equivalent_with_unif(ctx, rep, cand) for rep in reps):
            reps.append(cand)
    return reps


def _small_fields():
    for p in range(2, 257):
        if is_prime(p):
            f = 1
            while p**f <= 256:
                yield p, f
                f += 1


def test_unif_classes_match_pairwise_scan_on_every_small_field():
    seen_gcds = set()
    for p, f in _small_fields():
        ctx = BinomialContext(make_field(p, f, 1, "g" if f > 1 else 1))
        # tame degrees give g = 0 and every unit admissible; the wild ones,
        # kept to where the pairwise scan is quick, give g > 0
        tame = tuple(d for d in (2, 3, 4) if d % p)
        wild = (p, p * p) if p**f <= 9 else (p,) if p <= 13 else ()
        for n in wild + tame:
            for Pres in enumerate_invariants(ctx, n, "res")[0]:
                got, stats = enumerate_unif_classes(ctx, Pres)
                assert got == _pairwise_classes(ctx, Pres), (p, f, n)
                assert stats.results == len(got)
                seen_gcds.add(validity.invariant_gcd(Pres) > 0)
    # both the all-horizontal (g = 0) and the sloped case were met
    assert seen_gcds == {True, False}
