"""The searches' leaf verdicts and the reports against test-side engine routes.

The hull search decides a leaf with ``violations`` of kind 1 (the hull's
least ordinate, ceil(V), at each absent p-power) and the fine search with
kind 2 (the fine form, floor(V) + 1), its forced points satisfying the tame
biconditional by construction.  ``is_valid_ram`` and ``is_valid_fine`` report
from the same checks, so the hull reference here is the engine on the hull's
values at every p-power (``reference.hull_violations``), and the fine
reference is ``fine_ore_violations``, with ``tame_ok`` asserted to hold.  The
search tests wrap the function the enumerator looks up, so every leaf the
search reaches is compared, on the search's own context.

``fine_ore_violations``, the fine leaf's former one engine call over every
exponent, is kept here as the reference and compared by violation kinds, not
by verdict alone: on every hull tried, the ceil bound at an unattained
lattice point gives the same verdict as the strict-exclusion bound, but it
misses some of the violations, such as Ore2 at that point.
"""

import itertools

import pytest

from ramify import validity
from ramify.binomials import BinomialContext, valuation_table, vp, vp_binomial
from ramify.enumeration import (
    enumerate_fine_polygons,
    enumerate_invariants,
    enumerate_ram_polygons,
    enumerate_unif_classes,
)
from ramify.polygons import (
    FinePolygon,
    InvariantWithUnif,
    RamPolygon,
    tame_zeros,
)
from ramify.residue_field import is_prime, make_field
from ramify.validity import (
    Violation,
    admissible_phi0,
    equivalent_with_unif,
    is_valid_fine,
    is_valid_ram,
    is_weakly_valid_ram,
)
from reference import (
    condition_violations,
    depth_bound,
    hull_violations,
    p_power_values,
    weak_violations,
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


def engine_valid_ram(ctx, P) -> bool:
    return not hull_violations(ctx, P)


def fine_ore_violations(ctx, n, positions, values):
    """The Ore family of full fine validity, in one engine call over every exponent.

    ``positions`` lists (s, p^s, J) for the attained wild points and
    ``values`` maps each s <= v_p(n) to the hull's value N / D at p^s; an
    exponent without a point takes the strict-exclusion bound.
    """
    s_values = range(vp(ctx.base.p, n) + 1)
    present = {s for s, _, _ in positions}
    ell = depth_bound(ctx, n, values, excluded=[s for s in s_values if s not in present])
    return condition_violations(ctx, n, positions, ell, s_values)


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("p, f, e, gamma, degrees", LEAF_CASES, ids=CASE_IDS)
def test_hull_leaf_verdict_is_full_validity(monkeypatch, p, f, e, gamma, degrees, prune):
    ctx = BinomialContext(make_field(p, f, e, gamma))
    real = validity.violations
    tally = {True: 0, False: 0}

    def checked(ctx_, n, positions, weak=True, kind=0, every=False):
        found = real(ctx_, n, positions, weak, kind, every)
        assert kind != 2
        if kind:
            ok = not found
            assert ok == engine_valid_ram(ctx_, _hull_of(p, n, positions)), positions
            tally[ok] += 1
        return found

    monkeypatch.setattr(validity, "violations", checked)
    for n in degrees:
        enumerate_ram_polygons(ctx, n, prune=prune)
    # the leaves both pass and fail, so neither side of the check is idle
    assert tally[True] and tally[False]


def test_is_valid_ram_answers_as_the_engine_on_every_reached_hull(monkeypatch):
    # the engine's violations, on a context the searches have used, for
    # polygons constructed here; the weak report is the engine over the
    # present exponents
    ctx = BinomialContext(make_field(2, 1, 1, 1))
    for n in (4, 8, 12, 16):
        enumerate_ram_polygons(ctx, n)
        tally = {True: 0, False: 0}
        for wild in _every_hull(monkeypatch, ctx, n):
            P = _hull_of(2, n, wild)
            report = is_valid_ram(ctx, P)
            assert set(report.violations) == hull_violations(ctx, P), wild
            assert report.ok == (not report.violations)
            weak = is_weakly_valid_ram(ctx, P)
            assert set(weak.violations) == set(weak_violations(ctx, n, wild)), wild
            tally[report.ok] += 1
        assert tally[True] and tally[False]


def _forced_tame(p, n):
    return {j: 0 for j in range(p ** vp(p, n), n + 1) if vp_binomial(p, n, j) == 0}


def _fine_polygon(p, n, positions):
    points = _forced_tame(p, n) | {x: J for _, x, J in positions}
    return FinePolygon(p, n, tuple(points.items()))


def _fine_reference(ctx, p, n, positions) -> set:
    # every polygon here has its forced tame points, so the reference's
    # violations are all Ore-family ones
    fine = _fine_polygon(p, n, positions)
    assert validity.tame_ok(ctx, n, dict(fine.points))
    return set(fine_ore_violations(ctx, n, positions, p_power_values(fine.hull)))


@pytest.mark.parametrize("p, f, e, gamma, degrees", LEAF_CASES, ids=CASE_IDS)
def test_fine_search_leaf_verdict_is_full_validity(monkeypatch, p, f, e, gamma, degrees):
    # in both prune modes; unpruned, the fine search reaches every subset of
    # every hull's candidates
    ctx = BinomialContext(make_field(p, f, e, gamma))
    real = validity.violations
    leaves = {True: 0, False: 0}
    fine_checks = [0]

    def checked(ctx_, n, positions, weak=True, kind=0, every=False):
        found = real(ctx_, n, positions, weak, kind, every)
        if kind == 2:
            assert (not found) == (not _fine_reference(ctx_, p, n, positions)), positions
            leaves[weak] += not found
            fine_checks[0] += 1
        return found

    for n in degrees:
        hulls, _ = enumerate_ram_polygons(ctx, n)
        with monkeypatch.context() as patch:
            patch.setattr(validity, "violations", checked)
            for P in hulls:
                for prune in (True, False):
                    before = fine_checks[0]
                    fines, _ = enumerate_fine_polygons(ctx, P, prune=prune)
                    if fine_checks[0] == before:
                        # a hull through no lattice point, its one leaf decided by the
                        # guard's hull form: the fine form's verdict must be the same
                        assert prune and len(fines) == 1, P
                        assert not _fine_reference(ctx, p, n, fines[0].wild_points()), P
                        leaves[False] += 1
    # every fine leaf these searches reach passes, pruned or not; the failing
    # side is checked on every subset of every hull below
    assert leaves[True] == leaves[False] > 0


@pytest.mark.parametrize(
    "p, f, e, gamma, degrees", LEAF_CASES + [(2, 1, 1, 1, (32,))], ids=CASE_IDS + ["census"]
)
def test_fine_results_keep_the_searched_hull(p, f, e, gamma, degrees):
    # the searches build their results unchecked: a hull must be the polygon
    # checked construction makes of its vertices, and a fine result, holding
    # the search's hull P as is, the polygon its points alone derive
    ctx = BinomialContext(make_field(p, f, e, gamma))
    for n in degrees:
        for prune in (True, False) if n < 32 else (True,):
            for P in enumerate_ram_polygons(ctx, n, prune=prune)[0]:
                checked = RamPolygon(p, n, P.vertices)
                assert P == checked and hash(P) == hash(checked)
                assert P.vertices == checked.vertices
                fines, _ = enumerate_fine_polygons(ctx, P, prune=prune)
                assert fines
                for fine in fines:
                    derived = FinePolygon(p, n, fine.points)
                    assert fine == derived and hash(fine) == hash(derived) and fine.hull is P
                    assert fine.hull == derived.hull
                    assert fine.hull.vertices == derived.hull.vertices


def _every_hull(monkeypatch, ctx, n):
    """The wild vertices of every polygon the unpruned hull search reaches."""
    hulls = []
    real = validity.violations

    def record(ctx_, n_, positions, weak=True, kind=0, every=False):
        if kind:
            hulls.append(list(positions))
        return real(ctx_, n_, positions, weak, kind, every)

    with monkeypatch.context() as patch:
        patch.setattr(validity, "violations", record)
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
        values = p_power_values(_hull_of(p, n, wild))
        present = {s for s, _, _ in wild}
        candidates = [
            (s, p**s, values[s][0] // values[s][1])
            for s in range(1, m)
            if s not in present and values[s][0] % values[s][1] == 0
        ]
        for r in range(len(candidates) + 1):
            for chosen in itertools.combinations(candidates, r):
                positions = sorted(wild + list(chosen))
                reference = _fine_reference(ctx, p, n, positions)
                assert set(fine_ore_violations(ctx, n, positions, values)) == reference
                ok = not validity.violations(ctx, n, positions, kind=2)
                assert ok == (not reference), positions
                report = is_valid_fine(ctx, _fine_polygon(p, n, positions))
                assert set(report.violations) == reference, positions
                tally[ok] += 1
    assert tally[True] and tally[False]


def test_hull_leaf_verdict_reads_the_enclosing_segment():
    # two weakly valid leaves with (2, *) absent inside different segments:
    # the Bounding of vertex (4, 4) at s = 1 holds under the first segment's
    # least ordinate there and fails under the second's, the second leaf's
    # only failure
    ctx = BinomialContext(make_field(2, 1, 1, 1))
    valid = [(0, 1, 9), (2, 4, 4), (3, 8, 0)]
    invalid = [(0, 1, 17), (2, 4, 4), (3, 8, 0)]
    assert engine_valid_ram(ctx, _hull_of(2, 8, valid))
    assert not engine_valid_ram(ctx, _hull_of(2, 8, invalid))
    assert not validity.violations(ctx, 8, valid, kind=1)
    assert validity.violations(ctx, 8, invalid, kind=1, every=True) == (Violation.BOUNDING,)
    assert hull_violations(ctx, _hull_of(2, 8, invalid)) == {Violation.BOUNDING}


@pytest.mark.parametrize("p, f, e, gamma, degrees", LEAF_CASES, ids=CASE_IDS)
def test_every_memoised_verdict_is_the_engine_verdict_of_its_key(p, f, e, gamma, degrees):
    # the memoised verdict is the proof a hull search result carries, the e
    # of the context that passed it, and its key the hull itself; every
    # result, pruned and not, carries one, and the degree's valuation table
    # holds each e * v_p(binomial(i, p^s)): after the searches and the fine
    # searches, every proved hull is one the full check and the engine pass
    ctx = BinomialContext(make_field(p, f, e, gamma))
    for n in degrees:
        hulls = enumerate_ram_polygons(ctx, n)[0]
        for P in hulls:
            enumerate_fine_polygons(ctx, P)
        unpruned = enumerate_ram_polygons(ctx, n, prune=False)[0]
        assert unpruned == hulls
        assert all(P._proved_e == e for P in hulls + unpruned)
        table = valuation_table(p, e, n)
        m = vp(p, n)
        assert len(table) == n + 1
        for i, row in enumerate(table):
            expected = tuple(e * vp_binomial(p, i, p**s) for s in range(m + 1) if p**s <= i)
            assert row == expected, (n, i)
        for P in hulls:
            assert not validity.violations(ctx, n, P.wild_vertices(), kind=1), P
            assert engine_valid_ram(ctx, RamPolygon(p, n, P.vertices)), P


def test_tame_ok_reads_the_horizontal_face(ctx_q2):
    # degree 6: binomial(6, j) is odd exactly for j in {2, 4, 6}
    assert validity.tame_ok(ctx_q2, 6, {1: 6, 2: 0, 4: 0, 6: 0})
    assert not validity.tame_ok(ctx_q2, 6, {1: 6, 2: 0, 6: 0})
    assert not validity.tame_ok(ctx_q2, 6, {1: 6, 2: 0, 3: 0, 4: 0, 6: 0})
    # the one tame rule against the per-j loop, p^(v_p(n)) and n included
    assert tame_zeros(2, 6) == ((2, 0), (4, 0), (6, 0))
    for p in (2, 3, 5, 7):
        for n in range(1, 100):
            assert tame_zeros(p, n) == tuple(sorted(_forced_tame(p, n).items())), (p, n)
            # one tuple per (p, n), which every caller shares
            assert tame_zeros(p, n) is tame_zeros(p, n)
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
                got, _ = enumerate_unif_classes(ctx, Pres)
                assert got == _pairwise_classes(ctx, Pres), (p, f, n)
                seen_gcds.add(validity.invariant_gcd(Pres) > 0)
    # both the all-horizontal (g = 0) and the sloped case were met
    assert seen_gcds == {True, False}
