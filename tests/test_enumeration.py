import itertools

import pytest

from ramify import validity
from ramify.binomials import BinomialContext, beta, vp
from ramify.enumeration import (
    Level,
    enumerate_fine_polygons,
    enumerate_invariants,
    enumerate_ram_polygons,
    enumerate_residue_classes,
    enumerate_unif_classes,
)
from ramify.polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    RamPolygon,
    decompose,
    least_ordinates,
    tame_zeros,
)
from ramify.residue_field import make_field
from ramify.validity import (
    admissible_phi0,
    equivalent_res,
    equivalent_with_unif,
    is_valid_fine,
    is_valid_ram,
    is_valid_with_unif,
)
from reference import weak_violations
from test_serialize_cli import POINT_SPEC_CASES


def test_degree_two_over_q2(ctx_q2):
    polys, stats = enumerate_ram_polygons(ctx_q2, 2)
    assert [P.vertices for P in polys] == [((1, 1), (2, 0)), ((1, 2), (2, 0))]
    assert stats.results == 2


@pytest.mark.parametrize("p,n", [(2, 3), (2, 5), (3, 4), (5, 6), (2, 15)])
def test_tame_degrees_have_one_polygon(p, n):
    ctx = BinomialContext(make_field(p, 1, 1, 1))
    polys, _ = enumerate_ram_polygons(ctx, n)
    assert [P.vertices for P in polys] == [((1, 0), (n, 0))]


def _ore_J0_reference(p, e, n):
    """All J0 in [0, n*v(n)] with min(n*v(b0), n*v(n)) <= J0, b0 the remainder of J0."""
    vn = e * vp(p, n)
    return [
        J0 for J0 in range(n * vn + 1) if min(n * e * vp(p, decompose(J0, n)[1]), n * vn) <= J0
    ]


def test_root_ordinates_are_the_ore_bound(monkeypatch):
    # the root vertex's own conditions at s = 0 are the Ore bound, and the
    # hull search roots at exactly those J0
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3):
            ctx = BinomialContext(make_field(p, 1, e, 1))
            for n in range(1, 130):
                cap = n * e * vp(p, n)
                own = [J0 for J0 in range(cap + 1) if validity.weak_ram_ok(ctx, n, [(0, 1, J0)])]
                assert own == _ore_J0_reference(p, e, n), (p, e, n)
    real = validity.weak_ram_ok
    roots = []

    def record(ctx_, n_, positions, new=None):
        if new is None:
            roots.append(positions[0][2])
        return real(ctx_, n_, positions, new)

    monkeypatch.setattr(validity, "weak_ram_ok", record)
    for p, e, n in [(2, 1, 3), (2, 1, 8), (2, 1, 12), (2, 2, 8), (3, 1, 9), (5, 1, 10)]:
        roots.clear()
        enumerate_ram_polygons(BinomialContext(make_field(p, 1, e, 1)), n)
        assert roots == _ore_J0_reference(p, e, n), (p, e, n)


def test_degree_one_is_trivial(ctx_q2):
    polys, _ = enumerate_ram_polygons(ctx_q2, 1)
    assert [P.vertices for P in polys] == [((1, 0),)]


@pytest.mark.parametrize(
    "p,f,e,n",
    [
        pytest.param(p, 1, 1, n, id=f"{p}-{n}")
        for p, n in [(2, 2), (2, 4), (2, 6), (2, 8), (2, 12), (3, 3), (3, 9)]
    ]
    + [
        pytest.param(2, 1, 2, 4, id="e2-4"),
        pytest.param(2, 1, 2, 8, id="e2-8"),
        pytest.param(2, 2, 1, 4, id="F4-4"),
        pytest.param(2, 2, 1, 8, id="F4-8"),
    ],
)
def test_pruned_equals_unpruned(p, f, e, n):
    ctx = BinomialContext(make_field(p, f, e, "g" if f > 1 else 1))
    pruned, s1 = enumerate_ram_polygons(ctx, n, prune=True)
    unpruned, s2 = enumerate_ram_polygons(ctx, n, prune=False)
    assert pruned == unpruned
    assert s1.branches_visited <= s2.branches_visited
    for P in pruned:
        f1, _ = enumerate_fine_polygons(ctx, P, prune=True)
        f2, _ = enumerate_fine_polygons(ctx, P, prune=False)
        assert f1 == f2


@pytest.mark.parametrize(
    "p, f, e, gamma, degrees", POINT_SPEC_CASES + [(2, 1, 1, 1, (32,))],
    ids=[str(case[:4]) for case in POINT_SPEC_CASES] + ["census"],
)
def test_a_hull_through_no_lattice_point_is_not_searched(monkeypatch, p, f, e, gamma, degrees):
    # with pruning, a hull whose least ordinates leave no lattice candidate gets
    # its one fine polygon as one visited branch, with no leaf check; pruned
    # still equals unpruned
    ctx = BinomialContext(make_field(p, f, e, gamma))
    real = validity.violations
    leaf_checks = []

    def counted(ctx_, n, positions, new=None, kind=0, every=False):
        leaf_checks.append(kind)
        return real(ctx_, n, positions, new, kind, every)

    monkeypatch.setattr(validity, "violations", counted)
    for n in degrees:
        visited = skipped = 0
        for P in enumerate_ram_polygons(ctx, n)[0]:
            leaf_checks.clear()
            fines, stats = enumerate_fine_polygons(ctx, P)
            searched = 2 in leaf_checks
            assert fines == enumerate_fine_polygons(ctx, P, prune=False)[0], P
            assert stats.results == len(fines)
            assert all(Ps.hull is P for Ps in fines)
            visited += stats.branches_visited
            if all(up == excluded for *_, up, excluded in least_ordinates(p, P.wild_vertices())):
                assert stats.branches_visited == len(fines) == 1 and not searched, P
                skipped += 1
            else:
                assert searched, P
        assert skipped
        if (p, f, e, n) == (2, 1, 1, 32):
            # the census: 3,681 of its 4,948 hulls have no candidate
            assert (visited, skipped) == (8750, 3681)


@pytest.mark.parametrize("n", [12, 16])
def test_search_results_share_their_pairs(ctx_q2, n):
    # one (x, J) object per distinct hull vertex across a search's results; a
    # fine polygon reuses its hull's and the degree's one tuple of tame points
    hulls, _ = enumerate_ram_polygons(ctx_q2, n)
    shared = {}
    for P in hulls:
        for pair in P.vertices:
            assert shared.setdefault(pair, pair) is pair, (P, pair)
    tame = None
    for P in hulls:
        for Ps in enumerate_fine_polygons(ctx_q2, P)[0]:
            own = {id(pair) for pair in P.vertices}
            # the hull's vertices with J > 0 lie left of (p^m, 0), where the tame points begin
            assert all(id(pair) in own for pair in Ps.points if pair[1] and pair in P.vertices)
            tail = Ps.points[-len(tame_zeros(2, n)):]
            tame = tame or tail
            assert all(a is b for a, b in zip(tail, tame))
    assert [x for x, _ in tame] == list(tame_zeros(2, n))


@pytest.mark.parametrize("spec", [(2, 1, 1, 1), (3, 1, 1, 1), (2, 1, 2, 1), (2, 2, 1, "g")])
def test_a_context_that_served_other_work_enumerates_as_a_fresh_one(spec):
    # the context keeps nothing between calls: other degrees, unpruned
    # searches and invalid polygons, J0 beyond the Ore bound among them,
    # must not leak
    used = BinomialContext(make_field(*spec))
    p, e = used.base.p, used.base.e
    for n in range(1, p**3 + 1):
        enumerate_invariants(used, n, "fine")
        enumerate_ram_polygons(used, n, prune=False)
    reports = {}
    for n in (p * p, p**3):
        cap = n * e * vp(p, n)
        for J0 in range(1, 2 * cap, 3):
            for vertices in (((1, J0), (n, 0)), ((1, J0), (p, 0), (n, 0))):
                P = RamPolygon(p, n, vertices)
                reports[P] = is_valid_ram(used, P)
    assert not all(report.ok for report in reports.values())
    fresh = BinomialContext(make_field(*spec))
    assert fresh == used
    assert all(is_valid_ram(fresh, P) == report for P, report in reports.items())
    for n in (p * p, p**3):
        for prune in (True, False):
            hulls, stats = enumerate_ram_polygons(used, n, prune=prune)
            assert (hulls, stats) == enumerate_ram_polygons(fresh, n, prune=prune)
            for P in hulls:
                fresh_fines = enumerate_fine_polygons(fresh, P, prune=prune)
                assert enumerate_fine_polygons(used, P, prune=prune) == fresh_fines


def test_a_reused_context_enumerates_as_a_fresh_one():
    # a context holds its base field and nothing else, before and after a
    # walk, so a reused one enumerates as a fresh one
    used = BinomialContext(make_field(2, 1, 1, 1))
    enumerate_invariants(used, 16, "fine")
    assert vars(used) == {"base": used.base}
    fresh = BinomialContext(make_field(2, 1, 1, 1))
    for prune in (True, False):
        hulls, stats = enumerate_ram_polygons(used, 16, prune=prune)
        assert (hulls, stats) == enumerate_ram_polygons(fresh, 16, prune=prune)
        for P in hulls:
            assert enumerate_fine_polygons(used, P, prune=prune) == enumerate_fine_polygons(
                fresh, P, prune=prune
            )


@pytest.mark.parametrize("spec, n", [((2, 1, 1, 1), 16), ((3, 1, 1, 1), 27), ((2, 1, 2, 1), 8)])
def test_hull_search_is_called_only_for_candidates_that_pass(monkeypatch, spec, n):
    # the search enters each branch through one weak_ram_ok call; a child's
    # call checks nothing (its candidate masks decided every pair it adds),
    # so the reference engine judges each entered branch: only a root, which
    # gets the whole weak check, may fail, and every pass is a visited branch
    ctx = BinomialContext(make_field(*spec))
    real = validity.weak_ram_ok
    tally = {True: 0, False: 0}

    def counted(ctx_, n_, positions, new=None):
        ok = real(ctx_, n_, positions, new)
        assert ok == (not weak_violations(ctx_, n_, positions)), positions
        assert ok or new is None, positions
        tally[ok] += 1
        return ok

    monkeypatch.setattr(validity, "weak_ram_ok", counted)
    _, stats = enumerate_ram_polygons(ctx, n)
    assert tally[True] == stats.branches_visited


def test_every_output_is_valid(ctx_q2):
    for n in (2, 4, 6, 8):
        polys, _ = enumerate_ram_polygons(ctx_q2, n)
        for P in polys:
            assert is_valid_ram(ctx_q2, P).ok
            fines, _ = enumerate_fine_polygons(ctx_q2, P)
            for Ps in fines:
                assert is_valid_fine(ctx_q2, Ps).ok
                assert Ps.hull == P


def test_fine_enumeration_examples(ctx_q2):
    only, _ = enumerate_fine_polygons(ctx_q2, RamPolygon(2, 2, ((1, 2), (2, 0))))
    assert [Ps.points for Ps in only] == [((1, 2), (2, 0))]

    fines, _ = enumerate_fine_polygons(ctx_q2, RamPolygon(2, 8, ((1, 7), (8, 0))))
    assert ((1, 7), (2, 6), (4, 4), (8, 0)) in {Ps.points for Ps in fines}

    for P in enumerate_ram_polygons(ctx_q2, 6)[0]:
        for Ps in enumerate_fine_polygons(ctx_q2, P)[0]:
            assert {
                (x, J) for x, J in Ps.points if J == 0
            } == {(2, 0), (4, 0), (6, 0)}


def test_fine_enumeration_rejects_invalid_polygon(ctx_q2):
    with pytest.raises(ValueError):
        enumerate_fine_polygons(ctx_q2, RamPolygon(2, 2, ((1, 3), (2, 0))))


def test_residue_classes_trivial_over_f2(ctx_q2):
    for n in (2, 4, 8):
        for P in enumerate_ram_polygons(ctx_q2, n)[0]:
            for Ps in enumerate_fine_polygons(ctx_q2, P)[0]:
                decorated, _ = enumerate_residue_classes(ctx_q2, Ps)
                assert len(decorated) == 1


def test_residue_classes_q3_example(ctx_q3):
    Ps = FinePolygon(3, 3, ((1, 1), (3, 0)))
    decorated, _ = enumerate_residue_classes(ctx_q3, Ps)
    assert len(decorated) == 1


def brute_residue_classes(ctx, Pstar):
    """Oracle: full cartesian enumeration, validity filter, equivalence classes."""
    n = Pstar.n
    units = list(ctx.base.fq.units())
    wild = [(x, J) for _, x, J in Pstar.wild_points() if J > 0]
    all_valid = []
    for combo in itertools.product(units, repeat=len(wild)):
        chosen = dict(zip((x for x, _ in wild), combo))
        residues = tuple(
            chosen.get(x, beta(ctx, n, x)) for x, _ in Pstar.points
        )
        Pres = FinePolygonWithResidues(Pstar, residues)
        if admissible_phi0(ctx, Pres):
            all_valid.append(Pres)
    classes = []
    for Pres in all_valid:
        if not any(equivalent_res(ctx, Pres, rep) for rep in classes):
            classes.append(Pres)
    return all_valid, classes


@pytest.mark.parametrize(
    "p,f,n,points",
    [
        (3, 1, 3, ((1, 1), (3, 0))),
        (3, 1, 3, ((1, 3), (3, 0))),
        (3, 2, 3, ((1, 3), (3, 0))),
        (2, 2, 4, ((1, 5), (2, 2), (4, 0))),
        (2, 2, 4, ((1, 6), (2, 2), (4, 0))),
    ],
)
def test_residue_classes_match_cartesian_oracle(p, f, n, points):
    ctx = BinomialContext(make_field(p, f, 1, "g" if f > 1 else 1))
    Pstar = FinePolygon(p, n, points)
    assert is_valid_fine(ctx, Pstar).ok
    decorated, _ = enumerate_residue_classes(ctx, Pstar)
    all_valid, classes = brute_residue_classes(ctx, Pstar)
    # same number of classes, pairwise inequivalent, and all classes covered
    assert len(decorated) == len(classes)
    for A, B in itertools.combinations(decorated, 2):
        assert not equivalent_res(ctx, A, B)
    for Pres in decorated:
        assert admissible_phi0(ctx, Pres)
        assert any(equivalent_res(ctx, Pres, other) for other in all_valid)
    for Pres in all_valid:
        assert sum(equivalent_res(ctx, Pres, rep) for rep in decorated) == 1


def test_unif_classes_examples(ctx_q2, ctx_q3):
    one2 = ctx_q2.base.fq.one
    Pres2 = FinePolygonWithResidues(
        FinePolygon(2, 2, ((1, 2), (2, 0))), (one2, one2)
    )
    refined, _ = enumerate_unif_classes(ctx_q2, Pres2)
    assert [inv.phi0 for inv in refined] == [one2]

    one3 = ctx_q3.base.fq.one
    two3 = ctx_q3.base.fq.from_int(2)
    Pres3 = FinePolygonWithResidues(
        FinePolygon(3, 3, ((1, 1), (3, 0))), (one3, one3)
    )
    refined3, _ = enumerate_unif_classes(ctx_q3, Pres3)
    assert sorted(inv.phi0 for inv in refined3) == [one3, two3]


def test_unif_classes_pairwise_inequivalent_and_valid(ctx_q3):
    K = make_field(3, 2, 1, "g")
    ctx = BinomialContext(K)
    Pstar = FinePolygon(3, 3, ((1, 3), (3, 0)))
    for Pres in enumerate_residue_classes(ctx, Pstar)[0]:
        refined, _ = enumerate_unif_classes(ctx, Pres)
        for inv in refined:
            assert is_valid_with_unif(ctx, inv).ok
        for A, B in itertools.combinations(refined, 2):
            assert not equivalent_with_unif(ctx, A, B)
        # every admissible phi0 is equivalent to exactly one representative
        for phi0 in admissible_phi0(ctx, Pres):
            from ramify.polygons import InvariantWithUnif

            cand = InvariantWithUnif(Pres, phi0)
            assert sum(equivalent_with_unif(ctx, cand, rep) for rep in refined) == 1


def test_enumerate_invariants_counts(ctx_q2, ctx_q3):
    invs, _ = enumerate_invariants(ctx_q2, 2, Level.UNIF)
    assert len(invs) == 2
    rams, _ = enumerate_invariants(ctx_q2, 3, "ram")
    assert len(rams) == 1
    fines, _ = enumerate_invariants(ctx_q3, 3, Level.FINE)
    assert [Ps.points for Ps in fines] == [
        ((1, 1), (3, 0)),
        ((1, 2), (3, 0)),
        ((1, 3), (3, 0)),
    ]


# (field, degree): the branches the hull, fine and residue searches visit
# pruned, and unpruned where n <= 16; the residue level is walked where n <= 9
ORDER_CASES = [
    ((2, 1, 1, 1), 32, {True: (29730, 8750, 0)}),
    ((3, 1, 1, 1), 27, {True: (1131, 562, 0)}),
    ((2, 2, 1, "g"), 16, {True: (1602, 554, 0), False: (202027, 554, 0)}),
    ((2, 1, 2, 1), 16, {True: (7077, 3097, 0), False: (2613867, 3097, 0)}),
    ((3, 1, 1, 1), 9, {True: (46, 28, 106), False: (135, 28, 108)}),
    ((2, 2, 1, "g"), 8, {True: (137, 57, 398), False: (1297, 57, 434)}),
]


@pytest.mark.parametrize("spec, n, branches", ORDER_CASES,
                         ids=[f"{spec[0]}^{spec[1]}-e{spec[2]}-{n}" for spec, n, _ in ORDER_CASES])
def test_every_level_comes_in_canonical_order(spec, n, branches):
    # the searches sort nothing afterwards: hulls come sorted by vertices,
    # each hull's fine polygons by points and each fine polygon's residue
    # classes by residue coefficients, so each level's list is sorted by its
    # parents' keys and then its own; pruning changes no list
    ctx = BinomialContext(make_field(*spec))
    walks = []
    for prune, expected in branches.items():
        hulls, stats = enumerate_ram_polygons(ctx, n, prune=prune)
        visited = [stats.branches_visited, 0, 0]
        fines, classes = [], []
        for P in hulls:
            found, stats = enumerate_fine_polygons(ctx, P, prune=prune)
            visited[1] += stats.branches_visited
            fines += [(P.vertices, Ps.points, Ps) for Ps in found]
        for *keys, Ps in fines if n <= 9 else ():
            found, stats = enumerate_residue_classes(ctx, Ps, prune=prune)
            visited[2] += stats.branches_visited
            classes += [(*keys, tuple(rho.coeffs for rho in Pres.residues)) for Pres in found]
        fines = [keys for *keys, _ in fines]
        walk = ([P.vertices for P in hulls], fines, classes)
        assert all(keys == sorted(keys) for keys in walk), prune
        assert tuple(visited) == expected, prune
        walks.append(walk)
    assert all(walk == walks[0] for walk in walks)
    assert walks[0][1] and (n > 9 or walks[0][2])


def test_enumeration_deterministic_across_runs(ctx_q2):
    a, sa = enumerate_ram_polygons(ctx_q2, 8)
    b, sb = enumerate_ram_polygons(ctx_q2, 8)
    assert a == b
    assert sa.branches_visited == sb.branches_visited


def test_stats_count_results(ctx_q2):
    polys, stats = enumerate_ram_polygons(ctx_q2, 4)
    assert stats.results == len(polys) <= stats.branches_visited
