"""Acceptance criteria, one test per criterion, each printing a PASS line.

Counts reproduced here follow the classical naming under which the counted
"ramification polygon" of degree n lists every attained point on the hull
(what this library calls the fine polygon): 447 of them in degree 16 over
Q_2 and 6849 in degree 32, found with 1602 and 29,730 surviving branches.
The hull-vertex polygons number 340 and 4948 and are reported alongside.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from ramify.analyzer import brute_force_survey, fine_of, parse_integer_polynomial
from ramify.binomials import BinomialContext, vp
from ramify.enumeration import (
    enumerate_fine_polygons,
    enumerate_invariants,
    enumerate_ram_polygons,
)
from ramify.polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    RamPolygon,
    decompose,
)
from ramify.residue_field import make_field, solve_power_system
from ramify.selftest import survey_case_problems
from ramify.templates import (
    compute_Sm,
    expand_template,
    reduce_template,
    template_for_fine,
    template_for_invariant,
    truncate_krasner,
)
from ramify.validity import (
    equivalent_res,
    is_weakly_valid_fine,
    is_weakly_valid_ram,
)
from reference import lower_convex_hull


def test_criterion_1_degree_16_count(ctx_q2):
    started = time.perf_counter()
    hulls, stats = enumerate_ram_polygons(ctx_q2, 16)
    fine_count = sum(
        len(enumerate_fine_polygons(ctx_q2, P)[0]) for P in hulls
    )
    elapsed = time.perf_counter() - started
    assert fine_count == 447
    assert stats.branches_visited == 1602 and len(hulls) == 340
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS - degree 16 over Q_2: 447 polygons "
        f"({len(hulls)} hull shapes), {stats.branches_visited} branches "
        f"(target 1602), {elapsed:.2f}s"
    )


def test_criterion_2_degree_32_count(ctx_q2):
    started = time.perf_counter()
    hulls, stats = enumerate_ram_polygons(ctx_q2, 32)
    fine_count = sum(
        len(enumerate_fine_polygons(ctx_q2, P)[0]) for P in hulls
    )
    elapsed = time.perf_counter() - started
    assert fine_count == 6849
    assert stats.branches_visited == 29730 and len(hulls) == 4948
    assert elapsed < 120.0
    print(
        f"criterion 2: PASS - degree 32 over Q_2: 6849 polygons "
        f"({len(hulls)} hull shapes), {stats.branches_visited} branches "
        f"(target 29730), {elapsed:.1f}s"
    )


def test_criterion_3_degree_8_analysis(ctx_q2):
    f = parse_integer_polynomial(ctx_q2.base, "x^8+2x^7+2x^6+2x^4+2")
    fine = fine_of(f)
    assert fine.points == ((1, 7), (2, 6), (4, 4), (8, 0))
    assert fine.hull.vertices == ((1, 7), (8, 0))
    print(
        "criterion 3: PASS - x^8+2x^7+2x^6+2x^4+2 has fine polygon "
        "[(1,7),(2,6),(4,4),(8,0)] on hull [(1,7),(8,0)]"
    )


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    totals = {}
    for p, n, bound in ((2, 2, 3), (2, 4, 5), (3, 3, 3)):
        ctx = BinomialContext(make_field(p, 1, 1, 1))
        survey = brute_force_survey(ctx, n, bound)
        problems = survey_case_problems(ctx, n, bound, survey=survey)
        assert problems == [], problems
        totals[(p, n)] = sum(len(g) for g in survey.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"criterion 4: PASS - surveys match enumerators with zero mismatches "
        f"({totals} polynomials checked), {elapsed:.1f}s"
    )


def test_criterion_5_quadratics_of_q2(ctx_q2):
    invariants, _ = enumerate_invariants(ctx_q2, 2, "unif")
    sizes = []
    total = 0
    for inv in invariants:
        T = truncate_krasner(template_for_invariant(ctx_q2, inv), inv.res.polygon.J0)
        R = reduce_template(ctx_q2, T, inv)
        count = len(list(expand_template(R)))
        sizes.append(count)
        total += count
    assert sorted(sizes) == [2, 4]
    assert total == 6
    note = Path(__file__).resolve().parent.parent / "docs" / "quadratic-extensions-of-q2.md"
    assert note.exists()
    print(
        "criterion 5: PASS - degree-2 reduced templates have sizes 2 and 4, "
        "total 6 = number of ramified quadratic extensions of Q_2"
    )


def test_criterion_6_property_suites(ctx_q2, ctx_q3, ram16):
    started = time.perf_counter()
    rng = random.Random(20260810)

    # hull idempotence and convexity, 1000 random point sets
    for _ in range(1000):
        count = rng.randint(1, 10)
        xs = rng.sample(range(60), count)
        points = [(x, rng.randint(-40, 40)) for x in xs]
        hull = lower_convex_hull(points)
        assert lower_convex_hull(hull) == hull
        for x, y in points:
            for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
                if x1 <= x <= x2:
                    assert Fraction(y) >= Fraction(
                        y1 * (x2 - x) + y2 * (x - x1), x2 - x1
                    )
        for (x1, y1), (x2, y2), (x3, y3) in zip(hull, hull[1:], hull[2:]):
            assert (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) > 0

    # decompose contract, 10^4 random cases
    for _ in range(10_000):
        J = rng.randint(0, 10**6)
        n = rng.randint(1, 10**4)
        a, b = decompose(J, n)
        assert J == a * n + b and 1 <= b <= n

    # validity implies weak validity, exhaustively over Q_2 degrees <= 16,
    # and weak validity is preserved under removing vertices/points
    polygons16, _ = ram16
    all_polygons = list(polygons16)
    for n in range(2, 16):
        all_polygons.extend(enumerate_ram_polygons(ctx_q2, n)[0])
    checked_subsets = 0
    for P in all_polygons:
        assert is_weakly_valid_ram(ctx_q2, P).ok
        interior = [v for v in P.vertices[1:-1] if v[1] > 0]
        top = (P.p ** vp(P.p, P.n), 0)
        for r in range(len(interior)):
            for keep in itertools.combinations(interior, r):
                kept = [P.vertices[0], *keep, top, (P.n, 0)]
                sub = RamPolygon(P.p, P.n, tuple(dict.fromkeys(kept)))
                assert is_weakly_valid_ram(ctx_q2, sub).ok
                checked_subsets += 1
    fine_checked = 0
    for n in (4, 8, 16):
        for P in enumerate_ram_polygons(ctx_q2, n)[0]:
            for Ps in enumerate_fine_polygons(ctx_q2, P)[0]:
                assert is_weakly_valid_fine(ctx_q2, Ps).ok
                removable = [
                    (x, J)
                    for x, J in Ps.points
                    if (x, J) not in Ps.hull.vertices and J > 0
                ]
                for pt in removable:
                    smaller = FinePolygon(
                        Ps.p, Ps.n, tuple(q for q in Ps.points if q != pt)
                    )
                    assert is_weakly_valid_fine(ctx_q2, smaller).ok
                    fine_checked += 1

    # power-system solver against brute force over every F_q with q <= 49
    solver_cases = 0
    for p, f in [
        (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
        (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1),
        (31, 1), (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
    ]:
        K = make_field(p, f, 1, 1)
        units = list(K.fq.units())
        for _ in range(50):
            eqs = [
                (rng.randint(-8, 8), rng.choice(units))
                for _ in range(rng.randint(1, 3))
            ]
            got = solve_power_system(K, eqs)
            expected = {
                x for x in units if all(x**k == a for k, a in eqs)
            }
            assert got == expected
            solver_cases += 1
    assert solver_cases >= 1000

    # equivalence predicates are equivalence relations, against delta scans
    K9 = make_field(3, 2, 1, "g")
    ctx9 = BinomialContext(K9)
    Pstar = FinePolygon(3, 9, ((1, 12), (3, 3), (9, 0)))
    units9 = list(K9.fq.units())
    one9 = K9.fq.one
    sample = []
    for _ in range(16):
        residues = tuple(
            one9 if x == 9 else rng.choice(units9) for x, _ in Pstar.points
        )
        sample.append(FinePolygonWithResidues(Pstar, residues))
    pair_checks = 0
    for A in sample:
        assert equivalent_res(ctx9, A, A)
        for Bd in sample:
            got = equivalent_res(ctx9, A, Bd)
            brute = any(
                all(
                    rho_b == rho_a * delta ** (-J)
                    for (_, J, rho_a), (_, _, rho_b) in zip(A.items(), Bd.items())
                )
                for delta in units9
            )
            assert got == brute
            assert got == equivalent_res(ctx9, Bd, A)
            pair_checks += 1
    for A, Bd, C in itertools.product(sample[:8], repeat=3):
        if equivalent_res(ctx9, A, Bd) and equivalent_res(ctx9, Bd, C):
            assert equivalent_res(ctx9, A, C)

    # C_m strictly increasing, digit positions pairwise distinct, maps additive
    sm_checked = 0
    for ctx, n_max in ((ctx_q2, 8), (ctx_q3, 9)):
        for n in range(2, n_max + 1):
            for Pres in enumerate_invariants(ctx, n, "res")[0]:
                previous = None
                positions = set()
                for m in range(1, 2 * n + 2):
                    sm = compute_Sm(ctx, Pres, m)
                    if previous is not None:
                        assert sm.C_m > previous
                    previous = sm.C_m
                    assert (sm.d_m, 1 + sm.c_m) not in positions
                    positions.add((sm.d_m, 1 + sm.c_m))
                    for u in ctx.base.fq.elements():
                        for v in ctx.base.fq.elements():
                            assert sm.map(u + v) == sm.map(u) + sm.map(v)
                    sm_checked += 1

    # round trip: every template polynomial analyzes back to its fine polygon
    round_trips = 0
    for ctx, degrees in ((ctx_q2, (2, 4)), (ctx_q3, (3,))):
        for n in degrees:
            for P in enumerate_ram_polygons(ctx, n)[0]:
                for Ps in enumerate_fine_polygons(ctx, P)[0]:
                    T = truncate_krasner(template_for_fine(ctx, Ps), Ps.J0)
                    for f in expand_template(T):
                        assert fine_of(f) == Ps
                        round_trips += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"criterion 6: PASS - property suites "
        f"(hull 1000, decompose 10000, subsets {checked_subsets}+{fine_checked}, "
        f"solver {solver_cases}, equivalence pairs {pair_checks}, "
        f"S_m {sm_checked}, round trips {round_trips}), {elapsed:.1f}s"
    )


def test_criterion_7_ore_bound_on_surveys():
    violations = 0
    polynomials = 0
    for p, n, bound in ((2, 2, 3), (2, 4, 5), (3, 3, 3)):
        ctx = BinomialContext(make_field(p, 1, 1, 1))
        e = ctx.base.e
        vn = e * vp(p, n)
        survey = brute_force_survey(ctx, n, bound)
        for fine, group in survey.items():
            J0 = fine.J0
            _, b0 = decompose(J0, n)
            ok = min(n * e * vp(p, b0), n * vn) <= J0 <= n * vn
            if not ok:
                violations += len(group)
            polynomials += len(group)
    assert violations == 0
    print(
        f"criterion 7: PASS - Ore bound holds for all {polynomials} surveyed "
        f"polynomials, zero violations"
    )
