import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramify import validity
from ramify.binomials import BinomialContext, beta, vp
from ramify.enumeration import enumerate_ram_polygons, enumerate_unif_classes
from ramify.polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    decompose,
)
from ramify.residue_field import make_field
from ramify.validity import (
    ResidueForcedError,
    Violation,
    _weak_violations,
    admissible_phi0,
    equivalent_res,
    equivalent_with_unif,
    invariant_gcd,
    is_valid_fine,
    is_valid_ram,
    is_valid_with_unif,
    is_weakly_valid_fine,
    is_weakly_valid_ram,
    violations,
    weak_ram_ok,
)
from ramify.templates import template_for_invariant
from reference import lower_convex_hull


def test_valid_ram_spec_examples(ctx_q2):
    assert is_valid_ram(ctx_q2, RamPolygon(2, 2, ((1, 2), (2, 0)))).ok
    assert is_valid_ram(ctx_q2, RamPolygon(2, 2, ((1, 1), (2, 0)))).ok
    report = is_valid_ram(ctx_q2, RamPolygon(2, 2, ((1, 3), (2, 0))))
    assert not report.ok


def test_weakly_valid_ram_spec_examples(ctx_q2):
    assert not is_weakly_valid_ram(ctx_q2, RamPolygon(2, 2, ((1, 3), (2, 0)))).ok


def test_ore1_rejects_horizontal_vertex_before_top(ctx_q2):
    # (8, 0) cannot be attained in degree 16: binomial(16, 8) is even
    P = RamPolygon(2, 16, ((1, 7), (8, 0), (16, 0)))
    report = is_valid_ram(ctx_q2, P)
    assert not report.ok and Violation.ORE1 in report.violations


def test_weak_ram_ok_agrees_with_report(ctx_q2):
    for vertices in [
        ((1, 2), (2, 0)),
        ((1, 3), (2, 0)),
        ((1, 5), (2, 2), (4, 0)),
        ((1, 8), (2, 4), (4, 0)),
    ]:
        P = RamPolygon(2, vertices[-1][0], vertices)
        assert weak_ram_ok(ctx_q2, P.n, P.wild_vertices()) == is_weakly_valid_ram(
            ctx_q2, P
        ).ok


CHILD_FIELDS = [
    BinomialContext(make_field(*spec))
    for spec in [(2, 1, 1, 1), (3, 1, 1, 1), (2, 1, 2, 1), (2, 2, 1, "g")]
]


@st.composite
def prefix_and_child(draw):
    """A convex prefix of wild vertices ending at (p^m, 0) and one or two
    vertices (p^S, J) at exponents after the prefix's, as the hull search
    extends it (two at once when a search is resumed deeper)."""
    ctx = draw(st.sampled_from(CHILD_FIELDS))
    p, e = ctx.base.p, ctx.base.e
    m = draw(st.integers(2, 4 if p == 2 else 3))
    n = p**m * draw(st.sampled_from([1, p + 1]))
    cap = n * e * m
    points = [(p**s, draw(st.integers(1, cap))) for s in range(m)]
    hull = lower_convex_hull(points + [(p**m, 0)])
    S = draw(st.integers(1, m - 1))
    prefix = [(s, x, J) for s, (x, J) in enumerate(points[:S]) if (x, J) in hull]
    prefix.append((m, p**m, 0))
    exponents = sorted(draw(st.sets(st.integers(S, m - 1), min_size=1, max_size=2)))
    added = []
    for s in exponents:
        # the new ordinate is random, or shares its remainder with a present
        # one, or passes with the prefix alone (then only a new pair can fail)
        _, _, J_t = draw(st.sampled_from(prefix + added))
        _, b_t = decompose(J_t, n)
        passing = [J for J in range(1, cap + 1) if weak_ram_ok(ctx, n, prefix + [(s, p**s, J)])]
        J = draw(
            st.integers(1, cap)
            | st.integers(0, e * m).map(lambda a: a * n + b_t)
            | st.sampled_from(passing or [1])
        )
        added.append((s, p**s, J))
    return ctx, n, prefix, added


@given(prefix_and_child())
@settings(max_examples=400, deadline=None)
def test_child_check_agrees_with_full_weak_check(case):
    ctx, n, prefix, added = case
    assume(weak_ram_ok(ctx, n, prefix))
    child = prefix[:-1] + added + prefix[-1:]
    new = {s for s, _, _ in added}
    # the contexts are shared by every example, so their memos hold the
    # verdicts of earlier ones, ordinates above the Ore bound among them
    # the first check fills the memo, the second reads every pair verdict from it
    for _ in range(2):
        assert weak_ram_ok(ctx, n, child, new) == weak_ram_ok(ctx, n, child)


def test_pair_check_of_a_lone_vertex_is_its_own_check(ctx_q2):
    # with nothing else present the pair {v, v} carries v's own conditions
    for J in range(1, 40):
        vertex = [(1, 2, J)]
        assert weak_ram_ok(ctx_q2, 8, vertex, {1}) == weak_ram_ok(ctx_q2, 8, vertex)
    assert weak_ram_ok(ctx_q2, 8, [(1, 2, 5)], ())


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_a_k_point_check_decides_each_unordered_pair_once(monkeypatch, k, above):
    # on an empty memo, k points make k(k+1)/2 pair checks, {v, v} among them
    # (``every`` returns nothing early); with one point new, the pairs of two
    # old points are known to pass, so only its k pairs are checked.  Ordinates
    # above the Ore bound are never memoised, so there a second visit would run
    # again
    engine, calls = validity._weak_violations, []
    monkeypatch.setattr(
        validity, "_weak_violations", lambda *args: calls.append(args[2]) or engine(*args)
    )
    n = 2**k
    cap = n * k
    points = [(s, 2**s, cap + 1 + s if above else n * (k - s)) for s in range(k)]
    for new, expected in [(None, k * (k + 1) // 2), ((k - 1,), k)]:
        calls.clear()
        violations(BinomialContext(make_field(2, 1, 1, 1)), n, points, new, every=True)
        assert len(calls) == expected, (k, new)
        assert len({frozenset(map(tuple, pair)) for pair in calls}) == len(calls)


@pytest.mark.parametrize("spec", [(2, 1, 1, 1), (3, 1, 1, 1), (2, 1, 2, 1), (2, 2, 1, "g")])
def test_an_ordinate_above_the_ore_bound_fails_its_own_conditions(spec):
    # the memo decides a set holding such an ordinate without a key: Ore2
    # fails at its own exponent
    ctx = BinomialContext(make_field(*spec))
    p, e = ctx.base.p, ctx.base.e
    for n in (p, 2 * p, p**2, p**3, 3 * p**2):
        m = vp(p, n)
        cap = n * e * m
        for s in range(m + 1):
            for J in range(cap + 1, cap + 2 * n + 2):
                v = (s, p**s, J)
                assert Violation.ORE2 in _weak_violations(ctx, n, [v]), (n, v)
                if s < m:
                    top = (m, p**m, 0)
                    assert violations(ctx, n, [v, top])
                    assert violations(ctx, n, [top, v])
                    assert not weak_ram_ok(ctx, n, [top, v], {s})
        # and no such query leaves a verdict behind that another one reads
        fresh = BinomialContext(make_field(*spec))
        assert enumerate_ram_polygons(ctx, n) == enumerate_ram_polygons(fresh, n)


def test_a_report_above_the_ore_bound_leaves_the_memo_as_it_was():
    # J0 = 25 > 8 * v(8) = 24: the report names Ore2 and reaches pieces with
    # that J, whose keys would not be unique; none is written
    ctx = BinomialContext(make_field(2, 1, 1, 1))
    report = is_valid_ram(ctx, RamPolygon(2, 8, ((1, 25), (8, 0))))
    assert not report.ok and Violation.ORE2 in report.violations
    cap, w, answers = ctx.memo[8]
    fresh = BinomialContext(make_field(2, 1, 1, 1))
    for prune in (True, False):
        assert enumerate_ram_polygons(ctx, 8, prune=prune) == enumerate_ram_polygons(
            fresh, 8, prune=prune
        )
    for key in answers:
        body, count = key >> 2, 4 if key & 3 == 0 else 7
        parts = [body >> (w * i) & ((1 << w) - 1) for i in range(count)]
        assert max(parts) <= cap and body >> (w * count) == 0, key
    # one tuple object per distinct answer
    assert len({id(found) for found in answers.values()}) == len(set(answers.values()))


def test_valid_fine_spec_examples(ctx_q2):
    assert is_valid_fine(ctx_q2, FinePolygon(2, 8, ((1, 7), (2, 6), (4, 4), (8, 0)))).ok
    assert is_valid_fine(ctx_q2, FinePolygon(2, 2, ((1, 2), (2, 0)))).ok


def test_tame_points_forced_exactly(ctx_q2):
    # degree 6: binomial(6, j) is odd exactly for j in {2, 4, 6}
    good = FinePolygon(2, 6, ((1, 6), (2, 0), (4, 0), (6, 0)))
    assert is_valid_fine(ctx_q2, good).ok
    missing = FinePolygon(2, 6, ((1, 6), (2, 0), (6, 0)))
    report = is_valid_fine(ctx_q2, missing)
    assert not report.ok and Violation.TAME in report.violations
    extra = FinePolygon(2, 6, ((1, 6), (2, 0), (3, 0), (4, 0), (6, 0)))
    report = is_valid_fine(ctx_q2, extra)
    assert not report.ok and Violation.TAME in report.violations


def test_fine_ore2_checked_at_excluded_positions(ctx_q2):
    # hull [(1,8),(4,0)] leaves no room: excluding (2, *) forces R_2 > 16/3,
    # which no polynomial satisfies
    Pstar = FinePolygon(2, 4, ((1, 8), (4, 0)))
    report = is_valid_fine(ctx_q2, Pstar)
    assert not report.ok and Violation.ORE2 in report.violations


def test_validity_implies_weak_validity_small(ctx_q2):
    from ramify.enumeration import enumerate_fine_polygons, enumerate_ram_polygons

    for n in (2, 4, 6, 8):
        polys, _ = enumerate_ram_polygons(ctx_q2, n)
        for P in polys:
            assert is_weakly_valid_ram(ctx_q2, P).ok
            fines, _ = enumerate_fine_polygons(ctx_q2, P)
            for Ps in fines:
                assert is_weakly_valid_fine(ctx_q2, Ps).ok


def test_weak_validity_preserved_under_vertex_removal(ctx_q2):
    from ramify.enumeration import enumerate_ram_polygons, enumerate_unif_classes

    for n in (4, 8, 16):
        polys, _ = enumerate_ram_polygons(ctx_q2, n)
        for P in polys:
            interior = [v for v in P.vertices[1:-1] if v[1] > 0]
            for r in range(len(interior) + 1):
                for keep in itertools.combinations(interior, r):
                    kept = [P.vertices[0], *keep]
                    top = P.p ** _vp(P.p, P.n)
                    if (top, 0) not in kept:
                        kept.append((top, 0))
                    if kept[-1] != (P.n, 0):
                        kept.append((P.n, 0))
                    sub = RamPolygon(P.p, P.n, tuple(dict.fromkeys(kept)))
                    assert is_weakly_valid_ram(ctx_q2, sub).ok


def _vp(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# admissible uniformizer digits


def brute_admissible(ctx, Pres):
    """Oracle: test each phi0 against the solubility conditions directly."""
    n = Pres.polygon.n
    out = set()
    for phi0 in ctx.base.fq.units():
        ok = True
        phi_b: dict[int, object] = {}
        for s, x, J in Pres.polygon.wild_points():
            a, b = decompose(J, n)
            gamma = Pres.residue_at(x)
            if b == n:
                if gamma != beta(ctx, n, x) * (-phi0) ** (-a - 1):
                    ok = False
                    break
            else:
                value = gamma / beta(ctx, b, x) * (-phi0) ** (a + 1)
                if phi_b.setdefault(b, value) != value:
                    ok = False
                    break
        if ok:
            out.add(phi0)
    return out


def test_admissible_phi0_spec_examples(ctx_q2, ctx_q3):
    one2 = ctx_q2.base.fq.one
    Pres = FinePolygonWithResidues(FinePolygon(2, 2, ((1, 2), (2, 0))), (one2, one2))
    assert admissible_phi0(ctx_q2, Pres) == {one2}

    one3 = ctx_q3.base.fq.one
    two3 = ctx_q3.base.fq.from_int(2)
    Pres3 = FinePolygonWithResidues(FinePolygon(3, 3, ((1, 1), (3, 0))), (one3, one3))
    assert admissible_phi0(ctx_q3, Pres3) == {one3, two3}


def test_admissible_phi0_empty_on_conflicting_duplicate_remainders():
    # remainder b = 3 repeats with gap 2 in the quotients; over F_9 the
    # resulting square condition has no solution for these residues
    K = make_field(3, 2, 2, "g")
    ctx = BinomialContext(K)
    one = K.fq.one
    Pstar = FinePolygon(3, 9, ((1, 21), (3, 3), (9, 0)))
    assert is_valid_fine(ctx, Pstar).ok
    Pres = FinePolygonWithResidues(Pstar, (one, one, one))
    assert admissible_phi0(ctx, Pres) == set()
    assert brute_admissible(ctx, Pres) == set()


def test_admissible_phi0_matches_brute_force_oracle():
    rng = random.Random(7)
    for p, f, e, n, points in [
        (2, 1, 1, 2, ((1, 2), (2, 0))),
        (2, 1, 1, 4, ((1, 6), (2, 2), (4, 0))),
        (3, 1, 1, 3, ((1, 3), (3, 0))),
        (3, 2, 1, 3, ((1, 3), (3, 0))),
        (3, 2, 2, 9, ((1, 21), (3, 3), (9, 0))),
        (2, 2, 1, 4, ((1, 6), (2, 2), (4, 0))),
    ]:
        K = make_field(p, f, e, "g" if f > 1 else 1)
        ctx = BinomialContext(K)
        Pstar = FinePolygon(p, n, points)
        units = list(K.fq.units())
        for _ in range(60):
            residues = []
            for x, J in Pstar.points:
                if J == 0:
                    residues.append(beta(ctx, n, x))
                else:
                    residues.append(rng.choice(units))
            try:
                Pres = FinePolygonWithResidues(Pstar, tuple(residues))
            except ValueError:
                continue
            assert admissible_phi0(ctx, Pres) == brute_admissible(ctx, Pres)


def test_admissible_phi0_reports_forced_residue_mismatch(ctx_q2):
    one = ctx_q2.base.fq.one
    # degree 6 tame points must carry binomial residues; over F_2 they are all
    # 1, so force a mismatch over F_4 instead
    K = make_field(2, 2, 1, 1)
    ctx = BinomialContext(K)
    g = K.fq.generator()
    Pstar = FinePolygon(2, 6, ((1, 2), (2, 0), (4, 0), (6, 0)))
    bad = FinePolygonWithResidues(Pstar, (K.fq.one, g, K.fq.one, K.fq.one))
    with pytest.raises(ResidueForcedError):
        admissible_phi0(ctx, bad)


@pytest.mark.parametrize("n, points", [
    (4, ((1, 9), (2, 5), (4, 0))),  # b = 1 < 2 at (2, 5), shared with (1, 9)
    (4, ((1, 8), (2, 5), (4, 0))),  # the same point, its b alone
    (4, ((1, 2), (2, 1), (4, 0))),
    (8, ((1, 2), (4, 1), (8, 0))),  # b = 1 < 4
])
def test_a_hand_made_invariant_with_b_below_its_abscissa_is_a_value_error(ctx_q2, n, points):
    # no polynomial attains a point (x, a*n + b) with b < x (BRange), so its
    # residue relation has no beta(b, x); every residue-level entry point
    # refuses such input with ValueError
    one = ctx_q2.base.fq.one
    fine = FinePolygon(2, n, points)
    assert Violation.BRANGE in is_valid_fine(ctx_q2, fine).violations
    Pres = FinePolygonWithResidues(fine, (one,) * len(points))
    inv = InvariantWithUnif(Pres, one)
    for check, arg in ((admissible_phi0, Pres), (is_valid_with_unif, inv),
                       (template_for_invariant, inv), (enumerate_unif_classes, Pres)):
        with pytest.raises(ValueError, match=r"beta\(1,[24]\) out of range"):
            check(ctx_q2, arg)


def test_is_valid_with_unif(ctx_q2):
    one = ctx_q2.base.fq.one
    Pres = FinePolygonWithResidues(FinePolygon(2, 2, ((1, 2), (2, 0))), (one, one))
    assert is_valid_with_unif(ctx_q2, InvariantWithUnif(Pres, one)).ok


def test_is_valid_with_unif_rejects_outside_solution_set(ctx_q3):
    K = make_field(3, 2, 2, "g")
    ctx = BinomialContext(K)
    one = K.fq.one
    Pres = FinePolygonWithResidues(
        FinePolygon(3, 9, ((1, 21), (3, 3), (9, 0))), (one, one, one)
    )
    report = is_valid_with_unif(ctx, InvariantWithUnif(Pres, one))
    assert not report.ok and report.violations == (Violation.RESIDUE_SYSTEM,)


# ---------------------------------------------------------------------------
# equivalence


def brute_equivalent_res(ctx, A, B_):
    if A.polygon != B_.polygon:
        return False
    for delta in ctx.base.fq.units():
        if all(
            rho_b == rho_a * delta ** (-J)
            for (x, J, rho_a), (_, _, rho_b) in zip(A.items(), B_.items())
        ):
            return True
    return False


def brute_equivalent_unif(ctx, A, B_):
    if A.res.polygon != B_.res.polygon:
        return False
    n = A.res.polygon.n
    for delta in ctx.base.fq.units():
        if (
            all(
                rho_b == rho_a * delta ** (-J)
                for (x, J, rho_a), (_, _, rho_b) in zip(A.res.items(), B_.res.items())
            )
            and B_.phi0 == delta**n * A.phi0
        ):
            return True
    return False


def _random_decorations(rng, ctx, Pstar, count):
    units = list(ctx.base.fq.units())
    one = ctx.base.fq.one
    out = []
    for _ in range(count):
        residues = tuple(
            one if x == Pstar.n else rng.choice(units) for x, _ in Pstar.points
        )
        out.append(FinePolygonWithResidues(Pstar, residues))
    return out


def test_equivalent_res_spec_examples(ctx_q3):
    one = ctx_q3.base.fq.one
    two = ctx_q3.base.fq.from_int(2)
    Pstar = FinePolygon(3, 3, ((1, 1), (3, 0)))
    A = FinePolygonWithResidues(Pstar, (one, one))
    B_ = FinePolygonWithResidues(Pstar, (two, one))
    assert equivalent_res(ctx_q3, A, A)
    assert equivalent_res(ctx_q3, A, B_)  # delta = 2 twists rho_1 by 2
    other = FinePolygonWithResidues(FinePolygon(3, 3, ((1, 2), (3, 0))), (one, one))
    assert not equivalent_res(ctx_q3, A, other)


def test_equivalent_res_matches_brute_and_is_equivalence():
    K = make_field(3, 2, 1, "g")
    ctx = BinomialContext(K)
    Pstar = FinePolygon(3, 9, ((1, 12), (3, 3), (9, 0)))
    rng = random.Random(11)
    sample = _random_decorations(rng, ctx, Pstar, 12)
    for A in sample:
        assert equivalent_res(ctx, A, A)
        for B_ in sample:
            got = equivalent_res(ctx, A, B_)
            assert got == brute_equivalent_res(ctx, A, B_)
            assert got == equivalent_res(ctx, B_, A)
    for A in sample[:6]:
        for B_ in sample[:6]:
            for C in sample[:6]:
                if equivalent_res(ctx, A, B_) and equivalent_res(ctx, B_, C):
                    assert equivalent_res(ctx, A, C)


def test_equivalent_with_unif_spec_examples(ctx_q3):
    one = ctx_q3.base.fq.one
    two = ctx_q3.base.fq.from_int(2)
    Pres = FinePolygonWithResidues(FinePolygon(3, 3, ((1, 1), (3, 0))), (one, one))
    assert invariant_gcd(Pres) == 1
    A = InvariantWithUnif(Pres, one)
    B_ = InvariantWithUnif(Pres, two)
    assert equivalent_with_unif(ctx_q3, A, A)
    # gcd 1 forces delta = 1, so distinct phi0 are inequivalent
    assert not equivalent_with_unif(ctx_q3, A, B_)


def test_equivalent_with_unif_matches_brute():
    K = make_field(3, 2, 1, "g")
    ctx = BinomialContext(K)
    Pstar = FinePolygon(3, 9, ((1, 12), (3, 3), (9, 0)))
    rng = random.Random(13)
    decorations = _random_decorations(rng, ctx, Pstar, 4)
    units = list(K.fq.units())
    invariants = [
        InvariantWithUnif(Pres, rng.choice(units))
        for Pres in decorations
        for _ in range(3)
    ]
    for A in invariants:
        for B_ in invariants:
            assert equivalent_with_unif(ctx, A, B_) == brute_equivalent_unif(ctx, A, B_)


def test_invariant_gcd_includes_zero_ordinates(ctx_q2):
    one = ctx_q2.base.fq.one
    Pres = FinePolygonWithResidues(
        FinePolygon(2, 3, ((1, 0), (2, 0), (3, 0))), (one, one, one)
    )
    assert invariant_gcd(Pres) == 0
    mixed = FinePolygonWithResidues(
        FinePolygon(2, 6, ((1, 6), (2, 0), (4, 0), (6, 0))), (one, one, one, one)
    )
    assert invariant_gcd(mixed) == 6
