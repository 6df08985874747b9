import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.binomials import B, BinomialContext, valuation_table, vp
from ramify.polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    decompose,
    hull_points,
    least_ordinates,
    residual_polynomials,
)
from ramify.residue_field import make_field
from ramify.serialize import fine_to_json, ram_to_json
from reference import depth_bound, lower_convex_hull


def _ordinates(ctx, wild, strict):
    """The polygon's ordinate at each p^s, s <= v_p(n): a point's own, else the least one."""
    absent = [(s, x, excluded if strict else up) for s, x, up, excluded in
              least_ordinates(ctx.base.p, wild)]
    return {s: L for s, _, L in wild + absent}


def _ell(ctx, n, ordinates, i, s):
    """The integer depth bound ceil((L - i) / n) + 1 - B[i][s], L the ordinate at p^s."""
    if not ctx.base.p**s <= i <= n:
        raise ValueError(f"need p^s <= i <= n, got s={s}, i={i}")
    return 1 - (i - ordinates[s]) // n - valuation_table(ctx.base.p, ctx.base.e, n)[i][s]


def ell_P(ctx, P, i, s):
    return _ell(ctx, P.n, _ordinates(ctx, P.wild_vertices(), False), i, s)


def ell_fine(ctx, Pstar, i, s):
    return _ell(ctx, Pstar.n, _ordinates(ctx, Pstar.wild_points(), True), i, s)


def test_hull_spec_examples():
    assert lower_convex_hull([(1, 7), (2, 6), (4, 4), (8, 0)]) == [(1, 7), (8, 0)]
    assert lower_convex_hull([(1, 2), (2, 0)]) == [(1, 2), (2, 0)]
    assert lower_convex_hull([(1, 2), (2, 0), (4, 0)]) == [(1, 2), (2, 0), (4, 0)]
    # hull_points keeps the collinear points the vertex list drops
    collinear = [(1, 6), (2, 4), (3, 2), (4, 0), (6, 0), (8, 0)]
    assert hull_points(collinear) == collinear
    assert lower_convex_hull(collinear) == [(1, 6), (4, 0), (8, 0)]
    half = [(1, Fraction(5, 2)), (2, Fraction(3, 2)), (3, Fraction(1, 2)), (4, 1)]
    assert hull_points(half) == half
    assert lower_convex_hull(half) == [(1, Fraction(5, 2)), (3, Fraction(1, 2)), (4, 1)]
    assert lower_convex_hull([(1, Fraction(7, 3)), (2, 3), (3, 0)]) == [(1, Fraction(7, 3)), (3, 0)]


def test_hull_rejects_duplicate_abscissas():
    with pytest.raises(ValueError):
        lower_convex_hull([(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        hull_points([(1, 2), (1, 3)])


point_sets = st.lists(
    st.tuples(st.integers(0, 40), st.integers(-30, 30)),
    min_size=1,
    max_size=12,
    unique_by=lambda pt: pt[0],
)


@given(point_sets)
@settings(max_examples=400)
def test_hull_idempotent_and_below_points(points):
    hull = lower_convex_hull(points)
    assert lower_convex_hull(hull) == hull
    xs = [x for x, _ in hull]
    assert xs == sorted(xs)
    # every input point lies on or above the hull function
    for x, y in points:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                assert Fraction(y) >= Fraction(y1 * (x2 - x) + y2 * (x - x1), x2 - x1)
    # strict convexity of the vertex chain
    for (x1, y1), (x2, y2), (x3, y3) in zip(hull, hull[1:], hull[2:]):
        assert (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) > 0


def test_decompose_spec_examples():
    assert decompose(0, 8) == (-1, 8)
    assert decompose(7, 8) == (0, 7)
    assert decompose(12, 8) == (1, 4)


@given(st.integers(0, 10**6), st.integers(1, 10**4))
@settings(max_examples=1000)
def test_decompose_contract(J, n):
    a, b = decompose(J, n)
    assert J == a * n + b
    assert 1 <= b <= n


def test_eval_polygon_spec_examples():
    P = RamPolygon(2, 8, ((1, 7), (8, 0)))
    assert P.value_at(3) == 5
    assert P.value_at(1) == 7
    P2 = RamPolygon(2, 4, ((1, 2), (2, 0), (4, 0)))
    assert P2.value_at(3) == 0
    with pytest.raises(ValueError):
        P.value_at(9)


def test_eval_polygon_is_convex_between_vertices():
    P = RamPolygon(2, 8, ((1, 10), (2, 4), (8, 0)))
    # convexity: value at a midpoint of any two abscissas is at most the chord
    for j1 in range(1, 9):
        for j2 in range(j1 + 2, 9):
            mid = (j1 + j2) // 2
            chord = Fraction(
                P.value_at(j1) * (j2 - mid) + P.value_at(j2) * (mid - j1),
                j2 - j1,
            )
            assert P.value_at(mid) <= chord


def test_ram_polygon_structural_rejections():
    with pytest.raises(ValueError):
        RamPolygon(2, 8, ((1, 7), (3, 2), (8, 0)))  # non-p-power interior vertex
    with pytest.raises(ValueError):
        RamPolygon(2, 8, ((1, 7), (8, 1)))  # must end at (n, 0)
    with pytest.raises(ValueError):
        RamPolygon(2, 8, ((2, 7), (8, 0)))  # must start at abscissa 1
    with pytest.raises(ValueError):
        RamPolygon(2, 8, ((1, 4), (2, 3), (4, 1), (8, 0)))  # collinear vertices
    with pytest.raises(ValueError):
        RamPolygon(2, 8, ((1, 7), (2, 6), (2, 5), (8, 0)))  # duplicate abscissa
    with pytest.raises(ValueError):
        RamPolygon(2, 16, ((1, 7), (8, 0)))  # missing the vertex (16, 0)


def test_ram_polygon_degenerate_shapes():
    assert RamPolygon(2, 1, ((1, 0),)).vertices == ((1, 0),)
    tame = RamPolygon(2, 3, ((1, 0), (3, 0)))
    assert tame.value_at(2) == 0


def test_fine_polygon_requires_points_on_hull():
    FinePolygon(2, 8, ((1, 7), (2, 6), (4, 4), (8, 0)))
    with pytest.raises(ValueError):
        FinePolygon(2, 8, ((1, 7), (2, 5), (4, 4), (8, 0)))  # (4,4) above new hull
    with pytest.raises(ValueError):
        FinePolygon(2, 8, ((1, 7), (3, 5), (8, 0)))  # non-p-power wild abscissa
    with pytest.raises(ValueError):
        FinePolygon(2, 8, ((1, 7), (4, 4), (4, 4), (8, 0)))  # duplicate abscissa


def test_fine_polygon_derives_its_own_hull():
    # the constructor takes no hull: it derives the checked RamPolygon of the
    # points' vertices, which is no part of equality, hashing or repr
    points = ((1, 10), (2, 8), (4, 4), (8, 0))
    fine = FinePolygon(2, 8, points)
    assert fine.hull == RamPolygon(2, 8, ((1, 10), (4, 4), (8, 0)))
    assert "hull" not in repr(fine)
    for args, kwargs in (((fine.hull,), {}), ((), {"hull": fine.hull})):
        with pytest.raises(TypeError):
            FinePolygon(2, 8, points, *args, **kwargs)


def _reference_fine_hull(p, n, points):
    """The hull of a fine polygon on ``points``, or None where one is rejected.

    The reference route: the lower convex hull, validated as a RamPolygon,
    then every point checked to be at a p-power when wild and on the hull.
    """
    pts = sorted(points)
    try:
        hull = RamPolygon(p, n, tuple(lower_convex_hull(pts)))
        top = p ** vp(p, n)
        for x, J in pts:
            if (x <= top and x != p ** vp(p, x)) or hull.value_at(x) != J:
                return None
    except ValueError:
        return None
    return hull.vertices


def _chain_value(chain, x):
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        if x1 <= x <= x2:
            return Fraction(y1 * (x2 - x) + y2 * (x - x1), x2 - x1)
    return Fraction(chain[0][1])


@st.composite
def fine_point_sets(draw):
    """Points on and off the hull of a random chain, with duplicates."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 40))
    wild = [p**s for s in range(vp(p, n) + 1)]
    # (1, J0), some p-powers below p^(v_p(n)), then (p^(v_p(n)), 0) and (n, 0)
    corners = {
        x: draw(st.integers(0, 3 * n)) for x in wild[:-1] if x == 1 or draw(st.booleans())
    }
    corners.update({wild[-1]: 0, n: 0})
    chain = lower_convex_hull(corners.items())
    points = dict(chain)
    # lattice points of the chain at any abscissa, wild ones included; a few
    # moved off it
    for x in draw(st.lists(st.integers(1, n), max_size=6)):
        value = _chain_value(chain, x)
        if value.denominator == 1:
            points[x] = int(value) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    pts = list(points.items())
    if draw(st.integers(0, 3)) == 0:
        x, J = draw(st.sampled_from(pts))
        pts.append((x, J + draw(st.sampled_from([0, 1]))))
    return p, n, draw(st.permutations(pts))


@given(fine_point_sets())
@settings(max_examples=600)
def test_fine_polygon_sweep_matches_reference_hull(case):
    p, n, points = case
    try:
        hull = FinePolygon(p, n, tuple(points)).hull.vertices
    except ValueError:
        hull = None
    assert hull == _reference_fine_hull(p, n, points)
    # hull_points keeps exactly the points no chord passes strictly below
    if len({x for x, _ in points}) == len(points):
        on_hull = [
            (x, J)
            for x, J in sorted(points)
            if all(
                Fraction(J) <= Fraction(J1 * (x2 - x) + J2 * (x - x1), x2 - x1)
                for x1, J1 in points
                for x2, J2 in points
                if x1 < x < x2
            )
        ]
        assert hull_points(points) == on_hull


def test_fine_polygon_hull_and_tame_flags():
    Ps = FinePolygon(2, 12, ((1, 4), (2, 2), (4, 0), (6, 0), (8, 0), (12, 0)))
    assert Ps.hull.vertices == ((1, 4), (2, 2), (4, 0), (12, 0))
    assert Ps.tame_abscissas() == [6, 8, 12]
    assert [s for s, x, J in Ps.wild_points()] == [0, 1, 2]


def test_ell_P_spec_examples(ctx_q2):
    P = RamPolygon(2, 2, ((1, 2), (2, 0)))
    assert ell_P(ctx_q2, P, 2, 0) == 0
    assert ell_P(ctx_q2, P, 1, 0) == 2
    with pytest.raises(ValueError):
        ell_P(ctx_q2, P, 1, 1)  # needs p^s <= i


def test_ell_P_vertex_identity(ctx_q2):
    # at a vertex (p^s, J) with J = a*n + b and i = b the bound is a - B + 1
    from ramify.binomials import B

    for vertices in [((1, 2), (2, 0)), ((1, 7), (8, 0)), ((1, 5), (2, 2), (4, 0))]:
        n = vertices[-1][0]
        P = RamPolygon(2, n, vertices)
        for s, x, J in P.wild_vertices():
            a, b = decompose(J, n)
            if x <= b:
                assert ell_P(ctx_q2, P, b, s) == a - B(ctx_q2, b, x) + 1


def test_ell_P_vertex_identity_exhaustive_to_degree_16(ctx_q2, ram16):
    from ramify.binomials import B
    from ramify.enumeration import enumerate_ram_polygons

    polygons = list(ram16[0])
    for n in range(2, 16):
        polygons.extend(enumerate_ram_polygons(ctx_q2, n)[0])
    for P in polygons:
        for s, x, J in P.wild_vertices():
            a, b = decompose(J, P.n)
            if x <= b:
                assert ell_P(ctx_q2, P, b, s) == a - B(ctx_q2, b, x) + 1


def test_ell_fine_spec_examples(ctx_q2):
    Ps = FinePolygon(2, 2, ((1, 2), (2, 0)))
    assert ell_fine(ctx_q2, Ps, 1, 0) == 2
    big = FinePolygon(2, 8, ((1, 7), (2, 6), (4, 4), (8, 0)))
    assert ell_fine(ctx_q2, big, 7, 0) == 1
    # i = b_t at a point: indicator vanishes
    from ramify.binomials import B

    for s, x, J in big.wild_points():
        a, b = decompose(J, 8)
        if x <= b:
            assert ell_fine(ctx_q2, big, b, s) == a - B(ctx_q2, b, x) + 1


def test_ell_fine_excluded_position_uses_floor_formula(ctx_q2):
    # no point at abscissa 2: strict-exclusion bound
    import math

    from ramify.binomials import B

    Ps = FinePolygon(2, 8, ((1, 7), (4, 4), (8, 0)))
    hull_val = Ps.hull.value_at(2)
    for i in range(2, 9):
        expected = math.floor(Fraction(hull_val - i, 8)) - B(ctx_q2, i, 2) + 2
        assert ell_fine(ctx_q2, Ps, i, 1) == expected


def fraction_value(vertices, x):
    """The polygon's value at x as a Fraction, straight from its vertices."""
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        if x1 <= x <= x2:
            return Fraction(y1 * (x2 - x) + y2 * (x - x1), x2 - x1)
    return Fraction(vertices[0][1])


def fraction_ell_P(ctx, P, i, s):
    x = ctx.base.p**s
    return math.ceil(Fraction(fraction_value(P.vertices, x) - i, P.n)) - B(ctx, i, x) + 1


def fraction_ell_fine(ctx, Pstar, i, s):
    x = ctx.base.p**s
    J = dict(Pstar.points).get(x)
    if J is not None:
        a, b = decompose(J, Pstar.n)
        return a - B(ctx, i, x) + 1 + (1 if i < b else 0)
    hull_val = fraction_value(Pstar.hull.vertices, x)
    return math.floor(Fraction(hull_val - i, Pstar.n)) - B(ctx, i, x) + 2


# (field spec (p, f, e, gamma), degree)
LEMMA_CASES = [((2, 1, 1, 1), n) for n in range(1, 33)]
LEMMA_CASES += [((3, 1, 1, 1), n) for n in range(1, 28)]
LEMMA_CASES += [((2, 1, 2, 1), 8), ((2, 2, 1, "g"), 8)]


def test_integer_bounds_equal_fraction_formulas(ctx_q2, ctx_q3, ram16):
    from ramify.enumeration import enumerate_fine_polygons, enumerate_ram_polygons

    # the lemma: the bound at coefficient i reads the value V at p^s only
    # through ceil((V - i) / n) or floor((V - i) / n), which step where V - i
    # is a multiple of n; at each step, just either side of it and midway to
    # the next, the integer bound at ceil(V) is the rational ceil form and at
    # floor(V) + 1 the strict form
    checked = 0
    for spec, n in LEMMA_CASES:
        ctx = BinomialContext(make_field(*spec))
        p = ctx.base.p
        table = valuation_table(p, ctx.base.e, n)
        top = n * ctx.base.e * vp(p, n) + n
        for s in range(vp(p, n) + 1):
            for i in range(p**s, n + 1):
                steps = range(i % n, top + 1, n)
                values = [(y, 1) for y in steps] + [(2 * y + d, 2) for y in steps for d in (-1, 1)]
                values += [(y + z, 2) for y, z in zip(steps, steps[1:])]
                for N, D in values:
                    if N < 0:
                        continue
                    ceil_form = depth_bound(ctx, n, {s: (N, D)})(i, s)
                    strict_form = depth_bound(ctx, n, {s: (N, D)}, {s})(i, s)
                    assert 1 - (i - -(-N // D)) // n - table[i][s] == ceil_form, (n, i, s, N, D)
                    assert 1 - (i - (N // D + 1)) // n - table[i][s] == strict_form, (n, i, s, N, D)
                    checked += 1
    assert checked > 10_000

    # and on polygons, where ``least_ordinates`` gives ceil(V) and floor(V) + 1
    cases = [(ctx_q2, P) for n in range(1, 16) for P in enumerate_ram_polygons(ctx_q2, n)[0]]
    cases += [(ctx_q2, P) for P in ram16[0]]
    cases += [(ctx_q3, P) for P in enumerate_ram_polygons(ctx_q3, 9)[0]]
    for spec in [(2, 1, 2, 1), (2, 2, 1, "g")]:
        ctx = BinomialContext(make_field(*spec))
        cases += [(ctx, P) for P in enumerate_ram_polygons(ctx, 8)[0]]
    checked = 0
    for ctx, P in cases:
        p, n = ctx.base.p, P.n
        pairs = [(i, s) for s in range(vp(p, n) + 1) for i in range(p**s, n + 1)]
        for i, s in pairs:
            assert ell_P(ctx, P, i, s) == fraction_ell_P(ctx, P, i, s)
        for Pstar in enumerate_fine_polygons(ctx, P)[0]:
            for i, s in pairs:
                assert ell_fine(ctx, Pstar, i, s) == fraction_ell_fine(ctx, Pstar, i, s)
                checked += 1
    assert checked > 10_000


# ---------------------------------------------------------------------------
# residual polynomials


def test_residual_polynomial_single_steep_face(ctx_q2):
    one = ctx_q2.base.fq.one
    Pres = FinePolygonWithResidues(
        FinePolygon(2, 8, ((1, 7), (2, 6), (4, 4), (8, 0))), (one, one, one, one)
    )
    (face,) = residual_polynomials(ctx_q2, Pres)
    assert (face.x_left, face.x_right, face.h, face.e, face.w) == (1, 8, 1, 1, 7)
    # x^7 + x^3 + x + 1, constant coefficient first
    zero = ctx_q2.base.fq.zero
    assert face.coefficients == (one, one, zero, one, zero, zero, zero, one)


def test_residual_polynomial_tame_face(ctx_q2):
    one = ctx_q2.base.fq.one
    Pres = FinePolygonWithResidues(
        FinePolygon(2, 3, ((1, 0), (2, 0), (3, 0))), (one, one, one)
    )
    (face,) = residual_polynomials(ctx_q2, Pres)
    assert (face.h, face.e, face.w) == (0, 1, 2)
    assert face.coefficients == (one, one, one)


def test_residual_polynomial_gcd_face_monic_with_constant_rho():
    K = make_field(3, 2, 1, "g")
    ctx = BinomialContext(K)
    rho = K.gamma
    one = K.fq.one
    Pres = FinePolygonWithResidues(
        FinePolygon(3, 9, ((1, 6), (9, 0))), (rho, one)
    )
    faces = residual_polynomials(ctx, Pres)
    (face,) = faces
    # slope -6/8 = -3/4, width 8, degree 2
    assert (face.h, face.e, face.w) == (3, 4, 8)
    assert face.coefficients[-1] == one
    assert face.coefficients[0] == rho
    assert len(face.coefficients) == 3


def test_residual_polynomial_normalizes_interior_face_monic():
    K = make_field(2, 2, 1, "g")
    ctx = BinomialContext(K)
    g = K.gamma
    one = K.fq.one
    Pres = FinePolygonWithResidues(
        FinePolygon(2, 4, ((1, 6), (2, 2), (4, 0))), (one, g, one)
    )
    f1, f2 = residual_polynomials(ctx, Pres)
    assert f1.coefficients[-1] == one  # divided through by the right endpoint
    assert f1.coefficients[0] == one / g
    assert f2.coefficients == (g, K.fq.zero, one)


# ---------------------------------------------------------------------------
# generalized point records


def test_ram_point_specs_cover_every_p_power():
    P = RamPolygon(2, 12, ((1, 4), (2, 2), (4, 0), (12, 0)))
    specs = ram_to_json(P)["point_specs"]
    assert [(s["x"], s["rel"]) for s in specs] == [(1, "="), (2, "="), (4, "="), (12, "=")]
    P2 = RamPolygon(2, 8, ((1, 7), (8, 0)))
    specs2 = ram_to_json(P2)["point_specs"]
    assert [(s["x"], s["rel"], s["J"]) for s in specs2] == [
        (1, "=", 7),
        (2, ">=", 6),
        (4, ">=", 4),
        (8, "=", 0),
    ]


def test_fine_point_specs_mark_exclusions():
    Ps = FinePolygon(2, 8, ((1, 7), (4, 4), (8, 0)))
    specs = fine_to_json(Ps)["point_specs"]
    assert [(s["x"], s["rel"]) for s in specs] == [(1, "="), (2, ">"), (4, "="), (8, "=")]
    assert specs[1]["J"] == 6  # R_2 > 6 encodes R_2 > P(2) = 6


def test_invariant_with_unif_requires_nonzero_phi0(ctx_q2):
    one = ctx_q2.base.fq.one
    Pres = FinePolygonWithResidues(FinePolygon(2, 2, ((1, 2), (2, 0))), (one, one))
    InvariantWithUnif(Pres, one)
    with pytest.raises(ValueError):
        InvariantWithUnif(Pres, ctx_q2.base.fq.zero)
