import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import analyzer, polygons
from ramify.analyzer import (
    EisensteinData,
    NotEisensteinError,
    brute_force_survey,
    fine_of,
    parse_integer_polynomial,
    polygon_of,
    render_integer_polynomial,
    residues_of,
    unif_of,
)
from ramify.binomials import B, BinomialContext, beta
from ramify.polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    RamPolygon,
    decompose,
)
from ramify.residue_field import make_field
from ramify.validity import admissible_phi0, is_valid_fine
from reference import lower_convex_hull, ramification_points


def poly(base, text):
    return parse_integer_polynomial(base, text)


def test_degree_eight_showcase(ctx_q2):
    f = poly(ctx_q2.base, "x^8+2x^7+2x^6+2x^4+2")
    assert ramification_points(f) == [
        (1, 7),
        (2, 6),
        (3, 7),
        (4, 4),
        (5, 7),
        (6, 6),
        (7, 7),
        (8, 0),
    ]
    assert polygon_of(f).vertices == ((1, 7), (8, 0))
    assert fine_of(f).points == ((1, 7), (2, 6), (4, 4), (8, 0))
    inv = unif_of(f)
    one = ctx_q2.base.fq.one
    assert all(rho == one for _, _, rho in inv.res.items())
    assert inv.phi0 == one


def test_quadratic_and_tame_examples(ctx_q2):
    g = poly(ctx_q2.base, "x^2-2")
    assert ramification_points(g) == [(1, 2), (2, 0)]
    assert polygon_of(g).vertices == ((1, 2), (2, 0))
    assert unif_of(g).phi0 == ctx_q2.base.fq.one

    h = poly(ctx_q2.base, "x^3-2")
    assert ramification_points(h) == [(1, 0), (2, 0), (3, 0)]
    assert polygon_of(h).vertices == ((1, 0), (3, 0))
    assert fine_of(h).points == ((1, 0), (2, 0), (3, 0))


def test_cubic_over_q3(ctx_q3):
    k = poly(ctx_q3.base, "x^3-3")
    assert ramification_points(k) == [(1, 3), (2, 3), (3, 0)]
    assert fine_of(k).points == ((1, 3), (3, 0))
    inv = unif_of(k)
    assert inv.phi0 == ctx_q3.base.fq.from_int(2)  # residue of -3/3
    assert inv.phi0 in admissible_phi0(ctx_q3, inv.res)


def test_residue_at_degree_point_is_one(ctx_q2, survey_q2_n2):
    one = ctx_q2.base.fq.one
    for group in survey_q2_n2.values():
        for f in itertools.islice(group, 3):
            decorated = residues_of(f)
            assert decorated.residue_at(f.n) == one


def test_parse_rejects_non_eisenstein(ctx_q2):
    for bad in ["x^2-1", "x^2+x+2", "2x^2+2", "x^2+4", "x^2"]:
        with pytest.raises(NotEisensteinError):
            poly(ctx_q2.base, bad)


def test_parse_requires_prime_base_field():
    K = make_field(2, 2, 1, 1)
    with pytest.raises(ValueError):
        parse_integer_polynomial(K, "x^2-2")


def test_parse_render_round_trip(ctx_q2):
    for text in ["x^8+2x^7+2x^6+2x^4+2", "x^4+4x^2+2", "x^2+6"]:
        f = poly(ctx_q2.base, text)
        assert poly(ctx_q2.base, render_integer_polynomial(f)) == f


def test_negative_coefficients_truncate_consistently(ctx_q2):
    # -2 and its positive truncation share valuation and leading digit, so
    # all invariants agree
    f_neg = poly(ctx_q2.base, "x^2-2")
    f_pos = poly(ctx_q2.base, "x^2+2")
    assert fine_of(f_neg).points == fine_of(f_pos).points
    assert unif_of(f_neg).phi0 == unif_of(f_pos).phi0


def test_digit_table_canonicalization(ctx_q2):
    fq = ctx_q2.base.fq
    one, zero = fq.one, fq.zero
    a = EisensteinData(ctx_q2.base, 2, ((one,), ()))
    b = EisensteinData(ctx_q2.base, 2, ((one, zero), (zero, zero)))
    assert a == b
    assert a.leading() == ((1, one), (None, None))
    assert a.digit(0, 1) == one and a.digit(1, 5) == zero
    assert a.digit(2, 0) == one


def test_eisenstein_data_rejections(ctx_q2):
    fq = ctx_q2.base.fq
    with pytest.raises(NotEisensteinError):
        EisensteinData(ctx_q2.base, 2, ((), ()))  # zero constant coefficient
    with pytest.raises(NotEisensteinError):
        EisensteinData(ctx_q2.base, 2, ((fq.zero, fq.one), ()))  # v(f_0) = 2
    with pytest.raises(NotEisensteinError):
        EisensteinData.from_digit_map(ctx_q2.base, 2, {(0, 0): fq.one})


def test_survey_degree_two_keys(ctx_q2, survey_q2_n2):
    assert {Ps.points for Ps in survey_q2_n2} == {
        ((1, 1), (2, 0)),
        ((1, 2), (2, 0)),
    }
    # 32 Eisenstein tables at depth 3: digit (0,1) nonzero, 4 free digits
    assert sum(len(g) for g in survey_q2_n2.values()) == 32


def test_survey_lists_tables_in_lexicographic_order(ctx_q2, survey_q2_n2):
    def digits(f):
        return tuple(tuple(d.index for d in row) + (0,) * (3 - len(row)) for row in f.digits)

    for group in survey_q2_n2.values():
        tables = list(group)
        assert tables == sorted(tables, key=digits)
    firsts = [next(iter(group)) for group in survey_q2_n2.values()]
    assert firsts == sorted(firsts, key=digits)


@pytest.mark.parametrize("case, fixture", [
    ((2, 2, 3), "survey_q2_n2"), ((2, 4, 3), None), ((2, 4, 5), "survey_q2_n4"),
    ((3, 3, 3), "survey_q3_n3"),
])
def test_survey_group_sizes_count_the_tables_they_yield(request, ctx_q2, ctx_q3, case, fixture):
    p, n, bound = case
    ctx = ctx_q2 if p == 2 else ctx_q3
    survey = request.getfixturevalue(fixture) if fixture else brute_force_survey(ctx, n, bound)
    for group in survey.values():
        assert len(group) == sum(1 for _ in group)
    # every Eisenstein table: the constant row has a nonzero first digit
    q = ctx.base.q
    assert sum(map(len, survey.values())) == (q**bound - q ** (bound - 1)) * q ** (bound * (n - 1))


def test_default_surveys_hold_the_tables_perfbench_counts(survey_q2_n2, survey_q2_n4, survey_q3_n3):
    surveys = (survey_q2_n2, survey_q2_n4, survey_q3_n3)
    assert sum(len(group) for survey in surveys for group in survey.values()) == 537_442


def test_survey_builds_no_table_and_frees_iterated_ones_without_the_collector(ctx_q2):
    # a survey holds row ranges, not tables; the tables its groups yield hold
    # no reference cycle, so each is freed once dropped
    def tables():
        return sum(isinstance(obj, EisensteinData) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = tables()
        survey = brute_force_survey(ctx_q2, 4, 3)
        assert tables() == before
        kept = [f for group in survey.values() for f in group]
        assert len(kept) == 2048 and tables() == before + 2048
        del kept
        assert tables() == before
        assert sum(1 for group in survey.values() for _ in group) == 2048
        assert tables() == before
    finally:
        gc.enable()


def test_survey_guard(ctx_q2):
    with pytest.raises(ValueError):
        brute_force_survey(ctx_q2, 8, 5)


def test_survey_matches_enumerated_fine_sets(ctx_q2, ctx_q3, survey_q2_n4, survey_q3_n3):
    from ramify.enumeration import enumerate_invariants

    fines2, _ = enumerate_invariants(ctx_q2, 4, "fine")
    assert {Ps.points for Ps in survey_q2_n4} == {Ps.points for Ps in fines2}
    fines3, _ = enumerate_invariants(ctx_q3, 3, "fine")
    assert {Ps.points for Ps in survey_q3_n3} == {Ps.points for Ps in fines3}


def test_surveyed_residues_are_valid(ctx_q3, survey_q3_n3):
    # exhaustive residue consistency at the smallest odd case
    for fine, group in survey_q3_n3.items():
        assert is_valid_fine(ctx_q3, fine).ok
        for f in group:
            decorated = residues_of(f)
            assert f.digit(0, 1) in admissible_phi0(ctx_q3, decorated)


# ---------------------------------------------------------------------------
# the forward pass against a reference kept here: the formulas written out,
# each coefficient rescanned per use, and the residue minimiser found by scan


def _reference_F(f, i):
    if i == f.n:
        return 0
    return next((k for k, d in enumerate(f.digits[i], start=1) if d), None)


def _reference_term(ctx, f, i, j):
    return f.n * (B(ctx, i, j) + _reference_F(f, i) - 1) + i


def reference_invariants(f):
    ctx = BinomialContext(f.base)
    n = f.n
    nonzero = [i for i in range(n + 1) if _reference_F(f, i) is not None]
    points = [
        (j, min(_reference_term(ctx, f, i, j) for i in nonzero if i >= j))
        for j in range(1, n + 1)
    ]
    hull = RamPolygon(f.base.p, n, tuple(lower_convex_hull(points)))
    fine = FinePolygon(
        f.base.p, n, tuple((j, R) for j, R in points if hull.value_at(j) == R)
    )
    minus_phi0 = -f.digit(0, 1)
    residues = []
    for j, R in fine.points:
        a, b = decompose(R, n)
        attained = [i for i in nonzero if i >= j and _reference_term(ctx, f, i, j) == R]
        assert attained == [b]
        phi_b = f.base.fq.one if b == n else f.digits[b][_reference_F(f, b) - 1]
        residues.append(beta(ctx, b, j) * phi_b * minus_phi0 ** (-(1 + a)))
    return points, hull, fine, FinePolygonWithResidues(fine, tuple(residues))


_REFERENCE_FIELDS = [
    make_field(2, 1, 1, 1),
    make_field(3, 1, 1, 1),
    make_field(5, 1, 1, 1),
    make_field(2, 1, 2, 1),
    make_field(2, 2, 1, 1),
    make_field(3, 2, 1, 1),
]

# p-power and p-power-multiple degrees, where ``ramification_of`` skips most
# abscissas and (for 48 and 54) adds tame zeros beyond p^(v_p(n))
_SKIPPING_DEGREES = [9, 16, 25, 27, 32, 48, 54, 64]


@st.composite
def digit_tables(draw):
    base = draw(st.sampled_from(_REFERENCE_FIELDS))
    n = draw(st.integers(1, 12) | st.sampled_from(_SKIPPING_DEGREES))
    elements = list(base.fq.elements())
    digit = st.sampled_from(elements)
    rows = [draw(st.lists(st.just(base.fq.zero) | digit, max_size=4)) for _ in range(n)]
    unit = draw(st.sampled_from([x for x in elements if x]))
    rows[0] = [unit, *rows[0][1:]]
    return EisensteinData(base, n, tuple(tuple(row) for row in rows))


@settings(max_examples=400, deadline=None)
@given(digit_tables())
def test_forward_pass_matches_reference_formulas(f):
    points, hull, fine, res = reference_invariants(f)
    assert ramification_points(f) == points
    assert polygon_of(f) == hull
    assert fine_of(f) == fine
    assert fine_of(f).hull == hull
    assert residues_of(f) == res


def _table_with_signature(base, signature, rng):
    """A digit table whose coefficient i leads at pi^F_i, zero where F_i is None."""
    units = [x for x in base.fq.elements() if x]
    return EisensteinData(
        base,
        len(signature),
        tuple(() if F is None else (base.fq.zero,) * (F - 1) + (rng.choice(units),)
              for F in signature),
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fine_of_is_the_on_hull_part_of_every_point(p):
    # seeded sweep over e <= 3 and f <= 2: the fine polygon from the p-powers and
    # the tame zeros is the set of points (j, R_j) of all n abscissas on their hull
    rng = random.Random(p)
    for e in (1, 2, 3):
        for f_ in (1, 2):
            base = make_field(p, f_, e, 1)
            for _ in range(40):
                n = rng.choice([rng.randint(1, 30), p ** rng.randint(1, 3) * rng.randint(1, 4)])
                top = e * n.bit_length() + 2
                signature = [1] + [
                    None if rng.random() < 0.2 else rng.randint(1, top) for _ in range(n - 1)
                ]
                f = _table_with_signature(base, signature, rng)
                points = ramification_points(f)
                hull = RamPolygon(p, n, tuple(lower_convex_hull(points)))
                on_hull = tuple((j, R) for j, R in points if hull.value_at(j) == R)
                assert fine_of(f).points == on_hull, (p, e, f_, signature)


def test_degree_rows_are_keyed_by_p_e_and_n_and_bounded():
    # Q_2, e = 2 over Q_2 and F_4 share (p, n): F_4 may read Q_2's rows, the
    # ramified fields may not, and e = 2^64 puts the terms beyond any fixed
    # bound.  The degrees outnumber the rows kept, and the second sweep runs
    # backwards, so evicted degrees are built again.  A sparse table leaves R
    # to the monic term
    fields = [make_field(2, 1, e, 1) for e in (1, 2, 2**64)] + [make_field(2, 2, 1, 1)]
    degrees = list(range(1, analyzer.ROW_DEGREES + 9)) + [32, 48, 64]
    rng = random.Random(16)
    analyzer.degree_rows.cache_clear()
    for n in degrees + degrees[::-1]:
        for base in fields:
            for sparse in (False, True):
                top = min(base.e, 2) * n.bit_length() + 2
                signature = [1] + [
                    None if sparse or rng.random() < 0.2 else rng.randint(1, top)
                    for _ in range(n - 1)
                ]
                f = _table_with_signature(base, signature, rng)
                assert residues_of(f) == reference_invariants(f)[3], (base, signature)
                assert analyzer.degree_rows.cache_info().currsize <= analyzer.ROW_DEGREES
    assert analyzer.degree_rows.cache_info().currsize == analyzer.ROW_DEGREES


def test_polygon_plans_are_keyed_by_field_and_bounded():
    # Q_2, e = 2 over Q_2 and F_4 share p, and F_9 with gamma = 1 and gamma = g
    # share (p, e): the same signature gives them the same hull points, with
    # beta in another field or scaled by another power of gamma.  Each
    # polynomial is analyzed cold, after every field before it, and warm
    fields = [make_field(2, 1, 1, 1), make_field(2, 1, 2, 1), make_field(2, 2, 1, 1),
              make_field(3, 2, 1, 1), make_field(3, 2, 1, "g")]
    rng = random.Random(14)
    polygons.polygon_plan.cache_clear()
    for n in (2, 3, 4, 6, 8, 9, 12, 16, 18, 27):
        for _ in range(6):
            signature = [1] + [
                None if rng.random() < 0.2 else rng.randint(1, 2 * n.bit_length() + 2)
                for _ in range(n - 1)
            ]
            for base in fields:
                f = _table_with_signature(base, signature, rng)
                expected = reference_invariants(f)[3]
                assert residues_of(f) == expected == residues_of(f), (base, signature)
    # more polygons than the bound: (1, J), (2, 0) for every J; the plans
    # kept never outnumber it, and an evicted polygon is planned again
    Q2 = fields[0]
    for J in range(1, polygons.PLAN_POLYGONS + 64):
        fine, steps = polygons.polygon_plan(Q2, 2, ((1, J), (2, 0)))
        assert fine.points == ((1, J), (2, 0)) and len(steps) == 2
        assert polygons.polygon_plan.cache_info().currsize <= polygons.PLAN_POLYGONS
    assert polygons.polygon_plan.cache_info().currsize == polygons.PLAN_POLYGONS
    f = poly(Q2, "x^8+2x^7+2x^6+2x^4+2")
    assert residues_of(f) == reference_invariants(f)[3]


def test_a_planned_polygon_is_neither_validated_nor_planned_again(monkeypatch):
    # the plan validates a polygon once; a later analysis on it builds no
    # FinePolygon, yet still checks each point's minimizer against its own
    # signature.  Both tables below share the first one's polygon
    built = []
    post_init = FinePolygon.__post_init__
    monkeypatch.setattr(FinePolygon, "__post_init__", lambda self: built.append(self) or post_init(self))
    base = make_field(2, 1, 1, 1)
    polygons.polygon_plan.cache_clear()
    f, g = poly(base, "x^8+2x^7+2x^6+2x^4+2"), poly(base, "x^8+6x^7+2x^6+2x^4+6")
    first = unif_of(f)
    assert len(built) == 1
    assert unif_of(f) == first and unif_of(g).res.polygon is first.res.polygon
    assert len(built) == 1
    assert polygons.polygon_plan.cache_info().misses == 1
    # x^8+2 has no f_7, which the plan of f's polygon reads at (1, 7): handing
    # its signature that cached plan must fail the minimizer check
    h = poly(base, "x^8+2")
    monkeypatch.setattr(analyzer, "hull_points", lambda points: list(first.res.polygon.points))
    with pytest.raises(AssertionError, match="minimizer at j=1"):
        residues_of(h)
    assert polygons.polygon_plan.cache_info().misses == 1 and len(built) == 1


def _vp_binomial_by_digit_sums(p, limit):
    """v_p(binomial(i, j)) for 0 <= j <= i < limit, by Legendre's digit-sum form."""
    sums = [0] * limit
    for k in range(1, limit):
        sums[k] = sums[k // p] + k % p
    return lambda i, j: (sums[j] + sums[i - j] - sums[i]) // (p - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomial_valuation_is_least_at_the_p_power_below(p):
    # the lemma behind ramification_of: for p^s <= j < p^(s+1) and j <= i,
    # v_p(binomial(i, j)) >= v_p(binomial(i, p^s))
    limit = 700
    v = _vp_binomial_by_digit_sums(p, limit)
    for i in range(1, limit):
        x = 1
        while x <= i:
            floor = v(i, x)
            assert all(v(i, j) >= floor for j in range(x, min(x * p, i + 1))), (i, x)
            x *= p
