import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ramify import BinomialContext, make_field, serialize, templates
from ramify.analyzer import NotEisensteinError, fine_of, render_integer_polynomial
from ramify.enumeration import (
    enumerate_fine_polygons,
    enumerate_invariants,
    enumerate_ram_polygons,
)
from ramify.polygons import FinePolygon, FinePolygonWithResidues, RamPolygon
from ramify.residue_field import additive_coset_representatives
from ramify.templates import (
    Template,
    cardinality,
    compute_Sm,
    eisenstein_template,
    expand_template,
    reduce_template,
    template_for_fine,
    template_for_invariant,
    template_for_polygon,
    truncate_krasner,
)
from reference import (
    cardinality_by_position,
    expand_template_by_position,
    reduce_template_reference,
)


def test_eisenstein_template_spec_examples(ctx_q2, ctx_q3):
    T = eisenstein_template(ctx_q2, 2)
    one2, zero2 = ctx_q2.base.fq.one, ctx_q2.base.fq.zero
    assert T.slot(0, 1) == {one2}
    assert T.slot(1, 0) == {zero2} and T.slot(0, 0) == {zero2}
    assert T.slot(1, 1) == {zero2, one2}
    assert T.cutoff is None

    T3 = eisenstein_template(ctx_q3, 3)
    e3 = ctx_q3.base.fq.from_int
    assert T3.slot(0, 1) == {e3(1), e3(2)}
    for i in range(3):
        assert T3.slot(i, 0) == {e3(0)}


def test_template_for_polygon_spec_examples(ctx_q2):
    one, zero = ctx_q2.base.fq.one, ctx_q2.base.fq.zero
    T = template_for_polygon(ctx_q2, RamPolygon(2, 2, ((1, 2), (2, 0))))
    assert T.slot(1, 1) == {zero}
    assert T.slot(0, 1) == {one}
    T2 = template_for_polygon(ctx_q2, RamPolygon(2, 2, ((1, 1), (2, 0))))
    assert T2.slot(1, 1) == {one}
    tame = template_for_polygon(ctx_q2, RamPolygon(2, 3, ((1, 0), (3, 0))))
    assert tame.slot(1, 1) == {zero, one} and tame.slot(2, 1) == {zero, one}


def test_template_for_fine_degree_eight(ctx_q2):
    one, zero = ctx_q2.base.fq.one, ctx_q2.base.fq.zero
    Ps = FinePolygon(2, 8, ((1, 7), (2, 6), (4, 4), (8, 0)))
    T = template_for_fine(ctx_q2, Ps)
    for i in (7, 6, 4):
        assert T.slot(i, 1) == {one}
    assert T.slot(5, 1) == {zero}


def test_template_for_invariant_spec_examples(ctx_q2, ctx_q3):
    one, zero = ctx_q2.base.fq.one, ctx_q2.base.fq.zero
    invs, _ = enumerate_invariants(ctx_q2, 2, "unif")
    by_J0 = {inv.res.polygon.J0: inv for inv in invs}
    T1 = template_for_invariant(ctx_q2, by_J0[1])
    assert T1.slot(0, 1) == {one} and T1.slot(1, 1) == {one}
    T2 = template_for_invariant(ctx_q2, by_J0[2])
    assert T2.slot(0, 1) == {one} and T2.slot(1, 1) == {zero}

    two = ctx_q3.base.fq.from_int(2)
    Pres3 = FinePolygonWithResidues(
        FinePolygon(3, 3, ((1, 1), (3, 0))),
        (ctx_q3.base.fq.one, ctx_q3.base.fq.one),
    )
    from ramify.polygons import InvariantWithUnif

    T3 = template_for_invariant(ctx_q3, InvariantWithUnif(Pres3, two))
    assert T3.slot(0, 1) == {two}


def test_truncate_krasner_cutoffs(ctx_q2):
    T = eisenstein_template(ctx_q2, 2)
    assert truncate_krasner(T, 2).cutoff == 4   # keep digits k <= 3
    assert truncate_krasner(T, 1).cutoff == 3   # keep digits k <= 2
    assert truncate_krasner(T, 0).cutoff == 2   # keep digits k <= 1
    zero = ctx_q2.base.fq.zero
    truncated = truncate_krasner(T, 1)
    assert truncated.slot(0, 3) == {zero}
    assert truncated.slot(1, 2) == {zero, ctx_q2.base.fq.one}


def test_truncated_eisenstein_count(ctx_q2):
    T = truncate_krasner(eisenstein_template(ctx_q2, 2), 1)
    assert cardinality(T) == 8
    assert len(list(expand_template(T))) == 8


def test_expand_requires_cutoff(ctx_q2):
    with pytest.raises(ValueError):
        list(expand_template(eisenstein_template(ctx_q2, 2)))
    with pytest.raises(ValueError):
        cardinality(eisenstein_template(ctx_q2, 2))


def test_template_slots_are_read_only(ctx_q2):
    # the survey oracle memoises verdicts per template, so a slot must not
    # change after construction, neither through T.slots nor the dict passed in
    zero = ctx_q2.base.fq.zero
    T = eisenstein_template(ctx_q2, 2)
    with pytest.raises(TypeError):
        T.slots[(1, 1)] = frozenset({zero})
    given = {(1, 1): frozenset({zero})}
    U = T.with_slots(given)
    given[(1, 1)] = frozenset()
    assert U.slot(1, 1) == {zero}
    with pytest.raises(TypeError):
        U.slots[(1, 1)] = frozenset()
    assert T.slot(1, 1) == set(ctx_q2.base.fq.elements())
    assert U == T.with_slots({(1, 1): frozenset({zero})})


def test_empty_slot_gives_zero_cardinality(ctx_q2):
    T = truncate_krasner(eisenstein_template(ctx_q2, 2), 1)
    T = T.with_slots({(1, 1): frozenset()})
    assert cardinality(T) == 0
    assert list(expand_template(T)) == []


def test_compute_Sm_spec_examples(ctx_q2):
    one = ctx_q2.base.fq.one
    Pres = FinePolygonWithResidues(FinePolygon(2, 2, ((1, 2), (2, 0))), (one, one))
    s1 = compute_Sm(ctx_q2, Pres, 1)
    assert (s1.C_m, s1.c_m, s1.d_m) == (2, 1, 0)
    assert [s1.map(u) for u in ctx_q2.base.fq.elements()] == [
        u * u for u in ctx_q2.base.fq.elements()
    ]
    s2 = compute_Sm(ctx_q2, Pres, 2)
    assert (s2.C_m, s2.c_m, s2.d_m) == (4, 2, 0)
    assert all(s2.map(u) == u + u * u for u in ctx_q2.base.fq.elements())
    # beyond the steepest slope the map is multiplication by the first residue
    for m in (3, 5, 9):
        sm = compute_Sm(ctx_q2, Pres, m)
        assert sm.C_m == 2 + m
        assert all(sm.map(u) == u for u in ctx_q2.base.fq.elements())


def test_Sm_is_additive_and_C_m_increasing(ctx_q2, ctx_q3):
    for ctx, n_max in ((ctx_q2, 8), (ctx_q3, 9)):
        for n in range(2, n_max + 1):
            for Pres in enumerate_invariants(ctx, n, "res")[0]:
                previous = None
                slots = set()
                for m in range(1, 2 * n + 2):
                    sm = compute_Sm(ctx, Pres, m)
                    if previous is not None:
                        assert sm.C_m > previous
                    previous = sm.C_m
                    slot = (sm.d_m, 1 + sm.c_m)
                    assert slot not in slots
                    slots.add(slot)
                    fq = ctx.base.fq
                    for u in fq.elements():
                        for v in fq.elements():
                            assert sm.map(u + v) == sm.map(u) + sm.map(v)


def test_reduced_template_degree_two_J0_2(ctx_q2):
    one, zero = ctx_q2.base.fq.one, ctx_q2.base.fq.zero
    invs, _ = enumerate_invariants(ctx_q2, 2, "unif")
    inv = next(i for i in invs if i.res.polygon.J0 == 2)
    T = truncate_krasner(template_for_invariant(ctx_q2, inv), 2)
    R = reduce_template(ctx_q2, T, inv)
    assert R.slot(0, 2) == {zero}            # m = 1, squaring is surjective
    assert R.slot(0, 3) == {zero, one}       # m = 2, u + u^2 has image {0}
    assert R.slot(1, 3) == {zero}            # m = 3, identity map
    assert R.slot(1, 2) == {zero, one}       # no m reaches this digit
    assert cardinality(R) == 4
    rendered = sorted(render_integer_polynomial(f) for f in expand_template(R))
    assert rendered == ["x^2+10", "x^2+2", "x^2+4x+10", "x^2+4x+2"]


def test_reduced_template_degree_two_J0_1(ctx_q2):
    one, zero = ctx_q2.base.fq.one, ctx_q2.base.fq.zero
    invs, _ = enumerate_invariants(ctx_q2, 2, "unif")
    inv = next(i for i in invs if i.res.polygon.J0 == 1)
    T = truncate_krasner(template_for_invariant(ctx_q2, inv), 1)
    R = reduce_template(ctx_q2, T, inv)
    assert R.slot(1, 2) == {zero}
    assert R.slot(0, 2) == {zero, one}
    assert cardinality(R) == 2
    rendered = sorted(render_integer_polynomial(f) for f in expand_template(R))
    assert rendered == ["x^2+2x+2", "x^2+2x+6"]


def test_reduced_cardinality_divides_unreduced(ctx_q2, ctx_q3):
    for ctx, n in ((ctx_q2, 4), (ctx_q3, 3)):
        for inv in enumerate_invariants(ctx, n, "unif")[0]:
            T = truncate_krasner(template_for_invariant(ctx, inv), inv.res.polygon.J0)
            R = reduce_template(ctx, T, inv)
            assert cardinality(T) % cardinality(R) == 0
            assert cardinality(R) == len(list(expand_template(R)))


def test_reduce_requires_truncation(ctx_q2):
    invs, _ = enumerate_invariants(ctx_q2, 2, "unif")
    T = template_for_invariant(ctx_q2, invs[0])
    with pytest.raises(ValueError):
        reduce_template(ctx_q2, T, invs[0])


def test_template_round_trip_degree_two(ctx_q2):
    for P in enumerate_ram_polygons(ctx_q2, 2)[0]:
        for Ps in enumerate_fine_polygons(ctx_q2, P)[0]:
            T = truncate_krasner(template_for_fine(ctx_q2, Ps), Ps.J0)
            for f in expand_template(T):
                assert fine_of(f) == Ps


def test_tame_reduced_template_is_classical(ctx_q3):
    # degree 2 tame over Q_3: reduction leaves x^2 + (unit) * 3 only
    invs, _ = enumerate_invariants(ctx_q3, 2, "unif")
    for inv in invs:
        T = truncate_krasner(template_for_invariant(ctx_q3, inv), 0)
        R = reduce_template(ctx_q3, T, inv)
        polys = [render_integer_polynomial(f) for f in expand_template(R)]
        assert len(polys) == 1
    all_polys = set()
    for inv in invs:
        T = reduce_template(
            ctx_q3, truncate_krasner(template_for_invariant(ctx_q3, inv), 0), inv
        )
        all_polys.update(render_integer_polynomial(f) for f in expand_template(T))
    assert all_polys == {"x^2+3", "x^2+6"}


def test_truncate_krasner_refuses_to_clobber_a_forced_digit(ctx_q2):
    # the forced unit digit of (1, 7) sits at k = 2, at the cutoff of J0 = 0
    refused = []
    for Ps in enumerate_invariants(ctx_q2, 4, "fine")[0]:
        try:
            truncate_krasner(template_for_fine(ctx_q2, Ps), 0)
        except ValueError:
            refused.append(Ps.points)
    assert len(refused) == 3 and ((1, 7), (2, 4), (4, 0)) in refused


def test_truncate_krasner_refuses_under_python_O():
    # an assert would vanish under -O and leave a template of the wrong polygon
    script = (
        "from ramify import BinomialContext, make_field\n"
        "from ramify.polygons import FinePolygon\n"
        "from ramify.templates import template_for_fine, truncate_krasner\n"
        "ctx = BinomialContext(make_field(2, 1, 1, 1))\n"
        "P = FinePolygon(2, 4, ((1, 7), (2, 4), (4, 0)))\n"
        "try:\n"
        "    truncate_krasner(template_for_fine(ctx, P), 0)\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
    )
    src = Path(templates.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "refused: cutoff would clobber a forced digit\n"


def _truncated(ctx, inv, extra=0):
    return truncate_krasner(template_for_invariant(ctx, inv), inv.res.polygon.J0 + extra)


def _assert_reductions_match_reference(ctx, n, extra=0):
    invs = enumerate_invariants(ctx, n, "unif")[0]
    for inv in invs:
        T = _truncated(ctx, inv, extra)
        assert reduce_template(ctx, T, inv) == reduce_template_reference(ctx, T, inv)
    return invs


@pytest.mark.parametrize("p, f, e, gamma, n, classes", [
    (3, 2, 1, "g", 9, 817),
    (3, 1, 1, 1, 9, None),
    (2, 2, 1, 1, 8, None),
    (2, 1, 2, 1, 8, None),
])
def test_reduce_template_matches_the_reference(p, f, e, gamma, n, classes):
    invs = _assert_reductions_match_reference(BinomialContext(make_field(p, f, e, gamma)), n)
    assert classes is None or len(invs) == classes


def test_full_slot_test_is_made_per_template(ctx_q2):
    # two templates of one class share a plan; narrowing a reduction position
    # in the second must keep that slot as narrowed, as the reference does
    inv = next(inv for inv in enumerate_invariants(ctx_q2, 4, "unif")[0]
               if inv.res.polygon.J0 == 7)
    T = _truncated(ctx_q2, inv)
    R = reduce_template(ctx_q2, T, inv)
    position = next(pos for pos, slot in R.slots.items() if slot != T.slot(*pos))
    narrowed = T.with_slots({position: frozenset({ctx_q2.base.fq.one})})
    R2 = reduce_template(ctx_q2, narrowed, inv)
    assert R2 == reduce_template_reference(ctx_q2, narrowed, inv)
    assert R2.slot(*position) == {ctx_q2.base.fq.one} != R.slot(*position)


def test_plan_caches_are_keyed_on_field_class_and_cutoff(ctx_q2):
    templates._fine_plan.cache_clear()
    _assert_reductions_match_reference(BinomialContext(make_field(2, 2, 1, 1)), 8)
    _assert_reductions_match_reference(ctx_q2, 8)
    _assert_reductions_match_reference(ctx_q2, 8, extra=8)  # a cutoff one larger


def test_plan_caches_are_bounded():
    assert templates._fine_plan.cache_parameters()["maxsize"] is not None


def test_invalid_fine_polygon_is_refused_on_every_call(ctx_q2):
    # lru_cache keeps no exception, so the second call validates again
    bad = FinePolygon(2, 4, ((1, 6), (4, 0)))
    for _ in range(2):
        with pytest.raises(ValueError):
            template_for_fine(ctx_q2, bad)


def test_each_invariant_template_is_guarded(ctx_q2, monkeypatch):
    calls = []
    real = templates.is_valid_with_unif
    monkeypatch.setattr(templates, "is_valid_with_unif",
                        lambda ctx, inv: calls.append(inv) or real(ctx, inv))
    inv = enumerate_invariants(ctx_q2, 4, "unif")[0][0]
    for _ in range(3):
        template_for_invariant(ctx_q2, inv)
    assert calls == [inv] * 3


def _minimum_and_ties(Pres, m):
    values = [J + m * x for x, J in Pres.polygon.points]
    return min(values), values.count(min(values))


def _positions_below_cutoff(inv, cutoff):
    """(m, C_m, number of points attaining C_m) for each m with 1 + c_m below the cutoff."""
    n = inv.res.polygon.n
    for m in itertools.count(1):
        C, ties = _minimum_and_ties(inv.res, m)
        if C >= (cutoff - 1) * n:
            return
        yield m, C, ties


def test_maps_are_built_only_at_face_slopes(monkeypatch):
    Sm_calls = []
    real_Sm = templates.compute_Sm
    monkeypatch.setattr(templates, "compute_Sm",
                        lambda ctx, Pres, m: Sm_calls.append((Pres, m)) or real_Sm(ctx, Pres, m))
    ctx = BinomialContext(make_field(3, 2, 1, "g"))
    invs = _assert_reductions_match_reference(ctx, 6)
    full, tied_full = frozenset(ctx.base.fq.elements()), 0
    for inv in invs:
        T = _truncated(ctx, inv)
        tied_full += sum(ties > 1 and T.slot(C % T.n, 1 + C // T.n) == full
                         for _, C, ties in _positions_below_cutoff(inv, T.cutoff))
    assert all(_minimum_and_ties(Pres, m)[1] >= 2 for Pres, m in Sm_calls)
    assert len(Sm_calls) == tied_full > 0


@pytest.mark.parametrize("p, f, e, gamma, n", [
    (2, 2, 1, 1, 8),
    (2, 1, 2, 1, 8),
    (3, 1, 1, 1, 9),
    (3, 2, 1, "g", 6),
])
def test_a_single_minimiser_gives_the_zero_coset_set(p, f, e, gamma, n):
    # S_m = u -> rho * u^(p^s) is onto F_q, so the reduction sets {0} without a map
    ctx = BinomialContext(make_field(p, f, e, gamma))
    zero = {ctx.base.fq.zero}
    single = 0
    for inv in enumerate_invariants(ctx, n, "unif")[0]:
        for m, C, ties in _positions_below_cutoff(inv, _truncated(ctx, inv).cutoff):
            if ties == 1:
                scale = (-inv.phi0) ** (1 + C // n)
                amap = compute_Sm(ctx, inv.res, m).map
                assert additive_coset_representatives(ctx.base, amap, scale) == zero
                single += 1
    assert single > 0


def test_truncating_a_truncated_template_keeps_the_lower_cutoff(ctx_q2):
    inner = truncate_krasner(eisenstein_template(ctx_q2, 2), 1)
    outer = truncate_krasner(inner, 4)
    assert outer.cutoff == inner.cutoff == 3
    assert outer.slot(1, 3) == {ctx_q2.base.fq.zero}
    assert cardinality(outer) == cardinality(inner) == 8
    assert truncate_krasner(inner, 0).cutoff == 2


def _random_slots(rng, fq, n, cutoff):
    """Slots at random positions, some outside [0, n) x [0, cutoff), of random sets, some empty."""
    elements = list(fq.elements())
    return {
        (rng.randrange(-1, n + 2), rng.randrange(-1, cutoff + 3)):
            frozenset(rng.sample(elements, rng.randrange(len(elements) + 1)))
        for _ in range(rng.randrange(3 * n + 1))
    }


@pytest.mark.parametrize("field", [(2, 1, 1, 1), (3, 1, 1, 1), (3, 2, 1, "g")])
def test_cardinality_equals_the_product_over_every_position(field):
    rng, base = random.Random(31), make_field(*field)
    for _ in range(400):
        n, cutoff = rng.randrange(6), rng.randrange(-1, 6)
        T = Template(base, n, _random_slots(rng, base.fq, n, cutoff), cutoff)
        assert cardinality(T) == cardinality_by_position(T)
    # an empty slot inside the box empties the template; outside it, it counts for nothing
    outside = Template(base, 3, {(3, 0): frozenset(), (-1, 1): frozenset(), (1, 2): frozenset()}, 2)
    assert cardinality(outside) == cardinality_by_position(outside) == base.fq.q ** 6
    inside = outside.with_slots({(2, 1): frozenset()})
    assert cardinality(inside) == cardinality_by_position(inside) == 0


def test_cardinality_of_templates_truncated_twice_equals_the_product():
    ctx = BinomialContext(make_field(3, 2, 1, "g"))
    for inv in enumerate_invariants(ctx, 6, "unif")[0]:
        J0 = inv.res.polygon.J0
        once = _truncated(ctx, inv, extra=12)
        twice = truncate_krasner(once, J0)
        assert once.cutoff > twice.cutoff and twice == _truncated(ctx, inv)
        for T in (once, twice, reduce_template(ctx, twice, inv)):
            assert cardinality(T) == cardinality_by_position(T)


def test_reduction_and_record_caches_are_bounded():
    for cache in (templates._reduction_walk, templates._Sm, serialize.res_to_json,
                  serialize._slot_record):
        assert cache.cache_parameters()["maxsize"] is not None


def _degree_mismatch(ctx_q2, ctx_q3):
    inv = enumerate_invariants(ctx_q2, 8, "unif")[0][0]
    return ctx_q2, truncate_krasner(eisenstein_template(ctx_q2, 4), inv.res.polygon.J0), inv


def _context_mismatch(ctx_q2, ctx_q3):
    inv = enumerate_invariants(ctx_q3, 3, "unif")[0][-1]
    return ctx_q2, _truncated(ctx_q3, inv), inv


def _invariant_mismatch(ctx_q2, ctx_q3):
    inv = enumerate_invariants(ctx_q3, 3, "unif")[0][-1]
    return ctx_q2, truncate_krasner(eisenstein_template(ctx_q2, 3), inv.res.polygon.J0), inv


@pytest.mark.parametrize("mismatch", [_degree_mismatch, _context_mismatch, _invariant_mismatch])
def test_reduce_refuses_a_mismatched_template(ctx_q2, ctx_q3, mismatch):
    ctx, T, inv = mismatch(ctx_q2, ctx_q3)
    with pytest.raises(ValueError):
        reduce_template(ctx, T, inv)


def _reduced_templates(base, n):
    ctx = BinomialContext(base)
    for inv in enumerate_invariants(ctx, n, "unif")[0]:
        T = truncate_krasner(template_for_invariant(ctx, inv), inv.res.polygon.J0)
        yield reduce_template(ctx, T, inv)


def _assert_expands_as_the_definition(T):
    tables = list(expand_template(T))
    assert tables == list(expand_template_by_position(T))
    assert len(tables) == cardinality(T)
    # tables are built from one set of rows: equal rows of a coefficient are one object
    rows = {}
    for f in tables:
        for i, row in enumerate(f.digits):
            assert rows.setdefault((i, row), row) is row
    return tables


@pytest.mark.parametrize("field, degrees", [
    ((2, 1, 1, 1), range(1, 13)),
    ((2, 2, 1, 1), [4]),
    ((3, 2, 1, "g"), [3]),
    ((2, 1, 2, 1), [4]),
], ids=["Q2", "F4", "F9-g", "e2"])
def test_expansion_order_equals_the_definition(field, degrees):
    base = make_field(*field)
    for n in degrees:
        for R in _reduced_templates(base, n):
            _assert_expands_as_the_definition(R)


def test_expansion_keeps_the_multiplicity_of_a_k0_slot_and_raises_lazily(ctx_q2):
    fq = ctx_q2.base.fq
    T = truncate_krasner(eisenstein_template(ctx_q2, 2), 1)
    # a two-element k = 0 slot of coefficient 1 repeats its four rows per row of
    # coefficient 0; the digit at k = 0 is dropped from each
    doubled = T.with_slots({(1, 0): frozenset(fq.elements())})
    tables = _assert_expands_as_the_definition(doubled)
    assert len(tables) == 2 * cardinality(T) == 16 and len(set(tables)) == 8
    assert tables[0:4] == tables[4:8] and tables[8:12] == tables[12:16]
    assert _assert_expands_as_the_definition(T.with_slots({(1, 2): frozenset()})) == []
    # with no position below the cutoff, even an empty k = 0 slot counts for nothing:
    # the one table, with no digits, is not Eisenstein
    bare = Template(T.base, 2, {(1, 0): frozenset()}, 0)
    with pytest.raises(NotEisensteinError):
        list(expand_template(bare))
    with pytest.raises(NotEisensteinError):
        list(expand_template_by_position(bare))
    assert cardinality(bare) == 1
    stream = expand_template(eisenstein_template(ctx_q2, 2))  # nothing raised yet
    with pytest.raises(ValueError, match="no cutoff"):
        next(stream)
