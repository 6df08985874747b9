"""Reference paths kept beside the tests: the definitions, written out at O(n^2).

The package computes the same things faster: ``polygons.hull_points`` keeps every
point on the hull, ``analyzer.ramification_of`` evaluates R_j only where a
point can lie on it, over index masks of the leading valuations,
``templates.reduce_template`` builds an S_m map only
where two or more points attain C_m, ``templates.cardinality`` reads only the
listed slots, ``templates.expand_template`` builds each
coefficient's rows once, and ``validity`` decides each check in
closed form over one integer per p-power where ``condition_violations`` runs
every condition over the rational depth bound ``depth_bound``.  The tests
compare against these.
"""

import itertools
import math

from ramify.analyzer import EisensteinData
from ramify.binomials import B, BinomialContext, vp
from ramify.binomials import vp_binomial
from ramify.polygons import _vertices, decompose, hull_points
from ramify.validity import Violation
from ramify.residue_field import additive_coset_representatives
from ramify.templates import compute_Sm


def lower_convex_hull(points):
    """Vertices of the lower convex hull, left to right: the strict turns of ``hull_points``.

    Collinear interior points are dropped; duplicate abscissas are rejected.
    """
    return _vertices(hull_points(points))


def leading(f: EisensteinData) -> tuple:
    """(F_i, phi_i) for i < n: the index of each coefficient's first nonzero digit and that
    digit, (None, None) for a zero coefficient."""
    return tuple(next(((k, d) for k, d in enumerate(row, start=1) if d), (None, None))
                 for row in f.digits)


def signature_points(base, signature) -> list[tuple[int, int]]:
    """(j, R_j) for 1 <= j <= n by the O(n^2) definition, from the leading valuations
    (F_0, ..., F_{n-1}), None for a zero coefficient; the monic term, F_n = 0, keeps R_j
    finite.

    R_j is the least n * v(binomial(i, j) * f_i) + i over the coefficients i >= j.
    """
    ctx = BinomialContext(base)
    n = len(signature)
    terms = [(i, F) for i, F in enumerate(signature) if F is not None] + [(n, 0)]
    return [(j, min(n * (B(ctx, i, j) + F - 1) + i for i, F in terms if i >= j))
            for j in range(1, n + 1)]


def ramification_points(f: EisensteinData) -> list[tuple[int, int]]:
    """``signature_points`` of the leading valuations of ``f``."""
    return signature_points(f.base, [F for F, _ in leading(f)])


def expand_template_by_position(T):
    """``expand_template`` by its definition: the product over every position (i, k),
    k < cutoff, in (i, k) order, each table's rows written digit by digit."""
    if T.cutoff is None:
        raise ValueError("template is not finite (no cutoff)")
    positions = [(i, k) for i in range(T.n) for k in range(T.cutoff)]
    choice_sets = [sorted(T.slot(i, k)) for i, k in positions]
    zero = T.base.fq.zero
    for combo in itertools.product(*choice_sets):
        rows = [[zero] * (T.cutoff - 1) for _ in range(T.n)]
        for (i, k), value in zip(positions, combo):
            if k >= 1:
                rows[i][k - 1] = value
        yield EisensteinData(T.base, T.n, tuple(tuple(row) for row in rows))


def cardinality_by_position(T):
    """``cardinality`` by its definition: the product of the slot sizes over every position
    (i, k), 0 <= i < n and 0 <= k < cutoff."""
    if T.cutoff is None:
        raise ValueError("template is not finite (no cutoff)")
    return math.prod(len(T.slot(i, k)) for i in range(T.n) for k in range(T.cutoff))


def reduce_template_reference(ctx, T, inv):
    """``reduce_template`` by its definition: one S_m map per m, per template.

    For each m >= 1 whose position (d_m, 1 + c_m) lies below the cutoff, a
    full slot there becomes the coset representatives of
    (-phi0)^(1+c_m) * S_m(F_q); C_m strictly increases, so the first m past
    the cutoff ends the loop.
    """
    if T.cutoff is None:
        raise ValueError("reduction requires a truncated template")
    full = frozenset(T.base.fq.elements())
    minus_phi0 = -inv.phi0
    updates = {}
    m = 1
    while True:
        sm = compute_Sm(ctx, inv.res, m)
        k = 1 + sm.c_m
        if k >= T.cutoff:
            break
        position = (sm.d_m, k)
        if T.slot(*position) == full:
            scale = minus_phi0 ** (1 + sm.c_m)
            updates[position] = frozenset(additive_coset_representatives(ctx.base, sm.map, scale))
        m += 1
    return T.with_slots(updates)


def p_power_values(P) -> dict[int, tuple[int, int]]:
    """{s: (N, D)} with the hull ``P``'s value N / D at p^s, D > 0, for every p^s <= n."""
    values = {}
    s, x = 0, 1
    while x <= P.n:
        for (x1, y1), (x2, y2) in zip(P.vertices, P.vertices[1:]):
            if x1 <= x <= x2:
                values[s] = y1 * (x2 - x) + y2 * (x - x1), x2 - x1
                break
        else:
            values[s] = P.vertices[0][1], 1
        s, x = s + 1, x * P.p
    return values


def digit_bound(p, e, n, i, x, N, D, strict) -> int:
    """ell(i, s) at x = p^s, the polygon's value there N / D, in the ceil or strict form."""
    B_ix = e * vp_binomial(p, i, x)
    if strict:
        return (N - i * D) // (n * D) - B_ix + 2
    return -((i * D - N) // (n * D)) - B_ix + 1


def depth_bound(ctx, n, values, excluded=()):
    """The digit-depth bound ell(i, s), for p^s <= i <= n, from the rational values.

    ``values`` maps each exponent s consulted to the polygon's value at p^s
    as a fraction N / D with D > 0.  The bound is ceil((N/D - i) / n) - B(i, p^s) + 1,
    or, for s in ``excluded`` (p^s carries no point), the strict-exclusion form
    floor((N/D - i) / n) - B(i, p^s) + 2.
    """
    p, e = ctx.base.p, ctx.base.e

    def ell(i, s):
        x = p**s
        if not x <= i <= n:
            raise ValueError(f"need p^s <= i <= n, got p^s={x}, i={i}")
        return digit_bound(p, e, n, i, x, *values[s], s in excluded)

    return ell


def fine_depth_bound(ctx, Pstar):
    """``depth_bound`` of the fine polygon's hull, excluding the p-powers without a point."""
    values = p_power_values(Pstar.hull)
    attained = {x for x, _ in Pstar.points}
    excluded = {s for s in values if Pstar.p**s not in attained}
    return depth_bound(ctx, Pstar.n, values, excluded)


def condition_violations(ctx, n, positions, ell, s_values) -> list[Violation]:
    """The Ore / Consistency / Bounding conditions, each read off the bound ``ell``.

    ``positions`` lists (s_t, p^(s_t), J_t) for the p-power points present;
    ``ell`` is the digit-depth bound; ``s_values`` is the exponent range the
    universally quantified conditions run over (all of 0..v_p(n) for full
    validity, the present exponents only for weak validity).
    """
    out: list[Violation] = []
    p = ctx.base.p
    bounded = []
    for s_t, x_t, J_t in positions:
        _, b_t = decompose(J_t, n)
        if x_t > b_t:
            out.append(Violation.BRANGE)
        if b_t == n:
            if ell(n, s_t) != 0:
                out.append(Violation.ORE1)
        elif x_t <= b_t:
            own = ell(b_t, s_t)
            if own < 1:
                out.append(Violation.ORE3)
            bounded.append((b_t, own))
    for s in s_values:
        if ell(n, s) > 0:
            out.append(Violation.ORE2)
    by_b: dict[int, set[int]] = {}
    for b_t, own in bounded:
        by_b.setdefault(b_t, set()).add(own)
        for s in s_values:
            if p**s <= b_t and own < ell(b_t, s):
                out.append(Violation.BOUNDING)
                break
    for values in by_b.values():
        if len(values) > 1:
            out.append(Violation.CONSISTENCY)
    return out


def weak_violations(ctx, n, positions) -> list[Violation]:
    """``condition_violations`` over the present exponents only.

    At an attained position (p^s, J) the polygon's value is J itself, so the
    digit-depth bound at the present exponents needs no hull.
    """
    s_values = [s for s, _, _ in positions]
    ell = depth_bound(ctx, n, {s: (J, 1) for s, _, J in positions})
    return condition_violations(ctx, n, positions, ell, s_values)


def piece_violations(ctx, n, t, s, N, D, strict) -> list[Violation]:
    """``condition_violations`` of the point t at the exponent s alone, the value there
    N / D, in the ceil or (``strict``) strict-exclusion form."""
    ell = depth_bound(ctx, n, {t[0]: (t[2], 1), s: (N, D)}, (s,) if strict else ())
    return condition_violations(ctx, n, [t], ell, [s])


def hull_violations(ctx, P) -> set[Violation]:
    """Full validity of the hull ``P``: ``condition_violations`` over every exponent,
    on the hull's values at every p-power."""
    ell = depth_bound(ctx, P.n, p_power_values(P))
    s_values = range(vp(ctx.base.p, P.n) + 1)
    return set(condition_violations(ctx, P.n, P.wild_vertices(), ell, s_values))
