"""Reference paths kept beside the tests: the definitions, written out at O(n^2).

The package computes the same things faster: ``polygons.hull_points`` keeps every
point on the hull, ``analyzer.ramification_of`` evaluates R_j only where a
point can lie on it, and ``templates.reduce_template`` builds an S_m map only
where two or more points attain C_m.  The tests compare against these.
"""

from ramify.analyzer import EisensteinData
from ramify.binomials import B, BinomialContext
from ramify.polygons import _vertices, hull_points
from ramify.residue_field import additive_coset_representatives
from ramify.templates import compute_Sm


def lower_convex_hull(points):
    """Vertices of the lower convex hull, left to right: the strict turns of ``hull_points``.

    Collinear interior points are dropped; duplicate abscissas are rejected.
    """
    return _vertices(hull_points(points))


def ramification_points(f: EisensteinData) -> list[tuple[int, int]]:
    """(j, R_j) for 1 <= j <= n by the O(n^2) definition; the leading term keeps R_j finite.

    R_j is the least n * v(binomial(i, j) * f_i) + i over the coefficients i >= j.
    """
    ctx = BinomialContext(f.base)
    n = f.n
    terms = [(i, Fi) for i, (Fi, _) in enumerate(f.leading()) if Fi is not None]
    terms.append((n, 0))
    return [(j, min(n * (B(ctx, i, j) + Fi - 1) + i for i, Fi in terms if i >= j))
            for j in range(1, n + 1)]


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
