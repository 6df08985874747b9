"""Reference paths kept beside the tests: the definitions, written out at O(n^2).

The package computes the same things faster: ``polygons.hull_points`` keeps every
point on the hull, and ``analyzer.ramification_of`` evaluates R_j only where a
point can lie on it.  The tests compare against these.
"""

from ramify.analyzer import EisensteinData
from ramify.binomials import B, BinomialContext
from ramify.polygons import _vertices, hull_points


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
