"""Polygon invariants of Eisenstein polynomials, as exact integer geometry.

A ramification polygon of degree n is the lower convex hull of the points
(j, R_j), R_j = n * v(r_j), of the associated ramification polynomial; we
store polygons by their vertex lists.  A fine polygon additionally keeps
every lattice point of the hull that is actually attained, and may carry
a nonzero residue per point.  Ordinates are integers; all intermediate
polygon values are exact rationals.

Conventions used throughout:

* the ordinate J of a point decomposes as J = a*n + b with 1 <= b <= n
  (so J = 0 gives a = -1, b = n); see :func:`decompose`;
* points at abscissa p^s with s <= v_p(n) are the "wild" positions that
  the validity conditions quantify over, as (s, p^s, J) by :func:`wild_positions`;
* points (j, 0) with j beyond the last wild abscissa are "tame" and are
  stored explicitly (serialisations flag them).

The hull rule and the tame rule live here alone: :func:`hull_points` keeps
every point on the lower hull (vertices are its strictly convex turns, one
turn test for every caller), and :func:`tame_zeros` gives the (j, 0) points,
one tuple per degree.  So does the residue relation: :func:`polygon_plan`
gives each point's part of it once per polygon, to the analyzer, the
validity tests, the searches and the templates alike.  And so does the
polygon's value at an absent p-power, read only as the least ordinate a
point there may take (:func:`least_ordinates`): by the validity checks, the
templates' depth bounds, the point records and the fine search's lattice
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .binomials import ROW_DEGREES, B, BinomialContext, beta, vp, vp_binomial
from .residue_field import BaseField, FqElement

# fine polygons whose plans ``polygon_plan`` keeps, least recently used dropped first: well above
# the few hundred one enumeration meets; full of Q_2 degree-32 polygons, 5.8 MiB (tracemalloc)
PLAN_POLYGONS = 4096


_Point = tuple[int, int | Fraction]


def _turn(a: _Point, b: _Point, c: _Point) -> int | Fraction:
    """Twice the signed area of a, b, c: positive at a strictly convex turn through b."""
    (x1, y1), (x2, y2), (x3, y3) = a, b, c
    return (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)


def hull_points(points: Iterable[_Point]) -> list[_Point]:
    """Every point on the lower convex hull, collinear ones included, left to right.

    A monotone chain popping only at a strictly concave turn; rejects duplicate abscissas.
    """
    chain: list[_Point] = []
    for pt in sorted(points):
        # the previous point in order is always the chain's last
        if chain and chain[-1][0] == pt[0]:
            raise ValueError(f"duplicate abscissa {pt[0]}")
        while len(chain) >= 2 and _turn(chain[-2], chain[-1], pt) < 0:
            chain.pop()
        chain.append(pt)
    return chain


def _vertices(chain: Sequence[_Point]) -> list[_Point]:
    """The ends and strictly convex turns of a sorted chain; ValueError at a concave turn."""
    vertices = list(chain[:1])
    for a, b, c in zip(chain, chain[1:], chain[2:]):
        turn = _turn(a, b, c)
        if turn < 0:
            raise ValueError(f"point {b} is not on the hull")
        if turn > 0:
            vertices.append(b)
    if len(chain) > 1:
        vertices.append(chain[-1])
    return vertices


@lru_cache(maxsize=ROW_DEGREES)
def tame_zeros(p: int, n: int) -> tuple[tuple[int, int], ...]:
    """The tame rule: the points (j, 0), j in [p^(v_p(n)), n] with binomial(n, j) a unit.

    (p^(v_p(n)), 0) and (n, 0) are always among them.  One tuple per (p, n), shared by
    every caller, so the fine polygons and analyses of a degree share its tame points.
    """
    return tuple((j, 0) for j in range(p ** vp(p, n), n + 1) if not vp_binomial(p, n, j))


def wild_positions(p: int, n: int, points: Iterable[_Point]) -> list[tuple[int, int, int]]:
    """(s, p^s, J) for each point (x, J) at a p-power abscissa x <= p^(v_p(n)); a polygon's
    points come sorted, so s is counted up as x grows."""
    top = p ** vp(p, n)
    out, s, power = [], 0, 1
    for x, J in points:
        if x > top:
            break
        while power < x:
            power *= p
            s += 1
        out.append((s, x, J))
    return out


def decompose(J: int, n: int) -> tuple[int, int]:
    """The unique (a, b) with J = a*n + b and 1 <= b <= n."""
    if J < 0:
        raise ValueError("J must be nonnegative")
    b = (J - 1) % n + 1
    return (J - b) // n, b


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` and no ``__post_init__``."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class RamPolygon:
    """A (potential) ramification polygon, stored by its vertices.

    Structural requirements checked at construction: the first vertex is
    at abscissa 1, there is a vertex (p^(v_p(n)), 0), the last vertex is
    (n, 0), every other vertex sits at a power of p, and slopes strictly
    increase left to right.  A hull search result also carries the
    ramification index e over which the search proved it valid; a polygon
    from any other path, the constructor, a reader or ``dataclasses.replace``,
    carries None.
    """

    p: int
    n: int
    vertices: tuple[tuple[int, int], ...]
    _proved_e: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", tuple((int(x), int(J)) for x, J in self.vertices)
        )
        vs = self.vertices
        if self.n < 1 or not vs:
            raise ValueError("empty polygon")
        xs = [x for x, _ in vs]
        if xs != sorted(set(xs)):
            raise ValueError("vertex abscissas must strictly increase")
        if vs[0][0] != 1:
            raise ValueError("polygon must start at abscissa 1")
        if vs[-1] != (self.n, 0):
            raise ValueError(f"polygon must end at ({self.n}, 0)")
        if any(J < 0 for _, J in vs):
            raise ValueError("ordinates must be nonnegative")
        wild_top = self.p ** vp(self.p, self.n)
        if (wild_top, 0) not in vs:
            raise ValueError(f"missing mandatory vertex ({wild_top}, 0)")
        for x, _ in vs[:-1]:
            if x > wild_top or x != self.p ** vp(self.p, x):
                raise ValueError(f"interior vertex abscissa {x} is not a p-power")
        for a, b, c in zip(vs, vs[1:], vs[2:]):
            if _turn(a, b, c) <= 0:
                raise ValueError("vertices must be strictly convex")

    @classmethod
    def _built(cls, p: int, n: int, vertices: tuple[tuple[int, int], ...], e: int
               ) -> "RamPolygon":
        """The polygon as the hull search builds it, vertices already int, convex and in
        place, so with no check, and proved valid over e; every other caller constructs
        and is checked."""
        return _unchecked(cls, p=p, n=n, vertices=vertices, _proved_e=e)

    @property
    def J0(self) -> int:
        return self.vertices[0][1]

    def value_at(self, j: int) -> Fraction:
        """The polygon's exact value at the abscissa j."""
        if not 1 <= j <= self.n:
            raise ValueError(f"abscissa {j} outside [1, {self.n}]")
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            if x1 <= j <= x2:
                return Fraction(y1 * (x2 - j) + y2 * (j - x1), x2 - x1)
        return Fraction(self.vertices[0][1])  # the one-vertex polygon of degree 1

    def wild_vertices(self) -> list[tuple[int, int, int]]:
        """(s, p^s, J) for each vertex at a p-power abscissa <= p^(v_p(n))."""
        return wild_positions(self.p, self.n, self.vertices)


@dataclass(frozen=True)
class FinePolygon:
    """All attained lattice points of a ramification polygon.

    Every point lies on the lower convex hull of the point set, which is
    itself a structurally valid :class:`RamPolygon` (available as ``hull``).
    """

    p: int
    n: int
    points: tuple[tuple[int, int], ...]
    hull: RamPolygon = field(  # type: ignore[assignment]
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        pts = tuple(sorted((int(x), int(J)) for x, J in self.points))
        object.__setattr__(self, "points", pts)
        if len({x for x, _ in pts}) != len(pts):
            raise ValueError("duplicate abscissa")
        p, wild_top = self.p, self.p ** vp(self.p, self.n)
        for x, _ in pts:
            if x <= wild_top and x != p ** vp(p, x):
                raise ValueError(f"point abscissa {x} below {wild_top} must be a p-power")
        # sorted, distinct abscissas: a point is off the hull exactly at a concave turn
        object.__setattr__(self, "hull", RamPolygon(p, self.n, tuple(_vertices(pts))))

    @classmethod
    def _built(cls, p: int, n: int, points: tuple[tuple[int, int], ...], hull: RamPolygon
               ) -> "FinePolygon":
        """The polygon as the fine search builds it, points sorted ints on ``hull``, so with
        no check; every other caller constructs and is checked."""
        return _unchecked(cls, p=p, n=n, points=points, hull=hull)

    @property
    def J0(self) -> int:
        return self.points[0][1]

    def wild_points(self) -> list[tuple[int, int, int]]:
        """(s, p^s, J) for each point at a p-power abscissa <= p^(v_p(n))."""
        return wild_positions(self.p, self.n, self.points)

    def tame_abscissas(self) -> list[int]:
        """Abscissas of the stored points on the horizontal face beyond p^(v_p(n))."""
        top = self.p ** vp(self.p, self.n)
        return [x for x, J in self.points if J == 0 and x > top]


@dataclass(frozen=True)
class FinePolygonWithResidues:
    """A fine polygon with one nonzero residue attached to each point."""

    polygon: FinePolygon
    residues: tuple[FqElement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "residues", tuple(self.residues))
        if len(self.residues) != len(self.polygon.points):
            raise ValueError("need exactly one residue per point")
        if not all(self.residues):
            raise ValueError("residues must be nonzero")
        # the point (n, 0) always carries residue 1
        last = self.residues[-1]
        if last != last.field.one:
            raise ValueError("residue at (n, 0) must be 1")

    def items(self) -> Iterator[tuple[int, int, FqElement]]:
        for (x, J), rho in zip(self.polygon.points, self.residues):
            yield x, J, rho

    def residue_at(self, x: int) -> FqElement:
        for px, rho in zip((pt[0] for pt in self.polygon.points), self.residues):
            if px == x:
                return rho
        raise KeyError(x)


@dataclass(frozen=True)
class InvariantWithUnif:
    """A residue-decorated fine polygon refined by the uniformizer residue.

    ``phi0`` is the first pi-adic digit of the constant coefficient of any
    Eisenstein polynomial realising the invariant; -phi0 is the uniformizer
    residue of the root.
    """

    res: FinePolygonWithResidues
    phi0: FqElement

    def __post_init__(self) -> None:
        if not self.phi0:
            raise ValueError("phi0 must be nonzero")


# ---------------------------------------------------------------------------
# the residue relation, per point


@lru_cache(maxsize=PLAN_POLYGONS)
def polygon_plan(base: BaseField, n: int, points: tuple) -> tuple[FinePolygon, tuple]:
    """The validated fine polygon through ``points``, and one step per point (j, R).

    With R = a*n + b, the step is the plain tuple (j, R, b, k, B(b, j), beta(b, j)),
    k = -(1+a): the residue at the point is rho = beta(b, j) * phi_b * (-phi0)^k,
    phi_n = 1, and the first digit of coefficient b sits at depth -k - B(b, j).  B and
    beta are None where b < j, which no polynomial attains (BRange fails there)."""
    ctx = BinomialContext(base)
    steps = []
    for j, R in points:
        a, b = decompose(R, n)
        known = b >= j
        steps.append((j, R, b, -(1 + a), B(ctx, b, j) if known else None,
                      beta(ctx, b, j) if known else None))
    return FinePolygon(base.p, n, points), tuple(steps)


# ---------------------------------------------------------------------------
# the least ordinate at an absent p-power


def least_ordinates(p: int, positions: Sequence[tuple[int, int, int]]
                    ) -> list[tuple[int, int, int, int]]:
    """(s, p^s, ceil(V), floor(V) + 1) at each exponent s strictly between two
    consecutive points (s, p^s, J), V the segment's value at p^s.

    The records are the least ordinate a point at p^s may take on a hull, where
    the position is open, and on a fine polygon, where it is excluded; they
    differ exactly where V is an integer.  The depth bounds, the validity
    checks, the point records and the fine search read a polygon's value at a
    p-power only so.
    """
    out = []
    for (s_u, x_u, J_u), (s_w, x_w, J_w) in zip(positions, positions[1:]):
        D = x_w - x_u
        for s in range(s_u + 1, s_w):
            x = p**s
            N = J_u * (x_w - x) + J_w * (x - x_u)
            out.append((s, x, -(-N // D), N // D + 1))
    return out


# ---------------------------------------------------------------------------
# residual polynomials


@dataclass(frozen=True)
class ResidualPolynomial:
    """The monic residue-field polynomial attached to one face of the hull.

    The face runs from abscissa ``x_left`` to ``x_right`` with slope -h/e
    in lowest terms and width w = x_right - x_left; the coefficient at
    index (j - x_left)/e is the residue at j divided by the residue at the
    right endpoint, and 0 where no point is attained.
    """

    x_left: int
    x_right: int
    h: int
    e: int
    w: int
    coefficients: tuple[FqElement, ...]


def residual_polynomials(
    ctx: BinomialContext, Pres: FinePolygonWithResidues
) -> tuple[ResidualPolynomial, ...]:
    """One residual polynomial per face of the hull, left to right."""
    poly = Pres.polygon
    out = []
    for (x1, y1), (x2, y2) in zip(poly.hull.vertices, poly.hull.vertices[1:]):
        w = x2 - x1
        rise = y1 - y2
        g = math.gcd(rise, w)
        h, e = (rise // g, w // g) if rise else (0, 1)
        lead = Pres.residue_at(x2)
        zero = lead.field.zero
        coeffs = [zero] * (w // e + 1)
        for x, J, rho in Pres.items():
            if x1 <= x <= x2:
                assert (x - x1) % e == 0
                coeffs[(x - x1) // e] = rho / lead
        out.append(
            ResidualPolynomial(
                x_left=x1, x_right=x2, h=h, e=e, w=w, coefficients=tuple(coeffs)
            )
        )
    return tuple(out)
