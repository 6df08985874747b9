"""Eisenstein-polynomial templates: build, truncate, reduce, count, expand.

A template assigns to each digit position (i, k) - coefficient index i
below n, pi-power k - a set of allowed residues; the polynomials of the
template are the monic degree-n polynomials whose digit tables pick from
these sets.  Unlisted positions follow the default rule: the full residue
field below the cutoff digit, {0} at and above it.

The construction places {0} at every position forced to vanish by the
digit-depth bounds of a polygon, the unit set F_q^x where a first digit is
forced to be nonzero, and singletons where the residue decoration and the
uniformizer residue pin digits exactly.  Truncation at the Krasner depth
1 + 2*J0/n makes templates finite without changing the set of generated
extensions, and the uniformizer-change reduction shrinks free positions
to coset representatives of the images of the induced additive maps S_m,
each built only where m is the slope of a hull face.

Cached in bounded ``lru_cache``s, none holding a ``BinomialContext``: per
(base field, fine polygon), the validated template and the steps of
``polygons.polygon_plan``, which give the unit pins and the pinned values;
per (points, n, cutoff), the reduction walk: each m's position and whether
points tie there (``FINE_POLYGONS`` each); per (base field, residue class, m),
the S_m map (``S_MAPS``).  Per invariant remain the validity guard, the
pinned values, the reduction's slot tests and coset sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .analyzer import EisensteinData, trim_row
from .binomials import BinomialContext, valuation_table, vp
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    least_ordinates,
    polygon_plan,
)
from .residue_field import AdditiveMap, BaseField, Fq, FqElement, additive_coset_representatives
from .validity import is_valid_fine, is_valid_ram, is_valid_with_unif

# An enumeration yields one polygon's invariants in a row, so these bounds only
# cap memory.  Full (tracemalloc): 14 MiB of Q_2 degree-32 fine templates.
FINE_POLYGONS = 1024  # fine templates and plan steps; reduction walks
S_MAPS = 4096  # S_m maps, per (base field, residue class, m)


@lru_cache(maxsize=None)
def _default_sets(fq: Fq) -> tuple[frozenset[FqElement], frozenset[FqElement]]:
    """The default slots {0} and F_q, built once per field."""
    return frozenset({fq.zero}), frozenset(fq.elements())


@dataclass(frozen=True)
class Template:
    """A digit-set table describing a finite or cofinite family of polynomials.

    ``slots`` is a read-only view of a private copy of the mapping passed
    in, so a template never changes after construction.
    """

    base: BaseField
    n: int
    slots: Mapping[tuple[int, int], frozenset[FqElement]]
    cutoff: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", MappingProxyType(dict(self.slots)))

    def slot(self, i: int, k: int) -> frozenset[FqElement]:
        listed = self.slots.get((i, k))
        if listed is not None:
            return listed
        zero, full = _default_sets(self.base.fq)
        return zero if self.cutoff is not None and k >= self.cutoff else full

    def with_slots(self, updates: Mapping[tuple[int, int], frozenset[FqElement]]) -> "Template":
        merged = dict(self.slots)
        merged.update(updates)
        return Template(self.base, self.n, merged, self.cutoff)


def eisenstein_template(ctx: BinomialContext, n: int) -> Template:
    """The template of all Eisenstein polynomials of degree n.

    Digits at pi-power 0 vanish, the first digit of the constant
    coefficient is a unit, and everything else is unconstrained.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    fq = ctx.base.fq
    slots: dict[tuple[int, int], frozenset[FqElement]] = {
        (i, 0): frozenset({fq.zero}) for i in range(n)
    }
    slots[(0, 1)] = frozenset(fq.units())
    return Template(ctx.base, n, slots, None)


def _apply_depth_bounds(ctx, n, ordinates, steps) -> Template:
    """The Eisenstein template with digits below the bound zeroed and forced first digits pinned.

    ``ordinates`` holds (s, p^s, L) at every exponent s <= v_p(n), the polygon's
    least ordinate at p^s: coefficient i >= p^s is bounded to depth
    ceil((L - i) / n) + 1 - B[i][s] there.  Each of the polygon plan's ``steps``
    with b < n forces the first digit of coefficient b, at depth -k - B(b, x), to be a unit.
    """
    table = valuation_table(ctx.base.p, ctx.base.e, n)
    fq = ctx.base.fq
    zero_set = frozenset({fq.zero})
    lower = {}
    for s, x, L in ordinates:
        for i in range(x, n):
            bound = 1 - (i - L) // n - table[i][s]
            if bound > lower.get(i, 1):
                lower[i] = bound
    updates: dict[tuple[int, int], frozenset[FqElement]] = {}
    for i, bound in lower.items():
        for k in range(1, bound):
            updates[(i, k)] = zero_set
    for _, _, b, k, B_bx, _ in steps:
        if b < n:
            depth = -k - B_bx
            assert depth == lower.get(b, depth), "pinned digit clashes with a zero"
            updates[(b, depth)] = frozenset(fq.units())
    return eisenstein_template(ctx, n).with_slots(updates)


def template_for_polygon(ctx: BinomialContext, P: RamPolygon) -> Template:
    """The template of exactly the Eisenstein polynomials with polygon ``P``."""
    if not is_valid_ram(ctx, P).ok:
        raise ValueError("template requires a valid polygon")
    wild = P.wild_vertices()
    ordinates = wild + [(s, x, L) for s, x, L, _ in least_ordinates(P.p, wild)]
    return _apply_depth_bounds(ctx, P.n, ordinates, polygon_plan(ctx.base, P.n, P.vertices)[1])


@lru_cache(maxsize=FINE_POLYGONS)
def _fine_plan(base: BaseField, Pstar: FinePolygon) -> tuple[Template, tuple]:
    """The validated template of ``Pstar``, and the steps of its polygon plan."""
    ctx = BinomialContext(base)
    if not is_valid_fine(ctx, Pstar).ok:
        raise ValueError("template requires a valid fine polygon")
    steps = polygon_plan(base, Pstar.n, Pstar.points)[1]
    wild = Pstar.wild_points()
    ordinates = wild + [(s, x, L) for s, x, _, L in least_ordinates(Pstar.p, wild)]
    return _apply_depth_bounds(ctx, Pstar.n, ordinates, steps), steps


def template_for_fine(ctx: BinomialContext, Pstar: FinePolygon) -> Template:
    """The template of exactly the polynomials with fine polygon ``Pstar``."""
    return _fine_plan(ctx.base, Pstar)[0]


def template_for_invariant(ctx: BinomialContext, inv: InvariantWithUnif) -> Template:
    """The fine template with the uniformizer-residue pinnings applied.

    The first digit of the constant coefficient becomes {phi0}, and at each
    attained point with remainder b < n the forced unit digit collapses to
    phi_b = rho * beta(b, x)^-1 * (-phi0)^-k, k = -(1+a).
    """
    if not is_valid_with_unif(ctx, inv).ok:
        raise ValueError("template requires a valid uniformizer-refined invariant")
    template, steps = _fine_plan(ctx.base, inv.res.polygon)
    n, minus_phi0 = inv.res.polygon.n, -inv.phi0
    updates = {(0, 1): frozenset({inv.phi0})}
    for (_, _, b, k, B_bx, beta_bx), rho in zip(steps, inv.res.residues):
        if b < n:
            pinned = frozenset({rho / beta_bx * minus_phi0**-k})
            previous = updates.setdefault((b, -k - B_bx), pinned)  # two points may pin one digit
            assert previous == pinned
    return template.with_slots(updates)


def truncate_krasner(T: Template, J0: int) -> Template:
    """Zero all digits at depth strictly beyond 1 + 2*J0/n.

    Any two Eisenstein polynomials agreeing below that depth generate the
    same extension, so this keeps the set of generated extensions intact
    while making the template finite.  An already truncated template keeps
    the lower of the two cutoffs.
    """
    cutoff = 2 + 2 * J0 // T.n
    if T.cutoff is not None:
        cutoff = min(cutoff, T.cutoff)
    zero, full = _default_sets(T.base.fq)
    slots = {}
    for (i, k), value in T.slots.items():
        if k >= cutoff:
            if value not in (zero, full):
                raise ValueError("cutoff would clobber a forced digit")
        else:
            slots[(i, k)] = value
    return Template(T.base, T.n, slots, cutoff)


# ---------------------------------------------------------------------------
# uniformizer-change reduction


@dataclass(frozen=True)
class SmData:
    """The additive map induced on digit (d_m, 1 + c_m) by u -> alpha(1 + u alpha^m).

    C_m is the minimum of R_j + m*j over the points of the fine polygon,
    decomposed as C_m = c_m * n + d_m with 0 <= d_m < n; the map is
    u -> sum of rho_j * u^j over the minimising points, all of which sit at
    powers of p, making the map F_p-linear.
    """

    m: int
    C_m: int
    c_m: int
    d_m: int
    map: AdditiveMap


def compute_Sm(ctx: BinomialContext, Pres: FinePolygonWithResidues, m: int) -> SmData:
    if m < 1:
        raise ValueError("m must be positive")
    return _Sm(ctx.base, Pres, m)


@lru_cache(maxsize=S_MAPS)
def _Sm(base: BaseField, Pres: FinePolygonWithResidues, m: int) -> SmData:
    p, fq = base.p, base.fq
    C = min(J + m * x for x, J in Pres.polygon.points)
    minimisers = [(x, rho) for x, J, rho in Pres.items() if J + m * x == C]
    if any(x != p ** vp(p, x) for x, _ in minimisers):
        raise AssertionError("minimiser at a non-p-power abscissa")

    def act(u: FqElement) -> FqElement:
        return sum((rho * u**x for x, rho in minimisers), fq.zero)

    c_m, d_m = divmod(C, Pres.polygon.n)
    return SmData(m=m, C_m=C, c_m=c_m, d_m=d_m, map=AdditiveMap.from_function(fq, act))


@lru_cache(maxsize=FINE_POLYGONS)
def _reduction_walk(points: tuple, n: int, cutoff: int) -> tuple:
    """(m, (d_m, 1 + c_m), whether two or more points attain C_m) for each m >= 1 with
    C_m < (cutoff - 1) * n; C_m strictly increases, so the first m past it ends the walk."""
    walk = []
    for m in itertools.count(1):
        values = [J + m * x for x, J in points]
        C = min(values)
        if C >= (cutoff - 1) * n:
            return tuple(walk)
        walk.append((m, (C % n, 1 + C // n), values.count(C) > 1))


def reduce_template(ctx: BinomialContext, T: Template, inv: InvariantWithUnif) -> Template:
    """Shrink free digits to coset representatives under uniformizer changes.

    For each m >= 1 whose digit position (d_m, 1 + c_m) lies below the
    cutoff, a change of uniformizer moves that digit through the subgroup
    (-phi0)^(1+c_m) * S_m(F_q), so a full set there may be replaced by coset
    representatives.  Positions already constrained (zeroed, forced units,
    or pinned singletons) are left untouched.  Distinct m reach distinct
    positions because C_m strictly increases.  Where one point (p^s, R)
    attains C_m, S_m is u -> rho * u^(p^s), a bijection of F_q, so the slot
    becomes {0} without a map; ``compute_Sm`` runs only where points tie.
    """
    if T.cutoff is None:
        raise ValueError("reduction requires a truncated template")
    if T.n != inv.res.polygon.n:
        raise ValueError("template and invariant differ in degree")
    if T.base != ctx.base or inv.phi0.field is not T.base.fq:
        raise ValueError("template, invariant and context differ in base field")
    zero, full = _default_sets(T.base.fq)
    updates = {}
    for m, (d, k), tied in _reduction_walk(inv.res.polygon.points, T.n, T.cutoff):
        if T.slot(d, k) == full:
            updates[(d, k)] = frozenset(additive_coset_representatives(
                T.base, compute_Sm(ctx, inv.res, m).map, (-inv.phi0) ** k)) if tied else zero
    return T.with_slots(updates)


# ---------------------------------------------------------------------------
# counting and expansion


def cardinality(T: Template) -> int:
    """Number of polynomials the template describes."""
    if T.cutoff is None:
        raise ValueError("template is not finite (no cutoff)")
    listed = [len(v) for (i, k), v in T.slots.items() if 0 <= i < T.n and 0 <= k < T.cutoff]
    unlisted = len(range(T.n)) * len(range(T.cutoff)) - len(listed)  # each one F_q
    return math.prod(listed) * T.base.fq.q ** unlisted


def expand_template(T: Template):
    """Stream every polynomial of the template as a digit table, in (i, k) order of the
    positions with element choices in canonical order.  Each coefficient's rows, one per
    choice of its digits 1 <= k < cutoff, are built and trimmed once, and repeated once per
    element of its k = 0 slot; the tables are their product, so they share their rows.
    """
    if T.cutoff is None:
        raise ValueError("template is not finite (no cutoff)")
    rows = []
    for i in range(T.n):
        choices = itertools.product(*(sorted(T.slot(i, k)) for k in range(1, T.cutoff)))
        repeats = len(T.slot(i, 0)) if T.cutoff > 0 else 1  # k = 0 is a position if 0 < cutoff
        rows.append([trim_row(digits) for digits in choices] * repeats)
    for digits in itertools.product(*rows):
        yield EisensteinData(T.base, T.n, digits)
