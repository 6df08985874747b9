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
to coset representatives of the images of the induced additive maps.

Built once and cached by base field (bounded ``lru_cache``s, never holding a
caller's context): per fine polygon, the validated template; per (residue
class, cutoff), each m's position and S_m map; per (map, scale), the coset
representatives.  Per invariant remain the validity guard, the pinned values,
and the test that the template leaves each slot full.  The unit pins and the
pinned values read the steps of ``polygons.polygon_plan``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .analyzer import EisensteinData
from .binomials import BinomialContext, vp
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    depth_bound,
    fine_depth_bound,
    polygon_plan,
)
from .residue_field import AdditiveMap, BaseField, Fq, FqElement, additive_coset_representatives
from .validity import is_valid_fine, is_valid_ram, is_valid_with_unif

# An enumeration yields one polygon's, and one class's, invariants in a row, so
# these bounds only cap memory.  Full (tracemalloc): 14 MiB of Q_2 degree-32 fine
# templates, 11 MiB of Q_2 degree-16 plans, 1.6 MiB of F_8 coset sets.
FINE_POLYGONS = 1024  # fine templates and pins, per (base field, fine polygon)
REDUCTION_PLANS = 1024  # S_m maps, per (base field, residue class, cutoff)
COSET_SETS = 4096  # coset representatives, per (base field, map, scale)


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


def _apply_depth_bounds(ctx, n, ell, steps) -> Template:
    """The Eisenstein template with digits below the bound zeroed and forced first digits pinned.

    ``ell(i, s)`` is the depth bound; each of the polygon plan's ``steps`` with
    b < n forces the first digit of coefficient b, at depth -k - B(b, x), to be a unit.
    """
    p = ctx.base.p
    fq = ctx.base.fq
    zero_set = frozenset({fq.zero})
    lower = {}
    for s in range(vp(p, n) + 1):
        for i in range(p**s, n):
            bound = ell(i, s)
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
    ell = depth_bound(ctx, P.n, P.p_power_values())
    return _apply_depth_bounds(ctx, P.n, ell, polygon_plan(ctx.base, P.n, P.vertices)[1])


@lru_cache(maxsize=FINE_POLYGONS)
def _fine_plan(base: BaseField, Pstar: FinePolygon) -> tuple[Template, tuple]:
    """The validated template of ``Pstar``, and the steps of its polygon plan."""
    ctx = BinomialContext(base)
    if not is_valid_fine(ctx, Pstar).ok:
        raise ValueError("template requires a valid fine polygon")
    steps = polygon_plan(base, Pstar.n, Pstar.points)[1]
    return _apply_depth_bounds(ctx, Pstar.n, fine_depth_bound(ctx, Pstar), steps), steps


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
    while making the template finite.
    """
    cutoff = 2 + 2 * J0 // T.n
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
    p = ctx.base.p
    n = Pres.polygon.n
    C = min(J + m * x for x, J in Pres.polygon.points)
    minimisers = [(x, rho) for x, J, rho in Pres.items() if J + m * x == C]
    if any(x != p ** vp(p, x) for x, _ in minimisers):
        raise AssertionError("minimiser at a non-p-power abscissa")
    fq = ctx.base.fq

    def act(u: FqElement) -> FqElement:
        out = fq.zero
        for x, rho in minimisers:
            out = out + rho * u**x
        return out

    c_m, d_m = divmod(C, n)
    return SmData(m=m, C_m=C, c_m=c_m, d_m=d_m, map=AdditiveMap.from_function(fq, act))


@lru_cache(maxsize=REDUCTION_PLANS)
def _reduction_plan(base: BaseField, Pres: FinePolygonWithResidues, cutoff: int) -> tuple:
    """((d_m, 1 + c_m), S_m map) for each m >= 1 with 1 + c_m < cutoff: C_m increases
    with m, so the loop stops at C_m >= (cutoff - 1) * n and builds no map past it."""
    ctx = BinomialContext(base)
    bound = (cutoff - 1) * Pres.polygon.n
    plan, m = [], 1
    while min(J + m * x for x, J in Pres.polygon.points) < bound:
        sm = compute_Sm(ctx, Pres, m)
        plan.append(((sm.d_m, 1 + sm.c_m), sm.map))
        m += 1
    return tuple(plan)


@lru_cache(maxsize=COSET_SETS)
def _coset_set(base: BaseField, amap: AdditiveMap, scale: FqElement) -> frozenset[FqElement]:
    return frozenset(additive_coset_representatives(base, amap, scale))


def reduce_template(ctx: BinomialContext, T: Template, inv: InvariantWithUnif) -> Template:
    """Shrink free digits to coset representatives under uniformizer changes.

    For each m >= 1 whose digit position (d_m, 1 + c_m) lies below the
    cutoff, a change of uniformizer moves that digit through the subgroup
    (-phi0)^(1+c_m) * S_m(F_q), so a full set there may be replaced by coset
    representatives.  Positions already constrained (zeroed, forced units,
    or pinned singletons) are left untouched.  Distinct m reach distinct
    positions because C_m strictly increases.
    """
    if T.cutoff is None:
        raise ValueError("reduction requires a truncated template")
    _, full = _default_sets(T.base.fq)
    minus_phi0 = -inv.phi0
    return T.with_slots({
        (d, k): _coset_set(ctx.base, amap, minus_phi0**k)
        for (d, k), amap in _reduction_plan(ctx.base, inv.res, T.cutoff)
        if T.slot(d, k) == full
    })


# ---------------------------------------------------------------------------
# counting and expansion


def _positions(T: Template) -> list[tuple[int, int]]:
    if T.cutoff is None:
        raise ValueError("template is not finite (no cutoff)")
    return [(i, k) for i in range(T.n) for k in range(T.cutoff)]


def cardinality(T: Template) -> int:
    """Number of polynomials the template describes."""
    count = 1
    for i, k in _positions(T):
        count *= len(T.slot(i, k))
    return count


def expand_template(T: Template):
    """Stream every polynomial of the template as a digit table.

    Positions are enumerated in (i, k) order with element choices in
    canonical order, so the stream is deterministic.
    """
    positions = _positions(T)
    choice_sets = [sorted(T.slot(i, k)) for i, k in positions]
    zero = T.base.fq.zero
    for combo in itertools.product(*choice_sets):
        rows = [[zero] * (T.cutoff - 1) for _ in range(T.n)]
        for (i, k), value in zip(positions, combo):
            if k >= 1:
                rows[i][k - 1] = value
        yield EisensteinData(T.base, T.n, tuple(tuple(row) for row in rows))
