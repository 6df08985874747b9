"""Branch-and-prune enumeration of the invariant hierarchy.

Each enumerator builds candidates incrementally and terminates a branch as
soon as the partial object fails weak validity (or, for residues, as soon
as no uniformizer residue is compatible with the residues assigned so far).
Weak validity is preserved under removing points, so a partial object that
fails it can never be completed to a valid one and the pruning is exact:
with pruning on or off the output set is identical.

The hull search's root candidates J0 <= n * v(n) are those whose vertex
(1, J0) passes its own conditions, which equal the Ore bound; the fine
search's forced points are the tame zeros.

Outputs are canonically sorted and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from . import validity
from .binomials import BinomialContext, vp
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    polygon_plan,
    tame_zeros,
)
from .residue_field import orbit_representatives, solve_power_system
from .validity import admissible_phi0, invariant_gcd


@dataclass
class EnumStats:
    """Search effort counters.

    ``branches_visited`` counts the partial invariants the search expanded,
    i.e. the branches that survive the pruning test (a branch terminated by
    weak validity is never visited).  With pruning disabled every state is
    expanded, so the counter then reflects the raw size of the search tree.
    """

    branches_visited: int = 0
    results: int = 0


class Level(Enum):
    RAM = "ram"
    FINE = "fine"
    RES = "res"
    UNIF = "unif"


def _keeps_convex(prefix: list[tuple[int, int, int]], x3: int, y3: int) -> bool:
    # the candidate below the current hull can only break convexity on its left
    if len(prefix) < 2:
        return True
    (_, x1, y1), (_, x2, y2) = prefix[-2], prefix[-1]
    return (y2 - y1) * (x3 - x2) < (y3 - y2) * (x2 - x1)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_ram_polygons(
    ctx: BinomialContext, n: int, *, prune: bool = True
) -> tuple[list[RamPolygon], EnumStats]:
    """All valid ramification polygons of degree n over the base field.

    Branches first over the leftmost ordinate J0 within the Ore bound, then
    over adding or not adding a vertex at each remaining p-power abscissa;
    candidate ordinates at p^S run over the integers strictly between 0 and
    the current partial polygon's value there (candidates that would make
    an earlier vertex non-extremal are skipped, since the vertex list of a
    polygon must stay strictly convex).

    Pruning reads pair verdicts from the context's memo through
    ``validity.violations`` and calls the search only for candidates that
    pass: an int bitmask, bit J for the ordinate J, ANDed with the masks at
    S of (p^m, 0) and of each vertex t, the bits whose pair with t passes,
    kept per (t, S) and filled in lazily.  Each root [(1, J0), (p^m, 0)]
    gets the whole weak check, and every visited branch passes one
    ``weak_ram_ok`` call, so its pass count is ``branches_visited``.  A
    leaf's verdict is ``violations`` with the ceil pieces (kind 1), built
    into a ``RamPolygon`` only if it passes.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    p = ctx.base.p
    m = vp(p, n)
    p_top = p**m
    # the wild vertex (p^m, 0) every partial polygon ends with, and the tame end
    top = [(m, p_top, 0)] if p_top > 1 else []
    tail = [(p_top, 0)] if p_top > 1 else []
    if n > p_top:
        tail.append((n, 0))
    # J0 <= n * v(n), and every ordinate after the first lies below J0
    J0_max = n * ctx.base.e * m
    out: list[RamPolygon] = []
    stats = EnumStats()
    masks: dict[int, tuple[int, int]] = {}  # (J_t, s_t, S) -> (bits passing, bits decided)

    def search(prefix: list[tuple[int, int, int]], S: int, new: tuple[int, ...] | None) -> None:
        # prefix holds (s, p^s, J) per vertex; ``new`` the exponents it added
        if prune and not validity.weak_ram_ok(ctx, n, prefix + top, new):
            return
        stats.branches_visited += 1
        if S >= m:
            if not validity.violations(ctx, n, prefix + top, () if prune else None, kind=1):
                out.append(RamPolygon(p, n, tuple((x, J) for _, x, J in prefix) + tuple(tail)))
            return
        search(prefix, S + 1, ())
        x_new = p**S
        _, x_last, J_last = prefix[-1]
        # candidates strictly below the chord from the last vertex to (p^m, 0)
        J_max = (J_last * (p_top - x_new) - 1) // (p_top - x_last)
        candidates = (2 << J_max) - 2
        for t in top + prefix if prune else ():
            key = (t[2] * (m + 1) + t[0]) * m + S
            ok, decided = masks.get(key, (0, 0))
            todo = candidates & ~decided
            if todo:
                for J in _bits(todo):
                    ok |= (not validity.violations(ctx, n, [t, (S, x_new, J)], (S,))) << J
                masks[key] = ok, decided | todo
            candidates &= ok
        for J in _bits(candidates):
            if _keeps_convex(prefix, x_new, J):
                search(prefix + [(S, x_new, J)], S + 1, (S,))

    for J0 in range(J0_max + 1):
        if not validity.violations(ctx, n, [(0, 1, J0)], (0,)):
            search([(0, 1, J0)], 1, None)
    out.sort(key=lambda P: P.vertices)
    stats.results = len(out)
    return out, stats


def enumerate_fine_polygons(
    ctx: BinomialContext, P: RamPolygon, *, prune: bool = True
) -> tuple[list[FinePolygon], EnumStats]:
    """All valid fine polygons whose hull is the given (valid) polygon.

    The hull vertices and the forced horizontal points are always present;
    the branching is over the non-vertex p-power abscissas where the hull
    passes through a lattice point.

    The guard's full check of the hull holds for every branch, and the tame
    biconditional holds by construction: on [p^m, n] the forced points are
    the tame zeros, (p^m, 0) and (n, 0) among them.  So the root has nothing
    to check, a child checks the pairs its candidate forms, and a leaf its
    wild points with the strict pieces at the p-powers without a point, both
    by ``validity.violations``.  A ``FinePolygon``, on the hull ``P``, is
    built only per result.
    """
    if not validity.is_valid_ram(ctx, P).ok:
        raise ValueError("fine enumeration requires a valid ramification polygon")
    p, n = P.p, P.n
    m = vp(p, n)
    values = P.p_power_values()
    forced = dict(P.vertices) | dict.fromkeys(tame_zeros(p, n), 0)
    wild = P.wild_vertices()
    candidates = []
    for s in range(1, m):
        x = p**s
        N, D = values[s]
        if x not in forced and N % D == 0:
            candidates.append((s, x, N // D))

    out: list[FinePolygon] = []
    stats = EnumStats()

    def search(idx: int, chosen: list[tuple[int, int, int]], new: tuple[int, ...]) -> None:
        # chosen holds (s, p^s, J) per candidate taken; ``new`` the exponent it added
        if prune and validity.violations(ctx, n, wild + chosen, new):
            return
        stats.branches_visited += 1
        if idx == len(candidates):
            leaf = sorted(wild + chosen)
            if not validity.violations(ctx, n, leaf, () if prune else None, kind=2):
                points = forced | {x: J for _, x, J in chosen}
                out.append(FinePolygon(p, n, tuple(sorted(points.items())), P))
            return
        search(idx + 1, chosen, ())
        search(idx + 1, chosen + [candidates[idx]], (candidates[idx][0],))

    search(0, [], ())
    out.sort(key=lambda Ps: Ps.points)
    stats.results = len(out)
    return out, stats


def enumerate_residue_classes(
    ctx: BinomialContext, Pstar: FinePolygon, *, prune: bool = True
) -> tuple[list[FinePolygonWithResidues], EnumStats]:
    """One decorated polygon per residue-equivalence class extending ``Pstar``.

    A horizontal point's residue is forced: beta(n, x), its plan step's beta.
    The remaining points are decorated in order of increasing abscissa,
    branching only over orbit representatives under the twists that fix
    everything assigned earlier, and pruning assignments incompatible with
    every uniformizer residue.
    """
    if not validity.is_valid_fine(ctx, Pstar).ok:
        raise ValueError("residue enumeration requires a valid fine polygon")
    n = Pstar.n
    field = ctx.base
    steps = polygon_plan(field, n, Pstar.points)[1]
    # the points with R > 0 come first, left of the horizontal face
    unknowns = [step for step in steps if step[1]]
    forced = tuple(step[5] for step in steps if not step[1])

    out: list[FinePolygonWithResidues] = []
    stats = EnumStats()

    def soluble(assigned: list) -> bool:
        return bool(solve_power_system(field, validity.phi0_equations(n, assigned)))

    def search(t: int, assigned: list) -> None:
        if prune and not soluble(assigned):
            return
        stats.branches_visited += 1
        if t == len(unknowns):
            if not prune and not soluble(assigned):
                return
            residues = tuple(rho for _, rho in assigned) + forced
            out.append(FinePolygonWithResidues(Pstar, residues))
            return
        step = unknowns[t]
        constraints = [R for _, R, *_ in unknowns[:t]]
        for gamma in sorted(orbit_representatives(field, step[1], constraints)):
            search(t + 1, assigned + [(step, gamma)])

    search(0, [])
    out.sort(key=lambda Pres: tuple(rho.coeffs for rho in Pres.residues))
    stats.results = len(out)
    return out, stats


def enumerate_unif_classes(
    ctx: BinomialContext, Pres: FinePolygonWithResidues
) -> tuple[list[InvariantWithUnif], EnumStats]:
    """One representative per equivalence class of admissible phi0 values.

    phi0 and phi0' are equivalent when phi0' / phi0 = delta^n for a delta
    with delta^g = 1, g the gcd of the ordinates (``equivalent_with_unif``).
    Those deltas form the subgroup of order c = gcd(q-1, g), so the logs of
    the quotients are the multiples of h = gcd(q-1, n*(q-1)/c) and the
    classes are those of log phi0 modulo h.  One pass in increasing order
    keeps the least admissible phi0 of each class.
    """
    stats = EnumStats()
    admissible = sorted(admissible_phi0(ctx, Pres))
    stats.branches_visited = len(admissible)
    order = ctx.base.fq.order
    c = math.gcd(order, invariant_gcd(Pres))
    h = math.gcd(order, Pres.polygon.n * (order // c))
    reps: dict[int, InvariantWithUnif] = {}
    for phi0 in admissible:
        key = phi0._logarithm() % h
        if key not in reps:
            reps[key] = InvariantWithUnif(Pres, phi0)
    stats.results = len(reps)
    return list(reps.values()), stats


def enumerate_invariants(
    ctx: BinomialContext, n: int, level: Level | str
) -> tuple[list, EnumStats]:
    """The full hierarchy to the requested depth, in canonical order.

    Each level refines every result of the one above in turn, so the order
    is that of a depth-first walk of the hierarchy.
    """
    level = Level(level)
    found, stats = enumerate_ram_polygons(ctx, n)
    total = EnumStats(stats.branches_visited)
    # looked up per call, so a tracer that rebinds these module names sees the calls
    refiners = (enumerate_fine_polygons, enumerate_residue_classes, enumerate_unif_classes)
    for refine in refiners[: list(Level).index(level)]:
        parents, found = found, []
        for obj in parents:
            refined, stats = refine(ctx, obj)
            total.branches_visited += stats.branches_visited
            found.extend(refined)
    total.results = len(found)
    return found, total
