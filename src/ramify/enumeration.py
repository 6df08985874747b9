"""Branch-and-prune enumeration of the invariant hierarchy.

Each enumerator builds candidates incrementally and terminates a branch as
soon as the partial object fails weak validity (or, for residues, as soon
as no uniformizer residue is compatible with the residues assigned so far).
Weak validity is preserved under removing points, so a partial object that
fails it can never be completed to a valid one and the pruning is exact:
with pruning on or off the output set is identical.

The hull search's root candidates J0 <= n * v(n) are those whose vertex
(1, J0) passes its own conditions (``validity.admissible_ordinates``), which
equal the Ore bound; the fine search's forced points are the tame zeros.

Outputs are canonically sorted and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import validity
from .binomials import BinomialContext, beta, vp
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
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

    Pruning is incremental and keeps its verdicts: each root
    [(1, J0), (p^m, 0)] gets the whole weak check, a child that adds
    (p^S, J) is checked through its pairs with the vertices present, each
    distinct pair once per search, and a child that adds nothing keeps its
    parent's set, with nothing new to check.  Every visited branch has
    passed one ``weak_ram_ok`` call, so that call's pass count is
    ``branches_visited``.  A vertex's own conditions depend on (S, J) alone,
    so the ordinates passing them are found once per exponent S.

    A leaf's full verdict is ``valid_ram_ok``: the pair verdicts (already
    passed when pruning) and, at each absent exponent, the memoised pieces
    of the enclosing segment, both kept in the search's one verdict dict.
    A ``RamPolygon`` is built only for a leaf that passes.
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
    ordinates = {
        S: validity.admissible_ordinates(ctx, n, S, J0_max - 1) if prune else range(1, J0_max)
        for S in range(1, m)
    }
    out: list[RamPolygon] = []
    stats = EnumStats()
    verdicts: dict[tuple[int, int, int, int], bool] = {}

    def search(prefix: list[tuple[int, int, int]], S: int, new: tuple[int, ...] | None) -> None:
        # prefix holds (s, p^s, J) per vertex; ``new`` the exponents it added
        if prune and not validity.weak_ram_ok(ctx, n, prefix + top, new, verdicts):
            return
        stats.branches_visited += 1
        if S >= m:
            if validity.valid_ram_ok(ctx, n, prefix + top, verdicts, () if prune else None):
                out.append(RamPolygon(p, n, tuple((x, J) for _, x, J in prefix) + tuple(tail)))
            return
        search(prefix, S + 1, ())
        x_new = p**S
        _, x_last, J_last = prefix[-1]
        # candidates strictly below the chord from the last vertex to (p^m, 0)
        J_max = (J_last * (p_top - x_new) - 1) // (p_top - x_last)
        for J in ordinates[S]:
            if J > J_max:
                break
            if _keeps_convex(prefix, x_new, J):
                search(prefix + [(S, x_new, J)], S + 1, (S,))

    for J0 in validity.admissible_ordinates(ctx, n, 0, J0_max):
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

    The guard's one full check of the hull and the hull's values at the
    p-powers hold for every branch, and the tame biconditional holds by
    construction: on [p^m, n] the forced points are the tame zeros and the
    hull's vertices (p^m, 0) and (n, 0), which are tame zeros too.  So the
    root, the hull's own points, has nothing left to check; a child
    that adds a candidate checks only the pairs the candidate forms with the
    points present (``pairs_ok``); and a leaf makes one engine call over
    every exponent (``fine_ore_violations``), with the strict-exclusion bound
    at the p-powers left without a point.  A ``FinePolygon`` is built only
    per result.
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
    verdicts: dict[tuple[int, int, int, int], bool] = {}

    def search(idx: int, chosen: list[tuple[int, int, int]], new: tuple[int, ...] | None) -> None:
        # chosen holds (s, p^s, J) per candidate taken; ``new`` the exponent it
        # added, None at the root
        if prune and not (
            new is None or validity.pairs_ok(ctx, n, wild + chosen, new, verdicts)
        ):
            return
        stats.branches_visited += 1
        if idx == len(candidates):
            if not validity.fine_ore_violations(ctx, n, wild + chosen, values):
                points = forced | {x: J for _, x, J in chosen}
                out.append(FinePolygon(p, n, tuple(sorted(points.items()))))
            return
        search(idx + 1, chosen, ())
        search(idx + 1, chosen + [candidates[idx]], (candidates[idx][0],))

    search(0, [], None)
    out.sort(key=lambda Ps: Ps.points)
    stats.results = len(out)
    return out, stats


def enumerate_residue_classes(
    ctx: BinomialContext, Pstar: FinePolygon, *, prune: bool = True
) -> tuple[list[FinePolygonWithResidues], EnumStats]:
    """One decorated polygon per residue-equivalence class extending ``Pstar``.

    Horizontal points carry forced residues.  The remaining points are
    decorated in order of increasing abscissa, branching only over orbit
    representatives under the twists that fix everything assigned earlier,
    and pruning assignments incompatible with every uniformizer residue.
    """
    if not validity.is_valid_fine(ctx, Pstar).ok:
        raise ValueError("residue enumeration requires a valid fine polygon")
    n = Pstar.n
    field = ctx.base
    forced = [(s, J, beta(ctx, n, x)) for s, x, J in Pstar.wild_points() if J == 0]
    unknowns = [(s, x, J) for s, x, J in Pstar.wild_points() if J > 0]
    unknown_xs = {x for _, x, _ in unknowns}

    out: list[FinePolygonWithResidues] = []
    stats = EnumStats()

    def soluble(assigned: list) -> bool:
        eqs = validity.phi0_equations(ctx, forced + assigned, n)
        return bool(solve_power_system(field, eqs))

    def search(t: int, assigned: list) -> None:
        if prune and not soluble(assigned):
            return
        stats.branches_visited += 1
        if t == len(unknowns):
            if not prune and not soluble(assigned):
                return
            rho_at = {x: rho for (_, x, _), (_, _, rho) in zip(unknowns, assigned)}
            residues = tuple(
                rho_at[x] if x in unknown_xs else beta(ctx, n, x)
                for x, _ in Pstar.points
            )
            out.append(FinePolygonWithResidues(Pstar, residues))
            return
        s_t, _, J_t = unknowns[t]
        constraints = [J for _, _, J in unknowns[:t]]
        for gamma in sorted(orbit_representatives(field, J_t, constraints)):
            search(t + 1, assigned + [(s_t, J_t, gamma)])

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
