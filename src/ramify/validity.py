"""Validity, weak validity and equivalence at every level of the hierarchy.

A polygon is valid when it is realised by some Eisenstein polynomial over
the base field.  Realisability reduces to a finite family of conditions on
the digit-depth bounds: the three Ore conditions, Consistency of repeated
remainders, and the Bounding inequalities, together with the constraint
p^s <= b at each point and (for fine polygons) the Tame biconditional
saying that a point (j, 0) on the horizontal face is attained exactly when
binomial(n, j) is a unit.

Weak validity quantifies the same conditions only over the exponents of
positions actually present; it is preserved when points are removed, which
is what makes branch-and-prune enumeration sound.  Each condition involves
one or two positions (BRange, Ore1 / Ore3 and Ore2 one, Bounding and
Consistency two), so weak validity of a set is the conjunction of the weak
validity of its pairs, and a set that passed stays valid after adding a
point v exactly when every pair {t, v} passes.  Full validity adds, at each
absent exponent s, Ore2 there and each point's Bounding there.

Every condition reads the bound at coefficient i and exponent s only
through one integer per p-power, the polygon's least ordinate L there (a
point's own J, or ``polygons.least_ordinates`` at an absent p-power: ceil
of the value on a hull, its floor plus one on a fine polygon):
ell(i, s) = ceil((L - i) / n) + 1 - B[i][s], B[i][s] = e * v_p(binomial(i,
p^s)) from ``binomials.valuation_table``.  With J = a*n + b, 1 <= b <= n,
a point's own depth is a + 1 - B[b][s] and its Ore quantity a + 1 - B[n][s].
So ``violations`` decides each check in closed form, in integers, for any
ordinate, and is the one route to every report; ``passing_column`` decides
the hull search's candidate columns from the same formulas; both are pure.
A hull search result carries the e over which it was proved valid, which
``is_valid_ram``, the fine search's guard, reads first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Iterator, Mapping

from .binomials import BinomialContext, valuation_table, vp
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    least_ordinates,
    polygon_plan,
    tame_zeros,
)
from .residue_field import FqElement, solve_power_system


class Violation(Enum):
    BRANGE = "BRange"
    ORE1 = "Ore1"
    ORE2 = "Ore2"
    ORE3 = "Ore3"
    CONSISTENCY = "Consistency"
    BOUNDING = "Bounding"
    TAME = "Tame"
    RESIDUE_FORCED = "ResidueForced"
    RESIDUE_SYSTEM = "ResidueSystem"


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "ValidityReport":
        """The report of ``violations``, given distinct and in declaration order."""
        found = tuple(violations)
        return cls(ok=not found, violations=found)


class ResidueForcedError(ValueError):
    """A horizontal-face residue differs from the forced binomial residue."""


def _found(table: tuple[tuple[int, ...], ...], n: int, p: int, positions, new, kind: int
           ) -> Iterator[Violation]:
    """The violations of ``violations``, one per failing check, in no fixed order."""
    top = table[n]
    points = []  # (s, x, J, b, own): own is the depth coefficient b is bounded to, where it binds
    for s, x, J in positions:
        a, b = divmod(J - 1, n)
        b += 1
        own = a + 1 - table[b][s] if x <= b < n else None
        points.append((s, x, J, b, own))
        if new is None or s in new:
            ore = a + 1 - top[s]  # ell(n, s) at J, as a + 1 = ceil(J / n)
            if x > b:
                yield Violation.BRANGE
            if b == n and ore:
                yield Violation.ORE1
            if own is not None and own < 1:
                yield Violation.ORE3
            if ore > 0:
                yield Violation.ORE2
    for i, t in enumerate(points if new is None or new else ()):
        for v in points[i + 1:]:
            if new is not None and t[0] not in new and v[0] not in new:
                continue
            for (s, x, J, _, _), (_, _, _, b, own) in ((t, v), (v, t)):
                if own is not None and x <= b and own < 1 - (b - J) // n - table[b][s]:
                    yield Violation.BOUNDING
            if t[4] is not None and v[4] is not None and t[3] == v[3] and t[4] != v[4]:
                yield Violation.CONSISTENCY
    for r, x, *forms in least_ordinates(p, positions) if kind else ():
        L = forms[kind - 1]  # the hull's (1) or the fine polygon's (2) least ordinate
        if -(-L // n) > top[r]:
            yield Violation.ORE2
        for _, _, _, b, own in points:
            if own is not None and x <= b and own < 1 - (b - L) // n - table[b][r]:
                yield Violation.BOUNDING


def violations(
    ctx: BinomialContext, n: int, positions, new: Collection[int] | None = None,
    kind: int = 0, every: bool = False,
) -> tuple[Violation, ...]:
    """The violations of the points (s, p^s, J) ``positions``, in closed form.

    Kind 0 is weak validity, the checks a point of exponent in ``new`` takes
    part in (every point when None; the rest is known to pass): its own checks
    and Ore2 at its exponent, and with each other point each one's Bounding at
    the other's exponent and Consistency.  With ``new`` empty it checks
    nothing.  Kinds 1 and 2 are full validity of the polygon through the
    points, in increasing s from 0 to v_p(n) and each on the lower hull of
    them all: they add, at each absent exponent, Ore2 and each point's
    Bounding at the least ordinate there, in the hull (1) or fine (2) form.
    Writes nothing.  Returns () when all pass, else the first violation found,
    or with ``every`` all of them in declaration order.
    """
    if not (kind or new is None or new):
        return ()  # no pair is new and no absent p-power asked for: nothing to check
    p = ctx.base.p
    found = _found(valuation_table(p, ctx.base.e, n), n, p, positions, new, kind)
    if every:
        found = list(found)
        return tuple(v for v in Violation if v in found)
    first = next(found, None)
    return () if first is None else (first,)


def weak_ram_ok(
    ctx: BinomialContext, n: int, positions, new: Collection[int] | None = None
) -> bool:
    """Weak validity as ``violations`` decides it, the hull search's one check per branch
    (whole at a root; a child adds no pair its candidate columns left undecided)."""
    return not violations(ctx, n, positions, new)


def passing_column(ctx: BinomialContext, n: int, t, S: int, mask: int) -> int:
    """The bits J of ``mask`` whose pair {t, (S, p^S, J)} passes, t = (s, p^s, J_t).

    The verdict of ``violations`` on the pair, in one pass over the bits: t's
    own checks once, then per bit the candidate's own checks and Ore2 at S,
    t's Bounding at p^S and the candidate's Bounding at p^s.  Consistency
    needs no test of its own: when both bound one coefficient b, t's Bounding
    at p^S reads the bound of b at the candidate's exponent and ordinate,
    which is the candidate's own depth, and the other way round, so unequal
    depths fail one of the two.
    """
    table = valuation_table(ctx.base.p, ctx.base.e, n)
    s, x_t, J_t = t
    if any(_found(table, n, ctx.base.p, [t], None, 0)):
        return 0
    a_t, b_t = divmod(J_t - 1, n)
    b_t += 1
    own_t = a_t + 1 - table[b_t][s] if b_t < n else None
    x, top = ctx.base.p**S, table[n][S]
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        J = bit.bit_length() - 1
        a, b = divmod(J - 1, n)
        b += 1
        if x > b or a + 1 > top:
            continue
        if b < n:
            own = a + 1 - table[b][S]
            if own < 1 or x_t <= b and own < 1 - (b - J_t) // n - table[b][s]:
                continue
        elif a + 1 != top:
            continue
        if own_t is not None and x <= b_t and own_t < 1 - (b_t - J) // n - table[b_t][S]:
            continue
        out |= bit
    return out


def _same_prime(ctx: BinomialContext, P: RamPolygon | FinePolygon) -> None:
    # the checks name exponents s, not abscissas, so a polygon over another
    # prime would read the valuations of a different one
    if P.p != ctx.base.p:
        raise ValueError(f"polygon over p = {P.p}, context over p = {ctx.base.p}")


def is_valid_ram(ctx: BinomialContext, P: RamPolygon) -> ValidityReport:
    """Full validity of a ramification polygon, every violation named.  Validity reads only
    (p, e, n), so a hull the hull search proved over the context's e passes unchecked."""
    _same_prime(ctx, P)
    if P._proved_e == ctx.base.e:
        return ValidityReport(ok=True, violations=())
    wild = P.wild_vertices()
    return ValidityReport.from_violations(violations(ctx, P.n, wild, kind=1, every=True))


def is_weakly_valid_ram(ctx: BinomialContext, P: RamPolygon) -> ValidityReport:
    """Validity conditions quantified only over the present vertex exponents."""
    _same_prime(ctx, P)
    return ValidityReport.from_violations(violations(ctx, P.n, P.wild_vertices(), every=True))


def tame_ok(ctx: BinomialContext, n: int, points: Mapping[int, int]) -> bool:
    """The tame biconditional on the points {x: J}.

    For p^(v_p(n)) <= j <= n, (j, 0) is a point exactly when binomial(n, j)
    is a unit, that is for j in ``polygons.tame_zeros``.
    """
    p = ctx.base.p
    top = p ** vp(p, n)
    zeros = {j for j, J in points.items() if J == 0 and top <= j <= n}
    return zeros == set(tame_zeros(p, n))


def _fine_report(ctx: BinomialContext, Pstar: FinePolygon, kind: int) -> ValidityReport:
    _same_prime(ctx, Pstar)
    found = violations(ctx, Pstar.n, Pstar.wild_points(), kind=kind, every=True)
    if not tame_ok(ctx, Pstar.n, dict(Pstar.points)):
        found += (Violation.TAME,)  # after the Ore family in declaration order
    return ValidityReport.from_violations(found)


def is_valid_fine(ctx: BinomialContext, Pstar: FinePolygon) -> ValidityReport:
    """Full validity of a fine polygon: tame biconditional plus the Ore family."""
    return _fine_report(ctx, Pstar, 2)


def is_weakly_valid_fine(ctx: BinomialContext, Pstar: FinePolygon) -> ValidityReport:
    return _fine_report(ctx, Pstar, 0)


# ---------------------------------------------------------------------------
# residue solubility


def forced_residue_violations(
    ctx: BinomialContext, Pres: FinePolygonWithResidues
) -> list[tuple[int, FqElement, FqElement]]:
    """Mismatches (x, expected, got) at horizontal-face points.

    Every point (j, 0) must carry beta(n, j), the residue of binomial(n, j),
    which is a unit there by the tame condition: its plan step's beta.
    """
    steps = polygon_plan(ctx.base, Pres.polygon.n, Pres.polygon.points)[1]
    return [(j, expected, rho) for (j, R, *_, expected), rho in zip(steps, Pres.residues)
            if R == 0 and rho != expected]


def phi0_equations(
    n: int, decorated: Iterable[tuple[tuple, FqElement]]
) -> list[tuple[int, FqElement]]:
    """The power system satisfied by x = -phi0, from (step, residue) pairs.

    A step of ``polygons.polygon_plan`` has rho = beta * phi_b * x^k, phi_n = 1: a
    point with b = n gives x^-k = beta / rho, and points sharing b < n give
    x^(k0 - k) = u0 / u, where u = rho / beta."""
    eqs: list[tuple[int, FqElement]] = []
    groups: dict[int, list[tuple[int, FqElement]]] = {}
    for (j, _, b, k, _, beta_bj), rho in decorated:
        if b == n:
            eqs.append((-k, beta_bj / rho))
        elif beta_bj is None:
            raise ValueError(f"beta({b},{j}) out of range")
        else:
            groups.setdefault(b, []).append((k, rho / beta_bj))
    for (k_0, u_0), *rest in groups.values():
        eqs.extend((k_0 - k, u_0 / u) for k, u in rest)
    return eqs


def admissible_phi0(
    ctx: BinomialContext, Pres: FinePolygonWithResidues
) -> set[FqElement]:
    """All phi0 in F_q^x for which some Eisenstein polynomial realises ``Pres``.

    Raises :class:`ResidueForcedError` when a horizontal-face residue is not
    the forced binomial residue; otherwise translates the solubility
    conditions into a power system in -phi0 and solves it.
    """
    mismatches = forced_residue_violations(ctx, Pres)
    if mismatches:
        raise ResidueForcedError(
            "forced residues violated at " + ", ".join(str(x) for x, _, _ in mismatches)
        )
    n = Pres.polygon.n
    steps = polygon_plan(ctx.base, n, Pres.polygon.points)[1]
    solutions = solve_power_system(ctx.base, phi0_equations(n, zip(steps, Pres.residues)))
    return {-x for x in solutions}


def is_valid_with_unif(ctx: BinomialContext, inv: InvariantWithUnif) -> ValidityReport:
    try:
        admissible = admissible_phi0(ctx, inv.res)
    except ResidueForcedError:
        return ValidityReport.from_violations([Violation.RESIDUE_FORCED])
    if inv.phi0 in admissible:
        return ValidityReport.from_violations([])
    return ValidityReport.from_violations([Violation.RESIDUE_SYSTEM])


# ---------------------------------------------------------------------------
# equivalence


def equivalent_res(
    ctx: BinomialContext, A: FinePolygonWithResidues, B_: FinePolygonWithResidues
) -> bool:
    """Whether a unit twist delta maps the residues of A onto those of B_.

    The twist acts by rho_j -> rho_j * delta^(-R_j), so the two decorations
    are equivalent iff the system delta^(R_j) = rho_j / rho'_j is soluble.
    """
    if A.polygon != B_.polygon:
        return False
    eqs = [
        (J, rho_a / rho_b)
        for (x, J, rho_a), (_, _, rho_b) in zip(A.items(), B_.items())
    ]
    return bool(solve_power_system(ctx.base, eqs))


def invariant_gcd(Pres: FinePolygonWithResidues) -> int:
    """gcd of all point ordinates; 0 when the polygon is entirely horizontal."""
    g = 0
    for _, J in Pres.polygon.points:
        g = math.gcd(g, J)
    return g


def equivalent_with_unif(
    ctx: BinomialContext, A: InvariantWithUnif, B_: InvariantWithUnif
) -> bool:
    """Equivalence of uniformizer-refined invariants.

    With identical decorated polygons the only freedom left is a twist delta
    with delta^g = 1 (g the gcd of the ordinates) moving phi0 by delta^n.
    """
    if A.res != B_.res:
        return False
    g = invariant_gcd(A.res)
    n = A.res.polygon.n
    eqs = [(g, ctx.base.fq.one), (n, B_.phi0 / A.phi0)]
    return bool(solve_power_system(ctx.base, eqs))
