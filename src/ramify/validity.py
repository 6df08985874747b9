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
Consistency two), and the depth bound at a present exponent reads only
that position's J, so weak validity of a set is the conjunction of the
weak validity of its pairs.  A set that passed stays valid after adding a
point v exactly when every pair {t, v} passes.

Full validity splits the same way at the leaves of a search: weak validity
plus, at each absent exponent s, one piece per present point t (Ore2 at s
and the Bounding of t at s), which depends on t, s, the segment (u, w) of
consecutive present points enclosing s, and the form of the bound there:
ceil for a hull, strict exclusion for a fine polygon, whose present points
lie on its hull; a set's violations are the union of its pairs' and pieces'.
So ``violations`` is the one route to every verdict and report: it reads
each pair and piece from ``BinomialContext.memo``, one shared violation
tuple per check, and runs the engine only for a check not yet decided.  The
searches call it, ``weak_ram_ok`` is its weak verdict, and every
``is_valid_*`` report its ``every`` form.  The fine search places
``polygons.tame_zeros`` itself, so only the fine reports check the tame
biconditional (``tame_ok``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .binomials import BinomialContext, beta, vp
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    decompose,
    depth_bound,
    tame_zeros,
)
from .residue_field import FqElement, solve_power_system


class Violation(Enum):
    __hash__ = object.__hash__  # members are singletons: an identity hash, at C speed

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
        found = _shared(frozenset(violations))
        return cls(ok=not found, violations=found)


class ResidueForcedError(ValueError):
    """A horizontal-face residue differs from the forced binomial residue."""


def _condition_violations(
    ctx: BinomialContext,
    n: int,
    positions: Sequence[tuple[int, int, int]],
    ell: Callable[[int, int], int],
    s_values: Sequence[int],
) -> list[Violation]:
    """Shared Ore / Consistency / Bounding engine.

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


def _weak_violations(ctx: BinomialContext, n: int, positions) -> list[Violation]:
    """The engine over the present exponents only.

    At an attained position (p^s, J) the polygon's value is J itself, so the
    digit-depth bound at the present exponents needs no hull.
    """
    s_values = [s for s, _, _ in positions]
    ell = depth_bound(ctx, n, {s: (J, 1) for s, _, J in positions})
    return _condition_violations(ctx, n, positions, ell, s_values)


def _memo(ctx: BinomialContext, n: int) -> tuple[int, int, dict[int, tuple[Violation, ...]]]:
    """(cap, w, answers) of degree n: keys pack parts <= cap = n * v(n) in w bits each.

    The low 2 bits are the kind: 0 a pair, 1 a ceil piece, 2 a strict piece.
    An ordinate J > cap fails Ore2 at its own exponent s (the bound is
    ceil(J / n) - e * (v_p(n) - s) > 0), so no key holds one.
    """
    memo = ctx.memo.get(n)
    if memo is None:
        cap = n * ctx.base.e * vp(ctx.base.p, n)
        memo = ctx.memo[n] = (cap, max(cap, 1).bit_length(), {})
    return memo


@lru_cache(maxsize=None)
def _shared(found: frozenset[Violation]) -> tuple[Violation, ...]:
    """The violations in ``found`` in declaration order: one tuple object per answer."""
    return tuple(v for v in Violation if v in found)


def violations(
    ctx: BinomialContext, n: int, positions, new: Collection[int] | None = None,
    kind: int = 0, every: bool = False,
) -> tuple[Violation, ...]:
    """The violations of the points (s, p^s, J) ``positions``, from memoised pairs and pieces.

    Kind 0 is weak validity: the pair {t, v} for every v of exponent in ``new``
    (all when None, each unordered pair then once; the rest is known to pass)
    and every t, t = v checking v alone.  Kinds 1 and 2 are full validity of the
    polygon through the points, in increasing s from 0 to v_p(n) and each on
    the lower hull of them all: the pairs, then for s strictly between
    consecutive points u and w and each point t, the engine on [t] at s alone,
    with the value of the segment (u, w) at p^s, in the ceil (1) or
    strict-exclusion (2) form.  Returns () when all pass, else the first
    failing check's violations, or with ``every`` all.
    """
    cap, w, memo = ctx.memo.get(n) or _memo(ctx, n)
    out: tuple[Violation, ...] = ()
    for i, v in enumerate(positions):
        if new is None or v[0] in new:
            b = v[0] << w | v[2]
            wide = v[2] > cap
            for t in positions[i:] if new is None else positions:
                a = t[0] << w | t[2]
                key = (a << 2 * w | b if a <= b else b << 2 * w | a) << 2
                # no key holds an ordinate above the cap (see _memo)
                store = {} if wide or t[2] > cap else memo
                found = store.get(key)
                if found is None:
                    found = store[key] = _shared(frozenset(_weak_violations(ctx, n, [t, v])))
                if found:
                    if not every:
                        return found
                    out += found
    if kind:
        p = ctx.base.p
        for (s_u, x_u, J_u), (s_w, x_w, J_w) in zip(positions, positions[1:]):
            segment = ((s_u << w | J_u) << w | s_w) << w | J_w
            for s in range(s_u + 1, s_w):
                for t in positions:
                    key = ((((t[0] << w | t[2]) << w | s) << 4 * w | segment) << 2) | kind
                    store = {} if out else memo  # a failing report may hold such an ordinate
                    found = store.get(key)
                    if found is None:
                        x = p**s
                        value = (J_u * (x_w - x) + J_w * (x - x_u), x_w - x_u)
                        strict = (s,) if kind == 2 else ()
                        ell = depth_bound(ctx, n, {t[0]: (t[2], 1), s: value}, strict)
                        found = _condition_violations(ctx, n, [t], ell, [s])
                        found = store[key] = _shared(frozenset(found))
                    if found:
                        if not every:
                            return found
                        out += found
    return _shared(frozenset(out)) if out else ()


def weak_ram_ok(
    ctx: BinomialContext, n: int, positions, new: Collection[int] | None = None
) -> bool:
    """Weak validity as ``violations`` decides it, the hull search's one check per branch."""
    return not violations(ctx, n, positions, new)


def is_valid_ram(ctx: BinomialContext, P: RamPolygon) -> ValidityReport:
    """Full validity of a ramification polygon, every violation named."""
    found = violations(ctx, P.n, P.wild_vertices(), kind=1, every=True)
    return ValidityReport.from_violations(found)


def is_weakly_valid_ram(ctx: BinomialContext, P: RamPolygon) -> ValidityReport:
    """Validity conditions quantified only over the present vertex exponents."""
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
    found = violations(ctx, Pstar.n, Pstar.wild_points(), kind=kind, every=True)
    if not tame_ok(ctx, Pstar.n, dict(Pstar.points)):
        found += (Violation.TAME,)
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

    Every point (j, 0) must carry the residue of binomial(n, j), which is a
    unit there by the tame condition.
    """
    n = Pres.polygon.n
    bad = []
    for x, J, rho in Pres.items():
        if J == 0:
            expected = beta(ctx, n, x)
            if rho != expected:
                bad.append((x, expected, rho))
    return bad


def phi0_equations(
    ctx: BinomialContext, points: Iterable[tuple[int, int, FqElement]], n: int
) -> list[tuple[int, FqElement]]:
    """The power system satisfied by x = -phi0, from the decorated p-power points.

    A point with remainder b = n pins x directly; points sharing a remainder
    b < n constrain x through the ratio of their residues.
    """
    eqs: list[tuple[int, FqElement]] = []
    groups: dict[int, list[tuple[int, int, FqElement]]] = {}
    for s_t, J_t, gamma_t in points:
        a_t, b_t = decompose(J_t, n)
        x_t = ctx.base.p**s_t
        if b_t == n:
            eqs.append((a_t + 1, beta(ctx, n, x_t) / gamma_t))
        else:
            groups.setdefault(b_t, []).append((s_t, a_t, gamma_t))
    for b, group in groups.items():
        s_0, a_0, gamma_0 = group[0]
        beta_0 = beta(ctx, b, ctx.base.p**s_0)
        for s_r, a_r, gamma_r in group[1:]:
            beta_r = beta(ctx, b, ctx.base.p**s_r)
            eqs.append((a_r - a_0, (gamma_0 * beta_r) / (gamma_r * beta_0)))
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
    points = [
        (s, J, Pres.residue_at(x)) for s, x, J in Pres.polygon.wild_points()
    ]
    solutions = solve_power_system(ctx.base, phi0_equations(ctx, points, n))
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
