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
So ``violations`` is the one route to every report and to every verdict but
the hull search's candidate columns: it reads each pair and piece from
``BinomialContext.memo``, one shared violation tuple per check, and runs the
kernel only for a check not yet decided.  The searches call it,
``weak_ram_ok`` is its weak verdict, and every ``is_valid_*`` report its
``every`` form.  The fine search places ``polygons.tame_zeros`` itself, so
only the fine reports check the tame biconditional (``tame_ok``).

The kernel decides a check in closed form, in integers, from the one bound
formula ``polygons.digit_bound``.  A point's own checks (``_point``) read the
bound at its own value J; a pair adds, at each point's exponent, Ore2 and the
other point's Bounding (``_at``), and Consistency; a piece adds Ore2 and the
point's Bounding at the absent exponent, under the segment's value.  A hull
that passes whole is kept too, so ``is_valid_ram`` answers a hull the search
passed with one lookup.

The hull search asks for verdicts only: which candidates J at an exponent S
pair with a vertex t.  ``passing_column`` answers that for a whole bitmask of
them in one pass.  A point's own checks and its Ore2 at its own exponent
depend on (s, J) alone, so they are a table per exponent in the degree's memo
entry; per bit it tests only each point's Bounding at the other's exponent,
which implies Consistency.  A column writes no pair to the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Collection, Iterable, Mapping

from .binomials import BinomialContext, vp
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    decompose,
    digit_bound,
    polygon_plan,
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


def _point(p: int, e: int, n: int, s: int, J: int) -> tuple[list[Violation], int, int | None]:
    """The checks of the point (p^s, J) at its own value J: (violations, b, own).

    J = a*n + b.  BRange when p^s > b; for b = n, Ore1 unless ell(n, s) = 0;
    for p^s <= b < n, own = ell(b, s), the depth the point bounds coefficient
    b to, and Ore3 when own < 1 (own is None otherwise).
    """
    x = p**s
    b = decompose(J, n)[1]
    found = [Violation.BRANGE] if x > b else []
    own = None
    if b == n:
        if digit_bound(p, e, n, n, x, J, 1, False):
            found.append(Violation.ORE1)
    elif x <= b:
        own = digit_bound(p, e, n, b, x, J, 1, False)
        if own < 1:
            found.append(Violation.ORE3)
    return found, b, own


def _at(p: int, e: int, n: int, b: int, own: int | None, x: int, N: int, D: int,
        strict: bool) -> list[Violation]:
    """Ore2 at x = p^s, the polygon's value there N / D, and the Bounding there
    of a point bounding coefficient b to depth ``own``."""
    found = [Violation.ORE2] if digit_bound(p, e, n, n, x, N, D, strict) > 0 else []
    if own is not None and x <= b and own < digit_bound(p, e, n, b, x, N, D, strict):
        found.append(Violation.BOUNDING)
    return found


def _pair(ctx: BinomialContext, n: int, t, v) -> tuple[Violation, ...]:
    """The violations of the points t, v = (s, p^s, J), t = v for v alone.

    Each point's own checks, then Ore2 and the other's Bounding at each one's
    exponent, where the value is its J (a point's Bounding at its own value
    holds), and Consistency when both bound one coefficient to different depths.
    """
    p, e = ctx.base.p, ctx.base.e
    found_t, b_t, own_t = _point(p, e, n, t[0], t[2])
    found_v, b_v, own_v = _point(p, e, n, v[0], v[2])
    found = found_t + found_v + _at(p, e, n, b_t, own_t, v[1], v[2], 1, False)
    found += _at(p, e, n, b_v, own_v, t[1], t[2], 1, False)
    if own_t is not None and own_v is not None and b_t == b_v and own_t != own_v:
        found.append(Violation.CONSISTENCY)
    return _shared(frozenset(found))


def _piece(ctx: BinomialContext, n: int, t, s: int, N: int, D: int, strict: bool
           ) -> tuple[Violation, ...]:
    """The violations of the point t at an absent exponent s, the value there N / D:
    t's own checks, then Ore2 and t's Bounding at s, in the ceil or strict form."""
    p, e = ctx.base.p, ctx.base.e
    found, b, own = _point(p, e, n, t[0], t[2])
    return _shared(frozenset(found + _at(p, e, n, b, own, p**s, N, D, strict)))


def _memo(ctx: BinomialContext, n: int) -> tuple[int, int, dict[int, tuple[Violation, ...]],
                                                  dict[int, list]]:
    """(cap, w, answers, records) of degree n: keys pack parts <= cap = n * v(n) in w bits each.

    The low 2 bits are the kind: 0 a pair, 1 a ceil piece, 2 a strict piece,
    3 a passing hull, its wild vertices (s, J) packed in order after a 1 bit.
    An ordinate J > cap fails Ore2 at its own exponent s (the bound is
    ceil(J / n) - e * (v_p(n) - s) > 0), so no key holds one.  ``records``
    maps an exponent s to the own record of each point (p^s, J), J <= cap,
    that ``passing_column`` reads.
    """
    memo = ctx.memo.get(n)
    if memo is None:
        cap = n * ctx.base.e * vp(ctx.base.p, n)
        memo = ctx.memo[n] = (cap, max(cap, 1).bit_length(), {}, {})
    return memo


def _hull_key(w: int, positions) -> int:
    """The key of a passing hull through the points (s, p^s, J), every J <= cap (kind 3)."""
    key = 1
    for s, _, J in positions:
        key = (key << w | s) << w | J
    return key << 2 | 3


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
    consecutive points u and w and each point t, the piece of t at s alone,
    with the value of the segment (u, w) at p^s, in the ceil (1) or
    strict-exclusion (2) form.  A hull (kind 1) that passes is kept whole,
    which ``is_valid_ram`` reads before any pair or piece.  Returns () when
    all pass, else the first failing check's violations, or with ``every`` all.
    """
    cap, w, memo, _ = ctx.memo.get(n) or _memo(ctx, n)
    out: tuple[Violation, ...] = ()
    # with ``new`` empty every pair is known to pass
    for i, v in enumerate(positions if new is None or new else ()):
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
                    found = store[key] = _pair(ctx, n, t, v)
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
                        N = J_u * (x_w - x) + J_w * (x - x_u)
                        found = store[key] = _piece(ctx, n, t, s, N, x_w - x_u, kind == 2)
                    if found:
                        if not every:
                            return found
                        out += found
    if out:
        return _shared(frozenset(out))
    if kind == 1:
        # each point passed Ore2 at its own exponent, so J <= cap
        memo[_hull_key(w, positions)] = ()
    return ()


def weak_ram_ok(
    ctx: BinomialContext, n: int, positions, new: Collection[int] | None = None
) -> bool:
    """Weak validity as ``violations`` decides it, the hull search's one check per branch
    (whole at a root; a child adds no pair its candidate columns left undecided)."""
    return not violations(ctx, n, positions, new)


def passing_column(ctx: BinomialContext, n: int, t, S: int, mask: int) -> int:
    """The bits J of ``mask`` whose pair {t, (S, p^S, J)} passes, t = (s, p^s, J_t).

    The verdict of ``_pair``, in one pass over the bits.  Each point's own
    record, (b, own, ok), is read from the table of its exponent, built once per
    degree and exponent: b and the depth ``own`` of ``_point``, and whether it
    passes its own checks and Ore2 at its own exponent, where the value is its J.
    An ordinate above the cap fails Ore2 there (see ``_memo``), so its bit is
    never set.  Per bit only the cross terms are decided: t's Bounding at p^S
    and the candidate's Bounding at p^s.  Consistency needs no test of its own:
    when both bound one coefficient b, t's Bounding at p^S reads the bound of b
    at the candidate's exponent and value, which is the candidate's own depth,
    and the other way round, so unequal depths fail one of the two.
    """
    cap, _, _, records = ctx.memo.get(n) or _memo(ctx, n)
    p, e = ctx.base.p, ctx.base.e
    s, x_t, J_t = t
    for r in {s, S} - records.keys():
        x = p**r
        table = records[r] = []
        for J in range(cap + 1):
            found, b, own = _point(p, e, n, r, J)
            table.append((b, own, not found and digit_bound(p, e, n, n, x, J, 1, False) <= 0))
    if J_t > cap:
        return 0
    b_t, own_t, ok_t = records[s][J_t]
    if not ok_t:
        return 0
    x = p**S
    table = records[S]
    out = 0
    for J in range(min(mask.bit_length(), cap + 1)):
        if not mask >> J & 1:
            continue
        b, own, ok = table[J]
        if not ok:
            continue
        if own_t is not None and x <= b_t and own_t < digit_bound(p, e, n, b_t, x, J, 1, False):
            continue
        if own is not None and x_t <= b and own < digit_bound(p, e, n, b, x_t, J_t, 1, False):
            continue
        out |= 1 << J
    return out


def _same_prime(ctx: BinomialContext, P: RamPolygon | FinePolygon) -> None:
    # the memo keys name exponents s, not abscissas, so a polygon over another
    # prime would read and write the answers of a different one
    if P.p != ctx.base.p:
        raise ValueError(f"polygon over p = {P.p}, context over p = {ctx.base.p}")


def is_valid_ram(ctx: BinomialContext, P: RamPolygon) -> ValidityReport:
    """Full validity of a ramification polygon, every violation named."""
    _same_prime(ctx, P)
    cap, w, memo, _ = _memo(ctx, P.n)
    wild = P.wild_vertices()
    # J0 is the largest ordinate; above the cap the key is not unique
    if P.J0 <= cap and _hull_key(w, wild) in memo:
        return ValidityReport.from_violations(())
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
