"""Forward analysis: from an explicit Eisenstein polynomial to its invariants.

Polynomials are held as finite tables of pi-adic digits of their
coefficients, never as approximate p-adic numbers.  Writing
F_i = v(f_i) (the index of the first nonzero digit) and phi_i for that
digit, the invariants are exact functions of the pairs (F_i, phi_i):

    R_j = min over i in [j, n] of n*(B(i,j) + F_i - 1) + i,

terms with f_i = 0 omitted (the monic leading term, with F_n = 0, is
always present, so every R_j is finite).  The fine polygon collects the
(j, R_j) on the lower hull, and the residue at such a point with
R_j = a*n + b is beta(b, j) * phi_b * (-phi0)^-(1+a), phi0 being the
first digit of the constant coefficient.

The fine polygon depends only on the valuation signature
(F_0, ..., F_{n-1}), and :func:`ramification_of` maps a signature to its
plan; every invariant of a polynomial is computed by one call.  It evaluates R_j
only where a point can lie on the hull, m being v_p(n):

* lemma: for p^s <= j < p^(s+1) and j <= i,
  v_p(binomial(i, j)) >= v_p(binomial(i, p^s));
* so each term at such a j is at least the same coefficient's term at
  p^s, and R_j >= R_(p^s);
* R_j > 0 for j < p^m (Lucas), so the hull strictly decreases on
  [1, p^m] and every (j, R_j) with j not a p-power lies strictly above it;
* tame rule: beyond p^m, R_j = 0 exactly when v_p(binomial(n, j)) = 0
  (the leading term gives n*B(n, j), every other term is at least i > 0),
  and the other R_j are positive, above the horizontal face.

So R is taken at p^0, ..., p^(m-1) (at p^m it is the leading term's 0) and
the points (j, 0), j in ``polygons.tame_zeros``, are added: O(n log_p n)
terms per polynomial, where every abscissa would take O(n^2).  A term less
n*F_i depends on the degree alone: :func:`degree_rows` lays it out as one row
per p^s on a degree's first analysis and keeps the last ``ROW_DEGREES``
degrees' rows (n*v_p(n) ints at most each); R at p^s is one C-level min.
The terms are pairwise distinct mod n, so the residue at (j, R_j) reads
phi_b directly, and the rest of it depends on the polygon alone:
``polygons.polygon_plan`` validates the ``FinePolygon`` once and keeps b,
-(1+a), B(b, j) and beta(b, j) per point.  Per polynomial remain the leading
pairs, the minima, the hull, one plan lookup and :func:`decorate`: per point
the minimizer check in integers (b >= j, F_b present, n*(B + F_b - 1) + b = R),
one product and one power.

This module is also the test oracle: :func:`brute_force_survey` groups
every digit table up to a depth bound by fine polygon, against which the
enumerators and templates are checked.  It builds no table and no row: the
polygon depends on the valuation signature alone, so the tables of one
signature form a box, a signature costs one :func:`ramification_of` call,
and a :class:`SurveyGroup` holds only its signatures.  It is sized in closed
form and iterable in lexicographic order, making rows only as it iterates,
but not indexable.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .binomials import BinomialContext, vp, vp_factorial
from .polygons import (
    FinePolygon,
    FinePolygonWithResidues,
    InvariantWithUnif,
    RamPolygon,
    hull_points,
    polygon_plan,
    tame_zeros,
)
from .residue_field import BaseField, FqElement

SURVEY_GUARD = 2**24

# digit tables beyond these bounds are refused before any row is allocated
MAX_DEGREE = 2**12
MAX_DEPTH = 2**10

# depth of the digit expansion used for integer coefficient input; the
# invariants depend only on each coefficient's leading digit, deeper digits
# are kept so the table remains a faithful approximation of the input
INTEGER_DIGIT_DEPTH = 8

ROW_DEGREES = 16  # degrees whose rows ``degree_rows`` keeps, least recently used dropped first
ABSENT = float("inf")  # n*F of a zero coefficient: above every term, whatever e is


class NotEisensteinError(ValueError):
    """Input polynomial is not Eisenstein over the base field."""


@dataclass(frozen=True, slots=True)
class EisensteinData:
    """A monic Eisenstein polynomial as a digit table.

    ``digits[i][k-1]`` is the residue digit of coefficient i at pi-power k
    (the k = 0 digit of every coefficient is 0 by Eisenstein integrality,
    and the leading coefficient is implicitly 1).  Each per-coefficient
    tuple is stored with trailing zeros trimmed, so tables compare equal
    exactly when they define the same polynomial.  A row given as a tuple
    that is already trimmed is kept as the same object, so tables built
    from shared rows share them.
    """

    base: BaseField
    n: int
    digits: tuple[tuple[FqElement, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.digits) != self.n:
            raise NotEisensteinError("need one digit vector per coefficient below n")
        object.__setattr__(self, "digits", tuple(map(_trim, self.digits)))
        if not self.digits[0] or not self.digits[0][0]:
            raise NotEisensteinError("constant coefficient must have valuation 1")

    @classmethod
    def from_digit_map(
        cls, base: BaseField, n: int, table: Mapping[tuple[int, int], FqElement]
    ) -> "EisensteinData":
        depth = max((k for (_, k) in table), default=1)
        if n > MAX_DEGREE or depth > MAX_DEPTH:
            raise NotEisensteinError(f"degree/depth {n}/{depth} beyond {MAX_DEGREE}/{MAX_DEPTH}")
        rows = [[base.fq.zero] * depth for _ in range(n)]
        for (i, k), value in table.items():
            if not 0 <= i < n:
                raise NotEisensteinError(f"coefficient index {i} out of range")
            if k < 1:
                if value:
                    raise NotEisensteinError("digits at pi-power 0 must vanish")
                continue
            rows[i][k - 1] = value
        return cls(base, n, tuple(tuple(row) for row in rows))

    def digit(self, i: int, k: int) -> FqElement:
        if i == self.n:
            return self.base.fq.one if k == 0 else self.base.fq.zero
        row = self.digits[i]
        if 1 <= k <= len(row):
            return row[k - 1]
        return self.base.fq.zero

    def leading(self) -> tuple[tuple[int | None, FqElement | None], ...]:
        """(F_i, phi_i) for i < n in one pass, (None, None) for a zero coefficient.

        Rows are trimmed, so a nonempty one has a nonzero digit; ``zero`` is the
        field's interned 0, compared by identity."""
        zero, lead = self.base.fq.zero, []
        for row in self.digits:
            k = 0
            while row and row[k] is zero:
                k += 1
            lead.append((k + 1, row[k]) if row else (None, None))
        return tuple(lead)

    def nonzero_digits(self) -> Iterable[tuple[int, int, FqElement]]:
        for i, row in enumerate(self.digits):
            for k, d in enumerate(row, start=1):
                if d:
                    yield i, k, d


def _trim(vec: Iterable[FqElement]) -> tuple[FqElement, ...]:
    """``vec`` as a tuple without trailing zeros; a tuple already so is returned as is."""
    if type(vec) is tuple and (not vec or vec[-1]):
        return vec
    out = list(vec)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# invariants of a polynomial


@lru_cache(maxsize=ROW_DEGREES)
def degree_rows(p: int, e: int, n: int) -> tuple[tuple, tuple]:
    """The (p^s, row) for p^s < p^(v_p(n)), and the tame zeros (j, 0), of one degree.

    Immutable, as every analysis of the degree shares them.  ``row[i - p^s]`` for p^s <= i
    <= n is coefficient i's term at p^s less n*F_i: n*e*v_p(binomial(i, p^s)) + i - n."""
    vf = [vp_factorial(p, i) for i in range(n + 1)]
    wild = tuple((x, tuple(n * e * (vf[i] - vf[x] - vf[i - x]) + i - n for i in range(x, n + 1)))
                 for x in (p**s for s in range(vp(p, n))))
    return wild, tuple((j, 0) for j in tame_zeros(p, n))


def ramification_of(base: BaseField, signature: Sequence[int | None]) -> tuple[FinePolygon, tuple]:
    """The plan of the hull of the points (j, R_j), from R at the p-powers and the tame zeros.

    ``signature`` holds F_0, ..., F_{n-1}, None for a zero coefficient.  R at p^s is
    the least row entry plus n*F_i, finite by the monic term (F_n = 0)."""
    n = len(signature)
    wild, tame = degree_rows(base.p, base.e, n)
    nF = [ABSENT if F is None else n * F for F in signature] + [0]
    points = [(x, min(map(add, row, nF[x:]))) for x, row in wild]
    return polygon_plan(base, n, tuple(hull_points([*points, *tame])))


def fine_of(f: EisensteinData) -> FinePolygon:
    return ramification_of(f.base, [F for F, _ in f.leading()])[0]


def polygon_of(f: EisensteinData) -> RamPolygon:
    # the hull of the points on the hull is the hull of all points
    return fine_of(f).hull


def decorate(fine: FinePolygon, steps: tuple, lead: Sequence) -> FinePolygonWithResidues:
    """``fine`` decorated with the residues its plan ``steps`` gives the leading pairs ``lead``:
    (F_i, phi_i) for i < n, (None, None) for a zero coefficient, then (0, 1) for the monic
    term.  Each point's minimizer check confirms ``fine`` is their signature's polygon."""
    n = fine.n
    minus_phi0 = -lead[0][1]
    residues = []
    for j, R, b, k, B_bj, beta_bj in steps:
        # term values are pairwise distinct mod n, so R_j is attained only
        # at the index congruent to R_j, that is b; checked per polynomial
        Fb, phi_b = lead[b]
        if b < j or Fb is None or n * (B_bj + Fb - 1) + b != R:
            raise AssertionError(f"minimizer at j={j} is not the expected index {b}")
        residues.append(beta_bj * phi_b * minus_phi0**k)
    return FinePolygonWithResidues(fine, tuple(residues))


def residues_of(f: EisensteinData) -> FinePolygonWithResidues:
    """Decorate the fine polygon of ``f`` with its leading residues."""
    lead = f.leading() + ((0, f.base.fq.one),)
    fine, steps = ramification_of(f.base, [F for F, _ in lead[:f.n]])
    return decorate(fine, steps, lead)


def unif_of(f: EisensteinData) -> InvariantWithUnif:
    return InvariantWithUnif(residues_of(f), f.digit(0, 1))


# ---------------------------------------------------------------------------
# integer-form input (base field Q_p only)


_TERM = re.compile(r"^([+-]?\d*)(?:\*?x(?:\^(\d+))?)?$")
_SIGNS = {"": 1, "+": 1, "-": -1}


def parse_integer_polynomial(base: BaseField, text: str) -> EisensteinData:
    """Parse e.g. ``"x^8+2x^7+2x^6+2x^4+2"`` into a digit table.

    Only available over Q_p (e = f = 1), where base-p digit expansion of an
    integer coefficient is canonical.  Negative coefficients have infinite
    p-adic expansions and are truncated at a fixed depth beyond their
    valuation; the invariants computed from the table do not depend on the
    truncation depth.
    """
    if base.e != 1 or base.f != 1:
        raise ValueError("integer polynomial input requires e = f = 1")
    p = base.p
    cleaned = text.replace(" ", "").replace("-", "+-")
    parts = [part for part in cleaned.split("+") if part]
    if not parts:
        raise NotEisensteinError("no terms given")
    coeffs: dict[int, int] = {}
    for part in parts:
        match = _TERM.match(part)
        if not match or (match.group(1) in _SIGNS and "x" not in part):
            raise NotEisensteinError(f"cannot parse term {part!r}")
        raw_coeff, raw_exp = match.groups()
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            exp = (int(raw_exp) if raw_exp else 1) if "x" in part else 0
            coeff = _SIGNS[raw_coeff] if raw_coeff in _SIGNS else int(raw_coeff)
        except ValueError as exc:
            raise NotEisensteinError(f"term {part[:20]!r}... has too many digits") from exc
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    n = max(coeffs)
    if coeffs.get(n) != 1:
        raise NotEisensteinError("polynomial must be monic")
    for i, c in coeffs.items():
        if i < n and c != 0 and c % p != 0:
            raise NotEisensteinError(f"coefficient of x^{i} is a unit")
    if coeffs.get(0, 0) % (p * p) == 0:
        raise NotEisensteinError("constant coefficient must have valuation exactly 1")
    table: dict[tuple[int, int], FqElement] = {}
    for i, c in coeffs.items():
        if i == n or c == 0:
            continue
        F = vp(p, c)
        depth = F + INTEGER_DIGIT_DEPTH
        residue = c % p**depth
        for k in range(F, depth):
            digit = (residue // p**k) % p
            if digit:
                table[(i, k)] = base.fq.from_int(digit)
    return EisensteinData.from_digit_map(base, n, table)


def render_integer_polynomial(f: EisensteinData) -> str:
    """Human-readable integer form of a digit table over Q_p."""
    if f.base.e != 1 or f.base.f != 1:
        raise ValueError("integer rendering requires e = f = 1")
    p = f.base.p
    terms = [f"x^{f.n}" if f.n > 1 else "x"]
    for i in range(f.n - 1, -1, -1):
        c = sum(row_digit.coeffs[0] * p**k for k, row_digit in enumerate(f.digits[i], 1))
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}x" if c != 1 else "x")
        else:
            terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# exhaustive survey (test oracle)


class SurveyGroup:
    """The surveyed digit tables of one fine polygon, as a union of boxes.

    A box is a valuation signature (F_0, ..., F_{n-1}), None for a zero
    coefficient: the tables whose coefficient i has leading valuation F_i,
    any of (q-1)*q^(depth-F_i) rows.  Boxes are appended in lexicographic
    order of their first tables.  ``len`` counts the tables; iterating makes
    the rows of each leading valuation and builds the tables from them, in
    lexicographic order (zero the least digit), as ``EisensteinData`` that
    share the rows of one iteration.
    """

    __slots__ = ("base", "depth", "boxes")

    def __init__(self, base: BaseField, depth: int) -> None:
        self.base = base
        self.depth = depth
        self.boxes: list[tuple[int | None, ...]] = []

    def __len__(self) -> int:
        q, d = self.base.q, self.depth
        return sum(math.prod((q - 1) * q ** (d - F) for F in box if F is not None)
                   for box in self.boxes)

    def __iter__(self) -> Iterator[EisensteinData]:
        base, depth = self.base, self.depth
        digits = list(base.fq.elements())  # zero first
        rows = {None: ((),)}
        for F in {F for box in self.boxes for F in box} - {None}:
            lead = (base.fq.zero,) * (F - 1)
            rows[F] = tuple(_trim((*lead, unit, *rest)) for unit in digits[1:]
                            for rest in itertools.product(digits, repeat=depth - F))
        for table in _lexicographic(self.boxes, 0, rows):
            yield EisensteinData(base, len(table), table)


def _lexicographic(boxes: list[tuple], i: int, rows: dict) -> Iterator[tuple]:
    """The row tuples of ``boxes``, which agree before coefficient i, in order.

    Boxes come in lexicographic order, so grouping them by F_i keeps the order
    of the F_i: the zero row first, then the rows of F = depth down to 1."""
    if len(boxes) == 1:  # boxes differ somewhere, so one is left by i = n
        yield from itertools.product(*map(rows.__getitem__, boxes[0][i:]))
        return
    by_valuation: dict[int | None, list] = {}
    for box in boxes:
        by_valuation.setdefault(box[i], []).append(box)
    for F, tail_boxes in by_valuation.items():
        for row in rows[F]:
            for tail in _lexicographic(tail_boxes, i + 1, rows):
                yield (row, *tail)


def brute_force_survey(
    ctx: BinomialContext, n: int, digit_bound: int
) -> dict[FinePolygon, SurveyGroup]:
    """Group every digit table of depth <= digit_bound by its fine polygon.

    Covers all q^(n * digit_bound) tables (minus the non-Eisenstein ones),
    so callers must stay inside the guard, but builds none of them: the fine
    polygon depends only on the valuation signature, so each signature is
    one box of a ``SurveyGroup`` and costs one ``ramification_of`` call.
    Polygons come in the order their first tables have lexicographically.
    """
    base = ctx.base
    if base.q ** (n * digit_bound) > SURVEY_GUARD:
        raise ValueError("survey size exceeds the iteration guard")
    # leading valuations in the order of their first rows: zero, then F = depth down to 1
    valuations = [None, *range(digit_bound, 0, -1)]
    survey: dict[FinePolygon, SurveyGroup] = {}
    # phi_0 has a nonzero first digit; signatures come in lexicographic order
    for signature in itertools.product([1], *[valuations] * (n - 1)):
        fine = ramification_of(base, signature)[0]
        group = survey.get(fine)
        if group is None:
            group = survey[fine] = SurveyGroup(base, digit_bound)
        group.boxes.append(signature)
    return survey
