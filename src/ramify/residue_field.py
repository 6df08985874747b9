"""Exact arithmetic in small finite fields and the solvers built on it.

F_q (q = p^f) is realised as F_p[x] modulo a canonical irreducible
polynomial: the lexicographically least monic irreducible of degree f,
coefficient vectors compared constant-first.  Elements are coefficient
vectors over F_p, constant coefficient first, and serialise to the
comma-separated form of that vector (``"1,0"`` in F_4).  Everything here
is immutable and interned, so equality is cheap and values can be shared
freely across threads.

Besides the base-field descriptor this module provides the three solvers
the invariant machinery needs: simultaneous power equations x^k = a in
F_q^x, coset representatives for images of additive (F_p-linear) maps,
and orbit representatives of F_q^x under twist subgroups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

# Enumeration-based routines (element scans, coset listings) must terminate
# at desk scale, so field construction refuses anything larger.
Q_LIMIT = 2**20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p, coefficient tuples with constant term first


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    # m is monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1] % p
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return _poly_trim(r)


def _monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All monic degree-``degree`` polynomials, in canonical (lex) order."""
    for lower in itertools.product(range(p), repeat=degree):
        yield tuple(lower) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_mod(poly, g, p):
                return False
    return True


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, f: int) -> tuple[int, ...]:
    if f == 1:
        return (0, 1)  # the polynomial x
    for cand in _monic_polys(p, f):
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# fields and elements


class Fq:
    """Arithmetic kernel for F_q with the canonical modulus.

    Do not instantiate directly; use :func:`get_fq` so that fields (and
    hence their interned elements) are unique per (p, f).
    """

    __slots__ = ("p", "f", "q", "modulus", "_elems")

    def __init__(self, p: int, f: int):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = _canonical_modulus(p, f)
        self._elems: dict[tuple[int, ...], FqElement] = {}

    def element(self, coeffs: Sequence[int]) -> FqElement:
        if len(coeffs) > self.f:
            raise ValueError(f"coefficient vector longer than f={self.f}")
        key = tuple(c % self.p for c in coeffs)
        key += (0,) * (self.f - len(key))
        elem = self._elems.get(key)
        if elem is None:
            elem = FqElement(self, key)
            self._elems[key] = elem
        return elem

    def from_int(self, c: int) -> FqElement:
        """Embed a rational integer via the prime subfield."""
        return self.element((c % self.p,) + (0,) * (self.f - 1))

    @property
    def zero(self) -> FqElement:
        return self.element(())

    @property
    def one(self) -> FqElement:
        return self.from_int(1)

    def basis(self) -> tuple[FqElement, ...]:
        """The power basis 1, x, ..., x^(f-1) of F_q over F_p."""
        return tuple(
            self.element(tuple(1 if j == i else 0 for j in range(self.f)))
            for i in range(self.f)
        )

    def elements(self) -> Iterator[FqElement]:
        """All elements in canonical (lexicographic) order."""
        for coeffs in itertools.product(range(self.p), repeat=self.f):
            yield self.element(coeffs)

    def units(self) -> Iterator[FqElement]:
        return (x for x in self.elements() if x)

    def generator(self) -> FqElement:
        """The canonically least generator of the cyclic group F_q^x."""
        order = self.q - 1
        prime_divisors = []
        m = order
        d = 2
        while d * d <= m:
            if m % d == 0:
                prime_divisors.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            prime_divisors.append(m)
        for x in self.units():
            if all(x ** (order // ell) != self.one for ell in prime_divisors):
                return x
        raise AssertionError("multiplicative group has no generator")

    def parse(self, text: str) -> FqElement:
        """Inverse of ``str(element)``; also accepts a bare integer."""
        parts = [part.strip() for part in text.split(",")]
        try:
            coeffs = [int(part) for part in parts]
        except ValueError as exc:
            raise ValueError(f"bad element literal {text!r}") from exc
        return self.element(coeffs)

    def __repr__(self) -> str:
        return f"Fq({self.p}, {self.f})"


@lru_cache(maxsize=None)
def get_fq(p: int, f: int) -> Fq:
    return Fq(p, f)


class FqElement:
    """An element of F_q; immutable, interned, totally ordered.

    The order is lexicographic on coefficient vectors and exists purely to
    make representative choices and serialisations deterministic.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Fq, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FqElement):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.f, self.coeffs))

    def __lt__(self, other: "FqElement") -> bool:
        self._check(other)
        return self.coeffs < other.coeffs

    def _check(self, other: "FqElement") -> None:
        if self.field is not other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        p = self.field.p
        return self.field.element(
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        p = self.field.p
        return self.field.element(
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FqElement":
        p = self.field.p
        return self.field.element(tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        prod = _poly_mul(self.coeffs, other.coeffs, self.field.p)
        return self.field.element(_poly_mod(prod, self.field.modulus, self.field.p))

    def __pow__(self, k: int) -> "FqElement":
        if not self:
            if k > 0:
                return self
            if k == 0:
                return self.field.one
            raise ZeroDivisionError("0 has no negative powers")
        k %= self.field.q - 1
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "FqElement":
        if not self:
            raise ZeroDivisionError("0 is not invertible")
        return self ** (self.field.q - 2)

    def __truediv__(self, other: "FqElement") -> "FqElement":
        return self * other.inverse()

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FqElement({self})"


# ---------------------------------------------------------------------------
# base field descriptor


@dataclass(frozen=True)
class BaseField:
    """A p-adic base field K given by exact residue data.

    p, f and e are the residue characteristic, residue degree and absolute
    ramification index; ``gamma`` is the uniformizer residue of the chosen
    uniformizer pi with respect to p, i.e. the residue of pi^e / p.  For
    K = Q_p this is (p, 1, 1, 1).
    """

    p: int
    f: int
    e: int
    gamma: FqElement
    fq: Fq

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.f < 1 or self.e < 1:
            raise ValueError("f and e must be positive")
        if not self.gamma:
            raise ValueError("gamma must be nonzero")

    @property
    def q(self) -> int:
        return self.fq.q

    def __repr__(self) -> str:
        return f"BaseField(p={self.p}, f={self.f}, e={self.e}, gamma={self.gamma})"


def make_field(p: int, f: int, e: int, gamma_spec: str | int = 1) -> BaseField:
    """Build a base-field descriptor.

    ``gamma_spec`` may be an integer (embedded via the prime subfield), a
    comma-separated coefficient vector such as ``"1,0"``, or ``"g"`` for
    the canonical generator of F_q^x.
    """
    if f < 1 or e < 1:
        raise ValueError("f and e must be positive")
    # bound q before the trial division, and form p^f only for a small f:
    # p >= 2 and f >= Q_LIMIT.bit_length() already give p^f > Q_LIMIT
    if p >= 2 and (p > Q_LIMIT or f >= Q_LIMIT.bit_length() or p**f > Q_LIMIT):
        raise ValueError(f"q = {p}^{f} exceeds the enumeration guard {Q_LIMIT}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    fq = get_fq(p, f)
    if isinstance(gamma_spec, int):
        gamma = fq.from_int(gamma_spec)
    elif gamma_spec == "g":
        gamma = fq.generator()
    else:
        gamma = fq.parse(gamma_spec)
    if not gamma:
        raise ValueError("gamma resolves to zero")
    return BaseField(p=p, f=f, e=e, gamma=gamma, fq=fq)


# ---------------------------------------------------------------------------
# additive maps


@dataclass(frozen=True)
class AdditiveMap:
    """An F_p-linear self-map of F_q, stored by its images of the power basis."""

    fq: Fq
    images: tuple[FqElement, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.fq.f:
            raise ValueError("need one image per basis vector")

    @classmethod
    def from_function(cls, fq: Fq, fn: Callable[[FqElement], FqElement]) -> "AdditiveMap":
        return cls(fq, tuple(fn(b) for b in fq.basis()))

    def __call__(self, x: FqElement) -> FqElement:
        out = self.fq.zero
        for c, img in zip(x.coeffs, self.images):
            if c:
                scalar = self.fq.from_int(c)
                out = out + scalar * img
        return out


def _fp_span(fq: Fq, vectors: Iterable[FqElement]) -> set[FqElement]:
    """The F_p-span of the given elements, via row reduction."""
    p = fq.p
    rows: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        row = list(v.coeffs)
        for r, piv in zip(rows, pivots):
            if row[piv]:
                scale = row[piv] * pow(r[piv], -1, p)
                row = [(a - scale * b) % p for a, b in zip(row, r)]
        if any(row):
            rows.append(row)
            pivots.append(next(i for i, a in enumerate(row) if a))
    basis = [fq.element(tuple(r)) for r in rows]
    span = set()
    for combo in itertools.product(range(p), repeat=len(basis)):
        acc = fq.zero
        for c, b in zip(combo, basis):
            if c:
                acc = acc + fq.from_int(c) * b
        span.add(acc)
    return span


def additive_coset_representatives(
    field: BaseField, amap: AdditiveMap, scale: FqElement
) -> set[FqElement]:
    """One representative per coset of F_q^+ modulo scale * image(amap).

    Representatives are the lexicographically least element of each coset,
    so 0 always represents the image itself.
    """
    fq = field.fq
    subspace = _fp_span(fq, (scale * img for img in amap.images))
    reps: set[FqElement] = set()
    covered: set[FqElement] = set()
    for x in fq.elements():
        if x not in covered:
            reps.add(x)
            covered.update(x + w for w in subspace)
    return reps


# ---------------------------------------------------------------------------
# multiplicative solvers


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and g = a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_power_system(
    field: BaseField, eqs: Iterable[tuple[int, FqElement]]
) -> set[FqElement]:
    """All x in F_q^x with x^k = a for every (k, a) in ``eqs``.

    The system is first reduced via the extended GCD of the exponents
    (after adjoining x^(q-1) = 1): with K = gcd(k_i) = sum b_i k_i and
    A = prod a_i^(b_i), it is consistent iff a_i = A^(k_i / K) for all i,
    in which case the solutions are those of the single equation x^K = A.
    That last equation is solved by scanning F_q^x, which is exact and
    cheap at the field sizes this library admits.
    """
    fq = field.fq
    system = list(eqs)
    for _, a in system:
        if not a:
            raise ValueError("right-hand sides must be nonzero")
    system.append((fq.q - 1, fq.one))
    g = 0
    bezout: list[int] = []
    for k, _ in system:
        g2, x, y = _extended_gcd(g, k)
        bezout = [b * x for b in bezout]
        bezout.append(y)
        g = g2
    target = fq.one
    for (_, a), b in zip(system, bezout):
        target = target * a**b
    for k, a in system:
        if a != target ** (k // g):
            return set()
    return {x for x in fq.units() if x**g == target}


def orbit_representatives(
    field: BaseField, J: int, constraint_exponents: Sequence[int]
) -> set[FqElement]:
    """Representatives of F_q^x modulo the twist subgroup

        H = { delta^(-J) : delta in F_q^x, delta^c = 1 for all listed c }.

    Each representative is the lexicographically least element of its orbit.
    """
    fq = field.fq
    one = fq.one
    twists = {
        d ** (-J)
        for d in fq.units()
        if all(d**c == one for c in constraint_exponents)
    }
    reps: set[FqElement] = set()
    covered: set[FqElement] = set()
    for x in fq.units():
        if x not in covered:
            reps.add(x)
            covered.update(x * h for h in twists)
    return reps
