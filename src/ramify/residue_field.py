"""Exact arithmetic in small finite fields and the solvers built on it.

F_q (q = p^f) is realised as F_p[x] modulo a canonical irreducible
polynomial: the lexicographically least monic irreducible of degree f,
coefficient vectors compared constant-first.  Elements are coefficient
vectors over F_p, constant coefficient first, and serialise to the
comma-separated form of that vector (``"1,0"`` in F_4).  They are
immutable and interned per field, so equality is identity.

Arithmetic looks up discrete logs to the canonical generator g (the least
generator of F_q^x) in exp, log and Zech (k -> log(1 + g^k)) tables, built
as int arrays on a field's first arithmetic use: a field only named builds
nothing.  Each of the three solvers has a closed form in log space: power
equations x^k = a are congruences k*t = log a (mod q-1) merged by gcd
arithmetic, twist orbits are cosets of a subgroup of Z/(q-1), and the cosets
of an additive (F_p-linear) map's image are read off its row-reduced basis.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

# Tables of q entries and element listings must stay at desk scale, so field
# construction refuses anything larger.
Q_LIMIT = 2**20


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# polynomial helpers over F_p, coefficient tuples with constant term first;
# they find the modulus and fill the tables, nothing more


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """The remainder modulo the monic m, trimmed of zero leading coefficients."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1] % p
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _poly_mulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_mod([c % p for c in prod], m, p)


def _poly_powmod(a: Sequence[int], k: int, m: Sequence[int], p: int) -> tuple[int, ...]:
    result = (1,)
    while k:
        if k & 1:
            result = _poly_mulmod(result, a, m, p)
        a = _poly_mulmod(a, a, m, p)
        k >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """A gcd of two trimmed polynomials, monic unless b = 0."""
    while b:
        inv = pow(b[-1], -1, p)
        b = tuple(c * inv % p for c in b)
        a, b = b, _poly_mod(a, b, p)
    return tuple(a)


def _is_irreducible(g: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic g of degree f >= 2: x^(p^f) = x mod g and,
    for every prime r | f, gcd(x^(p^(f/r)) - x, g) = 1."""
    f = len(g) - 1
    if _poly_powmod((0, 1), p**f, g, p) != (0, 1):
        return False
    for r in range(2, f + 1):
        if f % r == 0 and is_prime(r):
            h = list(_poly_powmod((0, 1), p ** (f // r), g, p)) + [0, 0]
            h[1] = (h[1] - 1) % p
            if len(_poly_gcd(g, _poly_mod(h, g, p), p)) != 1:
                return False
    return True


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, f: int) -> tuple[int, ...]:
    if f == 1:
        return (0, 1)  # the polynomial x
    # the candidates in lex order, less those with constant term 0 (divisible by x)
    candidates = (
        (c0,) + rest + (1,)
        for c0 in range(1, p)
        for rest in itertools.product(range(p), repeat=f - 1)
    )
    return next(cand for cand in candidates if _is_irreducible(cand, p))


# ---------------------------------------------------------------------------
# fields and elements


def _digits(index: int, p: int, f: int) -> tuple[int, ...]:
    """The coefficient vector at position ``index`` of the lexicographic order."""
    return tuple(index // p ** (f - 1 - i) % p for i in range(f))


class Fq:
    """Arithmetic kernel for F_q with the canonical modulus.

    Do not instantiate directly; use :func:`get_fq` so that fields (and
    hence their interned elements) are unique per (p, f).  ``order`` is
    q - 1, the order of F_q^x.
    """

    __slots__ = ("p", "f", "q", "order", "modulus", "zero", "one",
                 "_elems", "_exp", "_logs", "_zech", "_half")

    def __init__(self, p: int, f: int):
        self.p = p
        self.f = f
        self.q = p**f
        self.order = self.q - 1
        self.modulus = _canonical_modulus(p, f)
        self._elems: dict[int, FqElement] = {}
        self._exp: array | None = None  # set by _tables(), last
        self.zero = self._intern(0)
        self.one = self.from_int(1)

    def _intern(self, index: int) -> FqElement:
        elem = self._elems.get(index)
        if elem is None:
            elem = self._elems[index] = FqElement(self, index)
            if index and self._exp is not None:
                elem._log = self._logs[index]
        return elem

    def unit(self, k: int) -> FqElement:
        """g^k, k taken mod q - 1; builds the tables on first use."""
        if self._exp is None:
            self._tables()
        return self._intern(self._exp[k % self.order])

    def _tables(self) -> None:
        """Build the tables once and give every interned unit its log.

        exp[k] is the position of g^k, logs[i] the log of the element at
        position i, and zech[k] = log(1 + g^k); -1 stands for the zero element.
        """
        if self._exp is not None:
            return
        p, f, q, n = self.p, self.f, self.q, self.order
        for index in range(1, q):  # g is the least unit of order q - 1
            exp = self._powers(_digits(index, p, f))
            if len(exp) == n:
                break
        logs = array("i", [-1]) * q
        for k, index in enumerate(exp):
            logs[index] = k
        # adding 1 steps the leading (constant) coefficient, worth p^(f-1)
        top = p ** (f - 1)
        wrap = (p - 1) * top
        self._zech = array("i", (logs[i + top if i < wrap else i - wrap] for i in exp))
        self._logs = logs
        self._half = n // 2 if p > 2 else 0  # log(-1)
        for index, elem in self._elems.items():
            elem._log = logs[index] if index else None
        self._exp = exp

    def _powers(self, x: tuple[int, ...]) -> array:
        """The positions of x^0, x^1, ... before the powers return to 1.

        u -> x*u is stepped as an F_p-linear map, its images of the power
        basis packed into ints, one ``width``-bit field per coefficient.
        """
        p, f = self.p, self.f
        width = (f * (p - 1) ** 2).bit_length()
        mask = (1 << width) - 1
        packed, image = [], x  # image = x * x^i, for i = 0, 1, ...
        for _ in range(f):
            packed.append(sum(c << width * j for j, c in enumerate(image)))
            image = _poly_mod((0,) + image, self.modulus, p)
        one = index = p ** (f - 1)
        coeffs = _digits(index, p, f)
        powers = array("i")
        while True:
            powers.append(index)
            total = sum(c * column for c, column in zip(coeffs, packed) if c)
            coeffs = [(total >> width * j & mask) % p for j in range(f)]
            index = 0
            for c in coeffs:
                index = index * p + c
            if index == one:
                return powers

    def element(self, coeffs: Sequence[int]) -> FqElement:
        if len(coeffs) > self.f:
            raise ValueError(f"coefficient vector longer than f={self.f}")
        p, f = self.p, self.f
        return self._intern(sum(c % p * p ** (f - 1 - i) for i, c in enumerate(coeffs)))

    def from_int(self, c: int) -> FqElement:
        """Embed a rational integer via the prime subfield."""
        return self._intern(c % self.p * self.p ** (self.f - 1))

    def basis(self) -> tuple[FqElement, ...]:
        """The power basis 1, x, ..., x^(f-1) of F_q over F_p."""
        return tuple(self._intern(self.p ** (self.f - 1 - i)) for i in range(self.f))

    def elements(self) -> Iterator[FqElement]:
        """All elements in canonical (lexicographic) order."""
        return (self._intern(index) for index in range(self.q))

    def units(self) -> Iterator[FqElement]:
        return (self._intern(index) for index in range(1, self.q))

    def generator(self) -> FqElement:
        """The canonically least generator g of the cyclic group F_q^x."""
        return self.unit(1)

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

    ``index`` is its position in the lexicographic order of coefficient
    vectors, which exists purely to make representative choices and
    serialisations deterministic.  ``_log`` is its discrete log to g, None
    for 0 and until the field's tables are built.  Its text is computed on
    the first ``str`` and kept, so interning pays nothing for it.
    """

    __slots__ = ("field", "index", "coeffs", "_log", "_hash", "_text")

    def __init__(self, field: Fq, index: int):
        self.field = field
        self.index = index
        self.coeffs = _digits(index, field.p, field.f)
        self._log: int | None = None
        self._text: str | None = None
        # by value, not by address, so set iteration orders are reproducible
        self._hash = hash((field.p, field.f, self.coeffs))

    def __bool__(self) -> bool:
        return self.index != 0

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "FqElement") -> bool:
        self._check(other)
        return self.index < other.index

    def _check(self, other: "FqElement") -> None:
        if self.field is not other.field:
            raise ValueError("elements of different fields")

    def log(self) -> int | None:
        """The discrete log to g, building the tables on first use; None for 0."""
        if self._log is None and self.index:
            self.field._tables()
        return self._log

    def __add__(self, other: "FqElement") -> "FqElement":
        a, b = self._log, other._log
        fq = self.field
        if a is None or b is None or fq is not other.field:
            self._check(other)
            a, b = self.log(), other.log()
            if a is None or b is None:
                return other if a is None else self
        z = fq._zech[(b - a) % fq.order]  # x + y = x * (1 + y/x)
        return fq.zero if z < 0 else fq.unit(a + z)

    def __sub__(self, other: "FqElement") -> "FqElement":
        return self + -other

    def __neg__(self) -> "FqElement":
        a = self.log()
        return self if a is None else self.field.unit(a + self.field._half)

    def __mul__(self, other: "FqElement") -> "FqElement":
        a, b = self._log, other._log
        fq = self.field
        if a is None or b is None or fq is not other.field:
            self._check(other)
            a, b = self.log(), other.log()
            if a is None or b is None:
                return fq.zero
        return fq.unit(a + b)

    def __pow__(self, k: int) -> "FqElement":
        a = self.log()
        if a is None:
            if k < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return self if k else self.field.one
        return self.field.unit(a * k)

    def inverse(self) -> "FqElement":
        return self**-1

    def __truediv__(self, other: "FqElement") -> "FqElement":
        return self * other.inverse()

    def __str__(self) -> str:
        if self._text is None:
            self._text = ",".join(map(str, self.coeffs))
        return self._text

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
    # bound q before the modulus search, and form p^f only for a small f:
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
        return sum((self.fq.from_int(c) * img for c, img in zip(x.coeffs, self.images) if c),
                   self.fq.zero)


def additive_coset_representatives(
    field: BaseField, amap: AdditiveMap, scale: FqElement
) -> set[FqElement]:
    """One representative per coset of F_q^+ modulo scale * image(amap).

    Representatives are the lexicographically least element of each coset,
    so 0 always represents the image itself.  Row reduction gives the image
    a basis with distinct pivot (leading) columns; each coset then holds
    exactly one element vanishing at every pivot, and it is the least one,
    since any other member differs from it first at a pivot column.
    """
    fq = field.fq
    p, f = fq.p, fq.f
    rows: dict[int, list[int]] = {}  # pivot column -> row, 1 at the pivot
    for img in amap.images:
        row = list((scale * img).coeffs)
        for col in range(f):
            c = row[col]
            if c and col in rows:
                row = [(a - c * b) % p for a, b in zip(row, rows[col])]
            elif c:
                inv = pow(c, -1, p)
                rows[col] = [a * inv % p for a in row]
                break
    weights = [p ** (f - 1 - col) for col in range(f) if col not in rows]
    return {
        fq._intern(sum(d * w for d, w in zip(digits, weights)))
        for digits in itertools.product(range(p), repeat=len(weights))
    }


# ---------------------------------------------------------------------------
# multiplicative solvers


def solve_power_system(
    field: BaseField, eqs: Iterable[tuple[int, FqElement]]
) -> set[FqElement]:
    """All x in F_q^x with x^k = a for every (k, a) in ``eqs``.

    With x = g^t each equation is the congruence k*t = log a (mod q-1).
    It is soluble iff d = gcd(k, q-1) divides log a, and then pins t to one
    class modulo (q-1)/d.  Merging the classes by gcd arithmetic leaves
    t = r (mod M) with M dividing q-1, or shows the system inconsistent;
    no unit is scanned.
    """
    fq = field.fq
    n = fq.order
    system = [(k, a.log()) for k, a in eqs]
    if any(c is None for _, c in system):
        raise ValueError("right-hand sides must be nonzero")
    r, M = 0, 1  # t = r (mod M) solves the equations merged so far
    for k, c in system:
        d = math.gcd(k, n)
        if c % d:
            return set()
        m = n // d
        t0 = c // d * pow(k // d, -1, m) % m
        g = math.gcd(M, m)
        if (t0 - r) % g:
            return set()
        # r + M*s = t0 (mod m), i.e. (M/g)*s = (t0-r)/g (mod m/g)
        s = (t0 - r) // g * pow(M // g, -1, m // g) % (m // g)
        r, M = r + M * s, M // g * m
    return {fq.unit(t) for t in range(r % M, n, M)}


def orbit_representatives(
    field: BaseField, J: int, constraint_exponents: Sequence[int]
) -> set[FqElement]:
    """Representatives of F_q^x modulo the twist subgroup

        H = { delta^(-J) : delta in F_q^x, delta^c = 1 for all listed c }.

    The deltas form the subgroup of order c = gcd(q-1, listed exponents),
    so the logs of H are the multiples of h = gcd(q-1, J*(q-1)/c) and the
    orbits are the classes of log x modulo h.  Each representative is the
    lexicographically least element of its orbit, found in one pass over
    the units in that order.
    """
    fq = field.fq
    n = fq.order
    c = math.gcd(n, *constraint_exponents)
    h = math.gcd(n, J * (n // c))
    fq._tables()
    logs = fq._logs
    least: dict[int, int] = {}  # log class -> least index in it
    for index in range(1, fq.q):
        least.setdefault(logs[index] % h, index)
        if len(least) == h:
            break
    return {fq._intern(index) for index in least.values()}
