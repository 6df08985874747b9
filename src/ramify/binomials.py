"""Valuations and unit residues of factorials and binomial coefficients.

All valuations are normalised to the base field K: v(pi) = 1, so the
valuation of a rational integer m is e(K/Q_p) * v_p(m).  Unit residues
are computed without ever forming large factorials, using Legendre's
valuation formula together with Wilson-style products for the p-free
parts.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .residue_field import BaseField, FqElement

ROW_DEGREES = 16  # degrees whose valuation tables and analyzer rows are kept, LRU dropped first


def vp(p: int, m: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if m == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


@lru_cache(maxsize=None)
def vp_factorial(p: int, k: int) -> int:
    """v_p(k!) by Legendre's formula, sum of floor(k / p^i)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = 0
    power = p
    while power <= k:
        total += k // power
        power *= p
    return total


def vp_binomial(p: int, i: int, j: int) -> int:
    """v_p(binomial(i, j)) from the factorials, whose cache grows with i alone, so that an
    O(n^2) sweep over every (i, j) leaves no O(n^2) cache behind."""
    if not 0 <= j <= i:
        raise ValueError(f"binomial({i},{j}) out of range")
    return vp_factorial(p, i) - vp_factorial(p, j) - vp_factorial(p, i - j)


@dataclass(frozen=True)
class BinomialContext:
    """The base field every search and check reads; it holds no state of its own, as a
    hull the hull search proved carries its proof (``RamPolygon``), so a context serves
    any number of degrees and calls as a fresh one would."""

    base: BaseField


def B(ctx: BinomialContext, i: int, j: int) -> int:
    """Valuation of binomial(i, j) in K, i.e. e * v_p(binomial(i, j))."""
    return ctx.base.e * vp_binomial(ctx.base.p, i, j)


@lru_cache(maxsize=ROW_DEGREES)
def valuation_table(p: int, e: int, n: int) -> tuple[tuple[int, ...], ...]:
    """B[i][s] = e * v_p(binomial(i, p^s)) for i <= n and p^s <= i, s <= v_p(n): the one table
    of a degree's binomial valuations, which the validity checks, the templates' depth
    bounds and the analyzer's rows share, so immutable.  Every entry differences one list
    of v_p(k!), k <= n."""
    powers = [p**s for s in range(vp(p, n) + 1)]
    vf = [vp_factorial(p, k) for k in range(n + 1)]
    return tuple(tuple(e * (vf[i] - vf[x] - vf[i - x]) for x in powers if x <= i)
                 for i in range(n + 1))


@lru_cache(maxsize=None)
def U_p(p: int, k: int) -> int:
    """Residue mod p of the product of all i <= k coprime to p.

    By Wilson's theorem this is (-1)^a * b! mod p where k = a*p + b.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    a, b = divmod(k, p)
    acc = 1
    for i in range(2, b + 1):
        acc = acc * i % p
    if a % 2:
        acc = -acc % p
    return acc


@lru_cache(maxsize=None)
def S_p(p: int, k: int) -> int:
    """Residue mod p of the p-free part k! / p^(v_p(k!))."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = 1
    while k:
        acc = acc * U_p(p, k) % p
        k //= p
    return acc


def beta(ctx: BinomialContext, r: int, k: int) -> FqElement:
    """Residue of binomial(r, k) * pi^(-B(r, k)), a unit of F_q.

    Equals the prime-subfield value S_p(r) / (S_p(k) * S_p(r-k)) times
    gamma^(-v_p(binomial(r, k))), gamma being the uniformizer residue of
    pi with respect to p.
    """
    if not 0 <= k <= r:
        raise ValueError(f"beta({r},{k}) out of range")
    p = ctx.base.p
    num = S_p(p, r)
    den = S_p(p, k) * S_p(p, r - k) % p
    unit = num * pow(den, -1, p) % p
    return ctx.base.fq.from_int(unit) * ctx.base.gamma ** (-vp_binomial(p, r, k))
