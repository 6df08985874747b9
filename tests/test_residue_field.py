import functools
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.residue_field import (
    AdditiveMap,
    Q_LIMIT,
    additive_coset_representatives,
    get_fq,
    make_field,
    orbit_representatives,
    solve_power_system,
)

SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def brute_irreducibles(p, degree):
    """Oracle: monic irreducible polynomials in lex order, by trial division."""

    def divides(d, poly):
        # naive long division over F_p
        r = list(poly)
        dd = len(d) - 1
        while len(r) - 1 >= dd:
            lead = r[-1]
            if lead:
                inv = pow(d[-1], -1, p)
                coef = lead * inv % p
                shift = len(r) - 1 - dd
                for i in range(dd + 1):
                    r[shift + i] = (r[shift + i] - coef * d[i]) % p
            r.pop()
        return not any(r)

    for lower in itertools.product(range(p), repeat=degree):
        poly = tuple(lower) + (1,)
        if not any(
            divides(tuple(dl) + (1,), poly)
            for d in range(1, degree // 2 + 1)
            for dl in itertools.product(range(p), repeat=d)
        ):
            yield poly


# every F_q with f >= 2 and q <= 4096: the modulus found by Rabin's test is
# the lex-least irreducible that trial division finds
MODULUS_FIELDS = [
    (p, f) for p in range(2, 65) if all(p % d for d in range(2, p))
    for f in range(2, 13) if p**f <= 4096
]


@pytest.mark.parametrize("p,f", MODULUS_FIELDS)
def test_canonical_modulus_is_least_irreducible(p, f):
    assert get_fq(p, f).modulus == next(brute_irreducibles(p, f))


def test_f4_modulus_is_x2_x_1():
    assert get_fq(2, 2).modulus == (1, 1, 1)


def test_make_field_prime_field_descriptors():
    for p in (2, 3):
        K = make_field(p, 1, 1, 1)
        assert K.q == p
        assert K.gamma == K.fq.one


def test_make_field_generator_gamma():
    K = make_field(2, 2, 1, "g")
    assert K.q == 4
    gen = K.gamma
    assert gen != K.fq.one and gen**3 == K.fq.one


def test_make_field_rejections():
    with pytest.raises(ValueError):
        make_field(4, 1, 1, 1)
    with pytest.raises(ValueError):
        make_field(2, 1, 1, 0)
    with pytest.raises(ValueError):
        make_field(2, 21, 1, 1)
    assert 2**21 > Q_LIMIT


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_field_axioms_exhaustive(p, f):
    fq = get_fq(p, f)
    elems = list(fq.elements())
    assert len(elems) == p**f
    one, zero = fq.one, fq.zero
    for x in elems:
        assert x + zero == x and x * one == x
        assert x - x == zero
        if x:
            assert x * x.inverse() == one
            assert x ** (fq.q - 1) == one
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_element_text_round_trip():
    fq = get_fq(2, 2)
    for x in fq.elements():
        assert fq.parse(str(x)) == x
    assert str(fq.element((1, 0))) == "1,0"


def test_negative_powers():
    fq = get_fq(5, 1)
    x = fq.from_int(2)
    assert x**-1 == x.inverse()
    assert x**-3 == (x**3).inverse()
    with pytest.raises(ZeroDivisionError):
        fq.zero**-1


# ---------------------------------------------------------------------------
# power systems


def brute_power_solutions(field, eqs):
    return {
        x
        for x in field.fq.units()
        if all(x**k == a for k, a in eqs)
    }


def test_power_system_spec_examples():
    K = make_field(5, 1, 1, 1)
    e = K.fq.from_int
    assert solve_power_system(K, [(2, e(4))]) == {e(2), e(3)}
    assert solve_power_system(K, [(1, e(3))]) == {e(3)}
    assert solve_power_system(K, [(2, e(4)), (3, e(3))]) == {e(2)}
    assert solve_power_system(K, [(2, e(2))]) == set()


def test_power_system_empty_is_vacuous():
    K = make_field(5, 1, 1, 1)
    assert solve_power_system(K, []) == set(K.fq.units())


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_power_system_matches_brute_force(p, f):
    K = make_field(p, f, 1, 1)
    units = list(K.fq.units())
    rng = random.Random(p * 100 + f)
    for _ in range(300):
        eqs = [
            (rng.randint(-6, 6), rng.choice(units))
            for _ in range(rng.randint(1, 3))
        ]
        got = solve_power_system(K, eqs)
        assert got == brute_power_solutions(K, eqs)
        assert (K.q - 1) % len(got) == 0 if got else True


# ---------------------------------------------------------------------------
# additive maps and cosets


def brute_span(fq, vectors):
    span = {fq.zero}
    changed = True
    while changed:
        changed = False
        for v in vectors:
            for w in list(span):
                if w + v not in span:
                    span.add(w + v)
                    changed = True
    return span


def test_coset_representatives_spec_examples():
    K2 = make_field(2, 1, 1, 1)
    ident = AdditiveMap.from_function(K2.fq, lambda u: u * u)
    assert additive_coset_representatives(K2, ident, K2.fq.one) == {K2.fq.zero}
    zero_map = AdditiveMap.from_function(K2.fq, lambda u: u + u * u)
    assert additive_coset_representatives(K2, zero_map, K2.fq.one) == set(
        K2.fq.elements()
    )
    K4 = make_field(2, 2, 1, 1)
    frob = AdditiveMap.from_function(K4.fq, lambda u: u * u)
    assert additive_coset_representatives(K4, frob, K4.fq.one) == {K4.fq.zero}


def test_coset_representatives_zero_scale():
    K4 = make_field(2, 2, 1, 1)
    frob = AdditiveMap.from_function(K4.fq, lambda u: u * u)
    reps = additive_coset_representatives(K4, frob, K4.fq.zero)
    assert reps == set(K4.fq.elements())


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_coset_representatives_partition(p, f):
    K = make_field(p, f, 1, 1)
    fq = K.fq
    rng = random.Random(42 + p + f)
    elems = list(fq.elements())
    for _ in range(20):
        images = tuple(rng.choice(elems) for _ in range(f))
        amap = AdditiveMap(fq, images)
        scale = rng.choice(elems)
        reps = additive_coset_representatives(K, amap, scale)
        subspace = brute_span(fq, [scale * im for im in images])
        assert len(reps) * len(subspace) == fq.q
        # pairwise distinct cosets, and every element covered
        covered = set()
        for r in reps:
            coset = {r + w for w in subspace}
            assert not (coset & covered)
            covered |= coset
        assert covered == set(elems)


def test_additive_map_is_additive_on_all_pairs():
    fq = get_fq(3, 2)
    amap = AdditiveMap.from_function(fq, lambda u: u**3 + u)
    for u in fq.elements():
        for v in fq.elements():
            assert amap(u + v) == amap(u) + amap(v)


# ---------------------------------------------------------------------------
# orbit representatives


def test_orbit_representatives_spec_examples():
    K3 = make_field(3, 1, 1, 1)
    e = K3.fq.from_int
    assert orbit_representatives(K3, 1, []) == {e(1)}
    K2 = make_field(2, 1, 1, 1)
    assert orbit_representatives(K2, 7, []) == {K2.fq.one}
    assert orbit_representatives(K3, 2, [2]) == {e(1), e(2)}


@pytest.mark.parametrize("p,f", SMALL_Q)
def test_orbit_representatives_cover_units_once(p, f):
    K = make_field(p, f, 1, 1)
    one = K.fq.one
    rng = random.Random(p * 31 + f)
    for _ in range(20):
        J = rng.randint(-5, 8)
        constraints = [rng.randint(0, 6) for _ in range(rng.randint(0, 2))]
        reps = orbit_representatives(K, J, constraints)
        twists = {
            d ** (-J)
            for d in K.fq.units()
            if all(d**c == one for c in constraints)
        }
        seen = set()
        for r in reps:
            orbit = {r * h for h in twists}
            assert not (orbit & seen)
            seen |= orbit
        assert seen == set(K.fq.units())


# ---------------------------------------------------------------------------
# reference kernel: polynomial multiply and reduce over F_p, as the field
# arithmetic was done before the log tables; every table result and every
# solver is checked against it on all fields with f >= 2 and q <= 256 and on
# some prime fields


def ref_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def ref_poly_mod(a, m, p):
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm:
        lead = r[-1] % p
        shift = len(r) - 1 - dm
        for i in range(dm):
            r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return tuple(r) + (0,) * (dm - len(r))


class Reference:
    """F_q by coefficient tuples, with a product table from the reference kernel."""

    def __init__(self, p, f):
        self.p, self.f, self.q = p, f, p**f
        self.modulus = next(brute_irreducibles(p, f)) if f > 1 else (0, 1)
        # lexicographic order on tuples, constant coefficient first
        self.elems = list(itertools.product(range(p), repeat=f))
        self.pos = {c: i for i, c in enumerate(self.elems)}
        self.mul = [
            [self.pos[ref_poly_mod(ref_poly_mul(a, b, p), self.modulus, p)] for b in self.elems]
            for a in self.elems
        ]
        self.one = self.pos[(1,) + (0,) * (f - 1)]

    def add(self, i, j):
        a, b = self.elems[i], self.elems[j]
        return self.pos[tuple((x + y) % self.p for x, y in zip(a, b))]

    def neg(self, i):
        return self.pos[tuple(-x % self.p for x in self.elems[i])]

    def power(self, i, k):
        if i == 0:
            return 0 if k > 0 else self.one
        k %= self.q - 1
        result = self.one
        for _ in range(k):
            result = self.mul[result][i]
        return result

    def inverse(self, i):
        return next(j for j in range(1, self.q) if self.mul[i][j] == self.one)

    def order(self, i):
        k, x = 1, i
        while x != self.one:
            x, k = self.mul[x][i], k + 1
        return k

    def generator(self):
        return next(i for i in range(1, self.q) if self.order(i) == self.q - 1)


ORACLE_FIELDS = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
    (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2),
    (2, 1), (3, 1), (5, 1), (31, 1), (251, 1),
]
ORACLE_IDS = [f"F{p**f}" for p, f in ORACLE_FIELDS]


@functools.lru_cache(maxsize=None)
def reference(p, f):
    return Reference(p, f)


def _elements(p, f):
    fq = get_fq(p, f)
    return fq, reference(p, f), [fq.element(c) for c in reference(p, f).elems]


def _check_arithmetic(ref, els, i, j):
    a, b = els[i], els[j]
    assert (a + b).coeffs == ref.elems[ref.add(i, j)]
    assert (a - b).coeffs == ref.elems[ref.add(i, ref.neg(j))]
    assert (-a).coeffs == ref.elems[ref.neg(i)]
    assert (a * b).coeffs == ref.elems[ref.mul[i][j]]
    if j:
        assert (a / b).coeffs == ref.elems[ref.mul[i][ref.inverse(j)]]
        assert b.inverse().coeffs == ref.elems[ref.inverse(j)]
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@pytest.mark.parametrize("p,f", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_table_kernel_matches_reference_arithmetic(p, f):
    fq, ref, els = _elements(p, f)
    assert fq.modulus == ref.modulus
    assert fq.generator().coeffs == ref.elems[ref.generator()]
    assert sorted(els) == els and [x.index for x in els] == list(range(ref.q))
    if ref.q <= 32:
        pairs = itertools.product(range(ref.q), repeat=2)
    else:
        rng = random.Random(ref.q)
        pairs = [(rng.randrange(ref.q), rng.randrange(ref.q)) for _ in range(3000)]
        pairs += [(0, j) for j in range(ref.q)] + [(i, 0) for i in range(ref.q)]
    for i, j in pairs:
        _check_arithmetic(ref, els, i, j)
    for i in range(ref.q):
        for k in (-ref.q - 1, -2, -1, 0, 1, 2, 3, ref.q - 2, ref.q - 1, ref.q, 2 * ref.q + 5):
            if i or k >= 0:
                assert (els[i] ** k).coeffs == ref.elems[ref.power(i, k)]


LARGE = [(pf, name) for pf, name in zip(ORACLE_FIELDS, ORACLE_IDS) if pf[0] ** pf[1] > 32]


@pytest.mark.parametrize("p,f", [pf for pf, _ in LARGE], ids=[name for _, name in LARGE])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_kernel_matches_reference_on_samples(p, f, data):
    fq, ref, els = _elements(p, f)
    index = st.integers(0, ref.q - 1)
    i, j = data.draw(index), data.draw(index)
    _check_arithmetic(ref, els, i, j)
    k = data.draw(st.integers(-3 * ref.q, 3 * ref.q))
    if i or k >= 0:
        assert (els[i] ** k).coeffs == ref.elems[ref.power(i, k)]


@pytest.mark.parametrize("p,f", ORACLE_FIELDS, ids=ORACLE_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_solvers_match_brute_force_scans(p, f, data):
    fq, ref, els = _elements(p, f)
    K = make_field(p, f, 1, 1)
    units = range(1, ref.q)
    exponent = st.integers(-2 * ref.q, 2 * ref.q)

    # power systems: the same solution set as a scan of F_q^x
    eqs = data.draw(st.lists(st.tuples(exponent, st.integers(1, ref.q - 1)), max_size=3))
    if data.draw(st.booleans()):  # make the system soluble
        x = data.draw(st.integers(1, ref.q - 1))
        eqs = [(k, ref.power(x, k)) for k, _ in eqs]
    want = {i for i in units if all(ref.power(i, k) == a for k, a in eqs)}
    got = solve_power_system(K, [(k, els[a]) for k, a in eqs])
    assert {x.index for x in got} == want

    # orbits: the lex-least member of each orbit, and the orbits partition F_q^x
    J = data.draw(exponent)
    constraints = data.draw(st.lists(exponent, max_size=2))
    twists = {
        ref.power(d, -J) for d in units
        if all(ref.power(d, c) == ref.one for c in constraints)
    }
    want, covered = set(), set()
    for i in units:
        if i not in covered:
            want.add(i)
            covered |= {ref.mul[i][h] for h in twists}
    reps = orbit_representatives(K, J, constraints)
    assert {x.index for x in reps} == want
    orbits = [{ref.mul[r][h] for h in twists} for r in want]
    assert sum(map(len, orbits)) == ref.q - 1 and set().union(*orbits) == set(units)

    # additive cosets: the lex-least member of each coset, and the cosets partition F_q
    images = data.draw(st.lists(st.integers(0, ref.q - 1), min_size=f, max_size=f))
    scale = data.draw(st.integers(0, ref.q - 1))
    span = {0}
    for v in (ref.mul[scale][i] for i in images):
        for _ in range(p - 1):
            span |= {ref.add(w, v) for w in span}
    want, covered = set(), set()
    for i in range(ref.q):
        if i not in covered:
            want.add(i)
            covered |= {ref.add(i, w) for w in span}
    amap = AdditiveMap(fq, tuple(els[i] for i in images))
    reps = additive_coset_representatives(K, amap, els[scale])
    assert {x.index for x in reps} == want
    assert len(reps) * len(span) == ref.q


def test_make_field_builds_no_tables_for_a_large_field():
    # q = 2^20: the tables would take seconds and megabytes that merely naming
    # the field must not spend.  The modulus search is the whole of the work,
    # so make_field takes at most 1.25 times that search, and little memory;
    # with Rabin's irreducibility test the search itself is quick.
    script = """
import json, resource, time
import ramify.residue_field as rf
search = rf._canonical_modulus
spent = []
def timed(p, f):
    start = time.perf_counter()
    modulus = search(p, f)
    spent.append(time.perf_counter() - start)
    return modulus
rf._canonical_modulus = timed
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
K = rf.make_field(2, 20, 1, 1)
total = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"built": K.fq._exp is not None, "search": spent[0], "total": total,
                  "rss_mb": (after - before) / 1024, "gamma": str(K.gamma)}))
"""
    src = Path(__import__("ramify").__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert not result["built"]
    assert result["gamma"] == "1" + ",0" * 19
    assert result["total"] <= 1.25 * result["search"] + 0.05
    assert result["total"] < 0.5
    assert result["rss_mb"] <= 16
