import math

import pytest

from ramify.binomials import B, BinomialContext, S_p, U_p, beta, vp, vp_binomial, vp_factorial
from ramify.residue_field import make_field


def vp_oracle(p, m):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def carries_oracle(p, a, b):
    """Kummer: v_p(binomial(a+b, a)) equals the carry count of a + b in base p."""
    carries = 0
    carry = 0
    while a or b or carry:
        total = a % p + b % p + carry
        carry = total // p
        carries += carry > 0 and total >= p
        a //= p
        b //= p
    return carries


def test_vp_factorial_spec_examples():
    assert vp_factorial(2, 0) == 0
    assert vp_factorial(2, 4) == 3
    assert vp_factorial(3, 10) == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vp_factorial_against_direct_factorial(p):
    for k in range(0, 200):
        assert vp_factorial(p, k) == vp_oracle(p, math.factorial(k) if k else 1)


def test_B_spec_examples():
    q2 = BinomialContext(make_field(2, 1, 1, 1))
    assert B(q2, 8, 1) == 3
    assert B(q2, 6, 2) == 0
    for n in (1, 5, 12):
        assert B(q2, n, n) == 0


def test_B_rejects_bad_range():
    q2 = BinomialContext(make_field(2, 1, 1, 1))
    with pytest.raises(ValueError):
        B(q2, 3, 5)
    with pytest.raises(ValueError):
        B(q2, 3, -1)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2])
def test_B_matches_kummer_carries(p, e):
    ctx = BinomialContext(make_field(p, 1, e, 1))
    for i in range(0, 65):
        for j in range(0, i + 1):
            assert B(ctx, i, j) == e * carries_oracle(p, j, i - j)


def test_U_p_spec_examples():
    assert U_p(2, 4) == 1
    assert U_p(3, 7) == 1
    for p in (2, 3, 5):
        assert U_p(p, 0) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_U_p_against_direct_product(p):
    for k in range(0, 120):
        prod = 1
        for i in range(1, k + 1):
            if i % p:
                prod = prod * i % p
        assert U_p(p, k) == prod


def test_S_p_spec_examples():
    assert S_p(2, 4) == 1
    assert S_p(3, 6) == 2
    for p in (2, 3, 5):
        assert S_p(p, 1) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_S_p_against_big_integer_factorials(p):
    for k in range(0, 300):
        fact = math.factorial(k)
        unit = fact // p ** vp_factorial(p, k)
        assert S_p(p, k) == unit % p


def test_beta_spec_examples():
    q2 = BinomialContext(make_field(2, 1, 1, 1))
    q3 = BinomialContext(make_field(3, 1, 1, 1))
    assert beta(q2, 2, 1) == q2.base.fq.one
    assert beta(q3, 3, 1) == q3.base.fq.one
    for ctx in (q2, q3):
        assert beta(ctx, 9, 9) == ctx.base.fq.one


@pytest.mark.parametrize("p", [2, 3, 5])
def test_beta_reconstructs_binomials(p):
    # with gamma = 1 and e = 1 the unit part of binomial(r, k) reduces to beta;
    # equivalently binomial = p^v * lift(beta) modulo p^(v+1)
    ctx = BinomialContext(make_field(p, 1, 1, 1))
    for r in range(0, 61):
        for k in range(0, r + 1):
            binom = math.comb(r, k)
            v = vp_binomial(p, r, k)
            lift = beta(ctx, r, k).coeffs[0]
            assert (binom - p**v * lift) % p ** (v + 1) == 0


def test_beta_with_nontrivial_gamma_and_e():
    # pi^e ~ gamma p twists the unit part by gamma^-v_p(binomial)
    K = make_field(2, 2, 2, "g")
    ctx = BinomialContext(K)
    plain = BinomialContext(make_field(2, 1, 1, 1))
    for r in range(0, 33):
        for k in range(0, r + 1):
            v = vp_binomial(2, r, k)
            expected = K.fq.from_int(beta(plain, r, k).coeffs[0]) * K.gamma ** (-v)
            assert beta(ctx, r, k) == expected
            assert B(ctx, r, k) == 2 * v


def test_beta_factorial_decomposition_identity():
    # binomial(r,k)*binomial(k,j) = binomial(r,j)*binomial(r-j,k-j) transfers
    # to the unit residues
    for p in (2, 3, 5):
        ctx = BinomialContext(make_field(p, 1, 1, 1))
        for r in range(0, 26):
            for k in range(0, r + 1):
                for j in range(0, k + 1):
                    lhs = beta(ctx, r, k) * beta(ctx, k, j)
                    rhs = beta(ctx, r, j) * beta(ctx, r - j, k - j)
                    assert lhs == rhs


def test_vp_of_zero_rejected():
    with pytest.raises(ValueError):
        vp(2, 0)


def test_vp_ignores_sign():
    for p in (2, 3, 5):
        for m in range(1, 200):
            assert vp(p, -m) == vp(p, m)
    assert vp(2, -96) == 5 and vp(3, -1) == 0
