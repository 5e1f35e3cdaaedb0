"""Exact-arithmetic layer: path decomposition, P^1(Z/q), solvers.

Every oracle here is hand-computed or a closed-form identity; no floats.
The last section checks the same identities as hypothesis properties over
random squarefree levels and fractions.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modsym.exactmath import (
    _crt_least_abs,
    atkin_lehner_matrix,
    cf_decompose,
    FACTOR_BOUND,
    divisors_squarefree,
    p1_table,
    prime_powers,
    squarefree_factors,
)


# ---------------------------------------------------------------------------
# factorization helpers


def test_squarefree_factors_basic():
    assert squarefree_factors(15) == [3, 5]
    assert squarefree_factors(30) == [2, 3, 5]
    assert squarefree_factors(1) == []
    assert squarefree_factors(97) == [97]


@pytest.mark.parametrize("bad", [4, 9, 12, 18, 50])
def test_squarefree_factors_rejects_square_divisors(bad):
    with pytest.raises(ValueError):
        squarefree_factors(bad)


@pytest.mark.parametrize("bad", [0, -3])
def test_squarefree_factors_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        squarefree_factors(bad)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**9))
def test_prime_powers_multiply_back_to_n(n):
    powers = prime_powers(n)
    assert list(powers) == sorted(powers)
    assert all(p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1)) for p in powers)
    assert math.prod(p ** e for p, e in powers.items()) == n


def test_prime_powers_refuses_a_cofactor_past_the_bound():
    # the least primes past 10^6, 1000003 and 1000033: their product is above
    # FACTOR_BOUND^2 with no prime factor up to FACTOR_BOUND, but 1000003 alone
    # is below FACTOR_BOUND^2, so trial division resolves it as a prime
    assert FACTOR_BOUND == 10**6
    assert prime_powers(2 * 1000003) == {2: 1, 1000003: 1}
    with pytest.raises(ValueError, match="cofactor 1000036000099 with no prime factor"):
        prime_powers(2 * 1000003 * 1000033)


def test_divisors_match_brute_force():
    for n in range(1, 501):
        brute = [k for k in range(1, n + 1) if n % k == 0]
        if all(n % (k * k) for k in range(2, 23)):
            assert divisors_squarefree(n) == brute
        else:
            with pytest.raises(ValueError):
                divisors_squarefree(n)
    with pytest.raises(ValueError):
        divisors_squarefree(0)


def test_divisors_squarefree():
    assert divisors_squarefree(15) == [1, 3, 5, 15]
    assert divisors_squarefree(1) == [1]
    assert divisors_squarefree(30) == [1, 2, 3, 5, 6, 10, 15, 30]


# ---------------------------------------------------------------------------
# continued-fraction path decomposition


def test_cf_decompose_two_fifths_frozen():
    # Convergents of 2/5 are 0/1, 1/2, 2/5; hand-assembled path matrices.
    assert cf_decompose(Fraction(2, 5)) == [
        (0, -1, 1, 0),
        (1, 0, 2, 1),
        (2, -1, 5, -2),
    ]


def test_cf_decompose_zero():
    assert cf_decompose(Fraction(0, 1)) == [(0, -1, 1, 0)]  # path reversal


def _projectively_equal(p1, q1, p2, q2):
    return p1 * q2 == p2 * q1


def _det(m):
    a, b, c, d = m
    return a * d - b * c


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cf_decompose_path_invariants(seed):
    rng = random.Random(seed)
    for _ in range(100):
        c = rng.randrange(2, 5000)
        a = rng.randrange(0, c)
        if math.gcd(a, c) != 1:
            continue
        mats = cf_decompose(Fraction(a, c))
        # every step is unimodular
        assert all(_det(m) == 1 for m in mats)
        # the first segment starts at infinity = (1 : 0)
        _, b0, _, d0 = mats[0]
        assert d0 == 0 and abs(b0) == 1
        # consecutive segments share endpoints: g_j(inf) = g_{j+1}(0)
        for (m_a, _, m_c, _), (_, n_b, _, n_d) in zip(mats, mats[1:]):
            assert _projectively_equal(m_a, m_c, n_b, n_d)
        # the last segment ends at a/c exactly
        last_a, _, last_c, _ = mats[-1]
        assert last_a * c == a * last_c
        # path length is logarithmic in the denominator
        assert len(mats) <= 3 + math.ceil(2.1 * math.log(c))


# ---------------------------------------------------------------------------
# P^1(Z/q)


def test_p1_size_level_15():
    # q prod(1 + 1/p) = 15 * (4/3) * (6/5)
    assert len(p1_table(15)) == 24


def test_p1_orbit_count_matches_pair_count():
    table = p1_table(15)
    valid = sum(1 for k in table.flat if k >= 0)
    # pairs with gcd(c, d, q) = 1: q^2 prod(1 - 1/p^2) = 192 = 24 orbits x 8 units
    assert valid == 192


def test_p1_scaling_invariance():
    table = p1_table(15)
    rng = random.Random(7)
    for _ in range(200):
        c, d = rng.randrange(15), rng.randrange(15)
        if math.gcd(math.gcd(c, d), 15) != 1:
            continue
        lam = rng.choice([1, 2, 4, 7, 8, 11, 13, 14])
        assert table.index_of(c, d) == table.index_of(lam * c, lam * d)


def test_p1_cross_product_characterization():
    # two valid pairs name the same point iff c1 d2 - c2 d1 = 0 (mod q)
    table = p1_table(15)
    rng = random.Random(11)
    pairs = []
    while len(pairs) < 40:
        c, d = rng.randrange(15), rng.randrange(15)
        if math.gcd(math.gcd(c, d), 15) == 1:
            pairs.append((c, d))
    for c1, d1 in pairs:
        for c2, d2 in pairs:
            same = table.index_of(c1, d1) == table.index_of(c2, d2)
            assert same == ((c1 * d2 - c2 * d1) % 15 == 0)


def test_p1_rejects_non_points():
    table = p1_table(15)
    with pytest.raises(ValueError):
        table.index_of(3, 0)
    with pytest.raises(ValueError):
        table.index_of(5, 10)


def test_p1_canonical_rep_is_lex_min():
    table = p1_table(15)
    units = [u for u in range(1, 15) if math.gcd(u, 15) == 1]
    for c, d in table.reps:
        orbit = sorted(((lam * c) % 15, (lam * d) % 15) for lam in units)
        assert (c, d) == orbit[0]


def test_p1_level_one_degenerate():
    table = p1_table(1)
    assert len(table) == 1
    assert table.index_of(0, 0) == 0


# ---------------------------------------------------------------------------
# CRT and the Atkin-Lehner matrices


def test_crt_least_abs():
    assert _crt_least_abs(1, 3, 2, 5) == 7
    assert _crt_least_abs(2, 3, 4, 5) == -1  # 14 mod 15, folded
    assert _crt_least_abs(1, 15, 0, 1) == 1
    assert _crt_least_abs(1, 2, 0, 1) == 1  # tie 2x = m keeps the positive rep


def test_atkin_lehner_matrix_frozen():
    assert atkin_lehner_matrix(15, 15) == (15, -1, 15, 0)
    assert atkin_lehner_matrix(1, 15) == (1, 0, 15, 1)
    assert atkin_lehner_matrix(3, 15) == (3, 1, 15, 6)
    assert atkin_lehner_matrix(5, 15) == (5, 3, 15, 10)


def test_atkin_lehner_matrix_properties():
    for v in (1, 3, 5, 15):
        m = atkin_lehner_matrix(v, 15)
        assert _det(m) == v
        assert m[2] == 15
        assert m[0] == v


def test_atkin_lehner_matrix_rejects_non_divisor():
    with pytest.raises(ValueError):
        atkin_lehner_matrix(6, 15)


# ---------------------------------------------------------------------------
# properties over random squarefree levels and fractions

_LEVELS = [q for q in range(1, 201) if all(q % (k * k) for k in range(2, 15))]
levels = st.sampled_from(_LEVELS)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(-10**6, 10**6), c=st.integers(1, 10**6))
@example(a=3**80, c=(1 << 130) + 1)  # entries past any fixed-width integer
def test_cf_decompose_chains_from_infinity_to_r(a, c):
    r = Fraction(a, c)
    mats = cf_decompose(r)
    assert all(_det(m) == 1 for m in mats)
    # g_0(0) = 1/0, g_j(0) = g_{j-1}(inf), and the last g(inf) is r
    _, b0, _, d0 = mats[0]
    assert _projectively_equal(b0, d0, 1, 0)
    for (p_a, _, p_c, _), (_, c_b, _, c_d) in zip(mats, mats[1:]):
        assert _projectively_equal(c_b, c_d, p_a, p_c)
    last_a, _, last_c, _ = mats[-1]
    assert _projectively_equal(last_a, last_c, r.numerator, r.denominator)


@settings(deadline=None)
@given(q=levels, c=st.integers(-10**4, 10**4), d=st.integers(-10**4, 10**4), data=st.data())
def test_normalize_p1_is_invariant_under_units(q, c, d, data):
    assume(math.gcd(math.gcd(c, d), q) == 1)
    lam = data.draw(st.integers(1, 10**4).filter(lambda u: math.gcd(u, q) == 1))
    table = p1_table(q)
    assert table.index_of(lam * c, lam * d) == table.index_of(c, d)


@settings(deadline=None)
@given(
    m1=st.integers(1, 10**6),
    m2=st.integers(1, 10**6),
    r1=st.integers(-10**9, 10**9),
    r2=st.integers(-10**9, 10**9),
)
def test_crt_least_abs_meets_both_congruences(m1, m2, r1, r2):
    assume(math.gcd(m1, m2) == 1)
    x = _crt_least_abs(r1, m1, r2, m2)
    assert (x - r1) % m1 == 0 and (x - r2) % m2 == 0
    assert 2 * abs(x) <= m1 * m2
