"""Exact integer arithmetic underneath the symbol engine.

The Manin continued-fraction path decomposition, the projective line
P^1(Z/q) with canonical representatives, and the CRT solver and
Atkin-Lehner matrices of the direct symbol oracle.  Matrices are (a, b, c, d)
tuples of Python ints, exact at any size; floats never enter, and modulus 1
needs no special case (pow(x, -1, 1) is 0).  It also hands the numeric
layers numpy through lazy_numpy, so that the table path, which builds and
reads the period table in Python integers and floats, never loads it.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from functools import lru_cache


FACTOR_BOUND = 10**6  # the last trial divisor: a cofactor it cannot resolve is refused


def prime_powers(n: int) -> dict[int, int]:
    """{p: e}, p increasing, for each p^e exactly dividing n >= 1, by trial division
    up to FACTOR_BOUND; raises if that leaves a cofactor above FACTOR_BOUND^2."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    powers: dict[int, int] = {}
    m, p = n, 2
    while p * p <= m:
        if p > FACTOR_BOUND:
            raise ValueError(f"{n} has a cofactor {m} with no prime factor up to {FACTOR_BOUND}")
        while m % p == 0:
            m //= p
            powers[p] = powers.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if m > 1:
        powers[m] = 1
    return powers


def squarefree_factors(q: int) -> list[int]:
    """Prime factors of q in increasing order; raises if q is not squarefree."""
    powers = prime_powers(q)
    if max(powers.values(), default=1) > 1:
        raise ValueError(f"{q} is not squarefree")
    return list(powers)


def divisors_squarefree(q: int) -> list[int]:
    """Divisors of squarefree q, increasing: the subset products of its primes."""
    divs = [1]
    for p in squarefree_factors(q):
        divs += [k * p for k in divs]
    return sorted(divs)


class Cusp:
    """The cusp a/c, c > 0, in lowest terms, as the numerator and denominator
    of a Fraction: all that the path code reads of a rational, without the
    fractions module (which imports decimal).  A Fraction serves wherever a
    Cusp does."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


def cf_decompose(r: Fraction | Cusp) -> list[tuple[int, int, int, int]]:
    """Manin path matrices (a, b, c, d) for the geodesic from i*infinity to r.

    Returns unimodular g_0 .. g_n built from the convergents p_j/q_j of r,
    g_j = (p_j, s*p_{j-1}; q_j, s*q_{j-1}) with s = (-1)^(j-1), so that the
    path splits as the concatenation of g_j(0) -> g_j(infinity), i.e.
    p_{j-1}/q_{j-1} -> p_j/q_j, starting at 1/0.  Every g_j has det 1 and
    n is at most logarithmic in the denominator.
    """
    a, c = r.numerator, r.denominator
    b = a // c
    p_prev, q_prev = 1, 0
    p_cur, q_cur = b, 1
    sign = -1
    mats = [(p_cur, sign * p_prev, q_cur, sign * q_prev)]
    n_, d_ = c, a - b * c
    while d_ > 0:
        b = n_ // d_
        n_, d_ = d_, n_ - b * d_
        p_prev, p_cur = p_cur, b * p_cur + p_prev
        q_prev, q_cur = q_cur, b * q_cur + q_prev
        sign = -sign
        mats.append((p_cur, sign * p_prev, q_cur, sign * q_prev))
    return mats


class P1Table:
    """P^1(Z/q) for squarefree q: canonical reps and a flat lookup table.

    The canonical representative of an orbit is its lexicographically
    smallest pair (c mod q, d mod q); the builder sweeps pairs in lex order
    and marks whole unit orbits, so first-encountered equals lex-min.
    """

    def __init__(self, q: int):
        squarefree_factors(q)
        self.q = q
        units = [u for u in range(q) if math.gcd(u, q) == 1]
        flat = [-1] * (q * q)
        reps: list[tuple[int, int]] = []
        for u in range(q):
            for v in range(q):
                if flat[u * q + v] >= 0 or math.gcd(math.gcd(u, v), q) != 1:
                    continue
                k = len(reps)
                reps.append((u, v))
                for lam in units:
                    flat[((lam * u) % q) * q + (lam * v) % q] = k
        self.flat = flat
        self.reps = reps

    def __len__(self) -> int:
        return len(self.reps)

    def index_of(self, c: int, d: int) -> int:
        q = self.q
        k = self.flat[(c % q) * q + (d % q)]
        if k < 0:
            raise ValueError(f"({c}:{d}) is not a point of P^1(Z/{q}): gcd(c,d,q) > 1")
        return k


@lru_cache(maxsize=None)
def p1_table(q: int) -> P1Table:
    return P1Table(q)


def _crt_least_abs(r1: int, m1: int, r2: int, m2: int) -> int:
    """Least-absolute-value x with x = r1 (mod m1), x = r2 (mod m2).

    Moduli must be coprime; ties between x and x - m1*m2 go to the
    positive representative.
    """
    m = m1 * m2
    x = (r1 * m2 * pow(m2, -1, m1) + r2 * m1 * pow(m1, -1, m2)) % m
    return x - m if 2 * x > m else x


def atkin_lehner_matrix(v: int, q: int) -> tuple[int, int, int, int]:
    """Determinant-v normalizer (v, y; q, v*w) of level q, for v | q squarefree.

    Canonical choice: w is the inverse of v modulo d = q/v taken in [0, d),
    and y = (v*w - 1)/d; for d = 1 this gives (v, -1; q, 0).
    """
    if q % v != 0:
        raise ValueError(f"{v} does not divide {q}")
    squarefree_factors(q)
    d = q // v
    w = pow(v, -1, d)
    y = (v * w - 1) // d
    assert v * v * w - y * q == v
    return (v, y, q, v * w)


def lazy_numpy():
    """numpy, loaded on the first attribute access rather than here.

    The layers bind np = lazy_numpy() in place of `import numpy as np`, so a
    command that only reads the period table (symbol, a warm table) never
    pays for the import.  A plain `import numpy` of the lazy module loads it.
    """
    np = sys.modules.get("numpy")
    if np is None:
        spec = importlib.util.find_spec("numpy")
        if spec is None:  # not installed: a bare module whose first attribute raises ImportError
            np = type(sys)("numpy")
            np.__getattr__ = lambda name: importlib.import_module("numpy")
            return np
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = importlib.util.module_from_spec(spec)
        sys.modules["numpy"] = np
        spec.loader.exec_module(np)
    return np
