"""Exact integer arithmetic underneath the symbol engine.

Unimodular 2x2 matrices, the Manin continued-fraction path decomposition,
the projective line P^1(Z/q) with canonical representatives, and the
CRT/Bezout solvers used by the cusp machinery.  Everything in this module
is exact; floats never enter.  It also hands the numeric layers numpy
through lazy_numpy, so that the table-only path never loads it.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

CAPACITY_BITS = 128
_CAP = 1 << (CAPACITY_BITS - 1)


class CapacityError(OverflowError):
    """A matrix entry exceeded the declared integer capacity."""


def squarefree_factors(q: int) -> list[int]:
    """Prime factors of q in increasing order; raises if q is not squarefree."""
    if q < 1:
        raise ValueError(f"positive integer required, got {q}")
    factors = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            factors.append(p)
            if n % p == 0:
                raise ValueError(f"{q} is not squarefree")
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def divisors_squarefree(q: int) -> list[int]:
    """All divisors of squarefree q, sorted increasing."""
    squarefree_factors(q)  # raises unless q is squarefree
    return divisors(q)


@dataclass(frozen=True)
class Mat2:
    """Integer 2x2 matrix (a, b; c, d) with an explicit capacity guard."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for x in (self.a, self.b, self.c, self.d):
            if not -_CAP < x < _CAP:
                raise CapacityError(f"entry {x} exceeds {CAPACITY_BITS}-bit capacity")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inv_unimodular(self) -> "Mat2":
        if self.det != 1:
            raise ValueError("inverse is implemented for determinant 1 only")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def adjugate(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def act(self, z):
        """Moebius action (a z + b)/(c z + d); works on complex and Fraction."""
        return (self.a * z + self.b) / (self.c * z + self.d)


IDENTITY = Mat2(1, 0, 0, 1)
# Path reversal, the matrix of the two-term relation.
S_MAT = Mat2(0, -1, 1, 0)


def cf_decompose(r: Fraction) -> list[Mat2]:
    """Manin path matrices for the geodesic from i*infinity to r.

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
    mats = [Mat2(p_cur, sign * p_prev, q_cur, sign * q_prev)]
    n_, d_ = c, a - b * c
    while d_ > 0:
        b = n_ // d_
        n_, d_ = d_, n_ - b * d_
        p_prev, p_cur = p_cur, b * p_cur + p_prev
        q_prev, q_cur = q_cur, b * q_cur + q_prev
        sign = -sign
        mats.append(Mat2(p_cur, sign * p_prev, q_cur, sign * q_prev))
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
        if q == 1:
            self.flat = [0]
            self.reps = [(0, 0)]
            return
        units = [u for u in range(1, q) if math.gcd(u, q) == 1]
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
        if q == 1:
            return 0
        k = self.flat[(c % q) * q + (d % q)]
        if k < 0:
            raise ValueError(f"({c}:{d}) is not a point of P^1(Z/{q}): gcd(c,d,q) > 1")
        return k


@lru_cache(maxsize=None)
def p1_table(q: int) -> P1Table:
    return P1Table(q)


def _spiral():
    yield 0
    t = 1
    while True:
        yield t
        yield -t
        t += 1


def lift_class(q: int, c0: int, d0: int) -> Mat2:
    """A unimodular matrix whose bottom row reduces to the class (c0 : d0).

    Search strategy (documented and deterministic): keep the canonical c,
    adjust d by multiples of q with offsets 0, 1, -1, 2, ... until the
    bottom row is coprime, complete it with x = d^-1 mod c, then reduce the
    top row by the nearest multiple of the bottom row; that reduction gives
    the same matrix for every x in the residue class.
    """
    if q == 1:
        return IDENTITY
    if c0 == 0:
        # canonical rep of this orbit is (0, 1): the identity lifts it
        return IDENTITY
    for t in _spiral():
        d1 = d0 + t * q
        if math.gcd(c0, d1) == 1:
            break
    # top row (x, y) with x*d1 - y*c0 = 1
    x = pow(d1, -1, c0)
    y = (x * d1 - 1) // c0
    # shift the top row by multiples of the bottom row to shrink it
    m = (2 * x + c0) // (2 * c0)
    return Mat2(x - m * c0, y - m * d1, c0, d1)


def _crt_least_abs(r1: int, m1: int, r2: int, m2: int) -> int:
    """Least-absolute-value x with x = r1 (mod m1), x = r2 (mod m2).

    Moduli must be coprime; ties between x and x - m1*m2 go to the
    positive representative.
    """
    m = m1 * m2
    if m1 == 1:
        x = r2 % m2 if m2 > 1 else 0
    elif m2 == 1:
        x = r1 % m1
    else:
        inv21 = pow(m2 % m1, -1, m1)
        inv12 = pow(m1 % m2, -1, m2)
        x = (r1 * m2 * inv21 + r2 * m1 * inv12) % m
    if 2 * x > m:
        x -= m
    return x


def solve_gamma_tilde(alpha: int, gamma: int, q: int) -> Mat2:
    """Level-q unimodular matrix sending the cusp 1/d to alpha/gamma.

    Here d = gcd(gamma, q).  The bottom-left entry is divisible by q, the
    determinant is 1, and (1/d) maps exactly to alpha/gamma.  The free CRT
    residue D is pinned to its least-absolute-value representative (ties
    positive), which makes the construction canonical.
    """
    if gamma < 1:
        raise ValueError("gamma must be positive")
    if math.gcd(alpha, gamma) != 1:
        raise ValueError("alpha/gamma must be in lowest terms")
    d = math.gcd(gamma, q)
    v = q // d
    gamma_prime = gamma // d
    a_inv = pow(alpha % gamma, -1, gamma) if gamma > 1 else 0
    big_d = _crt_least_abs(gamma_prime % v if v > 1 else 0, v, a_inv, gamma)
    big_b = (alpha * big_d - 1) // gamma
    big_a = alpha - big_b * d
    big_c = gamma - d * big_d
    gt = Mat2(big_a, big_b, big_c, big_d)
    assert gt.det == 1 and big_c % q == 0
    return gt


def atkin_lehner_matrix(v: int, q: int) -> Mat2:
    """Determinant-v normalizer (v, y; q, v*w) of level q, for v | q squarefree.

    Canonical choice: w is the inverse of v modulo d = q/v taken in [0, d),
    and y = (v*w - 1)/d; for d = 1 this gives (v, -1; q, 0).
    """
    if q % v != 0:
        raise ValueError(f"{v} does not divide {q}")
    squarefree_factors(q)
    d = q // v
    w = pow(v % d, -1, d) if d > 1 else 0
    y = (v * w - 1) // d
    mat = Mat2(v, y, q, v * w)
    assert mat.det == v
    return mat


def lazy_numpy():
    """numpy, loaded on the first attribute access rather than here.

    The layers bind np = lazy_numpy() in place of `import numpy as np`, so a
    command that only reads the period table (symbol, a warm table) never
    pays for the import.  A plain `import numpy` of the lazy module loads it.
    """
    np = sys.modules.get("numpy")
    if np is None:
        spec = importlib.util.find_spec("numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = importlib.util.module_from_spec(spec)
        sys.modules["numpy"] = np
        spec.loader.exec_module(np)
    return np
