"""Newform data attached to a rational elliptic curve of squarefree conductor.

The model alone names the form: its level is its conductor, read off the
discriminant.  Prime coefficients come from projective point counts, singular
points included, so multiplicative primes give +-1 directly: by baby-step
giant-step above a crossover prime, over the group orders that the rational
2-power torsion divides, and by the Legendre character sum below it and at
bad primes.  The Hecke recursions extend them, and the analytic side gives
certified series lengths, the antiderivative and the central L-value.  All but
the series work in Python integers, so building coefficients loads no numpy,
and from COUNT_FORK_MIN on forks.deal, which also deals the Farey sweep of
scanstats, deals the point count to forked workers.

The curve, the --n-max check and the cache format live in curves: a query
whose period table is cached reads only those, so this module loads on a
cache miss or for a command that reads coefficients.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from array import array

from .curves import (
    CacheFormatError,
    ConductorError,
    CurveSpec,
    check_n_max,
    format_curve,
    read_cache,
    read_usable,
    write_cache,
)
from .exactmath import lazy_numpy, squarefree_factors
from .forks import deal, workers

np = lazy_numpy()

TOL_FLOOR = 1e-14


class TruncationError(ValueError):
    """A certified truncation is not achievable with the available data."""


# count_points finds a_p by baby-step giant-step above Mestre's bound, past
# which the curve or its twist has a point leaving one candidate, and by the
# character sum at and below it.  On 15a1, in one process, the plain-Python
# sum takes 20 ms over the 166 primes 5 <= p <= 1000 but 1.2 ms over the 48
# primes <= 229; baby-step giant-step takes 3.9 ms over the 118 good primes in
# (229, 1000] (5.4 searching every order; medians of 41), with no fallback.
_BSGS_MIN_P = 229
# Samples x = 0, 1, 2, ... after which _bsgs_trace gives up; at every good
# prime in (229, 10^5] of 15a1, 57a1, 57b1, y^2 = x^3 + x + 1 and
# y^2 = x^3 - x, 11 samples at most pinned a_p, searching every order or not.
_BSGS_ATTEMPTS = 16
# The smallest n_max whose point count is dealt to worker processes.  On a shared
# 2-core Xeon, a build of 15a1 without numpy took in one process and in two
# (medians of 31 alternating pairs): 14.7 and 12.5 ms at N = 2500, 15.8 and 13.4
# at 3000, 19.0 and 17.1 at 4000, 34.2 and 22.6 at 5000, 41.2 and 26.7 at 6000,
# 70.5 and 42.5 at 10^4, 142.5 and 82.8 at 2 10^4, two being faster in 22, 22,
# 25, 31, 28, 30 and 31 pairs, but in 14 of 31 at 2500 and 26 at 3000 in another
# set; 0.56 and 0.36 s at 10^5 (5 of 5).
COUNT_FORK_MIN = 4000


def count_points(curve: CurveSpec, p: int) -> int:
    """Trace a_p = p + 1 - #W(F_p), counting every projective point.

    Singular points are counted, so multiplicative primes yield +1 (split)
    or -1 (nonsplit) and additive primes yield 0.  p = 2, 3 are counted by
    full enumeration.  At a prime p > _BSGS_MIN_P of good reduction a_p is
    pinned by the orders of a few points (_bsgs_trace, O(p^(1/4)) group
    operations); at every other prime, and when those points leave a_p
    undecided, it is the Legendre character sum (_character_sum, O(p)).
    """
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if p <= 3:
        n_affine = 0
        for x in range(p):
            rhs = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
            for y in range(p):
                if (y * y + curve.a1 * x * y + curve.a3 * y) % p == rhs:
                    n_affine += 1
        return p + 1 - (n_affine + 1)
    if p > _BSGS_MIN_P and curve.discriminant % p:
        trace = _bsgs_trace(curve, p)
        if trace is not None:
            return trace
    return _character_sum(curve, p)


def _character_sum(curve: CurveSpec, p: int) -> int:
    """a_p at a prime p > 3 as minus the sum of the Legendre character of
    the completed-square quartic-free form 4x^3 + b2 x^2 + 2 b4 x + b6."""
    chi = [-1] * p
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    chi[0] = 0
    b2, b4_twice, b6 = curve.b2 % p, 2 * curve.b4 % p, curve.b6 % p
    return -sum(chi[(((4 * x + b2) * x + b4_twice) * x + b6) % p] for x in range(p))


def _bsgs_trace(curve: CurveSpec, p: int) -> int | None:
    """a_p at a prime p > 3 of good reduction by baby-step giant-step, or
    None when _BSGS_ATTEMPTS samples leave more than one candidate.

    On the short model y^2 = f(x) = x^3 + A x + B, A = -27 c4, B = -54 c6,
    a sample x with d = f(x) != 0 gives the point P = (x d, d^2) of the twist
    y^2 = x^3 + A d^2 x + B d^3, whose group has order p + 1 - chi(d) a_p
    (chi the Legendre character), so no square root is taken.  Rational torsion
    injects into it, so t = t_e (_torsion_divisors) divides that order when
    chi(d) = 1, and t = t2 when not, as the twist keeps the 2-torsion (d e, 0).
    The candidates are the a_p whose order t k kills P, k searched for on
    Q = tP over [lo/t, hi/t] of the Hasse interval (on P if Q = O or 2Q = O),
    intersected over x = 0, 1, 2, ...  For p > 229 the curve or its quadratic
    twist has a point that leaves one candidate (Mestre).
    """
    A, B = -27 * curve.c4 % p, -54 * curve.c6 % p
    t2, t_e = _torsion_divisors(curve)
    bound = math.isqrt(4 * p)
    lo, hi = p + 1 - bound, p + 1 + bound
    candidates = None
    x = tried = 0
    while tried < _BSGS_ATTEMPTS:
        d = ((x * x + A) * x + B) % p
        if d:
            tried += 1
            chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
            dd = d * d % p
            a, P, t = A * dd % p, (x * d % p, dd), t_e if chi == 1 else t2
            Q = _ec_mul(t, P, a, p) if t > 1 else P
            if Q is None or Q[1] == 0:
                t, Q = 1, P
            found = {chi * (p + 1 - t * k) for k in _orders_in(*Q, a, p, -(-lo // t), hi // t)}
            candidates = found if candidates is None else candidates & found
            if len(candidates) == 1:
                return candidates.pop()
        x += 1
    return None


def _integer_roots(A: int, B: int) -> list[int]:
    """The integer roots of x^3 + A x + B: on each piece of [-R, R], R the Cauchy
    bound, where the cubic f is monotone, bisection finds the first x with
    sign f(x) >= 0, the one integer there that can be a root, checked exactly."""
    R, s = 1 + max(abs(A), abs(B)), math.isqrt(max(-A, 0) // 3)
    roots = []
    for lo, hi, sign in (-R, -s - 1, 1), (-s, s, -1), (s + 1, R, 1):
        x = lo + bisect.bisect_left(range(lo, hi), 0, key=lambda x: sign * ((x * x + A) * x + B))
        if (x * x + A) * x + B == 0:
            roots.append(x)
    return roots


@functools.lru_cache(maxsize=16)
def _torsion_divisors(curve: CurveSpec) -> tuple[int, int]:
    """(t2, t_e): t2 = |E(Q)[2]|, one more than the integer roots e of the
    short model's cubic, and t_e = 8 when E(Q) holds Z/2 x Z/4, some (e, 0)
    being in 2E(Q) (2-descent: e - e' and e - e'' are squares), else t2."""
    roots = _integer_roots(-27 * curve.c4, -54 * curve.c6)
    t2 = 1 + len(roots)
    halved = t2 == 4 and any(
        all(math.isqrt(abs(e - f)) ** 2 == e - f for f in roots if f != e) for e in roots)
    return t2, 8 if halved else t2


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a x + b over F_p; a point is (x, y), or None for
    the point at infinity O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _ec_mul(n: int, P, a: int, p: int):
    """nP for n >= 1 and P != O by double-and-add in Jacobian coordinates
    (X : Y : Z) = (X/Z^2, Y/Z^3), inverting once at the end; a step leaving
    them (doubling Y = 0, adding P to +-P: H = 0) redoes nP affinely."""
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(n)[3:]:
        if Y == 0:
            break
        YY, ZZ = Y * Y % p, Z * Z % p
        S, M = 4 * X * YY % p, (3 * X * X + a * ZZ * ZZ) % p
        X = (M * M - 2 * S) % p
        Y, Z = (M * (S - X) - 8 * YY * YY) % p, 2 * Y * Z % p
        if bit == "1":
            ZZ = Z * Z % p
            H, r = (x * ZZ - X) % p, (y * ZZ * Z - Y) % p
            if H == 0:
                break
            HH = H * H % p
            HHH, V = H * HH % p, X * HH % p
            X = (r * r - HHH - 2 * V) % p
            Y, Z = (r * (V - X) - Y * HHH) % p, Z * H % p
    else:
        zi = pow(Z, -1, p)
        return (X * zi * zi % p, Y * zi * zi * zi % p)
    R = None
    for bit in bin(n)[2:]:
        R = _ec_add(R, R, a, p)
        if bit == "1":
            R = _ec_add(R, P, a, p)
    return R


def _orders_in(x1: int, y1: int, a: int, p: int, lo: int, hi: int):
    """Every n in [lo, hi] with nP = O, P = (x1, y1), y1 != 0, on
    y^2 = x^3 + a x + b over F_p.

    Baby steps jP, j = 1..m, are keyed by x.  When one meets an earlier x
    (jP = -iP) or has y = 0 (jP = -jP), the order of P is j + i or 2j, and
    the answer is its multiples.  Otherwise the order exceeds 2m, and the
    giant steps G = (2m+1)P visit centres c, each matching at most one baby
    step: cP = jP gives n = c - j, and cP = -jP gives n = c + j.
    """
    m = math.isqrt((hi - lo) // 2)
    P = R = (x1, y1)
    baby = {}
    for j in range(1, m + 1):  # R = jP, and it is not O
        x, y = R
        if x in baby or y == 0:
            order = j + baby[x][0] if x in baby else 2 * j
            break
        baby[x] = (j, y)
        mP, R = R, _ec_add(R, P, a, p)
    else:
        step = 2 * m + 1
        G = _ec_add(mP, R, a, p)
        if G is not None:
            k = (lo + m) // step  # k step - m <= lo: the first centre covers lo
            R = _ec_mul(k, G, a, p)
            found = set()
            for c in range(k * step, hi + m + 1, step):
                if R is None:
                    found.add(c)
                elif R[0] in baby:
                    j, yj = baby[R[0]]
                    found.add(c - j if yj == R[1] else c + j)
                R = _ec_add(R, G, a, p)
            return [n for n in found if lo <= n <= hi]
        order = step
    return range(-(-lo // order) * order, hi + 1, order)


def _smallest_prime_factors(n_max: int) -> list[int]:
    spf = list(range(n_max + 1))
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def hecke_extend(a_p: dict[int, int], q: int, spf: list[int]) -> array:
    """Coefficients a(0..n_max), a(0) = 0, from prime traces via the recursions.

    a(p^{k+1}) = a(p) a(p^k) - p a(p^{k-1}) at good p, a(p^k) = a(p)^k at
    p | q, multiplicative across coprime factors.  spf is the table of
    smallest prime factors up to n_max, which build_eigenform has sieved.
    """
    n_max = len(spf) - 1
    a = [0] * (n_max + 1)  # packed at the end: 4.7 ms at N = 2e4, 6.2 filling an array
    if n_max >= 1:
        a[1] = 1
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n // p
        if m == 1:
            a[n] = a_p[p]
        elif m % p or q % p == 0:
            a[n] = a[p] * a[m]
        else:
            a[n] = a[p] * a[m] - p * a[m // p]
    return array("q", a)


class Eigenform:
    """The newform of one curve: its coefficients a(0..n_max), one int64
    array.array whether built or read (numpy views it through np.asarray).
    The curve is its only identity: the level is curve.q, and the
    Atkin-Lehner signs are read off the coefficients (al_sign)."""

    __slots__ = ("curve", "coeffs")

    def __init__(self, curve: CurveSpec, coeffs: array):
        self.curve = curve
        self.coeffs = coeffs

    @property
    def q(self) -> int:
        return self.curve.q

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1


def al_sign(f: Eigenform, v: int) -> int:
    """Atkin-Lehner eigenvalue for the divisor v of the level: the product of
    -a(p) over the primes p | v, where reduction is multiplicative."""
    if v < 1 or f.q % v != 0:
        raise ValueError(f"{v} does not divide the level {f.q}")
    return math.prod(-int(f.coeffs[p]) for p in squarefree_factors(v))


def build_eigenform(curve: CurveSpec, n_max: int) -> Eigenform:
    """Count points at every prime up to n_max, worker i of w (forks.deal) counting
    primes[i::w], and extend multiplicatively; a good prime's trace past Hasse's bound
    is refused."""
    check_n_max(curve.q, n_max)
    spf = _smallest_prime_factors(n_max)
    primes = [p for p in range(2, n_max + 1) if spf[p] == p]
    w, traces = workers(n_max, COUNT_FORK_MIN), {}

    def count(i):
        return [array("q", [count_points(curve, p) for p in primes[i::w]])]

    def merge(i, fh):
        share = array("q")
        try:
            share.fromfile(fh, len(primes[i::w]))
        except EOFError:  # it keeps what the worker wrote, which ends short
            return False
        traces.update(zip(primes[i::w], share))
        return True

    traces.update(zip(primes[::w], *deal("count", w, count, merge)))
    for p in primes:
        if curve.q % p != 0 and traces[p] ** 2 > 4 * p:
            raise ConductorError(f"|a_{p}| = {abs(traces[p])} exceeds the Hasse bound")
    return Eigenform(curve, hecke_extend(traces, curve.q, spf))


# ---------------------------------------------------------------------------
# Certified truncation


def tail_bound(n: int, y: float) -> float:
    """Rigorous bound on sum_{k>n} 2k e^{-2 pi k y} (coefficients obey |a(k)| <= 2k)."""
    x = math.exp(-2.0 * math.pi * y)
    return 2.0 * x ** (n + 1) * ((n + 1) * (1.0 - x) + x) / (1.0 - x) ** 2


def terms_needed(y: float, tol: float) -> int:
    """Smallest series length whose certified tail is below tol at height y."""
    if y <= 0.0:
        raise ValueError("evaluation height must be positive")
    if tol < TOL_FLOOR:
        raise TruncationError(
            f"tolerance {tol:g} is below the float64 rounding floor {TOL_FLOOR:g}; "
            f"a certified truncation at that accuracy is not achievable"
        )
    n = 1
    while tail_bound(n, y) >= tol:
        n *= 2
        if n > 1 << 40:
            raise TruncationError(f"no feasible truncation at y={y:g}, tol={tol:g}")
    lo, hi = n // 2, n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail_bound(mid, y) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def certified_terms(f: Eigenform, y: float, tol: float) -> int:
    """terms_needed(y, tol), the series length certified below tol at every
    height >= y; refuses with TruncationError rather than degrade when f has
    fewer coefficients than that."""
    terms = terms_needed(y, tol)
    if terms > f.n_max:
        raise TruncationError(
            f"certified truncation at height {y:g} and tolerance {tol:g} needs "
            f"{terms} coefficients but only {f.n_max} are available"
        )
    return terms


# ---------------------------------------------------------------------------
# Series evaluation


def _series(zs: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_n coef[n-1] e(nz) at each z, every point in one numpy pass."""
    terms = np.multiply.outer(2j * np.pi * zs, np.arange(1, coef.size + 1))
    np.exp(terms, out=terms)
    terms *= coef.astype(np.complex128)
    return terms.sum(axis=1)


def antiderivative_batch(f: Eigenform, zs, tol: float) -> np.ndarray:
    """Antiderivative F(z) = sum a(n)/(2 pi i n) e(nz) at each z, certified to tol.

    F vanishes at i*infinity and has period 1; the tail bound of
    certified_terms (stated for the form itself) dominates the
    antiderivative's tail term by term.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    n_terms = certified_terms(f, float(zs.imag.min()), tol)
    ns = np.arange(1, n_terms + 1)
    return _series(zs, np.asarray(f.coeffs)[1 : n_terms + 1] / (2j * np.pi * ns))


def lfun1(f: Eigenform) -> float:
    """Central L-value (1 - e_q) sum a(n)/n e^{-2 pi n/sqrt(q)}, certified to 1e-12:
    the sum is -2 pi Im F(i/sqrt(q)), F read at 1e-12/(4 pi).  Identically zero
    when the Fricke sign e_q is +1 (odd functional equation)."""
    e_q = al_sign(f, f.q)
    if e_q == 1:
        return 0.0
    f_val = antiderivative_batch(f, [1j / math.sqrt(f.q)], 1e-12 / (4.0 * math.pi))[0]
    return float((1 - e_q) * -2.0 * math.pi * f_val.imag)


# ---------------------------------------------------------------------------
# The coefficient cache

_COEFFS_MAGIC = "modsym-coeffs v3"


def coeffs_cache_path(cache_dir: str, curve: CurveSpec, n_max: int) -> str:
    return os.path.join(cache_dir, f"coeffs-q{curve.q}-N{n_max}.txt")


def _coeffs_identity(curve: CurveSpec, n_max: int) -> dict:
    return {"q": curve.q, "N": n_max, "curve": format_curve(curve)}


def write_coeffs_cache(path: str, f: Eigenform) -> None:
    """Plain-text coefficients, line n holding a(n); the header names the
    level, length and curve, and the body's sha256."""
    write_cache(path, _COEFFS_MAGIC, _coeffs_identity(f.curve, f.n_max),
                map(str, f.coeffs[1:].tolist()))


def _spot_check_primes(q: int, n_max: int) -> list[int]:
    """The three largest primes <= n_max that do not divide q."""
    primes = []
    for n in range(n_max, 1, -1):
        if q % n and all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
            if len(primes) == 3:
                break
    return primes


def _parse_coeffs(body) -> array:
    """[0, a(1), a(2), ...] from a coefficient cache body, line n holding a(n),
    parsed a line at a time into the array alone."""
    start, coeffs = body.tell(), array("q", [0])
    try:
        coeffs.extend(map(int, body))
    except OverflowError:  # extend keeps the values before the one it cannot hold
        n = len(coeffs)
        body.seek(start)
        a_s = next(itertools.islice(body, n - 1, None)).decode("ascii").strip()
        raise CacheFormatError(f"coefficient cache has a({n}) = {a_s}, past int64") from None
    return coeffs


def read_coeffs_cache(path: str, curve: CurveSpec, n_max: int) -> array:
    """a(0..n_max) from a write_coeffs_cache file of this curve and length,
    whose body has the digest of its header and holds n_max values, and whose
    a(p) at the _spot_check_primes agree with count_points."""
    coeffs = read_cache(path, _COEFFS_MAGIC, _coeffs_identity(curve, n_max), _parse_coeffs)
    if len(coeffs) != n_max + 1:
        raise CacheFormatError(f"coefficient cache has {len(coeffs) - 1} entries, not {n_max}")
    for p in _spot_check_primes(curve.q, n_max):
        counted = count_points(curve, p)
        if coeffs[p] != counted:
            raise CacheFormatError(
                f"coefficient cache has a({p}) = {coeffs[p]}, but counting points "
                f"gives {counted}"
            )
    return coeffs


def load_or_build_eigenform(curve: CurveSpec, n_max: int, cache_dir: str) -> Eigenform:
    """Eigenform with cache-backed coefficients; a missing cache is built, and
    a corrupt one, or one written for another level, length or curve, is
    rebuilt with a warning."""
    check_n_max(curve.q, n_max)
    os.makedirs(cache_dir, exist_ok=True)
    path = coeffs_cache_path(cache_dir, curve, n_max)
    coeffs = read_usable(path, "coefficient", read_coeffs_cache, curve, n_max)
    if coeffs is not None:
        return Eigenform(curve, coeffs)
    f = build_eigenform(curve, n_max)
    write_coeffs_cache(path, f)
    return f
