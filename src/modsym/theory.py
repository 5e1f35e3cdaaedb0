"""Closed-form limit constants and their independent numerical cross-checks.

Variance slope and shift coefficients for the symbol statistics, the
first-moment limit profile, the hyperbolic volume, and a rigorous
fundamental-domain quadrature for the Petersson norm that recovers the
symmetric-square L-value independently of SYM2_LVALUES.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .curves import CurveSpec, format_curve
from .eigenform import Eigenform, TruncationError, terms_needed
from .exactmath import divisors_squarefree, lazy_numpy, p1_table, squarefree_factors
from .periods import cusp_shift

np = lazy_numpy()

# (L(Sym^2 f, 1), L'(Sym^2 f, 1)) by curve: the value sets the variance slope,
# and the derivative enters only the variance shifts
SYM2_LVALUES = {CurveSpec(1, 1, 1, -10, -10): (0.9364885435, 0.03534541)}
PETERSSON_TOL = 1e-5  # the Petersson quadrature's tolerance, which verify's mesh gate holds it to
PETERSSON_MAX_NODES = 64  # the finest Gauss-Legendre order the quadrature doubles to
_BLOCK = 1 << 17  # float64 elements of the quadrature's block temporaries: 1 MB

# zeta'(2); cross-checked by an Euler-Maclaurin oracle in the test suite.
ZETA_PRIME_2 = -0.9375482543158437537


def _unit_index_product(q: int) -> float:
    prod = 1.0
    for p in squarefree_factors(q):
        prod *= 1.0 + 1.0 / p
    return prod


def volume(q: int) -> float:
    """Hyperbolic area of the level-q quotient: (pi/3) q prod_{p|q} (1 + 1/p)."""
    return math.pi / 3.0 * q * _unit_index_product(q)


def slope_from_L(q: int, sym2_l: float) -> tuple[float, float]:
    """(C_f, c_f): variance slope in the paper-sign and real conventions.

    C_f = -(6/pi^2) * sym2_l / prod_{p|q}(1+1/p) is negative; the real
    convention slope is c_f = -C_f > 0.
    """
    c_paper = -(6.0 / math.pi ** 2) * sym2_l / _unit_index_product(q)
    return c_paper, -c_paper


def shift_coefficients(q: int, d: int) -> tuple[float, float]:
    """(A, B) with the paper-convention shift D = A * sym2_l + B * sym2_l_prime.

    A depends on the class gcd d through -log(q/d)/2; B is d-independent
    and negative.  Both carry the factor 6/(pi^2 prod(1+1/p)).  The
    real-convention shift is the negation, matching slope_from_L.
    """
    if q % d != 0:
        raise ValueError(f"{d} does not divide {q}")
    prod = _unit_index_product(q)
    prime_sum = sum(math.log(p) / (p + 1.0) for p in squarefree_factors(q))
    front = 6.0 / (math.pi ** 2 * prod)
    a = front * (
        -0.5 * math.log(q / d)
        - prime_sum
        + (12.0 / math.pi ** 2) * ZETA_PRIME_2
        + math.log(2.0 * math.pi)
    )
    b = -front
    return a, b


def shift_value(q: int, d: int, sym2_l: float, sym2_l_prime: float) -> float:
    """Paper-convention variance shift for the class (c, q) = d."""
    a, b = shift_coefficients(q, d)
    return a * sym2_l + b * sym2_l_prime


# ---------------------------------------------------------------------------
# First-moment limit profile


def ghat_tail_certificate(n_terms: int) -> float:
    """Provable bound on the dropped tail of the profile series.

    With |a(n)| <= d(n) sqrt(n) and partial summation against
    D(x) <= x (ln x + 1), the absolute tail beyond N is below
    (3 ln N + 9)/(pi sqrt N).
    """
    return (3.0 * math.log(n_terms) + 9.0) / (math.pi * math.sqrt(n_terms))


def ghat(f: Eigenform, xs) -> np.ndarray:
    """Limit of the contiguous averages: (1/2pi) sum_{n <= N} a(n)(1 - cos 2 pi n x)/n^2.

    N = f.n_max: the sum takes all of f's coefficients.  Vanishes at 0 and 1;
    truncation certified by ghat_tail_certificate, with the measured doubling
    change far smaller in practice because the coefficients oscillate.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    coeffs = np.asarray(f.coeffs)
    out = np.zeros(xs.shape)
    step = 1 << 14  # the block along n fixes the order of the pairwise sums
    rows = 8  # grid points per 1 MB temporary: a grid-wide one set the peak RSS of `contig`
    for lo in range(1, f.n_max + 1, step):
        hi = min(lo + step - 1, f.n_max)
        ns = np.arange(lo, hi + 1, dtype=np.float64)
        w = coeffs[lo : hi + 1] / (ns * ns)
        for j in range(0, xs.size, rows):
            terms = np.outer(xs[j : j + rows], ns)
            terms *= 2.0 * np.pi
            np.cos(terms, out=terms)
            np.subtract(1.0, terms, out=terms)
            terms *= w
            out[j : j + rows] += terms.sum(axis=1)
    return out / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# Petersson norm by fundamental-domain quadrature


PeterssonResult = namedtuple("PeterssonResult", "value mesh_error truncated nodes")
PeterssonResult.__doc__ = """value and its mesh_error; truncated counts the (class,
    x-node) columns of the last two passes cut short of the certified length,
    and nodes is the Gauss-Legendre order of the fine pass."""


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes x and weights w = 2/((1 - x^2) P_n'(x)^2) of the n-point
    Gauss-Legendre rule on [-1, 1], made symmetric about 0: Newton's method on
    P_n, evaluated by its three-term recurrence, from cos(pi (k - 1/4)/(n + 1/2))."""
    x, moved = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5)), math.inf
    while True:
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if moved < 1e-10:  # the error squares each step, so x is right to rounding
            w = 2.0 / ((1.0 - x * x) * dp * dp)
            return (x - x[::-1]) / 2, (w + w[::-1]) / 2
        x, moved = x - p1 / dp, np.abs(p1 / dp).max()


def _map_rule(rule, edges) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule (x, w) on [-1, 1] mapped onto each panel between edges,
    along the last axis of edges: one row of nodes and weights per row of edges."""
    x, w = rule
    edges = np.asarray(edges, dtype=np.float64)
    lo = edges[..., :-1, None]
    half = 0.5 * (edges[..., 1:, None] - lo)
    shape = edges.shape[:-1] + (-1,)
    return (lo + half * (x + 1.0)).reshape(shape), (half * w).reshape(shape)


def _class_cutoff(coeff_abs: np.ndarray, v: int, tol_tail: float) -> float:
    """Height above which the certified tail of a width-v class integrand is below tol_tail."""
    ratio = 1 / v
    y_floor = math.sqrt(3.0) / 2.0
    terms = np.arange(len(coeff_abs), dtype=np.float64)  # n - 1, worked on in place
    terms *= -2.0 * np.pi
    terms *= ratio
    terms *= y_floor
    np.exp(terms, out=terms)
    terms *= coeff_abs
    big_c = float(np.sum(terms))
    cutoff = (1.0 / (4.0 * math.pi * ratio)) * math.log(
        max(big_c, 1.0) ** 2 * max(ratio, 1e-30) / (4.0 * math.pi * tol_tail)
    )
    return max(cutoff, 2.0)


def _width_integral(f: Eigenform, width, ms, tol_tail: float, rule, x_panels) -> tuple[float, int]:
    """Sum over the classes m of the width (v, cutoff) of the integrals over the
    standard fundamental domain of (1/v)^2 |f((w + m)/v)|^2, and the columns cut short.

    At an x-node all the classes' points have heights y/v, y on geometric panels from
    sqrt(1 - x^2) to the cutoff, so their series are one real product D @ C, with
    D[j, n] = exp(-2 pi n y_j/v) and C[n, c] = a(n) e(n (x + m_c)/v).  Each x-node's
    series stops at its own certified length, from terms_needed, called once per
    x-node in x order.  The products run for a block of x-nodes at a time: every
    node gets the panels of the lowest one, the edges past its own last panel
    clamped to the cutoff (zero-width panels, zero weight), and each series is
    masked past its own length.  A block holds as many x-nodes as keep its D, C and
    D @ C within _BLOCK float64 elements (1 MB), as ghat's blocks do: all the x-nodes
    of a pass in one block raised the peak RSS of a warm `verify --M 600` at
    N = 2 10^4 from 32.6 to 35.5 MB.
    """
    v, cutoff = width
    xs, wxs = x_panels
    floors = np.sqrt(np.maximum(1.0 - xs * xs, 0.0))
    n_panels, top = 0, float(floors.min())
    while top < cutoff:  # the lowest node's panels, which every other node's fit in
        top, n_panels = top * 1.6, n_panels + 1
    growth = np.full((xs.size, n_panels + 1), 1.6)
    growth[:, 0] = floors
    ys, wys = _map_rule(rule, np.minimum(np.cumprod(growth, axis=1), cutoff))
    heights = ys / v
    needed = [terms_needed(float(h), tol_tail * 1e-3) for h in heights.min(axis=1)]
    truncated = len(ms) * sum(n > f.n_max for n in needed)
    lengths = np.minimum(needed, f.n_max)
    coeffs = np.asarray(f.coeffs)
    n_len, n_ys, n_re = int(lengths.max()), heights.shape[1], 2 * len(ms)
    rows = max(1, _BLOCK // (n_len * n_ys + n_len * n_re + n_ys * n_re))  # D, C and D @ C
    total = 0.0
    for lo in range(0, xs.size, rows):
        block = slice(lo, lo + rows)
        ns = np.arange(1, int(lengths[block].max()) + 1)
        decay = np.multiply.outer(-2.0 * np.pi * heights[block], ns)
        np.exp(decay, out=decay)
        phase = (2j * np.pi * ns)[:, None] * (np.add.outer(xs[block], ms) / v)[:, None, :]
        np.exp(phase, out=phase)
        phase *= np.where(ns <= lengths[block, None], coeffs[1 : ns.size + 1], 0)[:, :, None]
        vals = decay @ phase.view(np.float64)  # re and im of each class, interleaved
        np.square(vals, out=vals)
        total += float(wxs[block] @ (wys[block] * vals.sum(axis=2)).sum(axis=1))
        del decay, phase, vals  # freed before the next block's are made
    return (1 / v) ** 2 * total, truncated


def petersson_quadrature(f: Eigenform, tol: float = PETERSSON_TOL) -> PeterssonResult:
    """Petersson norm ||f||^2 over the level-q quotient, with mesh self-check.

    Sums, over the coset classes indexed by P^1(Z/q), the fundamental-domain
    integrals of |f|g|^2 = (1/v)^2 |f((w + m)/v)|^2, one cusp width v
    at a time with a certified exponential cutoff per width.  The whole
    quadrature runs at Gauss-Legendre orders 4 and 8, and the order doubles
    while two successive passes differ by more than tol, up to a fine order of
    PETERSSON_MAX_NODES; their difference is the mesh error, which stays above
    tol if the cap is reached.  Each order's rule is computed once.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"petersson tol must be positive and finite, got {tol!r}")
    classes = p1_table(f.q)
    tol_tail = tol / (2.0 * len(classes))
    coeff_abs = np.asarray(f.coeffs)[1:].astype(np.float64)
    np.abs(coeff_abs, out=coeff_abs)
    widths: dict[int, list[int]] = {}
    for c, d in classes.reps:
        sh = cusp_shift(c, d, f)
        widths.setdefault(sh.v, []).append(sh.m)
    groups = [((v, _class_cutoff(coeff_abs, v, tol_tail)), ms) for v, ms in widths.items()]
    del coeff_abs  # 8 bytes a coefficient, which the passes do not read

    def run(nodes: int) -> tuple[float, int]:
        rule = gauss_legendre(nodes)
        x_panels = _map_rule(rule, [-0.5 + j / 8 for j in range(9)])
        parts = [_width_integral(f, w, ms, tol_tail, rule, x_panels) for w, ms in groups]
        return sum(p for p, _ in parts), sum(n for _, n in parts)

    nodes = 8
    (coarse, cut_coarse), (fine, cut_fine) = run(nodes // 2), run(nodes)
    while abs(fine - coarse) > tol and nodes < PETERSSON_MAX_NODES:
        nodes *= 2
        (coarse, cut_coarse), (fine, cut_fine) = (fine, cut_fine), run(nodes)
    return PeterssonResult(
        value=fine,
        mesh_error=abs(fine - coarse),
        truncated=cut_coarse + cut_fine,
        nodes=nodes,
    )


def sym2_l_from_petersson(f: Eigenform, norm_sq: float) -> float:
    """Invert the slope identities: the quadrature route to the tabled L1.

    Combining C_f = -16 pi^2 ||f||^2 / vol with the closed form of C_f gives
    sym2_l = (8 pi^4 / 3) prod_{p|q}(1+1/p) ||f||^2 / vol.
    """
    return (8.0 * math.pi ** 4 / 3.0) * _unit_index_product(f.q) * norm_sq / volume(f.q)


# ---------------------------------------------------------------------------
# L-values and the constants report


def sym2_lvalues(curve: CurveSpec) -> tuple[float, float]:
    """(L1, L1p) of the curve from SYM2_LVALUES; a curve not there is refused."""
    if curve not in SYM2_LVALUES:
        known = ", ".join(map(format_curve, SYM2_LVALUES))
        raise ValueError(f"no L(Sym^2 f, 1) for curve {format_curve(curve)}, only for {known}")
    return SYM2_LVALUES[curve]


def build_theory(curve: CurveSpec, f: Eigenform | None = None) -> dict:
    """Every closed-form constant the reports compare against, a function of
    the curve alone (its level, and its L-values from sym2_lvalues), with the
    divisor-keyed maps keyed by strings; given the curve's eigenform f, also
    the Petersson quadrature at its default tolerance (its norm, mesh error
    and the Gauss-Legendre order of its fine pass) and the L-value it recovers."""
    if f is not None and f.curve != curve:
        raise ValueError(f"the form of curve {format_curve(f.curve)} cannot give the "
                         f"constants of curve {format_curve(curve)}")
    q = curve.q
    sym2_l, sym2_l_prime = sym2_lvalues(curve)
    slope_paper, slope_real = slope_from_L(q, sym2_l)
    divisors = divisors_squarefree(q)
    out = {
        "q": q,
        "vol": volume(q),
        "sym2_l": sym2_l,
        "sym2_l_prime": sym2_l_prime,
        "slope_paper": slope_paper,
        "slope_real": slope_real,
        "shift_a": {str(d): shift_coefficients(q, d)[0] for d in divisors},
        "shift_b": shift_coefficients(q, q)[1],  # B does not depend on d
        "shifts": {str(d): shift_value(q, d, sym2_l, sym2_l_prime) for d in divisors},
        "zeta_prime_2": ZETA_PRIME_2,
        "petersson_norm_sq": None,
        "petersson_mesh_error": None,
        "petersson_nodes": None,
        "sym2_l_recovered": None,
    }
    if f is not None:
        res = petersson_quadrature(f)
        if res.truncated:
            raise TruncationError(
                f"the Petersson quadrature cut {res.truncated} (class, x-node) columns "
                f"short of their certified length at N = {f.n_max}; raise --n-max"
            )
        out["petersson_norm_sq"] = res.value
        out["petersson_mesh_error"] = res.mesh_error
        out["petersson_nodes"] = res.nodes
        out["sym2_l_recovered"] = sym2_l_from_petersson(f, res.value)
    return out
