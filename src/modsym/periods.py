"""Period integrals and modular symbols via the cusp expansions of f.

At squarefree level q every cusp is Atkin-Lehner equivalent to infinity, so
f slashed by any unimodular h is an expansion at infinity,
e * (1/v) * f((w + m)/v): v = q/gcd(c, q) is the width of the cusp h(infinity)
and m = d/c mod v, both read off the bottom row (c, d) of h (cusp_shift).  At
level 15 the widths are 1, 3, 5 and 15; at 57 they are 1, 3, 19 and 57.
Vertical period integrals then reduce to two evaluations of the antiderivative
per P^1(Z/q) class, giving a 2|P^1| table that evaluates any symbol through
the Manin continued-fraction path.

Sign conventions: P(r) is the period integral from i*infinity to r of f dz;
the real symbol is m_minus(r) = 2 pi Re P(r), the plus symbol is
m_plus(r) = -2 pi Im P(r).  The classical symbol is i * m_minus(r); only the
real convention is stored.  Well-definedness of individual symbols up to
cusp-pair offsets is inherited from the period table's relation residuals,
which the build records and the gates check.

By Manin-Drinfeld every real class weight 2 pi Re W_k is an integer multiple
n_k of one quantum; the table certifies that lattice (certify_lattice, to
LATTICE_BOUND) and the real symbol is evaluated exactly as quantum * sum n_k.

Every table is certified to the one tolerance TABLE_TOL, and the curve alone
names it.  It holds |P^1(Z/q)| entries (24 at q = 15), so it is plain Python:
building it (2|P^1| cmath series, 84 terms at q = 15), reading it and
evaluating symbols load no numpy.  The direct oracle sums antiderivative_batch's
numpy series, so verify's dual_algorithm gate also pits two series codes.

Nor does this module load eigenform: the four names it calls from there
(al_sign, antiderivative_batch, certified_terms, terms_needed) are imported
where they are called, so reading a cached table and evaluating symbols on it
compile only curves and exactmath beside this module.
"""
from __future__ import annotations

import cmath
import math
import os
from collections import namedtuple

from .curves import CacheFormatError, CurveSpec, Frozen, format_curve, read_cache, write_cache
from .exactmath import (
    P1Table,
    _crt_least_abs,
    atkin_lehner_matrix,
    cf_decompose,
    p1_table,
)

# the names this module calls from eigenform, each imported where it is
# called: a symbol read off a cached table never loads that layer
_EIGENFORM_NAMES = ("al_sign", "antiderivative_batch", "certified_terms", "terms_needed")


def __getattr__(name: str):
    if name not in _EIGENFORM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import eigenform
    return getattr(eigenform, name)


TABLE_TOL = 1e-12  # the period table's tolerance, to which every class value is certified
LATTICE_BOUND = 2.0 * math.pi * 10.0 * TABLE_TOL  # largest accepted |2 pi Re W_k - n_k * quantum|


class ExpansionShift(namedtuple("ExpansionShift", "e m v")):
    """Data of f|h = e * (1/v) * f((w + m)/v) for unimodular h.

    v = q/gcd(c, q) is the width of the cusp h(infinity) for the lower-left
    entry c of h, e the Atkin-Lehner sign at v, and 0 <= m < v.  The
    split-at-i argument is (i + m)/v, whose imaginary part 1/v is at least 1/q.
    """

    __slots__ = ()

    @property
    def arg(self) -> complex:
        return (1j + self.m) / self.v


def cusp_shift(c: int, d: int, f: Eigenform) -> ExpansionShift:
    """The expansion data of f|h for any unimodular h with bottom row (c, d).

    With q = f.q, g = gcd(c, q) and v = q/g, m = d * c^-1 mod v (0 when v = 1):
    q is squarefree, so no prime of v divides c, and c is a unit mod v.

    Proof, for h = (a, b; c, d) and K = (v, -m; 0, 1).  h K =
    (v a, b - m a; v c, d - m c) has determinant v, and v divides its
    top-left entry.  q = g v divides its bottom-left entry, because g | c, and
    v divides its bottom-right entry exactly when m = d/c (mod v).  So h K is
    an Atkin-Lehner matrix W_v of level q, and f|h = f|W_v|K^-1 =
    e_v * (1/v) * f((w + m)/v).  Only d mod v enters, so every lift of a
    P^1(Z/q) class gives the same data.
    """
    from .eigenform import al_sign
    v = f.q // math.gcd(c, f.q)
    m = d * pow(c, -1, v) % v
    return ExpansionShift(al_sign(f, v), m, v)


class PeriodTable:
    """One period value per P^1(Z/q) class, q the curve's level, certified to
    TABLE_TOL; plain tuples.  Built or read, the table is (curve, values), and
    construction derives the rest, so two tables are equal when those are.
    values[k] is the complex integral of f dz
    along the unimodular path g(0) -> g(infinity) for any lift g of class k;
    it is a class function because f dz is level-q invariant.
    residual_two/three are the worst two-term and three-term relation defects
    of the values.  lattice[k] is the int n_k in [-127, 127] with
    2 pi Re values[k] ~ n_k * quantum, and lattice_residual the worst deviation
    |2 pi Re W_k - n_k quantum|; the range refuses a spurious tiny quantum.
    """

    __slots__ = ("curve", "values", "classes", "residual_two", "residual_three", "quantum",
                 "lattice", "lattice_residual")

    def __init__(self, curve: CurveSpec, values: tuple[complex, ...]):
        self.curve = curve
        self.values = values
        self.classes = p1_table(self.q)
        if len(self.values) != len(self.classes):
            raise ValueError(f"{len(self.values)} period values for the {len(self.classes)} "
                             f"classes of P^1(Z/{self.q})")
        self.residual_two, self.residual_three = _relation_residuals(self.classes, self.values)
        self.quantum, self.lattice, self.lattice_residual = certify_lattice(
            [2.0 * math.pi * w.real for w in self.values], LATTICE_BOUND
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.curve, self.values) == (other.curve, other.values)

    @property
    def q(self) -> int:
        return self.curve.q


def _relation_residuals(classes: P1Table, values: tuple[complex, ...]) -> tuple[float, float]:
    # At build time the two-term defect is structurally zero: the expansion
    # shift depends only on the class, so the S-partner reuses the same two
    # antiderivative values with opposite signs (path reversal).  It still
    # guards cached tables, whose values are re-checked after parsing.  The
    # three-term defect spans six independent evaluations and is the real
    # float certification.
    r2 = 0.0
    r3 = 0.0
    for k, (c, d) in enumerate(classes.reps):
        k_s = classes.index_of(d, -c)
        r2 = max(r2, abs(values[k] + values[k_s]))
        k_u = classes.index_of(c + d, -c)
        k_uu = classes.index_of(d, -c - d)
        r3 = max(r3, abs(values[k] + values[k_u] + values[k_uu]))
    return r2, r3


def certify_lattice(weights, bound: float) -> tuple[float, tuple[int, ...], float]:
    """Fit the real class weights onto the integer multiples of one quantum.

    Tries quantum = (smallest weight above bound) / j for j = 1..12 and keeps
    the first that puts every weight within bound of a multiple n in
    [-127, 127], n the weight over the quantum rounded half to even.
    Returns (quantum, lattice, residual); when no j fits, the j = 1 fit, whose
    residual then exceeds bound, so the caller's gate refuses the table.
    The clamp refuses a spurious tiny quantum: unclamped, a zero weight of 15a1
    moved by 1e-6 fits quantum 1.1e-7 with |n| up to 1.4e7, its residual
    4.9e-11 under the bound 6.3e-11.
    """
    nonzero = [abs(w) for w in weights if abs(w) > bound]
    if not nonzero:
        raise ValueError("every real class weight is zero: no symbol lattice")
    fits = []
    for j in range(1, 13):
        quantum = min(nonzero) / j
        lattice = tuple(round(min(127.0, max(-127.0, w / quantum))) for w in weights)
        residual = max(abs(w - quantum * n) for w, n in zip(weights, lattice))
        fits.append((quantum, lattice, residual))
    return next((fit for fit in fits if fit[2] <= bound), fits[0])


def table_terms(q: int) -> int:
    """build_period_table's certified length: its lowest height is 1/q, at (1:0)."""
    from .eigenform import terms_needed
    return terms_needed(1.0 / q, TABLE_TOL / 4.0)


def build_period_table(f: Eigenform) -> PeriodTable:
    """Evaluate the period of every class from two antiderivative values.

    Splitting the path at height i gives
    W(g) = -e_g F(arg_g) + e_{gS} F(arg_{gS}); each F evaluation is
    certified to tol/4, tol = TABLE_TOL, so the two-term relation is
    certified below tol (gate 2*tol) and the three-term below 1.5*tol
    (gate 3*tol).  F is summed term by term in Python, not by antiderivative_batch.
    """
    from .eigenform import certified_terms
    # a lift g of the class (c : d) has bottom row (c, d), and g S has (d, -c)
    shifts = [(cusp_shift(c, d, f), cusp_shift(d, -c, f)) for c, d in p1_table(f.q).reps]
    n_terms = certified_terms(f, min(sh.arg.imag for p in shifts for sh in p), TABLE_TOL / 4.0)
    coef = [a / (2j * math.pi * n) for n, a in enumerate(f.coeffs[1 : n_terms + 1].tolist(), 1)]

    def antiderivative(z: complex) -> complex:
        total, step = 0j, 2j * math.pi * z
        for n, c in enumerate(coef, 1):
            total += c * cmath.exp(step * n)
        return total

    values = tuple(
        -sh_g.e * antiderivative(sh_g.arg) + sh_gs.e * antiderivative(sh_gs.arg)
        for sh_g, sh_gs in shifts
    )
    return PeriodTable(f.curve, values)


def _path_classes(r: Fraction | Cusp, table: PeriodTable) -> list[int]:
    """Classes along the Manin path of r, the same for r + 1 (exact
    periodicity): the bottom rows of the path matrices, which name the
    classes, do not depend on the integer part of r."""
    return [table.classes.index_of(c_j, d_j) for _, _, c_j, d_j in cf_decompose(r)]


def period_sum(r: Fraction | Cusp, table: PeriodTable) -> complex:
    """P(r) along the Manin path, which is 1-periodic exactly."""
    return sum((table.values[k] for k in _path_classes(r, table)), 0j)


def hecke_residual(r: Fraction, p: int, f: Eigenform, table: PeriodTable) -> float:
    """Defect of the Hecke identity a_p P(r) = P(pr) + sum_b P((r+b)/p).

    Valid for primes p not dividing the level; every argument stays an exact
    Fraction, so the residual is purely the table's float error.
    """
    if f.q % p == 0:
        raise ValueError(f"{p} divides the level {f.q}")
    lhs = int(f.coeffs[p]) * period_sum(r, table)
    rhs = period_sum(p * r, table)
    for b in range(p):
        rhs += period_sum((r + b) / p, table)
    return abs(lhs - rhs)


SymbolValue = namedtuple("SymbolValue", "numer denom d m_minus m_plus")
SymbolValue.__doc__ = "Evaluated symbol at a/c: real value, plus part, and the level gcd."


def symbol(r: Fraction | Cusp, table: PeriodTable) -> SymbolValue:
    """Both symbol components at the rational r, reduced into [0, 1), from
    one walk of the Manin path: m_minus is exact on the certified lattice,
    quantum times the path's integer sum, and m_plus is period_sum's value."""
    c = r.denominator
    ks = _path_classes(r, table)
    return SymbolValue(
        numer=r.numerator % c,
        denom=c,
        d=math.gcd(c, table.q),
        m_minus=table.quantum * sum(table.lattice[k] for k in ks),
        m_plus=-2.0 * math.pi * sum((table.values[k] for k in ks), 0j).imag,
    )


class ScanSpec(Frozen):
    """What to sample: denominator bound, gcd class, interval [x0, x1), whose
    ends are Fractions or the ints 0 and 1.  It is here, not in scanstats, so
    the shell's RunConfig subclasses it without that layer."""

    __slots__ = ("q", "m_max", "d_filter", "x0", "x1")

    def __init__(self, q: int, m_max: int, d_filter: int | str = "all",
                 x0: Fraction | int = 0, x1: Fraction | int = 1):
        for name, value in zip(ScanSpec.__slots__, (q, m_max, d_filter, x0, x1)):
            object.__setattr__(self, name, value)
        if m_max < 1:
            raise ValueError("m_max must be at least 1")
        if not (0 <= x0 < x1 <= 1):
            raise ValueError("interval must satisfy 0 <= x0 < x1 <= 1")
        if d_filter != "all" and (not isinstance(d_filter, int) or d_filter < 1 or q % d_filter):
            raise ValueError(f"d_filter {d_filter!r} is not a positive divisor of {q}")

    def wants(self, c: int) -> bool:
        return self.d_filter == "all" or math.gcd(c, self.q) == self.d_filter


def direct_symbol_oracle(r: Fraction | Cusp, f: Eigenform) -> complex:
    """Independent evaluation of P(r) from a single scaled coset matrix.

    Builds the determinant-1 real matrix M = (a sqrt(v), B/sqrt(v);
    c sqrt(v), D/sqrt(v)) carrying i*infinity to r inside the coset of the
    width-v cusp scaling, splits the path at M(it), and evaluates
    P(r) = F(M(it)) - e_v F(it - y/v) to within 1e-10.  The height
    t = |D|/(c v) maximizes the smaller of the two evaluation heights;
    refuses with TruncationError when the certified truncation at that
    height exceeds the available coefficients.
    """
    from .eigenform import al_sign, antiderivative_batch
    q = f.q
    c = r.denominator
    a = r.numerator % c
    d = math.gcd(c, q)
    v = q // d
    r1 = pow(a, -1, c)
    r2 = c * pow(d, -1, v) % v
    big_d = _crt_least_abs(r1, c, r2, v)
    big_b = (a * big_d - 1) // c
    assert a * big_d - big_b * c == 1
    _, y_shift, _, _ = atkin_lehner_matrix(v, q)
    t = abs(big_d) / (c * v)
    z1 = (a * v * 1j * t + big_b) / (c * v * 1j * t + big_d)
    z2 = -y_shift / v + 1j * t
    f1, f2 = antiderivative_batch(f, [z1, z2], 1e-10 / 2.0)
    return complex(f1 - al_sign(f, v) * f2)


# ---------------------------------------------------------------------------
# Period table cache

_TABLE_MAGIC = "modsym-table v2"


def table_cache_path(cache_dir: str, curve: CurveSpec) -> str:
    return os.path.join(cache_dir, f"table-q{curve.q}-tol{TABLE_TOL!r}.txt")


def _table_identity(curve: CurveSpec) -> dict:
    return {"q": curve.q, "tol": f"{TABLE_TOL:.17g}", "curve": format_curve(curve)}


def write_table_cache(path: str, table: PeriodTable) -> None:
    body = (
        f"{c}:{d} {w.real:.17g} {w.imag:.17g}"
        for (c, d), w in zip(table.classes.reps, table.values)
    )
    write_cache(path, _TABLE_MAGIC, _table_identity(table.curve), body)


def read_table_cache(path: str, curve: CurveSpec) -> PeriodTable:
    """Reload the table of this curve, written at TABLE_TOL, which must list
    every class once, in canonical order; %.17g round-trips doubles exactly."""
    rows = list(read_cache(path, _TABLE_MAGIC, _table_identity(curve)))
    if [key for key, _, _ in rows] != [f"{c}:{d}" for c, d in p1_table(curve.q).reps]:
        raise CacheFormatError("period table does not list each class once, in order")
    values = tuple(float(re_s) + 1j * float(im_s) for _, re_s, im_s in rows)
    if not all(map(cmath.isfinite, values)):  # max() and > would pass a NaN through every gate
        raise CacheFormatError("period table holds a value that is not finite")
    return PeriodTable(curve, values)
