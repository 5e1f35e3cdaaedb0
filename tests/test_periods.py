"""Period table and symbol evaluation.

The heavy consistency evidence lives here: the closed-form cusp data are
checked as an exact Atkin-Lehner factorization and against a direct
slash-identity evaluation at a generic point for every class, the table
relations are certified, and the Manin-path evaluator is cross-checked
against a one-matrix direct oracle.
"""
import builtins
import math
import os
import random
from array import array
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modsym import curves, eigenform, periods
from modsym.curves import CacheFormatError, CurveSpec
from modsym.eigenform import (
    Eigenform,
    TruncationError,
    _series,
    build_eigenform,
    certified_terms,
    coeffs_cache_path,
    lfun1,
    load_or_build_eigenform,
    read_coeffs_cache,
    write_coeffs_cache,
)
from modsym.exactmath import atkin_lehner_matrix, cf_decompose, p1_table, squarefree_factors
from modsym.periods import (
    LATTICE_BOUND,
    ExpansionShift,
    PeriodTable,
    build_period_table,
    certify_lattice,
    cusp_shift,
    direct_symbol_oracle,
    hecke_residual,
    period_sum,
    read_table_cache,
    symbol,
    table_cache_path,
    table_terms,
    write_table_cache,
)
from modsym.scanstats import SymbolStore

# integer 2x2 matrices as (a, b, c, d) tuples
T_MAT = (1, 1, 0, 1)
T_INV = (1, -1, 0, 1)
V_MAT = (1, 0, 15, 1)  # generator with lower-left divisible by the level


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _completion(c: int, d: int):
    """A unimodular (a, b; c, d) for coprime c and d."""
    if c == 0:
        return (d, 0, 0, d)  # d = +-1
    a = pow(d, -1, abs(c))
    return (a, (a * d - 1) // c, c, d)


# ---------------------------------------------------------------------------
# cusp-expansion data


def test_cusp_shift_frozen_at_path_reversal(form15):
    # S = (0, -1; 1, 0) has bottom row (1, 0)
    sh = cusp_shift(1, 0, form15)
    assert sh == ExpansionShift(e=-1, m=0, v=15)
    assert sh.arg == (1j + 0) / 15


def test_cusp_shift_upper_triangular(form15):
    # (1, 5; 0, 1) has bottom row (0, 1)
    sh = cusp_shift(0, 1, form15)
    assert sh == ExpansionShift(e=1, m=0, v=1)


def test_cusp_shift_sign_normalization(form15):
    # -g for g = (2, 1; 7, 4)
    assert cusp_shift(-7, -4, form15) == cusp_shift(7, 4, form15)


def test_cusp_shift_is_class_function(form15):
    # left multiplication by level-15 elements must not change the shift data
    classes = p1_table(15)
    rng = random.Random(99)
    for c, d in classes.reps:
        g = _completion(c, d)
        base = cusp_shift(c, d, form15)
        for _ in range(4):
            gamma = T_MAT if rng.random() < 0.5 else T_INV
            if rng.random() < 0.5:
                gamma = _mul(gamma, V_MAT)
            _, _, h_c, h_d = _mul(gamma, g)
            assert cusp_shift(h_c, h_d, form15) == base


_SQUAREFREE = [q for q in range(1, 501) if all(q % (p * p) for p in range(2, 23))]


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from(_SQUAREFREE),
    c=st.integers(-10**6, 10**6),
    d=st.integers(-10**6, 10**6),
)
@example(q=15, c=1, d=0)
@example(q=15, c=0, d=-1)
@example(q=1, c=5, d=3)
def test_cusp_shift_factors_through_atkin_lehner(q, c, d):
    """h (v, -m; 0, 1) adj(W_v)/v lies in Gamma_0(q) for a completion h
    of (c, d), so h (v, -m; 0, 1) = gamma W_v is an Atkin-Lehner matrix."""
    assume(math.gcd(c, d) == 1)
    # a stand-in form of level q with a(p) = 1, so the sign -1, at each p | q
    coeffs = [0] * (q + 1)
    for p in squarefree_factors(q):
        coeffs[p] = 1
    f = SimpleNamespace(q=q, coeffs=coeffs)
    sh = cusp_shift(c, d, f)
    v = sh.v
    assert v == q // math.gcd(c, q) and 0 <= sh.m < v
    assert sh.e == (-1) ** len(squarefree_factors(v))
    w_a, w_b, w_c, w_d = atkin_lehner_matrix(v, q)
    p = _mul(_mul(_completion(c, d), (v, -sh.m, 0, 1)), (w_d, -w_b, -w_c, w_a))
    assert all(x % v == 0 for x in p)
    g_a, g_b, g_c, g_d = (x // v for x in p)
    assert g_a * g_d - g_b * g_c == 1 and g_c % q == 0


def _form_value(f, z, tol):
    """f(z) = sum a(n) e(nz), its series certified to tol at z."""
    n_terms = certified_terms(f, z.imag, tol)
    return _series(np.array([z]), np.asarray(f.coeffs)[1 : n_terms + 1].astype(np.float64))[0]


@pytest.fixture(scope="module")
def form57_slash():
    """57a1 with enough coefficients for f(g(w)) at every class of level 57."""
    return build_eigenform(CurveSpec(0, -1, 1, -2, 2), n_max=20000)


def test_cusp_shift_slash_identity_every_class(form15, form57_slash):
    """f|g read through the closed form equals the direct evaluation.

    For a lift g of each class of 15a1 and of 57a1 the claim is
    e * (1/v) * f((w + m)/v) = (c w + d)^(-2) f(g(w)); both sides are
    evaluated at a generic point to a certified tolerance.
    """
    w = 0.1 + 1.1j
    for f, n_classes in ((form15, 24), (form57_slash, 80)):
        classes = p1_table(f.q)
        assert len(classes) == n_classes
        for c, d in classes.reps:
            g_a, g_b, _, _ = _completion(c, d)
            sh = cusp_shift(c, d, f)
            lhs = sh.e * (1 / sh.v) * _form_value(f, (w + sh.m) / sh.v, 1e-10)
            gz = (g_a * w + g_b) / (c * w + d)
            rhs = _form_value(f, gz, 1e-10) / (c * w + d) ** 2
            assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1e-3)


# ---------------------------------------------------------------------------
# period table build and relations


def test_period_table_shape_and_relations(table15):
    assert len(table15.classes) == 24
    assert len(table15.values) == 24
    # path reversal reuses the same two antiderivative values, so the
    # two-term defect is structurally zero at build time
    assert table15.residual_two == 0.0
    assert table15.residual_three < 3e-12


@pytest.mark.parametrize("curve,q,n_terms", [((1, 1, 1, -10, -10), 15, 84), ((0, -1, 1, -2, 2), 57, 343)])
def test_table_terms_is_the_length_the_build_certifies(curve, q, n_terms):
    assert table_terms(q) == n_terms
    spec = CurveSpec(*curve)
    build_period_table(build_eigenform(spec, n_terms))
    with pytest.raises(TruncationError, match=f"needs {n_terms} coefficients"):
        build_period_table(build_eigenform(spec, n_terms - 1))


def test_table_depends_only_on_the_certified_coefficients(form15, form15_small, table15, tmp_path):
    # 84 coefficients built, 3000 read back from the cache, and 10^5 built
    # give one table, bit for bit
    short = build_eigenform(form15.curve, table_terms(15))
    path = str(tmp_path / "coeffs.txt")
    write_coeffs_cache(path, form15_small)
    coeffs = read_coeffs_cache(path, form15.curve, form15_small.n_max)
    read = Eigenform(form15.curve, coeffs)
    for f in (short, read):
        assert build_period_table(f) == table15


def test_a_form_read_from_its_cache_keeps_the_curves_level(tmp_path, monkeypatch):
    # 57a1: the level of the form read back, and of its table, is the curve's
    spec = CurveSpec(0, -1, 1, -2, 2)
    load_or_build_eigenform(spec, 500, str(tmp_path))
    monkeypatch.setattr(eigenform, "build_eigenform", None)  # a rebuild would fail
    read = load_or_build_eigenform(spec, 500, str(tmp_path))
    assert read.curve == spec and read.q == 57
    table = build_period_table(read)
    assert table.curve == spec and table.q == 57 and len(table.classes) == 80


def test_period_tables_are_equal_by_curve_and_values(table15):
    values = table15.values
    assert PeriodTable(table15.curve, values) == table15
    assert PeriodTable(table15.curve, (-values[0], *values[1:])) != table15
    assert table15 != values


def test_period_table_refuses_values_of_another_level(table15):
    # 15a1's 24 values under 57a1's curve, whose level has 80 classes
    with pytest.raises(ValueError, match=r"24 period values for the 80 classes of P\^1\(Z/57\)"):
        PeriodTable(CurveSpec(0, -1, 1, -2, 2), table15.values)


def test_period_table_wrong_involution_signs_break_relations(form15_small):
    # a(3) flipped from -1 to +1, so the sign at 3 reads -1 in place of +1
    coeffs = array("q", form15_small.coeffs)
    coeffs[3] = -coeffs[3]
    table = build_period_table(Eigenform(form15_small.curve, coeffs))
    assert table.residual_two == 0.0  # reversal cancels for any sign data
    assert table.residual_three > 1e-4


# ---------------------------------------------------------------------------
# symbol evaluation


def test_symbol_value_at_zero_matches_lvalue(form15, table15):
    s = symbol(Fraction(0, 1), table15)
    assert abs(s.m_minus) < 1e-10
    assert s.m_plus == pytest.approx(lfun1(form15), abs=1e-8)


def test_symbol_is_odd(table15):
    rng = random.Random(13)
    for _ in range(50):
        c = rng.randrange(2, 400)
        a = rng.randrange(1, c)
        if math.gcd(a, c) != 1:
            continue
        plus = symbol(Fraction(a, c), table15)
        minus = symbol(Fraction(-a, c), table15)
        assert minus.m_minus == pytest.approx(-plus.m_minus, abs=1e-10)


def test_symbol_periodicity_is_exact(table15):
    assert symbol(Fraction(7, 5), table15) == symbol(Fraction(2, 5), table15)
    assert symbol(Fraction(-3, 5), table15) == symbol(Fraction(2, 5), table15)
    assert period_sum(Fraction(2, 5), table15) == period_sum(Fraction(17, 5), table15)


def test_symbol_at_one_half_vanishes(table15):
    # 1/2 is its own negative mod 1, so the odd symbol must vanish there
    assert abs(symbol(Fraction(1, 2), table15).m_minus) < 1e-10


def test_symbol_class_fields(table15):
    s = symbol(Fraction(4, 21), table15)
    assert (s.numer, s.denom, s.d) == (4, 21, 3)


def test_symbol_walks_the_manin_path_once(table15, monkeypatch):
    calls = []

    def counted(r):
        calls.append(r)
        return cf_decompose(r)

    monkeypatch.setattr(periods, "cf_decompose", counted)
    for r in (Fraction(0), Fraction(2, 5), Fraction(-3, 7), Fraction(4, 21), Fraction(355, 113)):
        calls.clear()
        s = symbol(r, table15)
        assert len(calls) == 1
        # the plus part keeps every bit of period_sum's value
        assert s.m_plus == -2.0 * math.pi * period_sum(r, table15).imag


# ---------------------------------------------------------------------------
# Hecke identity


@pytest.mark.parametrize("p", [2, 7])
def test_hecke_identity_random_arguments(p, form15, table15):
    rng = random.Random(2024 + p)
    worst = 0.0
    for _ in range(10):
        c = rng.randrange(2, 200)
        a = rng.randrange(1, c)
        if math.gcd(a, c) != 1:
            continue
        worst = max(worst, hecke_residual(Fraction(a, c), p, form15, table15))
    assert worst < 1e-8


C_130 = (1 << 130) + 1  # a denominator past any fixed-width integer


@pytest.mark.parametrize("a", [1, 3**80 % C_130])
def test_symbol_at_a_130_bit_denominator(a, form15, table15):
    r = Fraction(a, C_130)
    for p in (2, 7):
        assert hecke_residual(r, p, form15, table15) < 1e-10
    # the real symbol is odd, and exact on the lattice
    assert symbol(r, table15).m_minus + symbol(1 - r, table15).m_minus == 0.0


def test_hecke_residual_rejects_level_primes(form15, table15):
    with pytest.raises(ValueError):
        hecke_residual(Fraction(1, 7), 3, form15, table15)


# ---------------------------------------------------------------------------
# dual-algorithm agreement and refusal


def test_direct_oracle_agrees_with_path_evaluation(form15, table15):
    rng = random.Random(4242)
    per_class = {1: 0, 3: 0, 5: 0, 15: 0}
    while min(per_class.values()) < 3:
        c = rng.randrange(2, 61)
        a = rng.randrange(1, c)
        if math.gcd(a, c) != 1:
            continue
        d = math.gcd(c, 15)
        if per_class[d] >= 3:
            continue
        try:
            direct = direct_symbol_oracle(Fraction(a, c), form15)
        except TruncationError:
            continue
        path = period_sum(Fraction(a, c), table15)
        assert abs(path - direct) < 1e-8
        per_class[d] += 1


def test_direct_oracle_refuses_short_store(form15_small):
    with pytest.raises(TruncationError):
        direct_symbol_oracle(Fraction(1, 23), form15_small)


def test_table_build_refuses_short_store():
    # the table's lowest point is at height 1/15, where tol/4 = 2.5e-13
    # needs 84 coefficients; higher points never need more
    f50 = build_eigenform(CurveSpec(1, 1, 1, -10, -10), n_max=50)
    with pytest.raises(TruncationError, match="needs 84 coefficients but only 50"):
        build_period_table(f50)
    assert certified_terms(f50, 1.0, 1e-10) <= certified_terms(f50, 0.5, 1e-10)


# ---------------------------------------------------------------------------
# table cache


def test_table_cache_round_trip_bitwise(tmp_path, table15):
    path = tmp_path / "table.txt"
    write_table_cache(str(path), table15)
    back = read_table_cache(str(path), table15.curve)
    assert back == table15 and not back != table15  # the built table, read back
    assert back.q == table15.q
    assert np.array_equal(back.values, table15.values)
    assert back.residual_two == table15.residual_two
    assert back.residual_three == table15.residual_three


def test_table_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("wrong magic q=15 tol=1e-12\n")
    with pytest.raises(Exception):
        read_table_cache(str(path), CurveSpec(1, 1, 1, -10, -10))


def test_table_cache_rejects_missing_entries(tmp_path, table15):
    path = tmp_path / "short.txt"
    write_table_cache(str(path), table15)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(CacheFormatError):
        read_table_cache(str(path), table15.curve)


def test_table_cache_rejects_another_identity(tmp_path, table15):
    path = tmp_path / "table.txt"
    write_table_cache(str(path), table15)
    curve = table15.curve
    with pytest.raises(CacheFormatError):
        read_table_cache(str(path), CurveSpec(0, 1, 1, 20, -32))
    # a header naming another tolerance or another level beside this curve is
    # refused too
    intact = path.read_text()
    for field, other in [("tol=9.9999999999999998e-13", "tol=1e-10"), ("q=15", "q=21")]:
        path.write_text(intact.replace(f" {field} ", f" {other} ", 1))
        with pytest.raises(CacheFormatError, match=other):
            read_table_cache(str(path), curve)


def test_cache_headers_and_names_are_pinned(tmp_path, form15_small, table15):
    # a change to a header makes every cache on disk unusable, and the
    # benchmark checks the file names
    curve = table15.curve
    for write, obj, path, header in [
        (write_coeffs_cache, form15_small, coeffs_cache_path(str(tmp_path), curve, 3000),
         b"modsym-coeffs v2 q=15 N=3000 curve=1,1,1,-10,-10\n"),
        (write_table_cache, table15, table_cache_path(str(tmp_path), curve),
         b"modsym-table v2 q=15 tol=9.9999999999999998e-13 curve=1,1,1,-10,-10\n"),
    ]:
        write(path, obj)
        with open(path, "rb") as fh:
            assert fh.readline() == header
    assert sorted(os.listdir(tmp_path)) == ["coeffs-q15-N3000.txt", "table-q15-tol1e-12.txt"]


def test_table_cache_detects_tampered_values(tmp_path, table15):
    # residuals are recomputed from the parsed values, so edits surface
    path = tmp_path / "tampered.txt"
    write_table_cache(str(path), table15)
    lines = path.read_text().splitlines()
    key, re_s, im_s = lines[1].split()
    lines[1] = f"{key} {float(re_s) + 0.25!r} {im_s}"
    path.write_text("\n".join(lines) + "\n")
    back = read_table_cache(str(path), table15.curve)
    assert back.residual_two > 0.1


@pytest.mark.parametrize("column", [1, 2], ids=["real", "imag"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_table_cache_refuses_values_that_are_not_finite(tmp_path, table15, column, value):
    # a NaN slips past max() and >, so no residual gate would catch it
    path = tmp_path / "table.txt"
    write_table_cache(str(path), table15)
    lines = path.read_text().splitlines()
    parts = lines[1].split()
    parts[column] = value
    lines[1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError, match="not finite"):
        read_table_cache(str(path), table15.curve)


class _HalfWriter:
    """File stand-in that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("disk full")


def _fail_mid_write(monkeypatch):
    def half_open(path, *args, **kwargs):
        return _HalfWriter(builtins.open(path, *args, **kwargs))

    monkeypatch.setattr(curves, "open", half_open, raising=False)  # write_cache's module


def _fail_on_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)


_CACHE_IDENTITY = {
    "form15_small": lambda f: (f.curve, f.n_max),
    "table15": lambda table: (table.curve,),
}


@pytest.mark.parametrize("fail", [_fail_mid_write, _fail_on_replace])
@pytest.mark.parametrize(
    "write,read,payload",
    [
        (write_coeffs_cache, read_coeffs_cache, "form15_small"),
        (write_table_cache, read_table_cache, "table15"),
    ],
)
def test_failed_cache_write_keeps_previous_cache(
    tmp_path, monkeypatch, request, fail, write, read, payload
):
    obj = request.getfixturevalue(payload)
    path = tmp_path / "cache.txt"
    write(str(path), obj)
    before = path.read_bytes()
    fail(monkeypatch)
    with pytest.raises(OSError):
        write(str(path), obj)
    monkeypatch.undo()
    assert path.read_bytes() == before
    read(str(path), *_CACHE_IDENTITY[payload](obj))
    assert os.listdir(tmp_path) == ["cache.txt"]
    write(str(path), obj)  # a later write succeeds and leaves nothing behind
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.txt"]


# ---------------------------------------------------------------------------
# the symbol lattice


def test_table_lattice_reproduces_the_real_weights(table15):
    weights = [2.0 * math.pi * w.real for w in table15.values]
    assert table15.quantum == pytest.approx(0.798121111065892, abs=1e-12)
    assert all(type(n) is int and -127 <= n <= 127 for n in table15.lattice)
    assert table15.lattice_residual <= LATTICE_BOUND
    assert max(abs(w - table15.quantum * n) for w, n in zip(weights, table15.lattice)) == (
        table15.lattice_residual
    )


def test_certification_refuses_a_weight_moved_off_the_lattice(table15):
    bound = LATTICE_BOUND
    weights = [2.0 * math.pi * w.real for w in table15.values]
    for k in range(len(weights)):
        moved = list(weights)
        moved[k] += 1e-6
        _, _, residual = certify_lattice(moved, bound)
        assert residual > bound


def _certify_lattice_numpy(weights, bound):
    """certify_lattice as it was written on numpy arrays: the oracle."""
    weights = np.asarray(weights, dtype=np.float64)
    nonzero = np.abs(weights[np.abs(weights) > bound])
    if nonzero.size == 0:
        raise ValueError("every real class weight is zero: no symbol lattice")
    fits = []
    for j in range(1, 13):
        quantum = float(nonzero.min()) / j
        lattice = np.clip(np.rint(weights / quantum), -127, 127).astype(np.int8)
        fits.append((quantum, lattice, float(np.max(np.abs(weights - quantum * lattice)))))
    return next((fit for fit in fits if fit[2] <= bound), fits[0])


@st.composite
def _weights_and_bound(draw):
    """Weights on a lattice (|n| up to 130, past the clip) with noise below
    the bound, some of them moved off it, or arbitrary floats; the bound is
    LATTICE_BOUND's formula at one of four table tolerances."""
    bound = 2.0 * math.pi * 10.0 * draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
    size = draw(st.integers(1, 30))
    if draw(st.booleans()):
        return draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)), bound
    quantum = draw(st.floats(0.01, 10.0))
    ns = draw(st.lists(st.integers(-130, 130), min_size=size, max_size=size))
    noise = draw(st.lists(st.floats(-0.99, 0.99), min_size=size, max_size=size))
    weights = [quantum * n + bound * e for n, e in zip(ns, noise)]
    for k in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        weights[k] += draw(st.floats(bound, bound + quantum))
    return weights, bound


@settings(max_examples=300, deadline=None)
@given(_weights_and_bound())
@example(([2.0, 5.0, -3.0, 7.0, 3.3], 1e-9))  # no j fits: the j = 1 fit, halves to even
@example(([0.0, 1e-20, -0.0], 1e-9))  # no weight above the bound
def test_certify_lattice_matches_the_numpy_formulation(case):
    weights, bound = case
    try:
        want = _certify_lattice_numpy(weights, bound)
    except ValueError:
        with pytest.raises(ValueError):
            certify_lattice(weights, bound)
        return
    quantum, lattice, residual = certify_lattice(weights, bound)
    assert quantum == want[0]
    assert lattice == tuple(int(n) for n in want[1])
    assert residual == want[2]


def test_cached_table_rederives_the_lattice(tmp_path, table15):
    path = tmp_path / "table.txt"
    write_table_cache(str(path), table15)
    back = read_table_cache(str(path), table15.curve)
    assert back.quantum == table15.quantum
    assert np.array_equal(back.lattice, table15.lattice)
    assert back.lattice_residual == table15.lattice_residual


_CURVES_57 = {
    "57a1": ((0, -1, 1, -2, 2), 0.95916),
    "57b1": ((0, 1, 1, 20, -32), 0.92672),
    "57c1": ((1, 0, 1, -7, 5), 0.75202),
}


@pytest.fixture(scope="module")
def tables57():
    return {
        label: build_period_table(build_eigenform(CurveSpec(*curve), n_max=500))
        for label, (curve, _) in _CURVES_57.items()
    }


@pytest.mark.parametrize("label", sorted(_CURVES_57))
def test_conductor_57_lattices_are_certified(label, tables57):
    table = tables57[label]
    weights = [2.0 * math.pi * w.real for w in table.values]
    assert table.quantum == pytest.approx(_CURVES_57[label][1], abs=5e-6)
    # j = 1: the quantum is itself the smallest nonzero weight
    assert table.quantum == min(abs(w) for w, n in zip(weights, table.lattice) if n != 0)
    assert max(abs(n) for n in table.lattice) <= 4
    assert table.lattice_residual <= LATTICE_BOUND
    # the path of 0/1 is the class (1 : 0), where the odd symbol vanishes;
    # contiguous_avg relies on it for the term 1/1
    assert table.lattice[table.classes.index_of(1, 0)] == 0


@pytest.mark.parametrize("label", sorted(_CURVES_57))
def test_conductor_57_engine_matches_symbols(label, tables57, collected_rows):
    # each step between Farey neighbours a/c < a'/c' adds the class (c' : c)
    table = tables57[label]
    rows = collected_rows(SymbolStore(table), 300)
    for c in range(1, 301):
        dense = rows.dense(c)
        for a in range(c):
            if math.gcd(a, c) == 1:
                assert dense[a] == symbol(Fraction(a, c), table).m_minus
            else:
                assert dense[a] == 0.0


@pytest.mark.parametrize("label", sorted(_CURVES_57))
@pytest.mark.parametrize(
    "x0, x1",
    [(Fraction(0), Fraction(1)), (Fraction(1, 10), Fraction(7, 20))],
    ids=["full", "window"],
)
def test_conductor_57_counts_match_the_expanded_symbols(
    label, x0, x1, tables57, counts_match_symbols
):
    counts_match_symbols(tables57[label], 200, x0, x1)


@pytest.mark.parametrize(
    "x0, x1",
    [
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(3, 5), Fraction(9, 10)),
    ],
    ids=str,
)
def test_conductor_57_counts_on_windows_about_one_half(x0, x1, tables57, counts_match_symbols):
    # edges at 1/2, across it, and inside the half (1/2, 1) the sweep mirrors
    counts_match_symbols(tables57["57a1"], 200, x0, x1)
