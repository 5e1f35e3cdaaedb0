"""Closed-form constants, the limit profile, and the Petersson quadrature.

The zeta'(2) constant is re-derived by Euler-Maclaurin summation, the
variance slope/shift values are frozen, and the quadrature route to the
symmetric-square L-value is checked against the tabled value it is meant
to replace.
"""
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from modsym import theory
from modsym.curves import CurveSpec, format_curve, parse_curve
from modsym.eigenform import Eigenform, _series, build_eigenform, terms_needed
from modsym.exactmath import p1_table
from modsym.periods import cusp_shift
from modsym.theory import (
    SYM2_LVALUES,
    ZETA_PRIME_2,
    build_theory,
    ghat,
    ghat_tail_certificate,
    petersson_quadrature,
    shift_coefficients,
    shift_value,
    slope_from_L,
    sym2_l_from_petersson,
    sym2_lvalues,
    volume,
)

CURVE_15A1 = (1, 1, 1, -10, -10)
L1_15A1 = 0.9364885435
L1P_15A1 = 0.03534541
SLOPE_REAL_15A1 = 0.3558229788559085
SHIFT_TARGETS = {1: -0.440048, 3: -0.244592, 5: -0.153710, 15: 0.041745}


# ---------------------------------------------------------------------------
# constants


def test_zeta_prime_2_euler_maclaurin_oracle():
    """Re-derive zeta'(2) = -sum ln(n)/n^2 independently of the frozen value.

    Tail beyond N via Euler-Maclaurin with g(x) = ln(x)/x^2:
    integral (ln N + 1)/N, then g/2 - g'/12 + g'''/720; the next term is
    O(ln N / N^7), far below the asserted tolerance at N = 100.
    """
    n_cut = 100
    partial = sum(math.log(n) / n**2 for n in range(1, n_cut))
    x = float(n_cut)
    g = math.log(x) / x**2
    g1 = (1.0 - 2.0 * math.log(x)) / x**3
    g3 = (26.0 - 24.0 * math.log(x)) / x**5
    total = partial + (math.log(x) + 1.0) / x + g / 2.0 - g1 / 12.0 + g3 / 720.0
    assert -total == pytest.approx(ZETA_PRIME_2, abs=1e-11)


def test_zeta_prime_2_against_mpmath():
    import mpmath

    with mpmath.workdps(30):
        ref = float(mpmath.zeta(2, 1, 1))
    assert ZETA_PRIME_2 == pytest.approx(ref, abs=1e-15)


def test_volume_closed_forms():
    assert volume(15) == pytest.approx(8.0 * math.pi, rel=1e-15)
    assert volume(2) == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        volume(9)


def test_slope_frozen_value(lfix):
    l1, _ = lfix
    c_paper, c_real = slope_from_L(15, l1)
    assert c_paper == -c_real
    assert c_real == pytest.approx(SLOPE_REAL_15A1, abs=1e-15)


@pytest.mark.parametrize("d,target", sorted(SHIFT_TARGETS.items()))
def test_shift_values_frozen(d, target, lfix):
    l1, l1p = lfix
    assert shift_value(15, d, l1, l1p) == pytest.approx(target, abs=1e-4)


def test_shift_coefficients_structure():
    a_by_d = {}
    b_by_d = {}
    for d in (1, 3, 5, 15):
        a, b = shift_coefficients(15, d)
        a_by_d[d] = a
        b_by_d[d] = b
    # B carries no class dependence and is negative
    assert len(set(b_by_d.values())) == 1
    assert b_by_d[1] < 0
    # A grows with d: the -log(q/d)/2 term shrinks in magnitude
    assert a_by_d[1] < a_by_d[3] < a_by_d[5] < a_by_d[15]
    with pytest.raises(ValueError):
        shift_coefficients(15, 4)


# ---------------------------------------------------------------------------
# limit profile


def _first(f, n):
    """The form f cut to its first n coefficients: ghat sums all of a form's."""
    return Eigenform(f.curve, f.coeffs[: n + 1])


def test_profile_vanishes_at_the_endpoints(form15):
    vals = ghat(_first(form15, 20000), [0.0, 1.0])
    assert vals[0] == 0.0
    assert abs(vals[1]) < 1e-12


def test_profile_symmetry(form15):
    xs = np.array([0.1, 0.25, 0.4])
    left = ghat(_first(form15, 20000), xs)
    right = ghat(_first(form15, 20000), 1.0 - xs)
    assert np.max(np.abs(left - right)) < 1e-12


def test_profile_in_place_matches_the_expression_bitwise(form15):
    # the expression ghat evaluated before it worked in place, block for block
    xs = np.linspace(0.0, 1.0, 101)
    n, step = 40000, 1 << 14
    want = np.zeros(xs.shape)
    for lo in range(1, n + 1, step):
        ns = np.arange(lo, min(lo + step - 1, n) + 1, dtype=np.float64)
        w = np.asarray(form15.coeffs)[lo : lo + ns.size] / (ns * ns)
        want += (w * (1.0 - np.cos(2.0 * np.pi * np.outer(xs, ns)))).sum(axis=1)
    assert ghat(_first(form15, n), xs).tolist() == (want / (2.0 * np.pi)).tolist()


def test_profile_temporaries_stay_small(form15):
    # a grid-by-block temporary for all 101 points took 13 MB
    tracemalloc.start()
    try:
        ghat(form15, np.linspace(0.0, 1.0, 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_profile_truncation_certificate(form15):
    xs = np.linspace(0.0, 1.0, 11)
    coarse = ghat(_first(form15, 2000), xs)
    fine = ghat(_first(form15, 4000), xs)
    measured = float(np.max(np.abs(fine - coarse)))
    assert measured <= ghat_tail_certificate(2000)
    assert ghat_tail_certificate(4000) < ghat_tail_certificate(2000)


# ---------------------------------------------------------------------------
# Petersson quadrature


def test_petersson_quadrature_self_checks(petersson15):
    assert petersson15.value > 0
    assert petersson15.mesh_error < 1e-5  # the tolerance verify holds it to


def test_petersson_recovers_fixture_lvalue(form15, petersson15, lfix):
    recovered = sym2_l_from_petersson(form15, petersson15.value)
    assert recovered == pytest.approx(lfix[0], rel=1e-3)


def test_petersson_regression_value(petersson15):
    assert petersson15.value == pytest.approx(0.056629823041199435, rel=1e-6)


def test_slope_norm_closure_identity(form15_small):
    # the quadrature inversion and the slope formula compose to
    # C = -16 pi^2 x / vol for any x, independent of the L-data
    for x in (0.03, 0.0566298):
        c_paper, _ = slope_from_L(15, sym2_l_from_petersson(form15_small, x))
        assert c_paper == pytest.approx(
            -16.0 * math.pi**2 * x / volume(15), rel=1e-12
        )


def test_petersson_coarse_run_stays_within_requested_tol(form15):
    rough = petersson_quadrature(form15, tol=1e-3)
    assert rough.mesh_error < 1e-3
    # a coarse node count is only promised the requested tolerance
    assert rough.value == pytest.approx(0.056629823041199435, abs=1e-3)


def test_petersson_quadrature_is_frozen_bit_for_bit(form15_small):
    # any change to node placement or summation order moves these bits;
    # test_width_kernel_matches_the_per_class_oracle bounds a deliberate move.
    # The default tolerance's pair is the one verify reports
    rough = petersson_quadrature(form15_small, tol=1e-3)
    assert rough.value == 0.05654015872824968
    assert rough.mesh_error == 2.1230408320249694e-08
    assert rough.truncated == 0
    default = petersson_quadrature(form15_small)
    assert default.value == 0.056629823041196584
    assert default.mesh_error == 2.7832072188593848e-08
    assert default.truncated == 0


def test_petersson_quadrature_temporaries_stay_small(form15):
    # the x-node blocks keep their temporaries near 1 MB, and the peak of
    # 1.5 MB is the cutoffs' two arrays of 8 bytes a coefficient at N = 10^5;
    # with every x-node of a pass in one block the peak was 4.2 MB
    petersson_quadrature(form15)  # the rules and the class table, made once
    tracemalloc.start()
    try:
        petersson_quadrature(form15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_petersson_quadrature_computes_each_rule_once(form15_small, monkeypatch):
    orders = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        orders.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    petersson_quadrature(form15_small, tol=1e-3)
    assert orders == [4, 8]  # coarse and fine node counts, once each


@pytest.fixture
def leggauss_orders(monkeypatch):
    """The orders of the Gauss-Legendre rules computed while the test runs."""
    orders = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        orders.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    return orders


@pytest.mark.parametrize("tol,orders", [(1e-5, [4, 8]), (1e-9, [4, 8, 16])])
def test_petersson_doubles_its_order_until_the_passes_meet_tol(
    form15, tol, orders, leggauss_orders
):
    got = petersson_quadrature(form15, tol=tol)
    assert leggauss_orders == orders  # each order once; the 8/16 estimate is about 1.6e-15
    assert got.nodes == orders[-1]
    assert got.mesh_error <= tol


def test_petersson_stops_doubling_at_its_cap(form15_small, leggauss_orders, monkeypatch):
    def never_agreeing(f, width, ms, tol_tail, rule, x_panels):
        return float(len(rule[0])), 0

    monkeypatch.setattr(theory, "_width_integral", never_agreeing)
    got = petersson_quadrature(form15_small, tol=1e-5)
    assert leggauss_orders == [4, 8, 16, 32, 64]
    assert got.nodes == theory.PETERSSON_MAX_NODES == 64
    assert got.mesh_error > 1e-5  # the estimate still misses tol, for verify's gate to fail


def test_petersson_quadrature_on_conductor_57():
    f = build_eigenform(CurveSpec(0, -1, 1, -2, 2), n_max=3000)
    got = petersson_quadrature(f, tol=1e-5)
    assert got.truncated == 0
    assert got.mesh_error <= 1e-5
    # the value of the fixed order-12/24 pass pair this quadrature replaced
    assert got.value == pytest.approx(0.5399044026268532, rel=1e-12)


@pytest.fixture(scope="module")
def form57_short():
    """57a1 with too few coefficients to certify every column of the quadrature."""
    return build_eigenform(CurveSpec(0, -1, 1, -2, 2), n_max=100)


def _per_class_quadrature(f, tol, orders):
    """Oracle: the quadrature one class at a time at each Gauss-Legendre order
    of orders, each class's series summed over every (point, term) pair in
    complex exponentials.

    Returns (value, mesh_error, truncated, shifts, lengths) from the
    last two orders, where lengths[nodes, k] lists the series length of class k
    at each x-node of the pass with that node count.
    """
    classes = p1_table(f.q)
    tol_tail = tol / (2.0 * len(classes))
    coeff_abs = np.abs(np.asarray(f.coeffs)[1:].astype(np.float64))
    shifts = [cusp_shift(c, d, f) for c, d in classes.reps]
    cutoffs = [theory._class_cutoff(coeff_abs, sh.v, tol_tail) for sh in shifts]
    passes, truncated, lengths = [], 0, {}
    for nodes in orders:
        rule = np.polynomial.legendre.leggauss(nodes)
        x_panels = theory._map_rule(rule, [-0.5 + j / 8 for j in range(9)])
        passes.append(0.0)
        for k, (sh, cutoff) in enumerate(zip(shifts, cutoffs)):
            total = 0.0
            for x, wx in zip(*x_panels):
                edges = [math.sqrt(max(1.0 - x * x, 0.0))]
                while edges[-1] < cutoff:
                    edges.append(min(edges[-1] * 1.6, cutoff))
                ys, wys = theory._map_rule(rule, edges)
                zs = (x + 1j * ys + sh.m) / sh.v
                n_terms = terms_needed(float(zs.imag.min()), tol_tail * 1e-3)
                truncated += n_terms > f.n_max and nodes in orders[-2:]
                n_terms = min(n_terms, f.n_max)
                lengths.setdefault((nodes, k), []).append(n_terms)
                vals = _series(zs, np.asarray(f.coeffs)[1 : n_terms + 1])
                total += wx * float(np.sum(wys * np.abs(vals) ** 2))
            passes[-1] += (1 / sh.v) ** 2 * total
    coarse, fine = passes[-2:]
    return fine, abs(fine - coarse), truncated, shifts, lengths


@pytest.mark.parametrize(
    "form,tol", [("form15_small", 1e-3), ("form15", 1e-5), ("form57_short", 1e-3)]
)
def test_width_kernel_matches_the_per_class_oracle(form, tol, request, monkeypatch):
    f = request.getfixturevalue(form)
    # series length at each x-node, per (node count, width), as the kernel chose it
    seen = {}
    width_integral, needed = theory._width_integral, theory.terms_needed

    def recording(f, width, ms, tol_tail, rule, x_panels):
        cols = seen.setdefault((len(rule[0]), width[0]), [])

        def counted(y, tail_tol):
            n = needed(y, tail_tol)
            cols.append(min(n, f.n_max))
            return n

        monkeypatch.setattr(theory, "terms_needed", counted)
        return width_integral(f, width, ms, tol_tail, rule, x_panels)

    monkeypatch.setattr(theory, "_width_integral", recording)
    got = petersson_quadrature(f, tol=tol)
    # the orders the quadrature doubled through, from 4 to its fine pass
    orders = [2**k for k in range(2, got.nodes.bit_length())]
    value, mesh, truncated, shifts, lengths = _per_class_quadrature(
        f, tol, orders
    )
    assert got.value == pytest.approx(value, rel=1e-13)
    assert got.mesh_error == pytest.approx(mesh, abs=1e-13 * value)
    assert got.truncated == truncated
    assert set(seen) == {(nodes, shifts[k].v) for nodes, k in lengths}
    for (nodes, k), cols in lengths.items():
        assert seen[nodes, shifts[k].v] == cols
    if form == "form15":
        assert request.getfixturevalue("petersson15") == got
    if form == "form57_short":
        assert got.truncated > 0  # the count is exercised, not only its zero


def test_petersson_cutoff_runs_once_per_cusp_width(form15_small, monkeypatch):
    widths = []
    class_cutoff = theory._class_cutoff

    def counting(coeff_abs, v, tol_tail):
        widths.append(v)
        return class_cutoff(coeff_abs, v, tol_tail)

    monkeypatch.setattr(theory, "_class_cutoff", counting)
    petersson_quadrature(form15_small, tol=1e-3)
    # the 24 classes of level 15 have widths v = 1, 3, 5 and 15
    assert sorted(widths) == [1, 3, 5, 15]


# ---------------------------------------------------------------------------
# the symmetric-square table and the constants report

LEVELS = {CurveSpec(*CURVE_15A1): 15}  # the level of each curve in the table


def test_sym2_table_keys_are_curves_at_their_levels():
    assert set(SYM2_LVALUES) == set(LEVELS)
    for curve in SYM2_LVALUES:
        assert parse_curve(format_curve(curve)) == curve
        assert curve.q == LEVELS[curve]


def test_sym2_table_values_are_finite_with_positive_l1():
    # L(Sym^2 f, 1) is a positive multiple of ||f||^2 (see sym2_l_from_petersson)
    for l1, l1p in SYM2_LVALUES.values():
        assert 0 < l1 < math.inf
        assert math.isfinite(l1p)


def test_sym2_lvalues_are_frozen(lfix):
    assert lfix == (L1_15A1, L1P_15A1)


def test_default_fixture_ships_with_the_package():
    # the L-values are code: the package is Python files only, all that a
    # wheel built without package-data holds
    package = os.path.dirname(theory.__file__)
    assert all(name.endswith(".py") for name in os.listdir(package) if name != "__pycache__")


def test_default_fixture_names_its_curve():
    message = r"no L\(Sym\^2 f, 1\) for curve 0,-1,1,-2,2, only for 1,1,1,-10,-10$"
    with pytest.raises(ValueError, match=message):
        sym2_lvalues(CurveSpec(0, -1, 1, -2, 2))


def test_build_theory_report_round_trips(lfix):
    payload = json.loads(json.dumps(build_theory(CurveSpec(*CURVE_15A1))))
    assert (payload["sym2_l"], payload["sym2_l_prime"]) == lfix
    assert payload["q"] == 15
    assert payload["vol"] == pytest.approx(8.0 * math.pi)
    assert payload["slope_real"] == pytest.approx(SLOPE_REAL_15A1)
    assert set(payload["shift_a"]) == {"1", "3", "5", "15"}
    assert payload["shifts"]["1"] == pytest.approx(SHIFT_TARGETS[1], abs=1e-4)
    assert payload["petersson_norm_sq"] is None


def test_build_theory_runs_the_quadrature_exactly_when_given_the_form(form15_small):
    assert build_theory(form15_small.curve)["petersson_norm_sq"] is None
    consts = build_theory(form15_small.curve, f=form15_small)
    norm = petersson_quadrature(form15_small, tol=1e-5)
    assert consts["petersson_norm_sq"] == norm.value
    assert consts["petersson_mesh_error"] == norm.mesh_error
    assert consts["petersson_nodes"] == norm.nodes == 8
    assert consts["sym2_l_recovered"] == sym2_l_from_petersson(form15_small, norm.value)


def test_build_theory_refuses_a_form_of_another_level(form57_short):
    # the constants of level 15 with the quadrature of 57a1 would recover an
    # L-value that belongs to neither
    with pytest.raises(ValueError, match="curve 0,-1,1,-2,2 .* curve 1,1,1,-10,-10$"):
        build_theory(CurveSpec(*CURVE_15A1), f=form57_short)


def test_build_theory_refuses_the_form_of_another_curve_of_the_same_level():
    # this model has conductor 15 and 15a1's coefficients, so a check of the
    # level alone lets its form through; the curve is the form's identity
    other = CurveSpec(1, 1, 1, -5, 2)
    f = build_eigenform(other, n_max=100)
    assert other.q == 15 and f.coeffs == build_eigenform(CurveSpec(*CURVE_15A1), 100).coeffs
    with pytest.raises(ValueError, match="curve 1,1,1,-5,2 .* curve 1,1,1,-10,-10$"):
        build_theory(CurveSpec(*CURVE_15A1), f=f)


def test_build_theory_refuses_a_curve_with_no_l_values():
    with pytest.raises(ValueError, match=r"no L\(Sym\^2 f, 1\) for curve 0,-1,1,-2,2"):
        build_theory(CurveSpec(0, -1, 1, -2, 2))
