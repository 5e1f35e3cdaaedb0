"""Coefficient pipeline: point counts, Hecke recursions, truncation, L-value.

Frozen oracles: the prime traces and first dozen coefficients of 15.a1 were
computed by hand (projective point counts and the recursions); the
antiderivative reference value comes from a 200-term mpmath evaluation at
50 digits.
"""
import hashlib
import math
import random
import time
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modsym import curves, eigenform
from modsym.curves import CacheFormatError, ConductorError, CurveSpec
from modsym.eigenform import (
    Eigenform,
    TOL_FLOOR,
    TruncationError,
    _BSGS_MIN_P,
    _bsgs_trace,
    _character_sum,
    _ec_add,
    _orders_in,
    _series,
    _smallest_prime_factors,
    al_sign,
    antiderivative_batch,
    build_eigenform,
    certified_terms,
    count_points,
    hecke_extend,
    lfun1,
    load_or_build_eigenform,
    read_coeffs_cache,
    tail_bound,
    terms_needed,
    write_coeffs_cache,
)

CURVE_15A1 = (1, 1, 1, -10, -10)

# hand-computed prime traces for 15.a1
TRACES_15A1 = {2: -1, 3: -1, 5: 1, 7: 0, 11: -4, 13: -2}

# hand-computed a(1) .. a(12) via the recursions
FIRST_COEFFS_15A1 = [1, -1, -1, -1, 1, 1, 0, 3, 1, -1, -4, 1]


# ---------------------------------------------------------------------------
# model validation


def test_curvespec_discriminant():
    spec = CurveSpec(*CURVE_15A1)
    assert spec.discriminant == 50625  # 3^4 * 5^4


def test_curvespec_is_an_immutable_dict_key():
    spec, same = CurveSpec(*CURVE_15A1), CurveSpec(*CURVE_15A1)
    assert spec == same and not spec != same and spec is not same
    assert hash(spec) == hash(same) == hash(CURVE_15A1)  # its coefficients' hash
    assert spec != CurveSpec(0, -1, 1, -2, 2) and spec != CURVE_15A1
    assert {spec: "15a1"}[same] == "15a1"
    assert spec.q == 15  # the level, computed once, is no field to compare
    assert spec == CurveSpec(*CURVE_15A1) and hash(spec) == hash(CURVE_15A1)
    for name in ("a1", "a6", "q", "discriminant", "c4", "label"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 0)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    assert spec.coefficients == CURVE_15A1 and spec.discriminant == 50625


@pytest.mark.parametrize(
    "curve,q",
    [(CURVE_15A1, 15), ((0, -1, 1, -2, 2), 57), ((0, 1, 1, 20, -32), 57), ((1, 0, 1, -7, 5), 57)],
    ids=["15a1", "57a1", "57b1", "57c1"],
)
def test_curvespec_derives_its_level(curve, q):
    # the product of the primes of the discriminant: 3^4 5^4, -3^2 19, -3^10 19, 3^2 19^2
    assert CurveSpec(*curve).q == q


def test_curvespec_rejects_non_squarefree_level():
    # y^2 = x^3 + x + 1 has conductor 2^4 * 31: additive at 2, where 2 | c4 = -48
    with pytest.raises(ConductorError, match="2 divides its discriminant -496 and c4 = -48"):
        CurveSpec(0, 0, 0, 1, 1).q


def test_curvespec_rejects_a_model_that_is_not_minimal():
    # 15a1 scaled by u = 2: discriminant 2^12 * 50625, c4 = 2^4 * 481, so the
    # primes of the discriminant would give 30, not 15
    spec = CurveSpec(2, 4, 8, -160, -640)
    assert (spec.discriminant, spec.c4) == (2 ** 12 * 50625, 16 * 481)
    with pytest.raises(ConductorError, match="curve 2,4,8,-160,-640 is not a minimal model"):
        spec.q


def test_curvespec_refuses_a_discriminant_past_trial_division():
    # y^2 + y = x^3 + 10034 x + 2 has the prime discriminant -64655022037643,
    # above 10^12, so trial division to 10^6 leaves it unresolved
    start = time.perf_counter()
    with pytest.raises(ConductorError, match="no prime factor up to 1000000"):
        CurveSpec(0, 0, 1, 10034, 2).q
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# point counts


@pytest.mark.parametrize("p,expected", sorted(TRACES_15A1.items()))
def test_count_points_15a1_traces(p, expected):
    assert count_points(CurveSpec(*CURVE_15A1), p) == expected


def test_count_points_independent_curve():
    # y^2 = x^3 + x + 1 over F_5: 8 affine points by direct enumeration,
    # so the trace is 5 + 1 - 9 = -3.
    spec = CurveSpec(0, 0, 0, 1, 1)
    assert count_points(spec, 5) == -3


def test_count_points_enumeration_matches_character_sum():
    # p = 2, 3 use brute-force enumeration, p > 3 the character sum; check
    # the two styles agree through an independent brute force at p = 7, 11.
    spec = CurveSpec(*CURVE_15A1)
    for p in (7, 11):
        n_affine = 0
        for x in range(p):
            for y in range(p):
                lhs = (y * y + spec.a1 * x * y + spec.a3 * y) % p
                rhs = (x ** 3 + spec.a2 * x * x + spec.a4 * x + spec.a6) % p
                if lhs == rhs:
                    n_affine += 1
        assert count_points(spec, p) == p + 1 - (n_affine + 1)


def _one_expression_sum(spec, p):
    """a_p as minus the character sum, written as one numpy expression: the
    reference for the plain-Python _character_sum and for baby-step
    giant-step, and fast enough to run at thousands of primes."""
    x = np.arange(p, dtype=np.int64)
    qr = np.full(p, -1, dtype=np.int64)
    qr[(x * x) % p] = 1
    qr[0] = 0
    rhs = (((4 * x + spec.b2 % p) * x + (2 * spec.b4) % p) % p * x + spec.b6 % p) % p
    return -int(qr[rhs].sum())


@pytest.mark.parametrize("curve,q", [(CURVE_15A1, 15), ((0, -1, 1, -2, 2), 57)])
def test_count_points_matches_the_one_expression_sum(curve, q):
    spec = CurveSpec(*curve)
    assert spec.q == q
    for p in [5, 7, 11, 13, 997, 8191, 19997, 99991]:
        want = _one_expression_sum(spec, p)
        assert count_points(spec, p) == want
        assert _character_sum(spec, p) == want


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _c4_c6(a1, a2, a3, a4, a6):
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6


@pytest.mark.parametrize(
    "curve,q", [(CURVE_15A1, 15), ((0, -1, 1, -2, 2), 57), ((0, 1, 1, 20, -32), 57)]
)
def test_count_points_matches_the_character_sum_to_2e4(curve, q):
    # 15a1, 57a1 and 57b1 at every prime up to 2e4, on both sides of the
    # crossover, bad primes included
    spec = CurveSpec(*curve)
    assert spec.q == q
    for p in range(5, 20001):
        if _is_prime(p):
            assert count_points(spec, p) == _one_expression_sum(spec, p), p


@settings(max_examples=40, deadline=None)
@given(
    a=st.tuples(*[st.integers(-20, 20)] * 5),
    start=st.integers(_BSGS_MIN_P + 1, 200000),
)
def test_bsgs_matches_the_character_sum(a, start):
    c4, c6 = _c4_c6(*a)
    disc = (c4 ** 3 - c6 ** 2) // 1728
    assume(disc != 0)
    p = next(n for n in range(start, 2 * start) if _is_prime(n) and 6 * disc % n)
    assume(p <= 200000)
    spec = CurveSpec(*a)
    trace = _bsgs_trace(spec, p)
    assert trace == _one_expression_sum(spec, p)
    assert trace * trace <= 4 * p


def test_bsgs_reads_a_p_off_the_twist(monkeypatch):
    # the first sample x = 0 has d = f(0) = B, a non-residue mod 1009, so its
    # point lies on the quadratic twist, whose order is p + 1 + a_p; that
    # one sample alone must give a_p
    spec = CurveSpec(*CURVE_15A1)
    p = 1009
    b = -54 * _c4_c6(*CURVE_15A1)[1] % p
    assert pow(b, (p - 1) // 2, p) == p - 1
    monkeypatch.setattr(eigenform, "_BSGS_ATTEMPTS", 1)
    assert _bsgs_trace(spec, p) == _character_sum(spec, p) == 50


def test_count_points_falls_back_on_the_character_sum(monkeypatch):
    # y^2 = x^3 - x at p = 17957: its first eight samples all leave more
    # than one candidate for a_p, the ninth pins it
    spec = CurveSpec(0, 0, 0, -1, 0)
    p = 17957
    assert _bsgs_trace(spec, p) == -2
    sums = []
    monkeypatch.setattr(eigenform, "_BSGS_ATTEMPTS", 8)
    monkeypatch.setattr(eigenform, "_character_sum", lambda *args: sums.append(p) or _character_sum(*args))
    assert _bsgs_trace(spec, p) is None
    assert count_points(spec, p) == -2
    assert sums == [p]


def test_orders_in_matches_the_order_of_every_point():
    # each point's order by repeated addition, against baby-step giant-step
    # over the Hasse interval: with m baby steps, orders up to 2m come from a
    # baby step that meets an earlier one (or has y = 0 at order 2m), larger
    # ones from the giant steps
    seen = set()
    for p in (37, 61, 113):
        bound = math.isqrt(4 * p)
        lo, hi = p + 1 - bound, p + 1 + bound
        m = math.isqrt(bound)
        for a, b in [(1, 1), (-1, 0), (2, 3), (-3, 7), (5, -2), (0, 11)]:
            if (4 * a ** 3 + 27 * b * b) % p == 0:
                continue
            for x in range(p):
                for y in range(1, p):
                    if (y * y - x ** 3 - a * x - b) % p:
                        continue
                    order, R = 1, (x, y)
                    while R is not None:
                        R = _ec_add(R, (x, y), a % p, p)
                        order += 1
                    want = [n for n in range(lo, hi + 1) if n % order == 0]
                    assert sorted(_orders_in(x, y, a % p, p, lo, hi)) == want
                    seen.add("2m" if order == 2 * m else order > 2 * m)
    assert seen == {"2m", True, False}


def test_count_points_rejects_bad_p():
    with pytest.raises(ValueError):
        count_points(CurveSpec(*CURVE_15A1), 1)


# ---------------------------------------------------------------------------
# Hecke recursions


def test_hecke_extend_first_dozen():
    a = hecke_extend(TRACES_15A1, 15, _smallest_prime_factors(12))
    assert list(a[1:]) == FIRST_COEFFS_15A1


def test_hecke_extend_multiplicativity(form15):
    rng = random.Random(5)
    a = form15.coeffs
    for _ in range(200):
        m = rng.randrange(2, 300)
        n = rng.randrange(2, 300)
        if math.gcd(m, n) != 1:
            continue
        assert a[m * n] == a[m] * a[n]


def test_hecke_extend_good_prime_power_recursion(form15):
    a = form15.coeffs
    for p in (2, 7, 13):
        for k in range(1, 5):
            if p ** (k + 1) > form15.n_max:
                break
            assert a[p ** (k + 1)] == a[p] * a[p ** k] - p * a[p ** (k - 1)]


def test_hecke_extend_bad_prime_powers(form15):
    a = form15.coeffs
    for k in range(1, 6):
        assert a[3 ** k] == (-1) ** k
        assert a[5 ** k] == 1


def test_hasse_bound(form15):
    spec = CurveSpec(*CURVE_15A1)
    for p in (17, 19, 101, 997):
        t = count_points(spec, p)
        assert t * t <= 4 * p
        assert form15.coeffs[p] == t


def test_build_eigenform_conductor_mismatch():
    # y^2 = x^3 - x has additive reduction at 2 (trace 0): 2 divides both its
    # discriminant 64 and c4 = 48, so it has no level to build at
    spec = CurveSpec(0, 0, 0, -1, 0)
    assert (spec.discriminant, spec.c4, count_points(spec, 2)) == (64, 48, 0)
    for derive in (lambda: spec.q, lambda: build_eigenform(spec, n_max=50)):
        with pytest.raises(ConductorError, match="2 divides its discriminant 64 and c4 = 48"):
            derive()


def test_al_sign_multiplicative(form15):
    assert (form15.coeffs[3], form15.coeffs[5]) == (-1, 1)  # the signs are -a(p)
    assert al_sign(form15, 1) == 1
    assert al_sign(form15, 3) == 1
    assert al_sign(form15, 5) == -1
    assert al_sign(form15, 15) == -1
    with pytest.raises(ValueError):
        al_sign(form15, 2)


# ---------------------------------------------------------------------------
# certified truncation


def test_tail_bound_monotone():
    ys = [0.05, 0.2, 1.0]
    for y in ys:
        vals = [tail_bound(n, y) for n in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_terms_needed_is_minimal():
    for y, tol in [(0.1, 1e-10), (0.5, 1e-12), (2.0, 1e-8)]:
        n = terms_needed(y, tol)
        assert tail_bound(n, y) < tol
        assert n == 1 or tail_bound(n - 1, y) >= tol


def test_terms_needed_validation():
    with pytest.raises(ValueError):
        terms_needed(0.0, 1e-10)
    with pytest.raises(TruncationError):
        terms_needed(1.0, TOL_FLOOR / 10)


def test_truncation_plan_refuses_short_store(form15_small):
    short = Eigenform(form15_small.curve, form15_small.coeffs[:1001])
    with pytest.raises(TruncationError, match="only 1000 are available"):
        certified_terms(short, 1e-4, 1e-12)


# ---------------------------------------------------------------------------
# series evaluation


def test_antiderivative_reference_value(form15):
    # 200-term reference at z = i computed with mpmath at 50 digits; the
    # dropped tail there is below e^(-2 pi 200).
    import mpmath

    mpmath.mp.dps = 50
    ref = mpmath.mpc(0)
    for n in range(1, 201):
        an = int(form15.coeffs[n])
        ref += an / (2j * mpmath.pi * n) * mpmath.e ** (-2 * mpmath.pi * n)
    got = antiderivative_batch(form15, [1j], 1e-13)[0]
    assert abs(got - complex(ref)) < 1e-12


def test_antiderivative_periodicity(form15):
    zs = np.array([0.17 + 0.4j, -0.6 + 1.1j])
    a = antiderivative_batch(form15, zs, 1e-12)
    b = antiderivative_batch(form15, zs + 1.0, 1e-12)
    assert np.max(np.abs(a - b)) < 5e-12


def test_form_values_matches_direct_sum(form15):
    z = 0.3 + 0.8j
    n_terms = 400  # tail at y = 0.8 is far below the comparison tolerance
    direct = sum(
        int(form15.coeffs[n]) * np.exp(2j * np.pi * n * z) for n in range(1, n_terms)
    )
    certified = certified_terms(form15, z.imag, 1e-12)
    coef = np.asarray(form15.coeffs)[1 : certified + 1].astype(np.float64)
    got = _series(np.array([z]), coef)[0]
    assert abs(got - direct) < 1e-12


@pytest.mark.parametrize("n_terms", [7, 300, 5000, 9000])
@pytest.mark.parametrize("kind", ["int", "float", "complex"])
def test_series_blocks_match_the_one_pass_sum_bitwise(form15, n_terms, kind):
    # the plain numpy expression over every point at once is the oracle: the
    # in-place exponential and the complex cast of the coefficients change
    # no bit of any value
    rng = random.Random(n_terms)
    zs = np.array([complex(rng.uniform(-1, 1), rng.uniform(0.05, 2)) for _ in range(50)])
    ns = np.arange(1, n_terms + 1)
    coef = np.asarray(form15.coeffs)[1 : n_terms + 1]
    if kind != "int":  # as the form's series and antiderivative_batch pass them
        coef = coef.astype(np.float64) if kind == "float" else coef / (2j * np.pi * ns)
    want = np.sum(np.exp(2j * np.pi * zs[:, None] * ns) * coef, axis=1)
    assert _series(zs, coef).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# central L-value


def test_lfun1_frozen(form15):
    assert lfun1(form15) == pytest.approx(0.350150760583576, abs=1e-12)


def test_lfun1_matches_the_closed_form_sum(form15):
    # the sign-folded sum (1 - e_q) sum a(n)/n e^{-2 pi n / sqrt(q)}, e_q = -1,
    # summed directly to 200 terms, far past its last double-precision digit
    ns = np.arange(1, 201)
    terms = np.asarray(form15.coeffs)[1:201] / ns * np.exp(-2.0 * np.pi * ns / math.sqrt(form15.q))
    assert abs(lfun1(form15) - 2.0 * float(np.sum(terms))) < 1e-12


def test_lfun1_tolerance_refusal():
    # a five-coefficient store whose a(3) = -1 and a(5) = 1 give the functional
    # sign -1 cannot meet any practical tolerance, so the evaluation must
    # refuse rather than guess
    f = Eigenform(CurveSpec(*CURVE_15A1), np.array([0, 1, -1, -1, 1, 1]))
    with pytest.raises(TruncationError):
        lfun1(f)


def test_lfun1_vanishes_for_positive_sign():
    # synthetic store whose a(3) = a(5) = -1 make both involution signs +1:
    # the sign-folded series prefactor (1 - e) kills the value identically
    f = Eigenform(CurveSpec(*CURVE_15A1), np.array([0, 1, -1, -1, 1, -1]))
    assert lfun1(f) == 0.0


# ---------------------------------------------------------------------------
# coefficient cache


def test_coeffs_cache_round_trip(tmp_path, form15_small):
    path = tmp_path / "coeffs.txt"
    write_coeffs_cache(str(path), form15_small)
    coeffs = read_coeffs_cache(str(path), form15_small.curve, form15_small.n_max)
    assert np.array_equal(coeffs, form15_small.coeffs)


@pytest.mark.parametrize(
    "curve,q,n_max,digest",
    [
        (CURVE_15A1, 15, 2000, "79e25a7cb435d587070ecfcef71d53edd600fd1ef36c4d4aa7ca9a70ff641ea0"),
        ((0, -1, 1, -2, 2), 57, 5000, "237c9c5bed8319fa42b15805833196a621281c84a6c70617bce3860dd38e75ef"),
    ],
    ids=["15a1-2000", "57a1-5000"],
)
def test_coeffs_cache_bytes_are_pinned(tmp_path, curve, q, n_max, digest):
    # sha256 of the files written when counting and the recursions ran in
    # numpy, re-pinned for the positional body and the digest in the header;
    # both reach past the crossover into baby-step giant-step
    spec = CurveSpec(*curve)
    assert spec.q == q
    load_or_build_eigenform(spec, n_max, str(tmp_path))
    path = eigenform.coeffs_cache_path(str(tmp_path), spec, n_max)
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def _write_coeffs_body(path, spec, n_max, lines):
    """A coefficient cache of these body lines under a header whose digest
    matches them, as a faulty build would write it."""
    curves.write_cache(str(path), eigenform._COEFFS_MAGIC,
                       eigenform._coeffs_identity(spec, n_max), lines)


def test_coefficients_have_one_type_built_or_read(tmp_path):
    spec = CurveSpec(*CURVE_15A1)
    built = load_or_build_eigenform(spec, 300, str(tmp_path))
    read = load_or_build_eigenform(spec, 300, str(tmp_path))
    for f in (built, read):
        assert isinstance(f.coeffs, array) and f.coeffs.typecode == "q"
    assert built.coeffs == read.coeffs


def test_coeffs_cache_idempotent(tmp_path, form15_small):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_coeffs_cache(str(p1), form15_small)
    write_coeffs_cache(str(p2), form15_small)
    assert p1.read_bytes() == p2.read_bytes()


def test_coeffs_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a cache header\n1 1\n")
    with pytest.raises(CacheFormatError):
        read_coeffs_cache(str(path), CurveSpec(*CURVE_15A1), 1)


def test_coeffs_cache_rejects_truncated_body(tmp_path, form15_small):
    path = tmp_path / "short.txt"
    write_coeffs_cache(str(path), form15_small)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(CacheFormatError):
        read_coeffs_cache(str(path), form15_small.curve, form15_small.n_max)


def test_load_or_build_rebuilds_corrupt_cache(tmp_path, caplog):
    spec = CurveSpec(*CURVE_15A1)
    cache_dir = tmp_path / "cache"
    f1 = load_or_build_eigenform(spec, 50, str(cache_dir))
    cache_file = cache_dir / "coeffs-q15-N50.txt"
    assert cache_file.exists()
    cache_file.write_text("garbage header\n")
    with caplog.at_level("WARNING"):
        f2 = load_or_build_eigenform(spec, 50, str(cache_dir))
    assert "rebuilding" in caplog.text
    assert np.array_equal(f1.coeffs, f2.coeffs)


def test_load_or_build_uses_cache(tmp_path):
    spec = CurveSpec(*CURVE_15A1)
    cache_dir = tmp_path / "cache"
    f1 = load_or_build_eigenform(spec, 60, str(cache_dir))
    f2 = load_or_build_eigenform(spec, 60, str(cache_dir))
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert (al_sign(f2, 3), al_sign(f2, 5)) == (1, -1)


def test_n_max_below_a_level_prime_is_refused(tmp_path):
    # a(5) gives the involution sign of 15a1 at 5; a hand-made cache of
    # a(1..3) reads cleanly, so the refusal has to come before the read
    spec = CurveSpec(*CURVE_15A1)
    path = eigenform.coeffs_cache_path(str(tmp_path), spec, 3)
    _write_coeffs_body(path, spec, 3, ["1", "-1", "-1"])
    assert read_coeffs_cache(path, spec, 3).tolist() == [0, 1, -1, -1]
    with pytest.raises(ValueError, match="n_max 3 stops short of the prime 5 of the level 15"):
        load_or_build_eigenform(spec, 3, str(tmp_path))
    with pytest.raises(ValueError, match="n_max 4 stops short of the prime 5 of the level 15"):
        build_eigenform(spec, 4)


def test_coeffs_cache_rejects_another_identity(tmp_path, form15_small):
    path = tmp_path / "coeffs.txt"
    write_coeffs_cache(str(path), form15_small)
    other = CurveSpec(0, -1, 1, -10, -20)  # 11a1
    for curve, n_max in [(form15_small.curve, 2999), (other, form15_small.n_max)]:
        with pytest.raises(CacheFormatError):
            read_coeffs_cache(str(path), curve, n_max)


def test_duplicated_coefficient_line_is_rebuilt(tmp_path, caplog):
    # the entry count still matches the header, so only the digest sees it
    spec = CurveSpec(*CURVE_15A1)
    cache_dir = tmp_path / "cache"
    load_or_build_eigenform(spec, 60, str(cache_dir))
    cache_file = cache_dir / "coeffs-q15-N60.txt"
    fresh = cache_file.read_bytes()
    lines = fresh.decode().splitlines()
    assert lines[10:12] == ["-1", "-4"]
    lines[11] = lines[10]
    cache_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError, match="sha256"):
        read_coeffs_cache(str(cache_file), spec, 60)
    with caplog.at_level("WARNING"):
        f = load_or_build_eigenform(spec, 60, str(cache_dir))
    assert "rebuilding" in caplog.text
    assert f.coeffs[11] == -4
    assert cache_file.read_bytes() == fresh


def test_edited_coefficient_between_the_spot_checks_is_rebuilt(tmp_path, caplog):
    # a(1000) is no spot-check prime, and the file keeps its layout and its
    # length: only the digest sees the edit, which an index column missed
    spec = CurveSpec(*CURVE_15A1)
    cache_dir = tmp_path / "cache"
    load_or_build_eigenform(spec, 3000, str(cache_dir))
    assert 1000 not in eigenform._spot_check_primes(15, 3000)
    cache_file = cache_dir / "coeffs-q15-N3000.txt"
    fresh = cache_file.read_bytes()
    lines = fresh.decode().splitlines()
    assert lines[1000] == "3"
    lines[1000] = "4"
    cache_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError, match="sha256"):
        read_coeffs_cache(str(cache_file), spec, 3000)
    with caplog.at_level("WARNING"):
        f = load_or_build_eigenform(spec, 3000, str(cache_dir))
    assert caplog.text.count("rebuilding") == 1
    assert f.coeffs[1000] == 3
    assert cache_file.read_bytes() == fresh


def test_v2_coefficient_cache_is_rebuilt_as_v3(tmp_path, caplog):
    # the layout the previous format wrote, `n a(n)` under a header with no
    # digest: refused by its magic, with one warning, and rebuilt into the
    # bytes of a fresh cache
    spec = CurveSpec(*CURVE_15A1)
    fresh_dir, old_dir = tmp_path / "fresh", tmp_path / "old"
    f = load_or_build_eigenform(spec, 60, str(fresh_dir))
    old_dir.mkdir()
    v2 = ["modsym-coeffs v2 q=15 N=60 curve=1,1,1,-10,-10",
          *(f"{n} {a}" for n, a in enumerate(f.coeffs[1:].tolist(), 1))]
    cache_file = old_dir / "coeffs-q15-N60.txt"
    cache_file.write_text("\n".join(v2) + "\n")
    with caplog.at_level("WARNING"):
        g = load_or_build_eigenform(spec, 60, str(old_dir))
    assert caplog.text.count("rebuilding") == 1
    assert g.coeffs == f.coeffs
    assert cache_file.read_bytes() == (fresh_dir / "coeffs-q15-N60.txt").read_bytes()


def test_coefficient_past_int64_is_rebuilt(tmp_path, caplog):
    # int() reads the value and the digest matches it, but the int64 array
    # cannot hold it
    spec = CurveSpec(*CURVE_15A1)
    cache_dir = tmp_path / "cache"
    load_or_build_eigenform(spec, 60, str(cache_dir))
    cache_file = cache_dir / "coeffs-q15-N60.txt"
    fresh = cache_file.read_bytes()
    lines = fresh.decode().splitlines()[1:]
    assert lines[4] == "1"
    lines[4] = "9" * 25
    _write_coeffs_body(cache_file, spec, 60, lines)
    with pytest.raises(CacheFormatError, match=r"a\(5\) = 9{25}, past int64"):
        read_coeffs_cache(str(cache_file), spec, 60)
    with caplog.at_level("WARNING"):
        f = load_or_build_eigenform(spec, 60, str(cache_dir))
    assert "rebuilding" in caplog.text
    assert f.coeffs[5] == 1
    assert cache_file.read_bytes() == fresh


def test_coefficient_count_is_checked_past_the_digest(tmp_path):
    # a body one value short or one long, each under a digest that matches it
    spec = CurveSpec(*CURVE_15A1)
    f = build_eigenform(spec, 60)
    values = [str(a) for a in f.coeffs[1:].tolist()]
    path = tmp_path / "coeffs.txt"
    for lines, n in [(values[:-1], 59), (values + ["0"], 61)]:
        _write_coeffs_body(path, spec, 60, lines)
        with pytest.raises(CacheFormatError, match=f"has {n} entries, not 60"):
            read_coeffs_cache(str(path), spec, 60)


def test_edited_prime_coefficient_is_rebuilt(tmp_path, caplog):
    # a cache whose digest matches a wrong a(p), as a faulty build would
    # write it: only the recount at the three largest primes not dividing
    # the level sees it
    assert eigenform._spot_check_primes(15, 3000) == [2999, 2971, 2969]
    assert eigenform._spot_check_primes(57, 20) == [17, 13, 11]
    spec = CurveSpec(*CURVE_15A1)
    cache_dir = tmp_path / "cache"
    load_or_build_eigenform(spec, 3000, str(cache_dir))
    cache_file = cache_dir / "coeffs-q15-N3000.txt"
    fresh = cache_file.read_bytes()
    lines = fresh.decode().splitlines()[1:]
    assert lines[2998] == "56"
    lines[2998] = "58"
    _write_coeffs_body(cache_file, spec, 3000, lines)
    with pytest.raises(CacheFormatError, match=r"a\(2999\) = 58"):
        read_coeffs_cache(str(cache_file), spec, 3000)
    with caplog.at_level("WARNING"):
        f = load_or_build_eigenform(spec, 3000, str(cache_dir))
    assert "rebuilding" in caplog.text
    assert f.coeffs[2999] == 56
    assert cache_file.read_bytes() == fresh
