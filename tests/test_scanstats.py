"""Scan specification, the vectorized symbol engine, and the reports.

The engine is held to exact agreement with the per-point path evaluator,
the Weyl totals to the per-point exponential sums and, exactly, to the
classical closed form for them over coprime residues, and the fits to
synthetic data with known answers.
"""
import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modsym import forks, scanstats
from modsym.exactmath import Cusp
from modsym.periods import ScanSpec, cusp_shift, symbol
from modsym.scanstats import (
    FORK_MIN,
    LatticeCounts,
    SymbolStore,
    _BinSums,
    _denominators,
    _moebius_totient,
    _row_columns,
    _row_sums,
    contiguous_avg,
    distribution_report,
    scan,
    variance_fit,
    weyl_report,
    write_aggregates_csv,
    write_contig_csv,
    write_dist_csv,
    write_fit_csv,
    write_weyl_csv,
)
from modsym.theory import ghat


def _totient(n: int) -> int:
    # independent of the scan's gcd mask: Euler product over trial division
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _moebius(n: int) -> int:
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


# ---------------------------------------------------------------------------
# sample specification


def test_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(q=15, m_max=0)
    with pytest.raises(ValueError):
        ScanSpec(q=15, m_max=10, d_filter=4)
    with pytest.raises(ValueError):
        ScanSpec(q=15, m_max=10, x0=Fraction(1, 2), x1=Fraction(1, 3))


@pytest.mark.parametrize("q", [15, 57])
def test_denominators_are_the_gcd_class(q):
    # the one column of admissible denominators scan, weyl_report and
    # distribution_report read, against the filter each of them once applied
    for d in ("all", *(d for d in range(1, q + 1) if q % d == 0)):
        for m in (*range(1, 2 * q + 2), 1000, 1001):
            cs = _denominators(ScanSpec(q=q, m_max=m, d_filter=d))
            assert cs.dtype == np.int64
            assert cs.tolist() == [c for c in range(1, m + 1)
                                   if d == "all" or math.gcd(c, q) == d]


def test_moebius_totient_sieve():
    mu, phi = _moebius_totient(1000)
    assert mu[1:].tolist() == [_moebius(n) for n in range(1, 1001)]
    assert phi[1:].tolist() == [_totient(n) for n in range(1, 1001)]


# ---------------------------------------------------------------------------
# the dense engine against the per-point evaluator


def test_engine_matches_path_evaluator_exactly(rows15, table15):
    rng = random.Random(7)
    for _ in range(40):
        c = rng.randrange(2, 500)
        dense = rows15.dense(c)
        a = rng.randrange(1, c)
        if math.gcd(a, c) != 1:
            assert dense[a] == 0.0
            continue
        assert dense[a] == symbol(Fraction(a, c), table15).m_minus


def test_dense_rows_beyond_the_collected_sweep_match_symbols(store15, table15):
    rng = random.Random(11)
    for c in (4097, 4801, 6007):
        # each row comes from a sweep of its own, past every collected row
        dense = store15.dense(c)
        for a in rng.sample(range(1, c), 5):
            if math.gcd(a, c) == 1:
                assert dense[a] == symbol(Fraction(a, c), table15).m_minus
            else:
                assert dense[a] == 0.0


def test_dense_equals_the_row_of_a_longer_sweep(store15, rows15):
    # a sweep to c and the sweep to 3000 agree on row c, point for point
    for c in (1, 2, 20, 300, 2999, 3000):
        assert np.array_equal(store15.dense(c), rows15.dense(c))


@settings(max_examples=200, deadline=None)
@given(c=st.integers(min_value=1, max_value=3000), data=st.data())
def test_engine_is_exact_at_random_points(rows15, table15, c, data):
    a = data.draw(st.integers(min_value=0, max_value=c - 1))
    dense = rows15.dense(c)
    if math.gcd(a, c) == 1:
        assert dense[a] == symbol(Fraction(a, c), table15).m_minus
    else:
        assert dense[a] == 0.0


@settings(max_examples=200, deadline=None)
@given(c=st.integers(min_value=3, max_value=3000), data=st.data())
def test_mirrored_half_is_exact_at_random_points(rows15, table15, c, data):
    # a/c in (1/2, 1): the sweep reaches these only as mirror images
    a = data.draw(st.integers(min_value=c // 2 + 1, max_value=c - 1))
    dense = rows15.dense(c)
    if math.gcd(a, c) == 1:
        assert dense[a] == symbol(Fraction(a, c), table15).m_minus
    else:
        assert dense[a] == 0.0


@settings(max_examples=30, deadline=None)
@given(c=st.integers(min_value=1, max_value=1501))
def test_dense_rows_read_the_numerators_off_their_lanes(store15, table15, point_symbols, c):
    # dense(c) sweeps to c and keeps its last row, where for odd c = 2s + 1
    # a lane (j/2s, (j+1)/2s] is wider than 1/c: its numerators still come
    # from the lane alone
    want = np.zeros(c)
    for a, n in point_symbols(table15, c):
        want[a] = store15.quantum * n
    assert np.array_equal(store15.dense(c), want)


# rows 1 and 2 hold only 0/1 and 1/2, their own images; from row 3 on dense
# writes each walked a and its image c - a
@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 12, 97])
def test_dense_at_the_smallest_denominators(store15, table15, c):
    dense = store15.dense(c)
    assert dense.shape == (c,)
    for a in range(c):
        want = symbol(Fraction(a, c), table15).m_minus if math.gcd(a, c) == 1 else 0.0
        assert dense[a] == want


def test_engine_denominator_one(store15, table15):
    dense = store15.dense(1)
    assert dense.shape == (1,)
    assert dense[0] == symbol(Fraction(0, 1), table15).m_minus


def test_symbol_values_live_on_a_lattice(rows15, table15):
    """Every value c <= 300 is an integer multiple of the value at 2/5.

    The symbol takes values in a rank-one lattice; this pins the atomic
    structure that the distribution report's discreteness stems from.
    """
    quantum = symbol(Fraction(2, 5), table15).m_minus
    worst = 0.0
    for c in range(1, 301):
        vals = rows15.dense(c)
        ratios = vals / quantum
        worst = max(worst, float(np.max(np.abs(ratios - np.round(ratios)))))
    assert worst < 1e-9


@pytest.mark.parametrize(
    "x0, x1",
    [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 10), Fraction(7, 20)),
        # an edge at 1/2, across 1/2, and inside the mirrored half (1/2, 1)
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(3, 5), Fraction(9, 10)),
    ],
    ids=["full", "window", "1/2-1", "0-1/2", "1/3-2/3", "3/5-9/10"],
)
def test_counts_match_the_expanded_symbols(table15, counts_match_symbols, x0, x1):
    counts_match_symbols(table15, 300, x0, x1)


# the lanes of the sweep to 300 are (j/300, (j+1)/300]
FOLD_WINDOWS = {
    "full": (Fraction(0), Fraction(1)),
    "edge-at-1/2": (Fraction(1, 3), Fraction(1, 2)),
    "from-1/2": (Fraction(1, 2), Fraction(4, 5)),
    "in-mirrored-half": (Fraction(11, 20), Fraction(9, 10)),
    "lane-edges": (Fraction(7, 300), Fraction(143, 300)),
    "mirrored-lane-edges": (Fraction(157, 300), Fraction(293, 300)),
    "in-one-lane": (Fraction(201, 1200), Fraction(203, 1200)),
    "in-one-mirrored-lane": (Fraction(997, 1200), Fraction(999, 1200)),
}


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("window", FOLD_WINDOWS)
def test_folded_shares_match_the_expanded_symbols(table15, counts_match_symbols, window, w):
    # the sweep hands the sinks [0, 1/2] only; the full rows fold the images
    # in after the shares are merged, and a window counts them as they come
    counts_match_symbols(table15, 300, *FOLD_WINDOWS[window], w=w)


@pytest.mark.parametrize("g", [100, 307])
def test_folded_bin_sums_match_the_symbols(table15, bin_sums_match_symbols, g):
    # at g = 100 the rows c | g, 2 < c, lie on grid lines, where the image of
    # bin j is g - j, not g + 1 - j; no row c <= 300 divides the prime 307
    for w in (1, 2, 3):
        bins = _BinSums(300, g)
        for i in range(w):
            part = _BinSums(300, g)
            SymbolStore(table15)._compute(300, part, part=(i, w))
            bins.merge(part.counts, 0)
        bins.fold()
        bin_sums_match_symbols(table15, bins.counts, g)
    bins = _BinSums(300, g)
    SymbolStore(table15)._sweep(300, bins)
    bin_sums_match_symbols(table15, bins.counts, g)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_the_sweep_hands_every_point_over_exactly_once(table15, point_symbols, w):
    # the chunk of 0/1, the chunks of lanes that end and the Python tail
    # together hand over each reduced a/c in [0, 1/2] once, in one share,
    # with its own n; the counts tests compare only totals per (c, n)
    store = SymbolStore(table15)
    for m in (*range(1, 121), 300, 301):
        got = []

        def collect(chunk):
            got.extend(zip(*(x.ravel().tolist() for x in (chunk.c, chunk.numerators(), chunk.n))))

        for i in range(w):
            store._compute(m, collect, part=(i, w))
        want = [(c, a, n) for c in range(1, m + 1)
                for a, n in point_symbols(table15, c) if 2 * a <= c]
        assert sorted(got) == want, m


@pytest.mark.parametrize("m", [1, 2, 3])
def test_counts_at_the_smallest_bounds(table15, counts_match_symbols, m):
    # at m = 1 there is no lane; at m = 2 the one lane (0, 1/2] holds only 1/2,
    # its own mirror image
    counts_match_symbols(table15, m, Fraction(0), Fraction(1))
    counts_match_symbols(table15, m, Fraction(1, 2), Fraction(1))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=1, max_value=400), data=st.data())
def test_shares_match_the_symbols_on_windows_inside_lanes(table15, counts_match_symbols, m, data):
    # edges with denominators up to 2m fall inside the lanes (j/L, (j+1)/L],
    # L <= m, and mostly off the points the sweep reaches
    edge = st.integers(min_value=1, max_value=2 * m).flatmap(
        lambda den: st.builds(Fraction, st.integers(min_value=0, max_value=den), st.just(den))
    )
    x0, x1 = sorted((data.draw(edge), data.draw(edge)))
    assume(x0 < x1)
    for w in (1, 2, 3):
        counts_match_symbols(table15, m, x0, x1, w=w)


# the sweeps to 300 and 301 both have the lanes (j/300, (j+1)/300]; a window
# counts the lanes that lie in it, or whose images do, whole, and tests points
# one by one only in the lanes that hold an edge
LANE_WINDOWS = {
    "edges-inside-lanes": (Fraction(1, 7), Fraction(2, 7)),
    "edges-on-lane-boundaries": (Fraction(1, 10), Fraction(7, 20)),
    "edge-at-1/2": (Fraction(1, 7), Fraction(1, 2)),
    "from-1/2": (Fraction(1, 2), Fraction(6, 7)),
    "across-1/2": (Fraction(1, 7), Fraction(4, 7)),
    "across-1/2-on-boundaries": (Fraction(7, 20), Fraction(13, 20)),
}


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("m", [300, 301])
@pytest.mark.parametrize("window", LANE_WINDOWS)
def test_windows_decided_per_lane_match_the_expanded_symbols(
    table15, counts_match_symbols, window, m, w
):
    counts_match_symbols(table15, m, *LANE_WINDOWS[window], w=w)


@pytest.mark.parametrize("m", [300, 301])
@pytest.mark.parametrize("g", [7, 450])
def test_bins_decided_per_lane_match_the_symbols(table15, bin_sums_match_symbols, m, g):
    # the grid points i/7 fall inside the lanes (j/300, (j+1)/300], and row 7
    # lies on them; of the i/450, every third is a lane boundary, a lane may
    # hold two, and the rows c | 450 lie on them
    for w in (1, 2, 3):
        bins = _BinSums(m, g)
        for i in range(w):
            part = _BinSums(m, g)
            SymbolStore(table15)._compute(m, part, part=(i, w))
            bins.merge(part.counts, 0)
        bins.fold()
        bin_sums_match_symbols(table15, bins.counts, g)


def test_counts_reuse_a_sweep_only_for_the_same_bound_and_window(
    table15, monkeypatch, row_atoms
):
    sweeps = []
    compute = SymbolStore._compute

    def counting(self, m, *sinks, **kw):
        sweeps.append(m)
        compute(self, m, *sinks, **kw)

    monkeypatch.setattr(SymbolStore, "_compute", counting)
    store = SymbolStore(table15)
    full, window = store.counts(ScanSpec(15, 400))
    assert full is window
    # another gcd class over the same bound and window reads the same counts
    assert store.counts(ScanSpec(15, 400, d_filter=1)) == (full, full)
    assert sweeps == [400]
    # a smaller bound sweeps again, and so does another window
    short = store.counts(ScanSpec(15, 250))[0]
    store.counts(ScanSpec(15, 250, x0=Fraction(1, 3), x1=Fraction(1, 2)))
    assert sweeps == [400, 250, 250]
    # a row counts the same points whatever the bound of the sweep
    for c in range(1, 251):
        assert all(np.array_equal(x, y) for x, y in zip(row_atoms(full, c), row_atoms(short, c)))


def test_scan_memory_is_bounded_by_the_chunk(table15, monkeypatch):
    """The sweep to M = 6000 (1.1e7 points) keeps no table: the former
    table of M^2/2 int8 values alone was 18 MB.  Measured peaks of this
    scan: 2.7 MB with the lanes and the rows as numpy columns, 3.9 MB with
    each chunk handed over twice and the rows as Python objects, 11.3 MB
    with the former tree walk, 87.4 MB with the table.  One CPU keeps the
    whole walk in this process, where tracemalloc sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    store = SymbolStore(table15)
    tracemalloc.start()
    try:
        scan(ScanSpec(q=15, m_max=6000), store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


# ---------------------------------------------------------------------------
# the sweep dealt to worker processes

WINDOWS = [
    (Fraction(0), Fraction(1)),
    (Fraction(1, 10), Fraction(7, 20)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(3, 5), Fraction(9, 10)),
]


def _serial_counts(table, m, x0, x1):
    full, window = LatticeCounts(m), LatticeCounts(m, x0, x1)
    SymbolStore(table)._compute(m, full, window)
    full.fold()
    window.fold()
    return full, window


# odd and even bounds: the smallest, two below FORK_MIN, and the two about it
@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 40, 1499, 1500, FORK_MIN - 1, FORK_MIN])
def test_worker_shares_add_up_to_the_sweep(table15, summed_shares, w, m):
    # every point is emitted by exactly one share, at every bound
    x0, x1 = Fraction(1, 10), Fraction(7, 20)
    shares = summed_shares(table15, m, x0, x1, w)
    for got, want in zip(shares, _serial_counts(table15, m, x0, x1)):
        assert np.array_equal(got.counts, want.counts)


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("m", [1499, 1500, FORK_MIN - 1, FORK_MIN])
@pytest.mark.parametrize("x0, x1", WINDOWS, ids=["full", "1/10-7/20", "0-1/2", "1/2-1", "3/5-9/10"])
def test_forked_counts_equal_the_serial_sweep(table15, cpus, w, m, x0, x1):
    forks = cpus(w)
    full, window = SymbolStore(table15).counts(ScanSpec(15, m, x0=x0, x1=x1))
    assert len(forks) == (w - 1 if m >= FORK_MIN else 0)
    for got, want in zip((full, window), _serial_counts(table15, m, x0, x1)):
        assert np.array_equal(got.counts, want.counts)


def test_forked_contiguous_avg_equals_the_serial_one(table15, cpus):
    cpus(1)
    serial = contiguous_avg(SymbolStore(table15), FORK_MIN, 21)
    for w in (2, 3):
        forks = cpus(w)
        forks.clear()
        assert np.array_equal(contiguous_avg(SymbolStore(table15), FORK_MIN, 21), serial)
        assert len(forks) == w - 1


def test_each_worker_runs_on_a_cpu_of_its_own(table15, cpus, monkeypatch, tmp_path):
    # worker i is bound to the i-th usable CPU, this thread to the first for
    # its own share and to all of them again after it; a CPU the host lacks
    # leaves the worker where it may run, with the same counts
    log = tmp_path / "pins"

    def pin(pid, cpu_set):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {sorted(cpu_set)}\n")
        if 2 in cpu_set:
            raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", pin)
    forks = cpus(3)
    full, _ = SymbolStore(table15).counts(ScanSpec(15, FORK_MIN))
    pins = [line.split(" ", 1) for line in log.read_text().splitlines()]
    home = str(os.getpid())
    assert [cpu_set for pid, cpu_set in pins if pid == home] == ["[0]", "[0, 1, 2]"]
    assert sorted((int(pid), cpu_set) for pid, cpu_set in pins if pid != home) == sorted(
        zip(forks, ["[1]", "[2]"]))
    assert np.array_equal(full.counts, _serial_counts(table15, FORK_MIN, 0, 1)[0].counts)


@pytest.mark.parametrize("x0, x1", WINDOWS[:2], ids=["full", "1/10-7/20"])
def test_a_worker_reaching_a_larger_n_widens_the_merge(table15, cpus, x0, x1):
    # at m = FORK_MIN the share of worker 0 of 3 reaches |n| = 7 and the
    # others 8, so the parent's counts widen when it merges them
    home = LatticeCounts(FORK_MIN), LatticeCounts(FORK_MIN, x0, x1)
    SymbolStore(table15)._compute(FORK_MIN, *home, part=(0, 3))
    serial = _serial_counts(table15, FORK_MIN, x0, x1)
    assert all(x.off < y.off for x, y in zip(home, serial))
    forks = cpus(3)
    full, window = SymbolStore(table15).counts(ScanSpec(15, FORK_MIN, x0=x0, x1=x1))
    assert len(forks) == 2
    for got, want in zip((full, window), serial):
        assert got.off == want.off
        assert np.array_equal(got.counts, want.counts)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
@pytest.mark.parametrize("code", [0, 1])
@pytest.mark.parametrize("cut", ["in-a-header", "half", "all-but-one-count"])
def test_a_worker_whose_counts_end_short_fails_the_sweep(table15, cpus, monkeypatch, code, cut):
    # whatever its exit code, a worker that writes part of its counts makes
    # the sweep raise, naming it, and leaves no child and no open fd
    sinks = LatticeCounts(FORK_MIN), LatticeCounts(FORK_MIN, Fraction(1, 10), Fraction(7, 20))

    def writes_part(walk, out):
        try:
            data = b"".join(np.int64(x.counts.size).tobytes() + x.counts.tobytes() for x in sinks)
            end = {"in-a-header": 4, "half": len(data) // 2, "all-but-one-count": len(data) - 8}
            with open(out, "wb") as fh:
                fh.write(data[: end[cut]])
        finally:
            os._exit(code)

    monkeypatch.setattr(forks, "_child", writes_part)
    cpus(2)
    before = sorted(os.listdir("/proc/self/fd"))
    short = rf"sweep worker 1 of 2 failed \(exit code {code}, its counts cut short\)"
    with pytest.raises(RuntimeError, match=short):
        SymbolStore(table15)._sweep(FORK_MIN, *sinks)
    assert sorted(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_worker_fails_the_sweep_and_leaves_no_child(table15, cpus, capfd):
    cpus(3)
    home = os.getpid()

    def breaks_in_children(chunk):
        if os.getpid() != home:
            raise ZeroDivisionError("worker sink")

    with pytest.raises(RuntimeError, match="sweep worker 1 of 3 failed"):
        SymbolStore(table15)._sweep(FORK_MIN, breaks_in_children)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "ZeroDivisionError: worker sink" in capfd.readouterr().err


def test_a_failing_parent_reaps_its_workers(table15, cpus):
    forks = cpus(3)
    home = os.getpid()

    def breaks_at_home(chunk):
        if os.getpid() == home:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        SymbolStore(table15)._sweep(FORK_MIN, breaks_at_home)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds in /proc")
def test_a_failed_fork_closes_its_pipe_and_reaps_the_workers(table15, cpus, monkeypatch):
    forks = cpus(3)
    fork = os.fork

    def second_fails():
        if forks:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        SymbolStore(table15)._sweep(FORK_MIN, LatticeCounts(FORK_MIN))
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# rows


def test_row_against_manual_reduction(store15, table15):
    spec = ScanSpec(q=15, m_max=12, x0=Fraction(1, 3), x1=Fraction(2, 3))
    rows = {row.c: row for row in scan(spec, store15)}
    row = rows[12]
    assert (row.d, row.phi) == (3, 4)
    vals = [symbol(Fraction(a, 12), table15).m_minus for a in (1, 5, 7, 11)]
    for k in range(4):
        assert row.s[k] == pytest.approx(sum(v ** (k + 1) for v in vals), rel=1e-13)
    # window [1/3, 2/3) keeps a in {5, 7} (4 <= a < 8 among coprimes)
    assert row.n_int == 2
    window_vals = [symbol(Fraction(a, 12), table15).m_minus for a in (5, 7)]
    assert row.s_int[0] == pytest.approx(sum(window_vals), abs=1e-12)


def test_counts_refuses_a_spec_of_another_level(table15, monkeypatch):
    # the gcd classes of 57 on the symbols of 15a1 would label rows of neither;
    # counts refuses before it sweeps
    monkeypatch.setattr(SymbolStore, "_compute", None)
    with pytest.raises(ValueError, match="^a scan of level 57 cannot read a table of level 15$"):
        SymbolStore(table15).counts(ScanSpec(q=57, m_max=300, d_filter=1))


def test_scan_refuses_a_table_of_another_level(table15):
    # scan reaches its sample only through counts, which refuses the level
    with pytest.raises(ValueError, match="level 57 .* level 15"):
        scan(ScanSpec(q=57, m_max=60), SymbolStore(table15))


def test_scan_refuses_moment_sums_int64_could_not_hold(table15, monkeypatch):
    # off^4 * (points in a row) reaches 2^62 with 4 points at n = -2^15; below that
    # every S_k is an exact int64 sum times quantum^k, so a scan row is always finite
    counts = LatticeCounts(2)
    counts._widen(1 << 15)
    store = SymbolStore(table15)
    monkeypatch.setattr(store, "counts", lambda spec: (counts, counts))
    counts.counts[1, 0] = 3
    assert scan(ScanSpec(q=15, m_max=2), store).s[0, 3] == 3 * store.quantum**4 * 2**60
    counts.counts[1, 0] = 4
    with pytest.raises(OverflowError, match="order 4"):
        scan(ScanSpec(q=15, m_max=2), store)


def test_row_sums_are_the_exact_integer_sums(store15, row_atoms):
    full, _ = store15.counts(ScanSpec(15, 10000))
    # with quantum 1 every S_k is the int64 sum itself, compared in Python ints
    phi, sums = _row_sums(full, 8, 1)
    phi, sums = phi.tolist(), sums.T.tolist()
    for c in range(1, 10001):
        ns, counts = (x.tolist() for x in row_atoms(full, c))
        assert phi[c] == sum(counts)
        assert sums[c] == [sum(w * n**k for n, w in zip(ns, counts)) for k in range(1, 9)]


def test_row_sums_refuse_what_int64_could_not_hold():
    # off^8 * (points in a row) reaches 2^62 with 64 points at n = -2^7
    counts = LatticeCounts(1)
    counts.off = 1 << 7
    counts.counts = np.zeros((2, 2 * counts.off + 1), dtype=np.int64)
    counts.counts[1, 0] = 63
    phi, sums = _row_sums(counts, 8, 1)
    assert phi[1] == 63 and sums[:, 1].tolist() == [63 * (-128) ** k for k in range(1, 9)]
    counts.counts[1, 0] = 64
    with pytest.raises(OverflowError):
        _row_sums(counts, 8, 1)
    assert _row_sums(counts, 7, 1)[0][1] == 64


def test_full_rows_have_vanishing_odd_moments_and_totient_counts(store15):
    rows = scan(ScanSpec(q=15, m_max=400), store15)
    for row in rows:
        assert row.phi == _totient(row.c)
        assert row.s[0] == 0.0 and row.s[2] == 0.0
        assert row.n_int == row.phi and np.array_equal(row.s_int, row.s)


def _weyl_oracle(c: int, n: int) -> complex:
    """Sum of e(n a/c) over the coprime residues a mod c, term by term."""
    a = np.array([a for a in range(c) if math.gcd(a, c) == 1], dtype=np.float64)
    return complex(np.sum(np.exp((2j * math.pi * n / c) * a)))


def test_weyl_accumulators_are_ramanujan_sums(store15, monkeypatch):
    monkeypatch.setattr(scanstats, "WEYL_MODES", (*scanstats.WEYL_MODES, -2))
    for m_max, d_filter in ((150, "all"), (97, 5), (120, 3)):
        spec = ScanSpec(q=15, m_max=m_max, d_filter=d_filter)
        rows = scan(spec, store15)
        for e in weyl_report(spec):
            oracle = sum((_weyl_oracle(row.c, e.n) for row in rows), start=0j)
            assert abs(e.total - oracle) < 1e-9
            # the report sieves phi(c) itself; each scan row counts its points
            closed = sum(
                _moebius(row.c // math.gcd(row.c, e.n))
                * row.phi
                // _totient(row.c // math.gcd(row.c, e.n))
                for row in rows
            )
            assert e.total == closed


def test_weyl_hand_value():
    # c = 12, n = 4: gcd 4, mu(3) phi(12)/phi(3) = -1 * 4 / 2 = -2
    total = sum(
        complex(math.cos(2 * math.pi * 4 * a / 12), math.sin(2 * math.pi * 4 * a / 12))
        for a in (1, 5, 7, 11)
    )
    assert total.real == pytest.approx(-2.0, abs=1e-12)
    assert total.imag == pytest.approx(0.0, abs=1e-12)


def test_negative_weyl_mode_is_conjugate(store15, monkeypatch):
    monkeypatch.setattr(scanstats, "WEYL_MODES", (2, -2))
    spec = ScanSpec(q=15, m_max=40)
    rows = scan(spec, store15)
    plus, minus = weyl_report(spec)
    assert (plus.n, minus.n) == (2, -2)
    assert minus.total == plus.total.conjugate()
    assert plus.total.imag == 0.0
    oracle = sum((_weyl_oracle(row.c, -2) for row in rows), start=0j)
    assert abs(minus.total - oracle) < 1e-9


def test_weyl_report_zero_mode_counts_sample(store15):
    spec = ScanSpec(q=15, m_max=100, d_filter=1)
    rows = scan(spec, store15)
    entries = weyl_report(spec)
    assert entries[0].total == sum(row.phi for row in rows)
    assert entries[0].ratio == 1.0
    assert entries[1].ratio < 1.0


# ---------------------------------------------------------------------------
# variance fits


def _synthetic_rows(slope: float, shift: float) -> np.recarray:
    rows = _row_columns(38)
    for row, c in zip(rows, range(2, 40)):
        phi = _totient(c)
        var = slope * math.log(c) + shift
        row.c, row.d, row.phi, row.n_int = c, math.gcd(c, 15), phi, phi
        row.s = row.s_int = (0.0, phi * var, 0.0, 3.0 * phi * var * var)
    return rows


def test_variance_fit_recovers_synthetic_law():
    slope, shift = 0.37, 0.21
    fits = variance_fit(_synthetic_rows(slope, shift), slope_real=slope)
    assert set(fits) == {1, 3, 5, 15}
    for d, fit in fits.items():
        assert fit.fixed_slope_shift_real == pytest.approx(shift, abs=1e-12)
        assert -fit.fixed_slope_shift_real == pytest.approx(-shift, abs=1e-12)
        assert fit.slope_real == pytest.approx(slope, abs=1e-10)
        assert fit.shift_real == pytest.approx(shift, abs=1e-10)


def test_variance_fit_degenerate_inputs():
    rows = _synthetic_rows(0.3, 0.1)
    ones = rows.copy()
    ones.c, ones.d = 1, 1
    with pytest.raises(ValueError):
        variance_fit(ones, slope_real=0.3)
    # a single denominator cannot support the two-parameter free fit
    with pytest.raises(ValueError):
        variance_fit(rows[:1], slope_real=0.3)


# ---------------------------------------------------------------------------
# contiguous averages


def _direct_avg(table, m_max, g):
    """(1/M) sum_{c <= M} (1/c) sum_{0 <= a <= floor(c j/g)} m_minus(a/c) at
    every j = 0..g, unreduced fractions included, one symbol at a time."""
    rows = {
        c: [symbol(Fraction(a, c), table).m_minus for a in range(c + 1)]
        for c in range(1, m_max + 1)
    }
    return [
        sum(rows[c][a] / c for c in rows for a in range(c * j // g + 1)) / m_max
        for j in range(g + 1)
    ]


def test_contiguous_avg_matches_direct_sum(store15, table15):
    # x = 0, 1/3, 1/2, 9/10 and 1 among the grid points j/30
    got = contiguous_avg(store15, 6, 31)
    assert np.max(np.abs(got - _direct_avg(table15, 6, 30))) < 1e-12


def test_contiguous_avg_at_sevenths_and_ninths(store15, table15):
    # x = 2/7, 4/9 and 1/2 among the grid points j/126, each a/c <= 9 on or off them
    got = contiguous_avg(store15, 9, 127)
    for value, direct in zip(got, _direct_avg(table15, 9, 126)):
        assert abs(value - direct) < 1e-12


def test_contiguous_avg_about_one_half(store15, table15):
    # 1/2 is its own image and splits the walked half from the mirrored one;
    # the grid points j/120 hold 1/3, 19/40, 1/2, 21/40, 2/3 and 1
    got = contiguous_avg(store15, 40, 121)
    for value, direct in zip(got, _direct_avg(table15, 40, 120)):
        assert abs(value - direct) < 1e-12


def test_contiguous_avg_approaches_limit_profile(store15, form15):
    a_m = contiguous_avg(store15, 600, 21)
    target = ghat(form15, [k / 20 for k in range(21)])
    sup_target = float(np.max(np.abs(target)))
    assert float(np.max(np.abs(a_m - target))) < 0.05 * sup_target


# ---------------------------------------------------------------------------
# distribution report


def test_distribution_report_structure(store15, slopes15):
    _, slope_real = slopes15
    rep = distribution_report(ScanSpec(q=15, m_max=10, d_filter=1), store15, slope_real, 0.440048)
    # admissible denominators 1, 2, 4, 7, 8 contribute phi = 1+1+2+6+4
    assert rep.n_sample == 14
    assert len(rep.moments_shift) == 6 and len(rep.moments_slope) == 6
    assert 0.0 <= rep.ks_shift <= 1.0 and 0.0 <= rep.ks_slope <= 1.0
    assert len(rep.hist_edges) == len(rep.hist_counts) + 1
    assert sum(rep.hist_counts) <= rep.n_sample


def test_distribution_reports_are_equal_by_value(table15, slopes15):
    # each computed from a sweep of its own: the histogram is held as values,
    # so == compares the reports field by field
    _, slope_real = slopes15
    spec = ScanSpec(q=15, m_max=300, d_filter=1, x0=Fraction(1, 10), x1=Fraction(7, 20))
    first, second = (distribution_report(spec, SymbolStore(table15), slope_real, 0.440048)
                     for _ in range(2))
    assert first == second and first is not second
    other = ScanSpec(q=15, m_max=300, d_filter=1, x0=Fraction(1, 10), x1=Fraction(1, 2))
    assert distribution_report(other, SymbolStore(table15), slope_real, 0.440048) != first


def _expanded_report(rows, slope_real, shift_real, m_max, x0, x1):
    """n, moments, KS and histogram of the shift-normalized stream, and the
    moments and KS of the slope-normalized one, from every sample value
    taken one by one (the atoms expanded) for d = 1."""
    z_shift, z_slope = [], []
    for c in range(1, m_max + 1):
        if math.gcd(c, 15) != 1:
            continue
        lo, hi = math.ceil(c * x0), math.ceil(c * x1)
        dense = rows.dense(c)
        vals = np.array([dense[a] for a in range(lo, hi) if math.gcd(a, c) == 1])
        z_shift.append(vals / math.sqrt(slope_real * math.log(c) + shift_real))
        z_slope.append(vals / math.sqrt(slope_real * (math.log(c) + 0.5 * math.log(15))))

    def ks(z):
        z = np.sort(z)
        n = z.size
        cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z])
        return max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))

    def moments(z):
        return [float(np.mean(z**k)) for k in range(1, 7)]

    z_shift, z_slope = np.concatenate(z_shift), np.concatenate(z_slope)
    hist, _ = np.histogram(z_shift, bins=np.linspace(-5.0, 5.0, 101))
    return z_shift.size, hist, (moments(z_shift), ks(z_shift)), (moments(z_slope), ks(z_slope))


@pytest.mark.parametrize(
    "x0, x1", [(Fraction(0), Fraction(1)), (Fraction(1, 10), Fraction(7, 20))]
)
def test_atom_report_matches_the_expanded_sample(store15, rows15, slopes15, x0, x1):
    _, slope_real = slopes15
    spec = ScanSpec(q=15, m_max=300, d_filter=1, x0=x0, x1=x1)
    rep = distribution_report(spec, store15, slope_real, 0.440048)
    n, hist, shift, slope = _expanded_report(rows15, slope_real, 0.440048, 300, x0, x1)
    assert rep.n_sample == n
    assert np.array_equal(rep.hist_counts, hist)
    for got_m, got_ks, (want_m, want_ks) in (
        (rep.moments_shift, rep.ks_shift, shift),
        (rep.moments_slope, rep.ks_slope, slope),
    ):
        assert got_ks == pytest.approx(want_ks, rel=0, abs=1e-15)
        # odd moments of the full interval are 0 up to rounding in the oracle
        assert got_m == pytest.approx(want_m, rel=1e-12, abs=1e-15)
    if x1 - x0 == 1:
        assert rep.moments_shift[::2] == rep.moments_slope[::2] == (0.0, 0.0, 0.0)


def _per_row_report(spec, store, slope_real, shift_real, atoms):
    """distribution_report as one array of atoms per row, concatenated: the
    reference the report's single pass over the rows is held to."""
    _, window = store.counts(spec)
    half_log_class = 0.5 * math.log(spec.q / spec.d_filter)
    zs_shift, zs_slope, ws = [], [], []
    for c in range(1, spec.m_max + 1):
        if math.gcd(c, spec.q) != spec.d_filter:
            continue
        var_slope = slope_real * (math.log(c) + half_log_class)
        var_shift = slope_real * math.log(c) + shift_real
        ns, counts = atoms(window, c)
        vals = store.quantum * ns
        zs_shift.append(vals / math.sqrt(var_shift))
        zs_slope.append(vals / math.sqrt(var_slope))
        ws.append(counts)
    z_shift, z_slope, w = (np.concatenate(x) for x in (zs_shift, zs_slope, ws))
    n_sample = int(w.sum())

    def raw_moments(z):
        term = w.astype(np.float64)
        moments = []
        for _ in range(6):
            term = term * z
            moments.append(math.fsum(term.tolist()) / n_sample)
        return tuple(moments)

    def ks(z):
        order = np.argsort(z, kind="stable")
        z, ww = z[order], w[order]
        after = np.cumsum(ww)
        cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z.tolist()])
        return float(max(np.max(after / n_sample - cdf), np.max(cdf - (after - ww) / n_sample)))

    hist, _ = np.histogram(z_shift, bins=np.linspace(-5.0, 5.0, 101), weights=w)
    return n_sample, raw_moments(z_shift), raw_moments(z_slope), ks(z_shift), ks(z_slope), hist


@pytest.mark.parametrize("m", [FORK_MIN - 1, FORK_MIN])
@pytest.mark.parametrize("x0, x1", WINDOWS[:3], ids=["full", "1/10-7/20", "0-1/2"])
@pytest.mark.parametrize("d", [1, 15])
def test_distribution_report_equals_the_per_row_reference(
    table15, slopes15, row_atoms, d, x0, x1, m
):
    _, slope_real = slopes15
    spec = ScanSpec(q=15, m_max=m, d_filter=d, x0=x0, x1=x1)
    store = SymbolStore(table15)
    rep = distribution_report(spec, store, slope_real, 0.440048)
    n, moments_shift, moments_slope, ks_shift, ks_slope, hist = _per_row_report(
        spec, store, slope_real, 0.440048, row_atoms
    )
    assert rep.n_sample == n
    assert rep.moments_shift == moments_shift and rep.moments_slope == moments_slope
    assert (rep.ks_shift, rep.ks_slope) == (ks_shift, ks_slope)
    assert np.array_equal(rep.hist_counts, hist)


def test_distribution_report_rejects_nonpositive_variance(store15, slopes15):
    _, slope_real = slopes15
    with pytest.raises(ValueError):
        distribution_report(ScanSpec(q=15, m_max=10, d_filter=1), store15, slope_real, -0.5)


def test_distribution_report_refuses_a_table_of_another_level(store15):
    # as scan does: the gcd classes of 57 on the symbols of 15a1 would sample neither
    with pytest.raises(ValueError, match="level 57 .* level 15"):
        distribution_report(ScanSpec(q=57, m_max=300, d_filter=1), store15, 0.35, 0.1)


def test_distribution_report_refuses_the_all_class(store15, slopes15):
    _, slope_real = slopes15
    with pytest.raises(ValueError, match="single gcd class"):
        distribution_report(ScanSpec(q=15, m_max=10), store15, slope_real, 0.440048)


@pytest.mark.parametrize(
    "m, d, x0, x1",
    [
        (20, 1, Fraction(1, 3), Fraction(7, 20)),
        (20, 1, Fraction(13, 20), Fraction(2, 3)),  # its image, in the mirrored half
        (40, 5, Fraction(0), Fraction(1, 100)),
        (10, 15, Fraction(0), Fraction(1)),  # no denominator of the class at all
    ],
    ids=str,
)
def test_distribution_report_refuses_an_empty_sample(store15, slopes15, m, d, x0, x1):
    # no point of the class lies in the window: refused, not divided by zero
    _, slope_real = slopes15
    spec = ScanSpec(q=15, m_max=m, d_filter=d, x0=x0, x1=x1)
    message = rf"no point a/c of the class d={d} with c <= {m} lies in \[{x0}, {x1}\)$"
    with pytest.raises(ValueError, match=message):
        distribution_report(spec, store15, slope_real, 0.440048)


def test_distribution_report_interval_restriction(store15, slopes15):
    _, slope_real = slopes15
    spec = ScanSpec(q=15, m_max=10, d_filter=1, x0=Fraction(1, 10), x1=Fraction(7, 20))
    rep = distribution_report(spec, store15, slope_real, 0.440048)
    # window [0.1, 0.35): kept residues are ceil(c/10) <= a < ceil(7c/20)
    expect = 0
    for c in (1, 2, 4, 7, 8):
        lo = math.ceil(c / 10)
        hi = math.ceil(7 * c / 20)
        expect += sum(
            1 for a in range(lo, hi) if math.gcd(a, c) == 1 and 0 <= a < c
        )
    assert rep.n_sample == expect


# ---------------------------------------------------------------------------
# CSV writers


def test_aggregates_csv_round_trip(tmp_path, store15):
    spec = ScanSpec(q=15, m_max=20)
    rows = scan(spec, store15)
    path = tmp_path / "agg.csv"
    write_aggregates_csv(str(path), rows, fingerprint="cafe01")
    lines = path.read_text().splitlines()
    assert lines[0] == "# fingerprint=cafe01"
    assert lines[1].split(",")[:3] == ["c", "d", "phi"]
    assert len(lines) == 2 + len(rows)
    cells = lines[2 + 10].split(",")
    row = rows[10]
    assert int(cells[0]) == row.c
    assert float(cells[3]) == row.s[0]  # 17 significant digits round-trip


def _cell_by_cell_aggregates_csv(path, rows, fingerprint):
    """The aggregates as a writer that formats every cell of every row."""
    ks = range(1, 5)
    head = ["c", "d", "phi", *(f"S{k}" for k in ks), "I_count", *(f"I_S{k}" for k in ks)]
    line = ",".join(["{}", "{}", "{}", *["{:.17g}"] * 4, "{}", *["{:.17g}"] * 4]) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# fingerprint={fingerprint}\n" + ",".join(head) + "\n")
        for row in rows:
            fh.write(line.format(int(row.c), int(row.d), int(row.phi), *row.s.tolist(),
                                 int(row.n_int), *row.s_int.tolist()))


@pytest.mark.parametrize("change", ["none", "count", "sum", "ulp", "sign-of-zero"])
def test_aggregates_csv_reuses_the_full_cells_only_where_the_window_equals_them(
    tmp_path, store15, change
):
    # the writer formats the window's cells apart as soon as one row's window
    # differs from its full cells in one bit, past the first block of rows
    rows = scan(ScanSpec(q=15, m_max=1100), store15).copy()
    row = rows[700]
    if change == "count":
        row.n_int -= 1
    elif change == "sum":
        row.s_int[1] -= 2.0
    elif change == "ulp":
        row.s_int[3] = np.nextafter(row.s[3], np.inf)
    elif change == "sign-of-zero":
        assert row.s[0] == 0.0
        row.s_int[0] = -0.0
    write_aggregates_csv(str(tmp_path / "agg.csv"), rows, "cafe01")
    _cell_by_cell_aggregates_csv(tmp_path / "want.csv", rows, "cafe01")
    assert (tmp_path / "agg.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_fit_and_weyl_and_dist_and_contig_csv(tmp_path, store15, slopes15):
    _, slope_real = slopes15
    spec = ScanSpec(q=15, m_max=60)
    rows = scan(spec, store15)

    fits = variance_fit(rows, slope_real)
    fit_path = tmp_path / "fit.csv"
    write_fit_csv(str(fit_path), fits, fingerprint="f17001")
    fit_lines = fit_path.read_text().splitlines()
    assert fit_lines[0] == "# fingerprint=f17001"
    assert fit_lines[1].startswith("d,slope_real")
    assert len(fit_lines) == 2 + len(fits)
    first = fit_lines[2].split(",")
    assert float(first[1]) == fits[1].slope_real
    assert float(first[5]) == -fits[1].fixed_slope_shift_real

    entries = weyl_report(spec)
    weyl_path = tmp_path / "weyl.csv"
    write_weyl_csv(str(weyl_path), entries, fingerprint="beef02")
    weyl_lines = weyl_path.read_text().splitlines()
    assert weyl_lines[0] == "# fingerprint=beef02"
    assert weyl_lines[1] == "n,re,im,ratio"
    assert float(weyl_lines[2].split(",")[1]) == entries[0].total.real

    rep = distribution_report(ScanSpec(q=15, m_max=60, d_filter=1), store15, slope_real, 0.440048)
    dist_path = tmp_path / "dist.csv"
    write_dist_csv(str(dist_path), rep, fingerprint="d15703")
    dist_lines = dist_path.read_text().splitlines()
    assert dist_lines[0] == "# fingerprint=d15703"
    assert dist_lines[1] == "bin_lo,bin_hi,count,phi_cdf"
    assert len(dist_lines) == 2 + len(rep.hist_counts)
    assert sum(int(l.split(",")[2]) for l in dist_lines[2:]) == sum(rep.hist_counts)

    xs = [k / 4 for k in range(5)]
    a_m = contiguous_avg(store15, 40, 5)
    gh = np.zeros(len(xs))
    contig_path = tmp_path / "contig.csv"
    write_contig_csv(str(contig_path), xs, a_m, gh, fingerprint="c0a704")
    contig_lines = contig_path.read_text().splitlines()
    assert contig_lines[0] == "# fingerprint=c0a704"
    assert contig_lines[1] == "x,A_M_real,ghat"
    assert float(contig_lines[3].split(",")[1]) == a_m[1]


@pytest.mark.parametrize(
    "make",
    [
        lambda fx: Cusp(2, 5),
        lambda fx: cusp_shift(3, 1, fx("form15_small")),
        lambda fx: symbol(Fraction(2, 5), fx("table15")),
        lambda fx: fx("petersson15"),
        lambda fx: variance_fit(scan(ScanSpec(q=15, m_max=60), fx("store15")), 0.35)[1],
        lambda fx: weyl_report(ScanSpec(q=15, m_max=60))[1],
        lambda fx: distribution_report(ScanSpec(q=15, m_max=60, d_filter=1), fx("store15"),
                                       0.35, 0.44),
    ],
    ids=["Cusp", "ExpansionShift", "SymbolValue", "PeterssonResult", "FitResult", "WeylEntry",
         "DistributionReport"],
)
def test_value_records_are_immutable_and_equal_by_fields(make, request):
    record = make(request.getfixturevalue)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert record == type(record)(**{name: getattr(record, name) for name in record._fields})
