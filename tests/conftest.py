"""Shared fixtures: the 15.a1 pipeline built once per session.

The expensive objects (full coefficient store, period table, symbol store,
the rows of one engine sweep to c = 3000, the M = 10^4 scan, and the
Petersson quadrature) are session-scoped so the acceptance suite and the
unit tests share one build.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from modsym.curves import CurveSpec
from modsym.eigenform import build_eigenform
from modsym.periods import ScanSpec, build_period_table, symbol
from modsym.scanstats import LatticeCounts, SymbolStore, scan
from modsym.theory import petersson_quadrature, slope_from_L, sym2_lvalues

CURVE_15A1 = (1, 1, 1, -10, -10)
Q = 15


@pytest.fixture(scope="session")
def form15():
    return build_eigenform(CurveSpec(*CURVE_15A1), n_max=100000)


@pytest.fixture(scope="session")
def form15_small():
    """Short coefficient store for cache and refusal tests."""
    return build_eigenform(CurveSpec(*CURVE_15A1), n_max=3000)


@pytest.fixture(scope="session")
def table15(form15):
    return build_period_table(form15)


@pytest.fixture(scope="session")
def store15(table15):
    return SymbolStore(table15)


class CollectedRows:
    """Every row c <= m of one engine sweep, for tests that read many rows:
    dense(c) is quantum * n at the coprime a of row c and 0 elsewhere, as
    SymbolStore.dense(c) gives it from a sweep of its own.  The sweep walks
    [0, 1/2]; each walked a/c with c > 2 also gives (c - a)/c with -n."""

    def __init__(self, store, m):
        self.quantum = store.quantum
        self._flat = np.zeros(m * (m + 1) // 2, dtype=np.int32)
        store._compute(m, self._put)

    def _put(self, chunk):
        c, a, n = chunk.c.astype(np.int64), chunk.numerators(), chunk.n
        self._flat[c * (c - 1) // 2 + a] = n
        image = c > 2
        c = c[image]
        self._flat[c * (c - 1) // 2 + c - a[image]] = -n[image]

    def dense(self, c):
        return self.quantum * self._flat[c * (c - 1) // 2 : c * (c + 1) // 2]


@pytest.fixture(scope="session")
def collected_rows():
    """The collecting sweep, for modules that build tables of their own."""
    return CollectedRows


def _atoms(counts, c):
    """The lattice integers n of row c of a LatticeCounts, ascending, and
    their counts."""
    row = counts.counts[c]
    keep = np.flatnonzero(row)
    return keep - counts.off, row[keep]


@pytest.fixture(scope="session")
def row_atoms():
    return _atoms


def _expanded_counts(symbols, m_max, x0, x1):
    """{c: {n: count}} over all coprime residues and over the window, from
    the lattice integers symbols(c) of every point a/c."""
    full, window = {}, {}
    for c in range(1, m_max + 1):
        lo, hi = math.ceil(c * x0), math.ceil(c * x1)
        for a, n in symbols(c):
            for counts, inside in ((full, True), (window, lo <= a < hi)):
                if inside:
                    row = counts.setdefault(c, {})
                    row[n] = row.get(n, 0) + 1
    return full, window


def _shares(table, m_max, x0, x1, w):
    """The counts over all coprime residues and over the window of the w
    workers' shares of the sweep to m_max, summed, then folded."""
    full, window = LatticeCounts(m_max), LatticeCounts(m_max, x0, x1)
    for i in range(w):
        part = LatticeCounts(m_max), LatticeCounts(m_max, x0, x1)
        SymbolStore(table)._compute(m_max, *part, part=(i, w))
        full.merge(part[0].counts, 0)
        window.merge(part[1].counts, 0)
    full.fold()
    window.fold()
    return full, window


@pytest.fixture(scope="session")
def summed_shares():
    return _shares


@pytest.fixture(scope="session")
def point_symbols():
    """symbols(table, c): (a, n) for every coprime a mod c, the symbol at a/c
    being quantum * n.  symbol() runs once per point and table, each value
    checked to be quantum * n."""
    memo = {}  # id(table) -> (table, {c: [(a, n)]}); holding the table keeps its id

    def symbols(table, c):
        rows = memo.setdefault(id(table), (table, {}))[1]
        if c not in rows:
            rows[c] = []
            for a in range(c):
                if math.gcd(a, c) == 1:
                    value = symbol(Fraction(a, c), table).m_minus
                    n = round(value / table.quantum)
                    assert table.quantum * n == value
                    rows[c].append((a, n))
        return rows[c]

    return symbols


@pytest.fixture(scope="session")
def counts_match_symbols(point_symbols):
    """Asserts that SymbolStore.counts of a table over [x0, x1), or with w
    the shares of w workers summed, holds, row by row and n ascending, the
    counts of the expanded symbol values."""

    def check(table, m_max, x0, x1, w=None):
        if w is None:
            full, window = SymbolStore(table).counts(ScanSpec(table.q, m_max, x0=x0, x1=x1))
            assert (full is window) == (x1 - x0 == 1)
        else:
            full, window = _shares(table, m_max, x0, x1, w)
        expected = _expanded_counts(lambda c: point_symbols(table, c), m_max, x0, x1)
        for got, want in zip((full, window), expected):
            for c in range(1, m_max + 1):
                ns, counts = (x.tolist() for x in _atoms(got, c))
                assert ns == sorted(want.get(c, {}))
                assert dict(zip(ns, counts)) == want.get(c, {})

    return check


@pytest.fixture(scope="session")
def bin_sums_match_symbols(point_symbols):
    """Asserts that sums[c, j] holds, for every row c, the sum of n over the
    points a/c with exactly j of the grid points i/g below them, the bin
    ceil(a g / c) of each point taken one by one."""

    def check(table, sums, g):
        want = np.zeros_like(sums)
        for c in range(1, len(sums)):
            for a, n in point_symbols(table, c):
                want[c, -(-a * g // c)] += n
        assert np.array_equal(sums, want)

    return check


@pytest.fixture(scope="session")
def rows15(store15):
    """The engine's rows of 15a1 up to c = 3000, from one sweep."""
    return CollectedRows(store15, 3000)


@pytest.fixture(scope="session")
def lfix():
    """(L1, L1p) of 15a1 from the symmetric-square table."""
    return sym2_lvalues(CurveSpec(*CURVE_15A1))


@pytest.fixture(scope="session")
def slopes15(lfix):
    """(slope_paper, slope_real) from the tabled L1."""
    return slope_from_L(Q, lfix[0])


@pytest.fixture(scope="session")
def petersson15(form15):
    return petersson_quadrature(form15, tol=1e-5)


@pytest.fixture(scope="session")
def rows10k(store15):
    """Full all-class scan to M = 10^4."""
    return scan(ScanSpec(q=Q, m_max=10000), store15)
