"""Farey-point scans and the statistical reports built on them.

Evaluates the real symbol at every sample point a/c with c up to M in one
streaming sweep over the certified integer class weights: consecutive
points of the Farey sequence F_M are neighbours, so each point adds one
class weight to the value of the point before it.  The sweep walks [0, 1/2]
only, in independent lanes stepped side by side, each stepping only its
denominators c and its running n, as a walked point's numerator follows
from c and its lane.  It calls every accumulator (a sink) one way, with
each chunk of walked points as it goes: per-denominator counts of each
lattice integer n over all coprime residues and over a subinterval of
[0,1), or, for the contiguous averages, integer sums of n per denominator
and grid bin, each deciding its window or bins per lane where a whole
lane falls alike.  The real symbol is odd and 1-periodic, so a walked a/c
with value n stands for its image (c - a)/c with -n as well: an
accumulator counts that image as the point comes, or folds every image in
at once when the sweep ends.  No point is stored, so memory is O(M *
width + chunk).
From M = FORK_MIN on, the lanes are dealt to forked worker processes by
forks.deal, which also deals a coefficient build's point count; each walks
its share into accumulators of its own, and the parent adds their integer
counts to its own, ROW_BLOCK rows at a time as it reads them from the
worker's pipe, before it folds, so every output is one process's.  Every
report reads the lattice through those accumulators: the moment rows are
exact integer sums over the counts, held as numpy columns, the distribution
report works on the (c, n) atoms with their weights, also numpy columns,
and a scan followed by a report over the same window shares one sweep.  The Weyl sums
read no symbol value and run no sweep: over the coprime residues of c they
are Ramanujan sums, which the report evaluates exactly in integers.
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain

from .exactmath import lazy_numpy
from .forks import deal, workers
from .periods import PeriodTable, ScanSpec

np = lazy_numpy()


MOMENTS = 4  # the moment sums S_1 .. S_MOMENTS a scan row carries
WEYL_MODES = (0, 1, 2, 3, 4, 5)  # the modes n of the Weyl sums weyl_report totals
CHUNK = 1 << 15  # about the most points the sweep buffers before it hands them to the sinks
TAIL = 8  # the sweep finishes its last lanes point by point once this few are left
# FORK_MIN is the smallest bound whose sweep is dealt to worker processes.  Every worker
# steps as often as its longest lane, so a second process halves the work per point but
# not the cost per step, and a fork costs several ms.  On a shared 2-core Xeon a sweep
# into one LatticeCounts, the worker pinned, took in one process and in two (medians of
# 31 alternating pairs): 12.1 and 12.0 ms to m = 2000, 15.9 and 16.1 ms to m = 2500,
# 32.6 and 27.3 ms to m = 3000, 58.4 and 43.8 ms to m = 4000, 163 and 105 ms to
# m = 7000, two processes being faster in 15, 14, 27, 28 and 30 of the pairs, so the
# fork pays from about m = 3000.  At the CLI, which also pays the fork's start-up, the
# pinned fork won scan --M 7000 (0.196 against 0.219 s, 12 of 12 pairs), tied at
# m = 4000 (7 of 10) and lost scan --M 3000 (0.142 against 0.136 s, 3 of 10).
FORK_MIN = 3000
ROW_BLOCK = 512  # rows a merge, fold or CSV write takes at a time; floats a report converts


class _Chunk(namedtuple("_Chunk", "c n lanes span")):
    """Walked points of the sweep: int32 arrays c and n whose last axis runs
    over lanes in ascending order, shaped (steps, lanes) for steps of whole
    lanes, one column a lane, or (points,) for single points.  lanes holds
    the lane j of each column or point, the points of lane j lying in
    (j/span, (j+1)/span]; lane -1 holds 0/1 alone.

    Every sink keeps one contract: SymbolStore._compute calls it as
    sink(chunk) with each chunk, and leaves it the images (c - a)/c of the
    points with c > 2.  All sinks share the chunk, so a sink may neither
    keep nor modify it.  A sink of SymbolStore._sweep also holds its int64
    counts as .counts, adds rows at, at + 1, ... of another worker's with
    merge(block, at), and adds the images it has not counted in fold()."""

    def numerators(self, at=slice(None)) -> np.ndarray:
        """The numerators a of the points in the columns at, as int64: the one
        integer in (c j/span, c (j+1)/span] (SymbolStore)."""
        return np.multiply(self.c[..., at], self.lanes[at] + 1, dtype=np.int64) // self.span


class LatticeCounts:
    """How often each lattice integer n occurs in each row c <= m: counts[c,
    n + off] over the points a/c with ceil(c x0) <= a < ceil(c x1).  A sink
    of the sweep (_Chunk): a window counts the images (c - a)/c, with -n, as
    they come, and the full rows take them from fold().  The width grows
    with the largest |n| seen.

    A window decides per lane: it counts a lane whole when the lane, or its
    image, lies in [x0, x1), skips it when it lies outside, and tests the
    points one by one only in the lanes that hold an edge, and in the lane
    that ends at 1/2, its own image."""

    def __init__(self, m: int, x0: Fraction | int = 0, x1: Fraction | int = 1):
        self.off = 0
        self.counts = np.zeros((m + 1, 1), dtype=np.int64)
        self._bounds = None
        if (x0, x1) != (0, 1):
            self._bounds = [_ceil_multiples(m, x) for x in (x0, x1)]
            self._lanes = _window_lanes(2 * (m // 2) or 2, x0, x1)  # the span of the sweep to m

    def __call__(self, chunk: _Chunk) -> None:
        c, n, lanes, _ = chunk
        if self._bounds is None:
            self._add(c, n)
            return
        inside, image, edges, flags = self._lanes
        at = slice(*np.searchsorted(lanes, inside))
        self._add(c[..., at], n[..., at])
        at = slice(*np.searchsorted(lanes, image))
        self._add(c[..., at], n[..., at], -1)
        lo, hi = np.searchsorted(lanes, edges), np.searchsorted(lanes, edges, "right")
        if not (lo < hi).any():
            return
        at = np.concatenate([np.arange(x, y) for x, y in zip(lo.tolist(), hi.tolist())])
        mirror = np.repeat(flags, hi - lo)
        c, n, a = c[..., at], n[..., at], chunk.numerators(at)
        a = np.where(mirror, c - a, a)  # the image (c - a)/c, except at 0/1 and 1/2 (c <= 2), their own
        keep = (a >= self._bounds[0].take(c)) & (a < self._bounds[1].take(c)) & ((c > 2) | ~mirror)
        self._add(c[keep], np.where(mirror, -n, n)[keep])

    def _add(self, c: np.ndarray, n: np.ndarray, sign: int = 1) -> None:
        """Count each point c, sign * n once."""
        if not n.size:
            return
        self._widen(max(-int(n.min()), int(n.max())))
        at = c * self.counts.shape[1] + (n + self.off if sign > 0 else self.off - n)
        np.add.at(self.counts.reshape(-1), at, 1)

    def _widen(self, top: int) -> None:
        if top > self.off:
            wide = np.zeros((len(self.counts), 2 * top + 1), dtype=np.int64)
            wide[:, top - self.off : top + self.off + 1] = self.counts
            self.counts, self.off = wide, top

    def merge(self, block: np.ndarray, at: int) -> None:
        """Add rows at, at + 1, ... of the counts of another sweep over the
        same rows, widening to the block's width if it is the larger."""
        top = block.shape[1] // 2
        self._widen(top)
        self.counts[at : at + len(block), self.off - top : self.off + top + 1] += block

    def fold(self) -> None:
        """Count the images of the walked points, once the sweep is done:
        full rows c > 2 add themselves reversed, n -> -n.  A window counted
        them already."""
        if self._bounds is None:
            for at in range(3, len(self.counts), ROW_BLOCK):
                rows = self.counts[at : at + ROW_BLOCK]
                rows += rows[:, ::-1]


def _ceil_multiples(m: int, x: Fraction) -> np.ndarray:
    """ceil(c x) for c = 0 .. m, exactly: a/c >= x <=> a >= ceil(c x)."""
    num, den = x.numerator, x.denominator
    return np.array([-(-c * num // den) for c in range(m + 1)], dtype=np.int32)


def _window_lanes(span: int, x0: Fraction | int, x1: Fraction | int) -> tuple:
    """How a window [x0, x1) meets the lanes (j/span, (j+1)/span], j < span/2,
    and their images [k/span, (k+1)/span), k = span - 1 - j: the lanes
    [j0, j1) lie in it, the lanes [i0, i1) have their images in it, and the
    lanes in edges hold an edge, in their images where flags is True; every
    other lane and image lies outside.  The lane that ends at 1/2 is tested point
    by point for its image, so its own image 1/2 counts once."""
    half = span // 2 - 1
    lo, hi = (-(-span * x // 1) for x in (x0, x1))  # ceil(span x0), ceil(span x1)
    floors = [span * x // 1 for x in (x0, x1)]
    j0, j1 = lo, hi - 1
    i0, i1 = span - floors[1], min(span - lo, half)
    edges = [(j0 - 1, False), (j1, False), (half, True)]
    edges += [(span - 1 - f, True) for f, x in zip(floors, (x0, x1)) if f != span * x]
    edges = sorted(set(edges))
    return ((j0, j1), (i0, i1), np.array([j for j, _ in edges]),
            np.array([image for _, image in edges]))


class SymbolStore:
    """The real symbol m_minus(a/c) = quantum * n on the certified lattice,
    streamed over every point a/c with c up to a bound.

    The sweep to m walks the Farey sequence F_m: after the neighbours
    a/c < a'/c' comes a''/c'' with c'' = b c' - c = m - (m + c) mod c',
    b = (m + c) // c', and as a'c - ac' = 1, the symbol steps from a/c to
    a'/c' by the weight of the single class (c' : c).  It walks [0, 1/2]
    as the s = m // 2 lanes (j/2s, (j+1)/2s], all stepped at once in numpy,
    one step a row.  Each lane starts from j/2s and the point before it in
    F_m, with n at j/2s from one continued-fraction expansion of all the
    starts, and is done at its first point with the denominator of its
    end, the one such point in it.  The lanes hold about equally many
    points, 2128 on average at m = 7000 with a 99th percentile of 2179,
    but the first few more: (1/2s, 1/s] holds the s unit fractions 1/c,
    s <= c < 2s.  So the last TAIL lanes are finished one point at a time
    in Python: stepped in numpy to the end, the chunk's rows regrown as
    lanes end, the same counts took 4.3 against 3.3 ms at m = 600 and 0.144
    against 0.116 s at m = 7000 on a shared 2-core Xeon (medians of 15 and
    7 calls, slower in 11 and 9 of 12 alternating pairs of processes),
    where the tail walks only 1,662 and 1,058 of the 7.4 M points of two
    shares.  The points in (1/2, 1) are not walked: they are the images
    (c - a)/c of the points a/c in (0, 1/2), where the odd symbol is -n.

    A lane steps its denominators c and its running n alone: the numerator
    of a walked a/c of lane j is a = floor(c (j+1) / 2s), the one integer
    in (c j/2s, c (j+1)/2s], and 0/1 is lane -1.  Indeed a/c <= (j+1)/2s gives
    a <= c (j+1)/2s, and (a+1)/c > (j+1)/2s holds: for c <= 2s as a/c > j/2s
    and 1/c >= 1/2s.  The one c past 2s is c = m = 2s + 1 at odd m, and there
    a/c > j/2s means 2s a - c j >= 1, so 2s (a+1) - c (j+1) = 2s a - c j - 1
    >= 0, where equality would need 2s | c (j+1), so 2s | j + 1 with c
    coprime to 2s, which 0 < j + 1 <= s rules out.  The sweep stores no
    point: it hands each chunk of about CHUNK walked points once to its
    sinks (_Chunk), so its working set grows with the chunk, not with the
    number of points.

    counts(spec) sinks the points into per-row counts of each n, over all
    coprime residues and over the window of the spec: the one way scan and
    distribution_report reach their sample, which serves the same bound and
    window again from its last sweep.  Its sweep, like the one of
    contiguous_avg, is dealt to worker processes (_sweep), each walking a
    run of consecutive lanes.  dense(c) sweeps to c in this process and
    keeps row c, writing each walked a and its image c - a: the per-point
    oracle.
    """

    def __init__(self, table: PeriodTable):
        self.q = table.q
        self.quantum = table.quantum
        # weight of the class (u : v) at u * q + v
        self._step = np.asarray(table.lattice, dtype=np.int32)[np.asarray(table.classes.flat)]
        self._first = int(table.lattice[table.classes.index_of(1, 0)])
        self._last = None

    def counts(self, spec: ScanSpec) -> tuple[LatticeCounts, LatticeCounts]:
        """Counts of every row c <= spec.m_max over all coprime residues and
        over the window [spec.x0, spec.x1), one object when it is [0, 1); a
        spec of another level, whose gcd classes label neither, is refused."""
        if spec.q != self.q:
            raise ValueError(f"a scan of level {spec.q} cannot read a table of level {self.q}")
        m, x0, x1 = key = spec.m_max, spec.x0, spec.x1
        if self._last is None or self._last[0] != key:
            full = LatticeCounts(m)
            window = full if (x0, x1) == (0, 1) else LatticeCounts(m, x0, x1)
            self._sweep(m, *((full,) if window is full else (full, window)))
            self._last = (key, full, window)
        return self._last[1:]

    def dense(self, c: int) -> np.ndarray:
        """quantum * n at the coprime residues a of row c, 0 elsewhere."""
        out = np.zeros(c)

        def keep(chunk):
            at = chunk.c == c
            a, n = chunk.numerators()[at], chunk.n[at]
            out[a] = self.quantum * n
            if c > 2:  # 0/1 and 1/2 are their own images
                out[c - a] = self.quantum * -n

        self._compute(c, keep)
        return out

    def _sweep(self, m: int, *sinks) -> None:
        """self._compute(m, *sinks) dealt to processes (forks.deal), then every sink's
        fold(); the sinks also hold counts and merge (_Chunk).  A worker sends its sinks'
        counts as raw int64, each sink's size, then its rows, which this process reads
        ROW_BLOCK rows at a time into one buffer, never holding a second copy of them."""
        w = workers(m, FORK_MIN)

        def walk(i):  # a generator, so walking share 0 reads no counts
            self._compute(m, *sinks, part=(i, w))
            return (b for x in sinks for b in (np.int64(x.counts.size).tobytes(), x.counts.data))

        deal("sweep", w, walk, lambda i, fh: all(_merge_from(fh, sink) for sink in sinks))
        for sink in sinks:  # counts add, so the merged counts fold as the serial ones
            sink.fold()

    def _compute(self, m: int, *sinks, part: tuple[int, int] = (0, 1)) -> None:
        """Sweep every point a/c in [0, 1/2] with c <= m once, calling every
        sink with each chunk of points (_Chunk).

        part = (i, w) walks worker i's share of w workers: the lanes
        [s i / w, s (i + 1) / w) of the s = m // 2, and 0/1 for worker 0."""
        q, step, (i, w) = self.q, self._step, part
        # gathered at every point, so as narrow as q allows: on a 2-core Xeon a
        # fresh process's first sweep to 7000 took 0.121 s with uint8 against
        # 0.126 s with int32 (medians of 12 alternating processes, faster in 8)
        mod = (np.arange(m + 1) % q).astype(np.min_scalar_type(q - 1))
        s = m // 2
        span = 2 * s or 2  # at m = 1 there is no lane, and 0/1 is in lane -1 of any span

        def emit(c, n, lanes):
            chunk = _Chunk(c, n, lanes, span)
            for sink in sinks:
                sink(chunk)

        if i == 0:
            emit(np.ones(1, dtype=np.int32), np.full(1, self._first, dtype=np.int32), np.full(1, -1))
        lanes = np.arange(s * i // w, s * (i + 1) // w)
        g = np.gcd(lanes, 2 * s)
        h, k, end = lanes // g, 2 * s // g, (2 * s // np.gcd(lanes + 1, 2 * s)).astype(np.int32)
        n, d = self._euclid(h, k)
        d += (m - d) // k * k  # the point before h/k in F_m has the largest d = h^-1 mod k
        # steps a chunk: about CHUNK points in all, and at most m/16, a fifth of a lane
        rows = max(1, min(CHUNK // max(lanes.size, 1), s // 8))
        # c of the last two points of every lane, at first before h/k and h/k,
        # then the rows of the steps; one buffer, its lanes fewer as they end
        buf, b = np.empty((rows + 2) * lanes.size, dtype=np.int32), np.empty(lanes.size, dtype=np.int32)
        x = buf.reshape(rows + 2, lanes.size)
        x[0], x[1] = d, k
        while len(n) > TAIL:
            for t in range(1, rows + 1):  # c'' = m - (m + c) mod c'
                np.add(x[t - 1], m, out=b)
                np.remainder(b, x[t], out=b)
                np.subtract(m, b, out=x[t + 1])
            r = mod.take(x[1:])  # each step adds the class (c' : c) to n
            ns = step.take(np.multiply(r[1:], q, dtype=np.int32) + r[:-1])
            ns[0] += n
            for t in range(1, rows):
                ns[t] += ns[t - 1]
            c = x[2:]
            hit = c == end
            done = hit.any(axis=0)
            if not done.any():
                emit(c, ns, lanes)
                n = ns[-1].copy()
                x[:2] = x[-2:]
                continue
            # a lane is done at its end: its points up to there, lane by lane
            over = np.flatnonzero(done)
            last = hit[:, over].argmax(axis=0)
            keep = np.arange(rows) <= last[:, None]
            emit(c[:, over].T[keep], ns[:, over].T[keep], np.repeat(lanes[over], last + 1))
            live = ~done
            state, n = x[-2:, live], ns[-1, live]
            emit(c[:, live], ns[:, live], lanes[live])
            lanes, end, b = lanes[live], end[live], b[: len(n)]
            x = buf[: (rows + 2) * len(n)].reshape(rows + 2, len(n))
            x[:2] = state
        # the last few lanes, the longest ones, point by point
        out, runs = [], []
        step, mod = step.tolist(), mod.tolist()
        for cp, c, nc, e in zip(*x[:2].tolist(), n.tolist(), end.tolist()):
            size = len(out)
            while c != e:
                cp, c = c, m - (m + cp) % c
                nc += step[mod[c] * q + mod[cp]]
                out += (c, nc)
            runs.append((len(out) - size) // 2)
        if out:
            c, n = np.array(out, dtype=np.int32).reshape(-1, 2).T
            emit(c, n, np.repeat(lanes, runs))

    def _euclid(self, h: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """n at the reduced fractions h/k in [0, 1), and h^-1 mod k, from one
        continued-fraction expansion of them all.  From 1/0 and 0/1, each
        convergent p_j/q_j adds the weight of the class (q_j : s_(j-1)),
        s_j = (-1)^j q_j, and the last, h/k, has h s_(J-1) = 1 mod k."""
        n, inv = np.full(h.size, self._first, dtype=np.int32), 0 * h
        at = np.flatnonzero(h)
        u, v, s0, s1, nc = k[at], h[at], 0 * at, 1 + 0 * at, n[at]
        while at.size:
            b = u // v
            u, v, s0, s1 = v, u - b * v, s1, s0 - b * s1
            nc += self._step[abs(s1) % self.q * self.q + s0 % self.q]
            n[at], inv[at] = nc, s0
            at, u, v, s0, s1, nc = (y[v > 0] for y in (at, u, v, s0, s1, nc))
        return n, inv % k


def _merge_from(fh, sink) -> bool:
    """Add the counts a worker wrote to fh (SymbolStore._sweep) to the sink's,
    ROW_BLOCK rows at a time through one buffer; False if they end short."""
    head = fh.read(8)
    if len(head) < 8:
        return False
    rows = len(sink.counts)
    width = int(np.frombuffer(head, dtype=np.int64)[0]) // rows
    buf = np.empty((ROW_BLOCK, width), dtype=np.int64)
    for at in range(0, rows, ROW_BLOCK):
        block = buf[: rows - at]
        if fh.readinto(block) < block.nbytes:
            return False
        sink.merge(block, at)
    return True


def _row_sums(counts: LatticeCounts, k_max: int, quantum: float) -> tuple[np.ndarray, np.ndarray]:
    """Every row's number of points, and its S_k = quantum^k sum n^k for
    k = 1..k_max as column c of a k_max-row matrix: each sum over n is an
    exact int64 sum, which S_k multiplies by quantum^k with one rounding."""
    off = counts.off
    if off**k_max * int(counts.counts.sum(axis=1).max()) >= 1 << 62:
        raise OverflowError(f"moment sums of order {k_max} could overflow int64")
    powers = np.arange(-off, off + 1, dtype=np.int64)[:, None] ** np.arange(k_max + 1)
    sums = counts.counts @ powers
    return sums[:, 0], np.array([[quantum**k] for k in range(1, k_max + 1)]) * sums[:, 1:].T


def _row_columns(n: int) -> np.recarray:
    """n empty scan rows: per denominator c, d = gcd(c, q), the number phi
    of its points, S_1 .. S_MOMENTS over them, and the same two over the
    window.  The counts are float64 like the sums, exact below 2^53, so a
    sum over rows is a float as JSON writes it."""
    sums = (np.float64, (MOMENTS,))
    names = [("c", np.int64), ("d", np.int64), ("phi", np.float64), ("s", *sums),
             ("n_int", np.float64), ("s_int", *sums)]
    return np.recarray(n, dtype=names)


def _denominators(spec: ScanSpec) -> np.ndarray:
    """Every c <= spec.m_max of the gcd class spec.d_filter, ascending, as int64."""
    cs = np.arange(1, spec.m_max + 1, dtype=np.int64)
    return cs if spec.d_filter == "all" else cs[np.gcd(cs, spec.q) == spec.d_filter]


def scan(spec: ScanSpec, store: SymbolStore) -> np.recarray:
    """One row per admissible denominator, in ascending c, as the columns
    of a record array (_row_columns)."""
    full, window = store.counts(spec)
    cs = _denominators(spec)
    rows = _row_columns(len(cs))
    rows.c, rows.d = cs, np.gcd(cs, spec.q)
    phi, s = _row_sums(full, MOMENTS, store.quantum)
    rows.phi, rows.s = phi[cs], s[:, cs].T
    if window is not full:
        phi, s = _row_sums(window, MOMENTS, store.quantum)
    rows.n_int, rows.s_int = phi[cs], s[:, cs].T
    return rows


# ---------------------------------------------------------------------------
# Reports on top of the rows


class _BinSums:
    """The sums of n per row c <= m and bin j: counts[c, j] over the points
    a/c with exactly j of the grid points i/g below them.  A sink of the
    sweep (_Chunk); fold() adds the images."""

    def __init__(self, m: int, g: int):
        self.g = np.int64(g)
        self.counts = np.zeros((m + 1, g + 1), dtype=np.int64)

    def __call__(self, chunk: _Chunk) -> None:
        # i/g < a/c exactly for i < a g / c, so the bin is ceil(a g / c).  The
        # first grid point past a lane's start j/span is floor(j g / span) + 1,
        # which is the bin of every point of a lane that holds no grid point
        # before its end; only the other lanes need their numerators
        c, n, lanes, span = chunk
        first = lanes * self.g // span + 1
        at = np.multiply(c, self.g + 1, dtype=np.intp)
        at += first
        split = np.flatnonzero(first * span < (lanes + 1) * self.g)
        if split.size:
            c = c[..., split]
            at[..., split] = c * (self.g + 1) - (-chunk.numerators(split) * self.g // c)
        np.add.at(self.counts.reshape(-1), at.reshape(-1), n.astype(np.int64).reshape(-1))

    def merge(self, block: np.ndarray, at: int) -> None:
        self.counts[at : at + len(block)] += block

    def fold(self) -> None:
        """Add the images (c - a)/c, with -n, of the walked points of the
        rows c > 2.  The image of bin j is ceil((c - a) g / c) = g -
        floor(a g / c): g + 1 - j for a point off the grid lines, g - j for
        one on them.  A reduced a/c lies on a grid line exactly when c | g,
        and then all of its row does."""
        for at in range(3, len(self.counts), ROW_BLOCK):
            rows = self.counts[at : at + ROW_BLOCK]
            on = self.g % np.arange(at, at + len(rows)) == 0
            rows[~on, 1:] -= rows[~on, :0:-1]
            rows[on] -= rows[on, ::-1]


def contiguous_avg(store: SymbolStore, m_max: int, n_grid: int) -> np.ndarray:
    """Average of the contiguous sums G_c(x) = (1/c) sum_{0<=a<=floor(cx)} of
    the symbol at a/c, over all denominators c <= M, at the n_grid points
    x_j = j/g, g = n_grid - 1; real convention.

    An unreduced a/c is its reduced fraction a'/c' with c' | c, and a = c is
    1/1, which carries the value of 0/1: 0, as the real symbol is odd.
    Collecting each reduced a'/c' <= x over its multiples c = k c' <= M gives
        A_M(x) = (quantum/M) sum_{a'/c' <= x, c' <= M} n(a'/c') H(floor(M/c'))/c'
    with H the harmonic numbers, so only the reduced points are read.  One
    sweep sums n per (c', bin), a point's bin being the number of grid points
    below it; the prefix over the bins is the partial sum over a'/c' <= x_j,
    an exact integer on the symbol lattice.
    """
    g = n_grid - 1
    if m_max * g >= 1 << 62:  # a g and c (g + 1) stay exact in int64
        raise ValueError(f"a grid of {n_grid} points is too fine for M = {m_max}")
    bins = _BinSums(m_max, g)
    store._sweep(m_max, bins)
    sums = np.cumsum(bins.counts, axis=1, out=bins.counts)
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, m_max + 1))))
    out = np.zeros(n_grid)
    for c in range(1, m_max + 1):
        out += harmonic[m_max // c] / c * sums[c]
    return store.quantum * out / m_max


WeylEntry = namedtuple("WeylEntry", "n total ratio")


def _moebius_totient(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """mu(0..n_max) and phi(0..n_max) from one sieve: when it reaches p,
    phi[p] is still p exactly when p is prime, as no smaller prime divides it."""
    mu = np.ones(n_max + 1, dtype=np.int64)
    phi = np.arange(n_max + 1, dtype=np.int64)
    for p in range(2, n_max + 1):
        if phi[p] == p:
            mu[::p] *= -1
            mu[:: p * p] = 0
            phi[::p] -= phi[::p] // p
    return mu, phi


def weyl_report(spec: ScanSpec) -> list[WeylEntry]:
    """Totals of e(n a/c) over every sampled point, per mode, with |total|/count.

    The sample holds every coprime residue a mod c of each denominator c <= M
    in the gcd class, over which the sum of e(n a/c) is the Ramanujan sum
    mu(c/g) phi(c)/phi(c/g) with g = gcd(c, n) (von Sterneck).  So no symbol
    value enters and no sweep runs; the totals are exact integers, real, and
    even in n, and the n=0 entry is the sample count.
    """
    mu, phi = _moebius_totient(spec.m_max)
    cs = _denominators(spec)
    phis = phi[cs]
    count = int(phis.sum())
    if not count:
        raise ValueError(f"no denominator c <= {spec.m_max} has gcd {spec.d_filter} with q")
    entries = []
    for n in WEYL_MODES:
        m = cs // np.gcd(cs, n)
        total = complex(int(np.sum(mu[m] * (phis // phi[m]))))
        entries.append(WeylEntry(n=n, total=total, ratio=abs(total) / count))
    return entries


FitResult = namedtuple("FitResult", "fixed_slope_shift_real slope_real shift_real")
FitResult.__doc__ = """Variance-law fits for one gcd class, in the real sign convention.

    fixed_slope_shift_real pins the slope at the theoretical value and
    averages the residual with phi(c) weights; slope/shift are the free
    weighted least squares in log c.  Paper-convention values are their
    negations (the paper symbol is i times the real one).
    """


def _fit_class(cs, phis, variances, slope_real: float) -> tuple[float, ...]:
    x = np.log(cs)
    w = phis.astype(np.float64)
    y = variances
    sw = float(np.sum(w))
    fixed = float(np.sum(w * (y - slope_real * x)) / sw)
    sx = float(np.sum(w * x))
    sxx = float(np.sum(w * x * x))
    sy = float(np.sum(w * y))
    sxy = float(np.sum(w * x * y))
    denom = sw * sxx - sx * sx
    if denom <= 0:
        raise ValueError("need at least two distinct denominators to fit")
    slope = (sw * sxy - sx * sy) / denom
    shift = (sxx * sy - sx * sxy) / denom
    return fixed, slope, shift


def variance_fit(rows: np.recarray, slope_real: float) -> dict[int, FitResult]:
    """Per-gcd-class shift estimates against Var_real(c) = slope log c + D,
    from the columns of scan rows.

    Uses rows with c >= 2 (log c = 0 makes c = 1 uninformative for the free
    fit and its phi-weight is negligible for the fixed one).
    """
    rows = rows[rows.c >= 2]
    out = {}
    for d in sorted(set(rows.d.tolist())):  # np.unique would import numpy.ma, 20 ms
        group = rows[rows.d == d]
        cs, phis, s1, s2 = group.c.astype(np.float64), group.phi, group.s[:, 0], group.s[:, 1]
        variances = s2 / phis - (s1 / phis) ** 2
        fixed, slope, shift = _fit_class(cs, phis, variances, slope_real)
        out[d] = FitResult(
            fixed_slope_shift_real=fixed,
            slope_real=slope,
            shift_real=shift,
        )
    if not out:
        raise ValueError("no rows with c >= 2 to fit")
    return out


DistributionReport = namedtuple("DistributionReport", "n_sample moments_shift moments_slope "
                                "ks_shift ks_slope hist_edges hist_counts")
DistributionReport.__doc__ = """Standardized-sample statistics under both variance normalizations.

    The slope-only normalization divides by sqrt(slope * log c(r)) where
    c(r) = c*sqrt(q/d) is the scaled denominator the variance law is stated
    in; the shifted one divides by sqrt(slope * log c + shift), the fitted
    empirical law (whose shift absorbs the same class constant).  Moments
    are raw sample moments of the standardized values; the KS statistic is
    the exact one-sample sup distance to the standard normal CDF.
    """


def distribution_report(
    spec: ScanSpec, store: SymbolStore, slope_real: float, shift_real: float
) -> DistributionReport:
    """Standardize the symbol values of the gcd class spec.d_filter, a single
    divisor of q, on the window [spec.x0, spec.x1) over c <= spec.m_max,
    and compare them against the standard normal: moments up to 6, KS
    distance, and a histogram of 100 bins on [-5, 5].

    The sample is read as atoms: each admissible c contributes its lattice
    integers n on the window with their counts w, at z = quantum n / sigma_c.
    Moments are sum w z^k / N, the histogram counts weights, and the KS
    distance is exact over the sorted atoms.  The atoms, ascending in c and
    then in n, come from one pass over the window counts of the admissible
    rows and stay numpy columns, and the exact sums and the normal CDF take
    their floats ROW_BLOCK at a time, so no Python object is made per atom:
    the report's peak is under 100 bytes per atom (6.1 MB, by tracemalloc,
    for the 63,981 atoms of d = 1 on [1/10, 7/20) at M = 16000).
    """
    if spec.d_filter == "all":
        raise ValueError("the distribution report needs a single gcd class, not 'all'")
    _, window = store.counts(spec)
    half_log_class = 0.5 * math.log(spec.q / spec.d_filter)
    cs, sd_shift, sd_slope = _denominators(spec), [], []
    for c in cs.tolist():
        var_slope = slope_real * (math.log(c) + half_log_class)
        var_shift = slope_real * math.log(c) + shift_real
        if var_slope <= 0 or var_shift <= 0:
            raise ValueError(f"modelled variance is not positive at c={c}")
        sd_shift.append(math.sqrt(var_shift))
        sd_slope.append(math.sqrt(var_slope))
    rows = window.counts[cs]
    r, j = np.nonzero(rows)
    w = rows[r, j]
    del rows
    vals = store.quantum * (j - window.off)
    z_shift = vals / np.array(sd_shift)[r]
    z_slope = vals / np.array(sd_slope)[r]
    del r, j, vals
    n_sample = int(w.sum())
    if not n_sample:
        raise ValueError(f"empty sample: no point a/c of the class d={spec.d_filter} with "
                         f"c <= {spec.m_max} lies in [{spec.x0}, {spec.x1})")

    def raw_moments(z):
        # w z^k by repeated products, which keep the sign symmetry z -> -z
        # exact, so odd moments over a symmetric sample are exactly 0
        term = w.astype(np.float64)
        moments = []
        for _ in range(6):
            np.multiply(term, z, out=term)
            moments.append(math.fsum(_floats(term)) / n_sample)
        return tuple(moments)

    edges = np.linspace(-5.0, 5.0, 101)
    hist, _ = np.histogram(z_shift, bins=edges, weights=w)
    return DistributionReport(
        n_sample=n_sample,
        moments_shift=raw_moments(z_shift),
        moments_slope=raw_moments(z_slope),
        ks_shift=_ks_distance(z_shift, w),
        ks_slope=_ks_distance(z_slope, w),
        hist_edges=tuple(edges.tolist()),
        hist_counts=tuple(hist.tolist()),
    )


def _floats(x: np.ndarray):
    """The elements of the 1-D array x as Python floats, converted ROW_BLOCK
    at a time, so no list of them all is held."""
    blocks = range(0, x.size, ROW_BLOCK)
    return chain.from_iterable(x[at : at + ROW_BLOCK].tolist() for at in blocks)


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _ks_distance(z: np.ndarray, w: np.ndarray) -> float:
    """sup |F - Phi| for the sample with weight w at z: over the sorted atoms,
    the larger of cum_after/N - Phi(z) and Phi(z) - cum_before/N."""
    order = np.argsort(z, kind="stable")
    z, w = z[order], w[order]
    after = np.cumsum(w)
    n = int(after[-1])
    cdf = np.fromiter(map(_normal_cdf, _floats(z)), dtype=np.float64, count=z.size)
    return float(max(np.max(after / n - cdf), np.max(cdf - (after - w) / n)))


# ---------------------------------------------------------------------------
# CSV writers (floats with 17 significant digits throughout)


def _write_csv(path: str, fingerprint: str, head: list[str], line: str, rows) -> None:
    """The fingerprint comment, the header, and each row of cells formatted
    by the string line."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"# fingerprint={fingerprint}\n")
        fh.write(",".join(head) + "\n")
        for row in rows:
            fh.write(line.format(*row))


def write_aggregates_csv(path: str, rows: np.recarray, fingerprint: str) -> None:
    """The rows as CSV, ROW_BLOCK rows to a string.  Each row's count and
    sums over all residues are formatted once, and stand for the window's
    too when every window column equals its full one bit for bit: on the
    rows of scan --M 7000 on a 2-core Xeon the same bytes took 25 ms,
    against 47 ms when both were formatted (medians of 15 calls, faster in
    10 of 10 alternating processes)."""
    ks = range(1, MOMENTS + 1)
    head = ["c", "d", "phi", *(f"S{k}" for k in ks), "I_count", *(f"I_S{k}" for k in ks)]
    cells = ",".join(["{}", *["{:.17g}"] * MOMENTS]).format
    same = all(np.array_equal(x.view(np.int64), y.view(np.int64))
               for x, y in ((rows.n_int, rows.phi), (rows.s_int, rows.s)))

    def blocks():
        # a block of rows at a time as Python numbers, so no row of them all is held
        for at in range(0, len(rows), ROW_BLOCK):
            block = rows[at : at + ROW_BLOCK]
            full = list(map(cells, block.phi.astype(np.int64).tolist(), *block.s.T.tolist()))
            window = full if same else map(cells, block.n_int.astype(np.int64).tolist(),
                                           *block.s_int.T.tolist())
            yield ("".join(f"{c},{d},{x},{y}\n" for c, d, x, y in
                           zip(block.c.tolist(), block.d.tolist(), full, window)),)

    _write_csv(path, fingerprint, head, "{}", blocks())


def write_fit_csv(path: str, fits: dict[int, FitResult], fingerprint: str) -> None:
    head = ["d", "slope_real", "shift_real", "slope_paper", "shift_paper", "fixed_slope_shift"]
    cells = (
        [d, r.slope_real, r.shift_real, -r.slope_real, -r.shift_real, -r.fixed_slope_shift_real]
        for d, r in sorted(fits.items())
    )
    _write_csv(path, fingerprint, head, "{}" + ",{:.17g}" * 5 + "\n", cells)


def write_dist_csv(path: str, report: DistributionReport, fingerprint: str) -> None:
    edges = report.hist_edges
    phi = [_normal_cdf(x) for x in edges[1:]]
    cells = zip(edges[:-1], edges[1:], report.hist_counts, phi)
    head = ["bin_lo", "bin_hi", "count", "phi_cdf"]
    _write_csv(path, fingerprint, head, "{:.17g},{:.17g},{},{:.17g}\n", cells)


def write_weyl_csv(path: str, entries: list[WeylEntry], fingerprint: str) -> None:
    cells = ([e.n, e.total.real, e.total.imag, e.ratio] for e in entries)
    _write_csv(path, fingerprint, ["n", "re", "im", "ratio"], "{}" + ",{:.17g}" * 3 + "\n", cells)


def write_contig_csv(
    path: str,
    xs: list[float],
    a_m: np.ndarray,
    ghat_vals: np.ndarray,
    fingerprint: str,
) -> None:
    cells = zip(xs, a_m, ghat_vals)
    _write_csv(path, fingerprint, ["x", "A_M_real", "ghat"], "{:.17g},{:.17g},{:.17g}\n", cells)
