#!/usr/bin/env python3
"""modsym benchmark: time the real CLI on seeded workloads and check every output.

    python3 perfbench/run.py --workload verify|scan|explore --seed N --seconds S --trace 0|1

Run it from anywhere inside a modsym checkout; it finds the package under
``src/`` next to this directory and runs ``python -m modsym.shell`` with
``PYTHONPATH=src``, one child process at a time (a closed loop: each command
starts when the previous one has exited).  Every run owns fresh cache and
output directories under ``.perfbench-work/`` in the checkout, so it pays for
and times its own cache build (``setup_s``), then times warm commands.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end figures; with ``--trace 1`` it runs the same
commands once more through ``perfbench/tracer.py`` and reports per-layer
figures and the tracing overhead instead.  Workloads, metrics, checks and
tolerances are described in ``perfbench/NOTES.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = BENCH / "reference.json"

N_MAX = 20000  # coefficient count; the CLI default of 1e5 makes set-up 18 s
SETUPS = 3  # cold cache builds per run; setup_s is their median
QUERIES = 20  # symbol queries per explore pass: p50 has 10 samples above it
RUN_DEADLINE_S = 170.0  # every child is killed when a run reaches this age
QUANTUM = 0.798121111065892  # every m_minus of 15a1 is an integer multiple
QUANTUM_TOL = 1e-9
LEVEL = 15

WORKLOADS = ("verify", "scan", "explore")


# ---------------------------------------------------------------------------
# Commands and their inputs


@dataclass
class Cmd:
    """One CLI invocation and the RunConfig fields its outputs are keyed by."""

    kind: str
    argv: list[str]
    config: dict = field(default_factory=dict)
    query: tuple[int, int] | None = None


REPORTS = [
    Cmd("dist", ["dist", "--M", "4000", "--d", "1", "--interval", "1/10:7/20"],
        {"m_max": 4000, "d_filter": 1, "x0": Fraction(1, 10), "x1": Fraction(7, 20)}),
    Cmd("contig", ["contig", "--M", "2000", "--grid", "101"], {"m_max": 2000}),
    Cmd("fit", ["fit", "--M", "2000"], {"m_max": 2000}),
]


def draw_queries(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """(a, c) with c log-uniform in [2, 1e6] and a uniform among units mod c."""
    out = []
    for _ in range(n):
        c = round(math.exp(rng.uniform(math.log(2), math.log(1e6))))
        a = rng.randrange(1, c)
        while math.gcd(a, c) != 1:
            a = rng.randrange(1, c)
        out.append((a, c))
    return out


def pass_commands(workload: str, seed: int, rng: random.Random) -> list[Cmd]:
    if workload == "verify":
        return [Cmd("verify", ["verify", "--M", "600", "--seed", str(seed)],
                    {"m_max": 600, "seed": seed})]
    if workload == "scan":
        return [Cmd("scan", ["scan", "--M", "7000"], {"m_max": 7000})]
    queries = [Cmd("symbol", ["symbol", str(a), str(c)], query=(a, c))
               for a, c in draw_queries(rng, QUERIES)]
    return queries + REPORTS


SETUP = Cmd("table", ["table"])


# ---------------------------------------------------------------------------
# Running one command


@dataclass
class Outcome:
    cmd: Cmd
    wall_s: float
    rss_mb: float
    problem: str | None  # why the command counts as failed, None if it passed
    headline: dict = field(default_factory=dict)
    spans: dict | None = None


class Runner:
    def __init__(self, run_dir: Path, started: float):
        self.run_dir = run_dir
        self.deadline = started + RUN_DEADLINE_S
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def fresh_dirs(self) -> tuple[Path, Path]:
        self.count += 1
        base = self.run_dir / f"set-{self.count}"
        (base / "cache").mkdir(parents=True)
        (base / "out").mkdir()
        return base / "cache", base / "out"

    def run(self, cmd: Cmd, cache: Path, out: Path, checker: "Checker",
            traced: bool = False) -> Outcome:
        self.count += 1
        log = self.run_dir / f"cmd-{self.count}"
        prefix = [sys.executable, "-m", "modsym.shell"]
        if traced:
            prefix = [sys.executable, str(BENCH / "tracer.py"), f"{log}.spans.json"]
        argv = prefix + cmd.argv + ["--n-max", str(N_MAX), "--cache-dir", str(cache),
                                    "--out-dir", str(out)]
        with open(f"{log}.out", "wb") as fout, open(f"{log}.err", "wb") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
        # wait4 reaped the child; record that so Popen does not wait again
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        stdout = Path(f"{log}.out").read_text(errors="replace")
        outcome = Outcome(cmd, wall, usage.ru_maxrss / 1024.0, None)
        if rc != 0:
            err = Path(f"{log}.err").read_text(errors="replace").strip()
            outcome.problem = f"exit {rc}: {err[-300:]}"
        else:
            try:
                outcome.headline = checker.check(cmd, stdout, cache, out)
            except (CheckError, ValueError, KeyError, IndexError, OSError) as exc:
                outcome.problem = f"{type(exc).__name__}: {exc}"
        if traced and Path(f"{log}.spans.json").exists():
            outcome.spans = json.loads(Path(f"{log}.spans.json").read_text())
        return outcome


# ---------------------------------------------------------------------------
# Output checks


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(name: str, got: float, want: float, tol: float) -> None:
    _require(abs(got - want) <= tol, f"{name} = {got!r}, recorded {want!r} (tol {tol:g})")


def _read_csv(path: Path, fingerprint: str) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    _require(lines[0] == f"# fingerprint={fingerprint}",
             f"{path.name}: header {lines[0]!r}, expected fingerprint {fingerprint}")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _find(pattern: str, text: str) -> re.Match:
    m = re.search(pattern, text, re.MULTILINE)
    _require(m is not None, f"output has no line matching {pattern!r}")
    return m


class Checker:
    """Checks a command's output against the inputs it was given.

    Fingerprints come from ``RunConfig(...).fingerprint()`` for the fields the
    benchmark passed.  Scan and report headline numbers do not depend on the
    seed, so they are compared with ``reference.json``, recorded at the
    commit that introduced the benchmark, within the tolerances below.
    """

    REL = 1e-9  # full-precision CSV values
    PRINTED_4 = 1.5e-4  # values printed with 4 decimals
    PRINTED_5 = 1.5e-5  # values printed with 5 decimals

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from modsym.shell import RunConfig

        self.run_config = RunConfig
        self.ref = json.loads(REFERENCE.read_text())

    def fingerprint(self, cmd: Cmd) -> str:
        return self.run_config(n_max=N_MAX, **cmd.config).fingerprint()

    def check(self, cmd: Cmd, stdout: str, cache: Path, out: Path) -> dict:
        return getattr(self, f"check_{cmd.kind}")(cmd, stdout, cache, out)

    def check_table(self, cmd, stdout, cache, out):
        classes = int(_find(r"^period table: (\d+) classes", stdout).group(1))
        _require(classes == self.ref["table"]["classes"], f"{classes} classes")
        for name in (f"coeffs-q{LEVEL}-N{N_MAX}.txt", f"table-q{LEVEL}-tol1e-12.txt"):
            _require((cache / name).is_file(), f"cache file {name} was not written")
        return {"classes": classes}

    def check_verify(self, cmd, stdout, cache, out):
        verdict = json.loads(stdout)
        _require(verdict["passed"] is True, "verify did not pass")
        _require(verdict["fingerprint"] == self.fingerprint(cmd), "verify fingerprint")
        return {"gates": len(verdict["gates"])}

    def check_symbol(self, cmd, stdout, cache, out):
        a, c = cmd.query
        r = _find(r"^r = (\d+)/(\d+)$", stdout)
        _require((int(r.group(1)), int(r.group(2))) == (a, c), f"r = {r.group(0)}")
        d = int(_find(r"^d = gcd\(c, q\) = (\d+)$", stdout).group(1))
        _require(d == math.gcd(c, LEVEL), f"d = {d} for c = {c}")
        m = float(_find(r"^m_minus\(r\) = (\S+)$", stdout).group(1))
        k = round(m / QUANTUM)
        _require(abs(m - k * QUANTUM) <= QUANTUM_TOL,
                 f"m_minus({a}/{c}) = {m!r} is off the lattice of {QUANTUM}")
        return {"m_minus": m, "lattice": k}

    def check_scan(self, cmd, stdout, cache, out):
        head, rows = _read_csv(out / "aggregates.csv", self.fingerprint(cmd))
        ref = self.ref["scan"]
        col = {name: i for i, name in enumerate(head)}
        got = {"rows": len(rows), "points": sum(int(row[col["phi"]]) for row in rows)}
        _require(got == {"rows": ref["rows"], "points": ref["points"]}, f"scan sizes {got}")
        for k in range(1, 5):
            got[f"S{k}"] = math.fsum(float(row[col[f"S{k}"]]) for row in rows)
            # odd moments vanish by symmetry; judge them on the next even scale
            scale = abs(ref[f"S{k + k % 2}"])
            _close(f"sum S{k}", got[f"S{k}"], ref[f"S{k}"], self.REL * scale)
        return got

    def check_dist(self, cmd, stdout, cache, out):
        _read_csv(out / "dist.csv", self.fingerprint(cmd))
        ref = self.ref["dist"]
        got = {"n_sample": int(_find(r"^sample: (\d+) values", stdout).group(1))}
        _require(got["n_sample"] == ref["n_sample"], f"dist sample {got['n_sample']}")
        for name in ("shift", "slope"):
            m = _find(rf"^{name}-normalized: moments (.*); KS (\S+)$", stdout)
            got[f"moments_{name}"] = [float(v) for v in m.group(1).split()]
            got[f"ks_{name}"] = float(m.group(2))
            for j, (g, w) in enumerate(zip(got[f"moments_{name}"], ref[f"moments_{name}"])):
                _close(f"{name} moment {j + 1}", g, w, self.PRINTED_4)
            _close(f"KS ({name})", got[f"ks_{name}"], ref[f"ks_{name}"], self.PRINTED_4)
        return got

    def check_contig(self, cmd, stdout, cache, out):
        head, rows = _read_csv(out / "contig.csv", self.fingerprint(cmd))
        _require(len(rows) == 101, f"contig has {len(rows)} grid rows")
        m = _find(r"^sup\|A_M - limit\| = (\S+) .* = (\S+)\)$", stdout)
        got = {"sup_dev": float(m.group(1)), "sup_limit": float(m.group(2))}
        for key in got:
            _close(f"contig {key}", got[key], self.ref["contig"][key], self.PRINTED_5)
        return got

    def check_fit(self, cmd, stdout, cache, out):
        head, rows = _read_csv(out / "fit.csv", self.fingerprint(cmd))
        col = head.index("fixed_slope_shift")
        got = {f"shift_d{row[0]}": float(row[col]) for row in rows}
        ref = self.ref["fit"]
        _require(sorted(got) == sorted(ref), f"fit classes {sorted(got)}")
        for key, want in ref.items():
            _close(f"fit {key}", got[key], want, self.REL * abs(want))
        return got


# ---------------------------------------------------------------------------
# A run: cold set-ups, then timed passes of the workload's commands


@dataclass
class Phase:
    setups: list[Outcome] = field(default_factory=list)
    passes: list[list[Outcome]] = field(default_factory=list)

    def outcomes(self) -> list[Outcome]:
        return self.setups + [o for p in self.passes for o in p]


def run_phase(runner: Runner, checker: Checker, workload: str, seed: int,
              seconds: float, setups: int, traced: bool) -> Phase:
    """Time `setups` cold cache builds, then passes until `seconds` is used.

    A pass is started only while it is expected to end inside the window,
    judged by the passes so far; there is always at least one.
    """
    phase = Phase()
    rng = random.Random(seed)
    cache = out = None
    for _ in range(setups):
        cache, out = runner.fresh_dirs()
        phase.setups.append(runner.run(SETUP, cache, out, checker, traced))
    t0 = time.perf_counter()
    while True:
        outcomes = [runner.run(cmd, cache, out, checker, traced)
                    for cmd in pass_commands(workload, seed, rng)]
        phase.passes.append(outcomes)
        used = time.perf_counter() - t0
        per_pass = used / len(phase.passes)
        if used + per_pass > seconds or time.monotonic() + per_pass > runner.deadline - 10:
            return phase


def pass_wall(p: list[Outcome]) -> float:
    return sum(o.wall_s for o in p)


def end_to_end(phase: Phase) -> dict[str, tuple[float, str]]:
    measured = [o for p in phase.passes for o in p]
    return {
        "setup_s": (statistics.median(o.wall_s for o in phase.setups), "s"),
        "pass_s": (statistics.median(pass_wall(p) for p in phase.passes), "s"),
        "command_p50_s": (statistics.median(o.wall_s for o in measured), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in phase.outcomes()), "MB"),
    }


def named_figures(workload: str, phase: Phase) -> dict[str, tuple[float, str]]:
    """The figures each workload stands for, under their descriptive names."""
    def walls(kind):
        return [o.wall_s for p in phase.passes for o in p if o.cmd.kind == kind]

    failed = sum(o.problem is not None for o in phase.outcomes())
    out = {"failed_ops_ratio": (failed / len(phase.outcomes()), "ratio")}
    if workload == "verify":
        out["verify_s"] = (statistics.median(walls("verify")), "s")
    elif workload == "scan":
        points = phase.passes[0][0].headline.get("points", 0)
        out["scan_points_per_s"] = (points / statistics.median(walls("scan")), "points/s")
    else:
        out["query_p50_s"] = (statistics.median(walls("symbol")), "s")
        reports = [sum(o.wall_s for o in p if o.cmd.kind != "symbol") for p in phase.passes]
        out["report_s"] = (statistics.median(reports), "s")
    return out


# ---------------------------------------------------------------------------
# Per-layer figures from the traced commands


@dataclass
class SpanTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


def aggregate_spans(outcomes: list[Outcome]) -> tuple[dict[str, SpanTotals], dict, list]:
    totals: dict[str, SpanTotals] = {}
    counts: dict[str, float] = {}
    imports = []
    for o in outcomes:
        if o.spans is None:
            continue
        spans = o.spans["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if end is not None and parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            if end is None:
                continue
            t = totals.setdefault(name, SpanTotals())
            t.calls += 1
            t.s += end - start
            t.self_s += end - start - child_time[i]
            if name == "shell.import":
                imports.append(end - start)
        for key, n in o.spans["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return totals, counts, imports


def scipy_stats_import_s() -> float:
    """Import time of scipy.stats in a fresh interpreter that has numpy loaded.

    That is the order modsym imports them in (eigenform loads numpy, then
    scanstats loads scipy.stats); the package uses nothing else from scipy.
    """
    probe = subprocess.run(
        [sys.executable, "-c", "import time, numpy; t = time.perf_counter(); "
         "import scipy.stats; print(time.perf_counter() - t)"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    return float(probe.stdout)


def layer_metrics(traced: Phase, plain: Phase) -> dict[str, tuple[float, str]]:
    totals, counts, imports = aggregate_spans(traced.outcomes())

    def span(name):
        return totals.get(name, SpanTotals())

    def count(key):
        return counts.get(key, 0)

    dense = span("scanstats.dense")
    misses = span("scanstats.dense_compute").calls
    oracle = span("periods.direct_oracle").calls
    refused = count("periods.direct_oracle.raised.TruncationError")
    command = span("shell.command")
    untraced = statistics.median(pass_wall(p) for p in plain.passes)
    overhead = pass_wall(traced.passes[0]) - untraced
    outcomes = traced.outcomes()
    return {
        "eigenform.count_points.calls": (span("eigenform.count_points").calls, "count"),
        "eigenform.count_points.s": (span("eigenform.count_points").s, "s"),
        "eigenform.count_points.residues": (count("eigenform.count_points.residues"), "count"),
        "eigenform.hecke_extend.s": (span("eigenform.hecke_extend").s, "s"),
        "eigenform.cache_write.s": (span("eigenform.cache_write").s, "s"),
        "eigenform.cache_write.bytes": (count("eigenform.cache_write.bytes"), "bytes"),
        "eigenform.cache_read.calls": (span("eigenform.cache_read").calls, "count"),
        "eigenform.cache_read.s": (span("eigenform.cache_read").s, "s"),
        "eigenform.cache.hits": (count("eigenform.cache.hits"), "count"),
        "eigenform.cache.misses": (count("eigenform.cache.misses"), "count"),
        "eigenform.cache.rebuilds": (count("eigenform.cache.rebuilds"), "count"),
        "eigenform.antiderivative_batch.calls": (span("eigenform.antiderivative_batch").calls, "count"),
        "eigenform.antiderivative_batch.points": (count("eigenform.antiderivative_batch.points"), "count"),
        "eigenform.antiderivative_batch.s": (span("eigenform.antiderivative_batch").s, "s"),
        "eigenform.lfun1.s": (span("eigenform.lfun1").s, "s"),
        "periods.build_table.s": (span("periods.build_table").s, "s"),
        "periods.build_table.classes": (count("periods.build_table.classes"), "count"),
        "periods.read_cache.s": (span("periods.read_cache").s, "s"),
        "periods.symbol.calls": (span("periods.symbol").calls, "count"),
        "periods.symbol.s": (span("periods.symbol").s, "s"),
        "exactmath.cf_decompose.calls": (span("exactmath.cf_decompose").calls, "count"),
        "exactmath.cf_decompose.s": (span("exactmath.cf_decompose").s, "s"),
        "periods.hecke_residual.calls": (span("periods.hecke_residual").calls, "count"),
        "periods.period_sum.calls": (span("periods.period_sum").calls, "count"),
        "periods.direct_oracle.attempts": (oracle, "count"),
        "periods.direct_oracle.refused": (refused, "count"),
        "periods.direct_oracle.useful_ratio": ((oracle - refused) / oracle if oracle else 0.0, "ratio"),
        "scanstats.dense.calls": (dense.calls, "count"),
        "scanstats.dense.hits": (dense.calls - misses, "count"),
        "scanstats.dense.misses": (misses, "count"),
        "scanstats.dense.hit_ratio": ((dense.calls - misses) / dense.calls if dense.calls else 0.0, "ratio"),
        "scanstats.dense.lanes": (count("scanstats.dense.lanes"), "count"),
        "scanstats.dense.s": (dense.s, "s"),
        "scanstats.scan.points": (count("scanstats.scan.points"), "count"),
        "scanstats.scan.self_s": (span("scanstats.scan").self_s, "s"),
        "scanstats.distribution_report.self_s": (span("scanstats.distribution_report").self_s, "s"),
        "scanstats.contiguous_avg.self_s": (span("scanstats.contiguous_avg").self_s, "s"),
        "scanstats.variance_fit.s": (span("scanstats.variance_fit").s, "s"),
        "scanstats.weyl_report.s": (span("scanstats.weyl_report").s, "s"),
        "scanstats.csv_write.s": (span("scanstats.csv_write").s, "s"),
        "scanstats.csv_write.bytes": (count("scanstats.csv_write.bytes"), "bytes"),
        "theory.petersson_quadrature.s": (span("theory.petersson_quadrature").s, "s"),
        "theory.leggauss.calls": (span("theory.leggauss").calls, "count"),
        "theory.leggauss.s": (span("theory.leggauss").s, "s"),
        "theory.ghat.s": (span("theory.ghat").s, "s"),
        "shell.import_s": (statistics.median(imports) if imports else 0.0, "s"),
        "shell.import_scipy_stats_s": (scipy_stats_import_s(), "s"),
        "shell.self_s": (command.self_s, "s"),
        "shell.commands": (len(outcomes), "count"),
        "shell.failed": (sum(o.problem is not None for o in outcomes), "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_ratio": (overhead / untraced, "ratio"),
    }


# ---------------------------------------------------------------------------
# Run record and entry point


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "modsym").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    # only the checkout's own repository; never one that encloses it
    if not (ROOT / ".git").exists():
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def top_level_entries() -> set[str]:
    return {p.name for p in ROOT.iterdir()} - {WORK.name}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modsym" / "shell.py").is_file():
        print(f"error: no modsym sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    before = top_level_entries()
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        runner = Runner(run_dir, started)
        checker = Checker()
        # a traced run reports no setup_s, so one untraced set-up is enough
        plain = run_phase(runner, checker, args.workload, args.seed, args.seconds,
                          1 if args.trace else SETUPS, traced=False)
        traced = None
        if args.trace:
            traced = run_phase(runner, checker, args.workload, args.seed, 0.0, 1, traced=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    outcomes = plain.outcomes() + (traced.outcomes() if traced else [])
    stray = sorted(top_level_entries() - before)
    failed = sum(o.problem is not None for o in outcomes) + bool(stray)
    attempted = len(outcomes) + bool(stray)
    for o in outcomes:
        if o.problem:
            print(f"FAILED {' '.join(o.cmd.argv)}: {o.problem}")
    if stray:
        print(f"FAILED isolation: the run left {stray} in the checkout")

    e2e = end_to_end(plain)
    named = named_figures(args.workload, plain)
    metrics = layer_metrics(traced, plain) if traced else e2e
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "n_max": N_MAX,
        "passes": len(plain.passes),
        "sizes": {
            "queries_per_pass": sum(o.cmd.kind == "symbol" for o in plain.passes[0]),
            **{f"{o.cmd.kind}_{k}": v for o in plain.passes[0]
               for k, v in o.headline.items() if k in ("points", "n_sample", "rows")},
        },
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "figures": {k: v for k, (v, _) in named.items()},
        "commands": [{"argv": o.cmd.argv, "wall_s": o.wall_s, "rss_mb": o.rss_mb,
                      "problem": o.problem, "headline": o.headline} for o in outcomes],
    }
    if traced:
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
    record_path = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in {**e2e, **named, **(metrics if traced else {})}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}; record -> {record_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
