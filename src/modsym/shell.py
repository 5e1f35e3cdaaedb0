"""Command-line front end: configuration, caching, and report emission.

Each command takes the CLI flags of the keys it reads, parsed through one
key table over defaults; every result-affecting field feeds a sha256
fingerprint embedded in each CSV report, so outputs trace to the exact run.
Exit codes: 0 success, 2 validation error or missing module, 3 gate failure.

Only what a symbol query reads off a cached period table loads with this
module: curves, exactmath and periods, with no dataclasses or fractions; and
main builds the parser of the one command it runs, so a warm query is mostly
interpreter start-up.  main binds the other layers' names here for the
commands that run them (_COMMAND_LAYERS), and _table binds eigenform's when
it must build the table.  A lookup from outside binds them too; a name bound
already (replaced in a test) is kept.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys

from .curves import CurveSpec, _sha256, check_n_max, parse_curve, read_usable
from .exactmath import Cusp, squarefree_factors
from .periods import (
    LATTICE_BOUND,
    TABLE_TOL,
    ScanSpec,
    build_period_table,
    direct_symbol_oracle,
    hecke_residual,
    period_sum,
    read_table_cache,
    symbol,
    table_cache_path,
    table_terms,
    write_table_cache,
)

# the names the commands call from the layers past the one a warm query reads
_LAYER_NAMES = {
    "eigenform": ("TruncationError", "al_sign", "build_eigenform", "coeffs_cache_path", "lfun1",
                  "load_or_build_eigenform"),
    "scanstats": ("SymbolStore", "contiguous_avg", "distribution_report", "scan",
                  "variance_fit", "weyl_report", "write_aggregates_csv", "write_contig_csv",
                  "write_dist_csv", "write_fit_csv", "write_weyl_csv"),
    "theory": ("PETERSSON_TOL", "build_theory", "ghat", "petersson_quadrature",
               "sym2_l_from_petersson"),
}
# the layers each command runs past the one a warm query reads; _table binds
# eigenform when it must build the table.  The other commands run all three
_COMMAND_LAYERS = {"coeffs": ("eigenform",), "table": ("eigenform",), "symbol": (),
                   "scan": ("scanstats",), "weyl": ("scanstats",),
                   "theory": ("eigenform", "theory")}


def _bind_layers(modules=tuple(_LAYER_NAMES)) -> None:
    """Import these layers and bind their names here, except a name bound
    already."""
    for module in modules:
        layer = importlib.import_module("." + module, __package__)
        for name in _LAYER_NAMES[module]:
            globals().setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    modules = [module for module, names in _LAYER_NAMES.items() if name in names]
    if not modules:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_layers(modules)
    return globals()[name]


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3

ORACLE_CHECKS = 10  # certified direct-oracle comparisons the verify gate needs
ORACLE_DRAWS = 1000  # most points a/c drawn for them


class GateFailure(RuntimeError):
    """A consistency gate tripped; the command exits with code 3."""


class RunConfig(ScanSpec):
    """A ScanSpec whose q is the curve's conductor, plus the coefficient count, seed and
    paths.  The curve, parsed once from --curve, is the only identity the rest derives from.
    Immutable, and equal to another of the same fields."""

    __slots__ = ("curve", "n_max", "seed", "cache_dir", "out_dir")

    def __init__(self, m_max: int = 10000, d_filter: int | str = "all",
                 x0: Fraction | int = 0, x1: Fraction | int = 1,
                 curve: CurveSpec = CurveSpec(1, 1, 1, -10, -10), n_max: int = 100000,
                 seed: int = 1729, cache_dir: str = ".modsym-cache", out_dir: str = "."):
        for name, value in zip(RunConfig.__slots__, (curve, n_max, seed, cache_dir, out_dir)):
            object.__setattr__(self, name, value)
        super().__init__(curve.q, m_max, d_filter, x0, x1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = ScanSpec.__slots__ + RunConfig.__slots__
        return all(getattr(self, name) == getattr(other, name) for name in fields)

    def fingerprint(self) -> str:
        """12-hex digest of the result-affecting fields, all but the paths cache_dir and out_dir."""
        # the label "15.a1", the moment depth 4, the Weyl modes and the table
        # tolerance are constants, hashed where they stood so no digest changes
        payload = repr(
            (
                self.q,
                self.curve.coefficients,
                "15.a1",
                self.m_max,
                str(self.d_filter),
                str(self.x0),
                str(self.x1),
                4,
                (0, 1, 2, 3, 4, 5),
                TABLE_TOL,
                self.n_max,
                self.seed,
            )
        )
        return _sha256()(payload.encode("ascii")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Configuration parsing


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    from fractions import Fraction  # only here: it imports decimal
    lo, _, hi = text.partition(":")
    if not hi:
        raise ValueError("interval must look like x0:x1, e.g. 0.1:0.35")
    try:
        return Fraction(lo), Fraction(hi)
    except ZeroDivisionError:
        raise ValueError(f"interval {text!r} has a zero denominator") from None


def _parse_d(text: str) -> int | str:
    return "all" if text == "all" else int(text)


# Key -> (RunConfig field(s), converter, help).  Each key is the CLI flag
# --<key with '-' for '_'>, whose argparse dest is the key; a command that
# does not take a key leaves its field at the default.
_CONFIG_KEYS = {
    "curve": ("curve", parse_curve, "a1,a2,a3,a4,a6"),
    "M": ("m_max", int, "max denominator"),
    "d": ("d_filter", _parse_d, "gcd class with q, or 'all'"),
    "interval": (("x0", "x1"), _parse_interval, "x0:x1 subinterval of [0,1)"),
    "n_max": ("n_max", int, "coefficient count"),
    "seed": ("seed", int, "seed for sampled checks"),
    "cache_dir": ("cache_dir", str, "cache directory"),
    "out_dir": ("out_dir", str, "report directory"),
}


def _convert(key: str, text: str) -> dict:
    """RunConfig updates for one flag given as text."""
    field, conv, _ = _CONFIG_KEYS[key]
    value = conv(text)
    return dict(zip(field, value)) if isinstance(field, tuple) else {field: value}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then CLI flags."""
    updates: dict = {}
    for key in _CONFIG_KEYS:
        text = getattr(args, key, None)
        if text is not None:
            updates.update(_convert(key, text))
    cfg = RunConfig(**updates)
    check_n_max(cfg.q, cfg.n_max)  # even where a warm table cache needs no coefficient
    return cfg


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _form(cfg: RunConfig) -> Eigenform:
    return load_or_build_eigenform(cfg.curve, cfg.n_max, cfg.cache_dir)


def _table(cfg: RunConfig) -> PeriodTable:
    """Load the period table from cache or build it; gate the relation
    residuals at 10 tol and the symbol lattice at 2 pi * 10 tol.  The
    eigenform is needed only when the table must be built: then it is built
    to the table's certified length alone and written nowhere."""
    path = table_cache_path(cfg.cache_dir, cfg.curve)
    table = read_usable(path, "period table", read_table_cache, cfg.curve)
    fresh = table is None
    if fresh:
        _bind_layers(("eigenform",))
        f = build_eigenform(cfg.curve, min(cfg.n_max, table_terms(cfg.q)))
        table = build_period_table(f)
    worst = max(table.residual_two, table.residual_three)
    if worst > 10.0 * TABLE_TOL:
        raise GateFailure(
            f"period-table relation residual {worst:.3g} exceeds 10*tol; "
            "refusing to persist or use the table"
        )
    if table.lattice_residual > LATTICE_BOUND:
        raise GateFailure(
            f"symbol lattice residual {table.lattice_residual:.3g} exceeds "
            "2*pi*10*tol; refusing to persist or use the table"
        )
    if fresh:
        os.makedirs(cfg.cache_dir, exist_ok=True)
        write_table_cache(path, table)
    return table


def _refuse_an_empty_fit(cfg: RunConfig) -> None:
    """Refuse, before the table is read or any sweep runs, every class the
    fits would read that holds fewer than two denominators 2 <= c <= M: the
    free fit needs two, and skips c = 1.  A class with none is refused as
    weyl refuses it.  The first two c >= 2 of every class are at most 2q
    (d and d + q for d > 1, q + 1 and 2q - 1 for d = 1), so no c past 2q is
    read."""
    d, m = cfg.d_filter, cfg.m_max
    classes: dict[int, list[int]] = {}
    for c in range(2, min(m, 2 * cfg.q) + 1):
        classes.setdefault(math.gcd(c, cfg.q), []).append(c)
    if d != "all":
        classes = {d: classes.get(d, [])}
    for e, cs in sorted(classes.items()) or [(d, [])]:
        low = "2 <= " if e in ("all", 1) else ""
        of_class = "" if e == "all" else f" has gcd {e} with q"
        if not cs:
            raise ValueError(f"no denominator {low}c <= {m}{of_class}")
        if len(cs) < 2:
            raise ValueError(f"only one denominator {low}c <= {m}{of_class} (c = {cs[0]}); "
                             "the fit needs two")


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


# ---------------------------------------------------------------------------
# Commands


def cmd_coeffs(cfg: RunConfig, args) -> int:
    f = _form(cfg)
    print(f"coefficient cache: {coeffs_cache_path(cfg.cache_dir, cfg.curve, cfg.n_max)}")
    print(f"N = {f.n_max}")
    signs = " ".join(f"e({p})={al_sign(f, p):+d}" for p in squarefree_factors(cfg.q))
    print(f"involution signs: {signs}")
    return EXIT_OK


def cmd_table(cfg: RunConfig, args) -> int:
    _form(cfg)  # the coefficient cache, which the table's build does not need
    table = _table(cfg)
    print(f"period table: {len(table.classes)} classes at tol {TABLE_TOL:g}")
    print(f"two-term residual:   {table.residual_two:.3e}")
    print(f"three-term residual: {table.residual_three:.3e}")
    n_max = max(abs(int(n)) for n in table.lattice)
    print(f"symbol lattice: quantum {table.quantum:.15g}, |n| <= {n_max}, "
          f"residual {table.lattice_residual:.3e}")
    print(f"cache: {table_cache_path(cfg.cache_dir, cfg.curve)}")
    return EXIT_OK


def cmd_symbol(cfg: RunConfig, args) -> int:
    a, c = args.a, args.c
    if c <= 0:
        raise ValueError("denominator must be positive")
    g = math.gcd(a, c)
    if g > 1:
        print(f"note: {a}/{c} reduced to {a // g}/{c // g}")
        a, c = a // g, c // g
    table = _table(cfg)
    s = symbol(Cusp(a, c), table)
    if s.numer != a:
        print(f"note: {a}/{c} folded into [0, 1) as {s.numer}/{s.denom}")
    try:
        scaled = f"{s.denom * math.sqrt(cfg.q / s.d):.15g}"
    except OverflowError:  # c past the float range
        from decimal import Decimal
        scaled = f"{s.denom * Decimal(cfg.q // s.d).sqrt():.15g}"
    print(f"r = {s.numer}/{s.denom}")
    print(f"m_minus(r) = {s.m_minus:.15g}")
    print(f"m_plus(r)  = {s.m_plus:.15g}")
    print(f"d = gcd(c, q) = {s.d}")
    print(f"scaled denominator c(r) = c*sqrt(q/d) = {scaled}")
    return EXIT_OK


def cmd_scan(cfg: RunConfig, args) -> int:
    store = SymbolStore(_table(cfg))
    rows = scan(cfg, store)
    path = _out(cfg, "aggregates.csv")
    write_aggregates_csv(path, rows, cfg.fingerprint())
    print(f"{len(rows)} rows -> {path}")
    return EXIT_OK


def cmd_fit(cfg: RunConfig, args) -> int:
    theory = build_theory(cfg.curve)
    _refuse_an_empty_fit(cfg)
    store = SymbolStore(_table(cfg))
    rows = scan(cfg, store)
    fits = variance_fit(rows, theory["slope_real"])
    path = _out(cfg, "fit.csv")
    write_fit_csv(path, fits, cfg.fingerprint())
    print(f"theory slope: paper {theory['slope_paper']:+.6f} / real {theory['slope_real']:+.6f}")
    for d, r in sorted(fits.items()):
        print(
            f"d={d}: fixed-slope shift (paper) {-r.fixed_slope_shift_real:+.4f}"
            f", free slope (real) {r.slope_real:+.5f}"
            f", free shift (paper) {-r.shift_real:+.4f}"
            f", theory shift {theory['shifts'][str(d)]:+.4f}"
        )
    print(f"fit table -> {path}")
    return EXIT_OK


def cmd_dist(cfg: RunConfig, args) -> int:
    if cfg.d_filter == "all":
        raise ValueError("dist needs a single gcd class: pass --d")
    slope_real = build_theory(cfg.curve)["slope_real"]
    _refuse_an_empty_fit(cfg)
    store = SymbolStore(_table(cfg))
    rows = scan(cfg, store)
    shift_real = variance_fit(rows, slope_real)[cfg.d_filter].fixed_slope_shift_real
    report = distribution_report(cfg, store, slope_real, shift_real)
    path = _out(cfg, "dist.csv")
    write_dist_csv(path, report, cfg.fingerprint())
    print(
        f"sample: {report.n_sample} values, d={cfg.d_filter}, "
        f"c in [1,{cfg.m_max}], I=[{cfg.x0},{cfg.x1})"
    )
    print(f"shift normalization uses fitted D = {shift_real:+.5f} (real)")
    for name, mts, ks in [
        ("shift-normalized", report.moments_shift, report.ks_shift),
        ("slope-normalized", report.moments_slope, report.ks_slope),
    ]:
        mtxt = " ".join(f"{m:+.4f}" for m in mts)
        print(f"{name}: moments {mtxt}; KS {ks:.4f}")
    print(f"histogram -> {path}")
    return EXIT_OK


def cmd_contig(cfg: RunConfig, args) -> int:
    n_grid = args.grid
    if n_grid < 3:  # at the ends 0 and 1 both A_M and the limit vanish
        raise ValueError(f"contig needs --grid of at least 3, got {n_grid}")
    store = SymbolStore(_table(cfg))
    f = _form(cfg)
    xs = [j / (n_grid - 1) for j in range(n_grid)]
    a_m = contiguous_avg(store, cfg.m_max, n_grid)
    limit = ghat(f, xs)
    path = _out(cfg, "contig.csv")
    write_contig_csv(path, xs, a_m, limit, cfg.fingerprint())
    sup_dev = float(max(abs(a_m - limit)))
    sup_limit = float(max(abs(limit)))
    print(f"grid: {n_grid} points, M = {cfg.m_max}")
    print(
        f"sup|A_M - limit| = {sup_dev:.5f} ({100 * sup_dev / sup_limit:.2f}% "
        f"of sup|limit| = {sup_limit:.5f})"
    )
    print(f"profile -> {path}")
    return EXIT_OK


def cmd_weyl(cfg: RunConfig, args) -> int:
    entries = weyl_report(cfg)
    path = _out(cfg, "weyl.csv")
    write_weyl_csv(path, entries, cfg.fingerprint())
    for e in entries:
        print(
            f"n={e.n}: sum = {e.total.real:+.4f}{e.total.imag:+.4f}i, "
            f"ratio = {e.ratio:.3e}"
        )
    print(f"weyl table -> {path}")
    return EXIT_OK


def cmd_theory(cfg: RunConfig, args) -> int:
    import json
    theory = build_theory(cfg.curve)  # before any cache: a curve with no L-values is refused
    if args.petersson:
        theory = build_theory(cfg.curve, _form(cfg))
    print(json.dumps(theory, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    """Cross-checks every internal consistency gate and emits a JSON verdict."""
    import json
    import random
    gates: list[dict] = []

    def gate(name: str, value: float, threshold: float):
        gates.append(
            {
                "name": name,
                "value": value,
                "threshold": threshold,
                "passed": bool(value <= threshold),
            }
        )

    theory = build_theory(cfg.curve)  # before any cache is built
    table = _table(cfg)
    f = _form(cfg)
    gate("relation_two_term", table.residual_two, 2.0 * TABLE_TOL)
    gate("relation_three_term", table.residual_three, 3.0 * TABLE_TOL)
    gate("symbol_lattice", table.lattice_residual, LATTICE_BOUND)

    p0 = period_sum(Cusp(0, 1), table)
    l_at_1 = lfun1(f)
    gate("value_at_zero_plus", abs(-2.0 * math.pi * p0.imag - l_at_1), 1e-8)
    gate("value_at_zero_minus", abs(2.0 * math.pi * p0.real), 1e-8)

    norm = petersson_quadrature(f, tol=PETERSSON_TOL)
    recovered = sym2_l_from_petersson(f, norm.value)
    gate("fixture_sym2_recovery", abs(recovered - theory["sym2_l"]) / theory["sym2_l"], 1e-3)
    gate("petersson_mesh", norm.mesh_error, PETERSSON_TOL)
    gate("petersson_truncation", norm.truncated, 0)

    rng = random.Random(cfg.seed)
    good_primes = [p for p in (2, 3, 5, 7, 11) if cfg.q % p][:2]
    worst = 0.0
    for k in range(20):
        c = rng.randrange(2, 200)
        a = rng.randrange(1, c)
        if math.gcd(a, c) != 1:
            continue
        p = good_primes[k % len(good_primes)]
        worst = max(worst, hecke_residual(Cusp(a, c), p, f, table))
    gate("hecke_identity", worst, 1e-8)

    worst = 0.0
    done = draws = 0
    while done < ORACLE_CHECKS and draws < ORACLE_DRAWS:
        draws += 1
        c = rng.randrange(2, 60)
        a = rng.randrange(1, c)
        if math.gcd(a, c) != 1:
            continue
        try:
            direct = direct_symbol_oracle(Cusp(a, c), f)
        except TruncationError:
            continue
        worst = max(worst, abs(period_sum(Cusp(a, c), table) - direct))
        done += 1
    if done < ORACLE_CHECKS:
        raise TruncationError(
            f"the direct oracle certified {done} of the {ORACLE_CHECKS} comparisons "
            f"the dual-algorithm gate needs in {draws} draws; raise --n-max"
        )
    gate("dual_algorithm", worst, 1e-8)

    rows = scan(cfg, SymbolStore(table))
    fits = variance_fit(rows, theory["slope_real"])
    worst = 0.0
    for d, r in fits.items():
        worst = max(worst, abs(-r.fixed_slope_shift_real - theory["shifts"][str(d)]))
    gate("variance_shifts", worst, 0.05)

    verdict = {
        "q": cfg.q,
        "M": cfg.m_max,
        "tol": TABLE_TOL,
        "seed": cfg.seed,
        "fingerprint": cfg.fingerprint(),
        "petersson_nodes": norm.nodes,  # the quadrature's fine order, reported beside its gates
        "gates": gates,
        "passed": all(g["passed"] for g in gates),
    }
    print(json.dumps(verdict, indent=2))
    return EXIT_OK if verdict["passed"] else EXIT_GATE


# ---------------------------------------------------------------------------
# Argument parsing and entry point


_COMMANDS = {  # name -> (function, help, the keys it takes beside the two paths)
    "coeffs": (cmd_coeffs, "build the coefficient cache", ("curve", "n_max")),
    "table": (cmd_table, "build the period table", ("curve", "n_max")),
    "symbol": (cmd_symbol, "evaluate one symbol", ("curve", "n_max")),
    "scan": (cmd_scan, "moment aggregates CSV", ("curve", "n_max", "M", "d", "interval")),
    "fit": (cmd_fit, "variance fits CSV", ("curve", "n_max", "M", "d")),
    "dist": (cmd_dist, "distribution report CSV", ("curve", "n_max", "M", "d", "interval")),
    "contig": (cmd_contig, "contiguous averages CSV", ("curve", "n_max", "M")),
    "weyl": (cmd_weyl, "Weyl sum report CSV", ("curve", "M", "d")),  # it reads no coefficient
    "theory": (cmd_theory, "constants as JSON", ("curve", "n_max")),
    "verify": (cmd_verify, "run every consistency gate", ("curve", "n_max", "M", "seed")),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give parser the arguments of the command name."""
    for key in (*_COMMANDS[name][2], "cache_dir", "out_dir"):
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=_CONFIG_KEYS[key][2])
    if name == "symbol":
        parser.add_argument("a", type=int)
        parser.add_argument("c", type=int)
    elif name == "contig":
        parser.add_argument("--grid", type=int, default=101)
    elif name == "theory":
        parser.add_argument("--petersson", action="store_true")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modsym",
        description="Modular-symbol statistics for rational elliptic curves "
        "of squarefree conductor",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), building the one subparser argv names.

    That subparser, built alone, is the one build_parser hangs under its
    command, and parses the same strings.  Where it does not end the parse,
    because argv names no command first or holds arguments the command does
    not take, build_parser's parser parses again, so every usage, help and
    error line is its own."""
    if argv and argv[0] in _COMMANDS:
        parser = _add_arguments(argparse.ArgumentParser(prog="modsym " + argv[0]), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    # numpy loads lazily, after this: a bare import starts an OpenBLAS worker
    # thread that idles, spinning, beside every command, and the sweep forks
    # from a process with one thread; a value set by the caller is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _bind_layers(_COMMAND_LAYERS.get(args.command, tuple(_LAYER_NAMES)))
        cfg = resolve_config(args)
        return _COMMANDS[args.command][0](cfg, args)
    except GateFailure as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError, ModuleNotFoundError) as exc:  # the last names the module
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> int:
    """main() on sys.argv, as the modsym script and python -m modsym.shell run
    it: then the heap is frozen, so the collection at interpreter exit does
    not walk the objects the imports made.  Exit handlers and stream flushes
    still run."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
