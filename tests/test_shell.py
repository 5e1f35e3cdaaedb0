"""Command-line front end: flag resolution, fingerprints, exit codes.

Every invocation goes through main() in-process with private cache and
output directories; the module-scoped fixture warms one coefficient and
period-table cache so the individual commands stay fast.
"""
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from modsym import curves, periods, shell, theory
from modsym.curves import CacheFormatError, CurveSpec
from modsym.eigenform import TruncationError
from modsym.periods import read_table_cache
from modsym.scanstats import FORK_MIN, SymbolStore
from modsym.shell import (
    EXIT_GATE,
    EXIT_OK,
    EXIT_VALIDATION,
    _CONFIG_KEYS,
    RunConfig,
    build_parser,
    main,
    resolve_config,
)

N_MAX = "20000"


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    """Warm cache directory plus a helper that runs main() with it."""
    root = tmp_path_factory.mktemp("cli")
    cache = root / "cache"
    out = root / "out"

    def run(*argv, out_dir=None):
        return main(
            [
                *argv,
                "--cache-dir",
                str(cache),
                "--n-max",
                N_MAX,
                "--out-dir",
                str(out_dir or out),
            ]
        )

    assert run("table") == EXIT_OK
    return run, cache, out


# ---------------------------------------------------------------------------
# configuration


# the keys each command takes beside --cache-dir and --out-dir: the ones its output
# or its work reads; weyl reads no coefficient, so it takes no --n-max
_COMMAND_KEYS = {
    "coeffs": {"curve", "n_max"},
    "table": {"curve", "n_max"},
    "symbol": {"curve", "n_max"},
    "theory": {"curve", "n_max"},
    "scan": {"curve", "n_max", "M", "d", "interval"},
    "dist": {"curve", "n_max", "M", "d", "interval"},
    "fit": {"curve", "n_max", "M", "d"},
    "contig": {"curve", "n_max", "M"},
    "verify": {"curve", "n_max", "M", "seed"},
    "weyl": {"curve", "M", "d"},
}
_OWN_ARGS = {"symbol": ["2", "5"]}  # the positionals a command needs
_OWN_DESTS = {"command", "a", "c", "grid", "petersson"}  # not config keys


@pytest.mark.parametrize("command", sorted(shell._COMMANDS))
def test_each_command_takes_exactly_its_keys(command, capsys):
    parser = build_parser()
    head = [command, *_OWN_ARGS.get(command, [])]
    keys = _COMMAND_KEYS[command] | {"cache_dir", "out_dir"}
    assert set(vars(parser.parse_args(head))) - _OWN_DESTS == keys
    for key in _CONFIG_KEYS:
        argv = [*head, "--" + key.replace("_", "-"), "7"]
        if key in keys:
            assert getattr(parser.parse_args(argv), key) == "7"
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments: --" + key.replace("_", "-") in capsys.readouterr().err


def test_flags_go_through_the_converters_of_their_keys():
    # each flag's text goes through the converter of its key in the table
    argv = ["scan", "--curve", "0,-1,1,-2,2", "--d", "3", "--interval", "1/10:7/20"]
    cfg = resolve_config(build_parser().parse_args(argv))
    assert cfg == RunConfig(
        curve=CurveSpec(0, -1, 1, -2, 2), d_filter=3, x0=Fraction(1, 10), x1=Fraction(7, 20)
    )
    assert cfg.q == 57


def _parse_outcome(parse, argv, capsys):
    """The namespace parse(argv) returns, or its exit code, with what it printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(shell._COMMANDS))
def test_one_subparser_parses_as_the_parser_of_every_command(command, capsys):
    # main builds only the subparser of the command argv names; its help, usage
    # and error lines and exit codes are the ones of the parser of all ten
    own = _OWN_ARGS.get(command, [])
    for argv in (
        [command, "--help"], [command, "-h"], [command, *own, "--help"], [command, *own],
        [command, *own, "--cache-dir", "x", "--out-dir", "y"], [command, *own, "--cache-dir"],
        [command, *own, "--no-such", "1"], [command, *own, "extra"], [command, "--cur", "1"],
        [command, *own, "--", "x"], [command, "2"], [command, "2", "x"], [command, "-2", "5"],
        [], ["--help"], ["nope"], ["--nope", command], [command.title()],
    ):
        got = _parse_outcome(shell.parse_args, argv, capsys)
        assert got == _parse_outcome(lambda a: build_parser().parse_args(a), argv, capsys), argv


def test_removed_knobs_are_rejected(capsys):
    for argv in (
        ["scan", "--shards", "2"],
        ["scan", "--k-max", "6"],
        ["theory", "--petersson", "--petersson-tol", "1e-5"],
        ["scan", "--config", "run.cfg"],
        ["table", "--tol", "1e-10"],
        ["scan", "--label", "x"],
        ["weyl", "--weyl", "1"],
        ["symbol", "2", "5", "--paper-sign"],
        ["fit", "--M", "10", "--fixture", "x"],
        ["dist", "--M", "10", "--d", "1", "--c-min", "5"],
        ["table", "--q", "15"],
        ["theory", "--q", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"m_max": 0}, {"d_filter": 4}, {"m_max": -3}, {"d_filter": 0}, {"d_filter": "3"},
    {"d_filter": 2.5}, {"x0": Fraction(1, 2), "x1": Fraction(1, 3)}, {"x1": Fraction(3, 2)},
    {"x0": Fraction(-1, 10)}, {"x0": Fraction(1, 3), "x1": Fraction(1, 3)},
    {"curve": CurveSpec(0, 0, 0, -1, 0)},  # additive at 2: ConductorError, a ValueError
])
def test_run_config_validates_at_construction(change):
    with pytest.raises(ValueError):
        RunConfig(**change)


def test_run_config_takes_only_its_fields():
    for argument in ({"q": 15}, {"label": "x"}, {"tol": 1e-10}):
        with pytest.raises(TypeError):
            RunConfig(**argument)
    with pytest.raises(TypeError):
        RunConfig(*range(10))  # nine fields at most


def test_run_config_takes_its_level_from_the_curve():
    cfg = RunConfig(curve=CurveSpec(0, -1, 1, -2, 2))
    assert cfg.q == 57
    assert RunConfig(curve=cfg.curve, m_max=5).q == 57
    assert RunConfig(curve=CurveSpec(1, 1, 1, -10, -10)).q == 15
    with pytest.raises(TypeError):
        RunConfig(q=15)
    with pytest.raises(AttributeError):  # nor can the level be set apart from the curve
        cfg.q = 15
    # ScanSpec's own check runs on the derived level
    with pytest.raises(ValueError, match="not a positive divisor of 57"):
        RunConfig(curve=CurveSpec(0, -1, 1, -2, 2), d_filter=5)


def test_interval_parse_requires_colon():
    args = build_parser().parse_args(["scan", "--interval", "0.5"])
    with pytest.raises(ValueError):
        resolve_config(args)


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_ignores_non_result_fields():
    base = RunConfig()
    fp = base.fingerprint()
    assert len(fp) == 12 and all(ch in "0123456789abcdef" for ch in fp)
    for change in (
        {"cache_dir": "/elsewhere"},
        {"out_dir": "/elsewhere"},
    ):
        assert RunConfig(**change).fingerprint() == fp


# the configs of the benchmark's commands, by the RunConfig fields it passes
# beside n_max = 20000, with the digests their CSVs and verdicts carry
_BENCHMARK_DIGESTS = [
    ({}, "e1811b93c79a"),  # table and symbol
    ({"m_max": 7000}, "4726d5c937c8"),  # scan
    ({"m_max": 2000}, "678ba732fcee"),  # contig and fit
    ({"m_max": 4000, "d_filter": 1, "x0": Fraction(1, 10), "x1": Fraction(7, 20)},
     "137737ba1e70"),  # dist
    ({"m_max": 600, "seed": 1}, "dc8dd1250427"),  # verify, at a few seeds
    ({"m_max": 600, "seed": 601}, "fa7bea96d050"),
    ({"m_max": 600, "seed": 1729}, "1d021c5f0100"),
]


def test_fingerprints_of_the_default_and_benchmark_runs_are_pinned():
    # the CSVs of these runs carry these digests; a change to one is a change of output
    assert RunConfig().fingerprint() == "b71c8b266486"
    for config, digest in _BENCHMARK_DIGESTS:
        assert RunConfig(n_max=20000, **config).fingerprint() == digest, config


@pytest.mark.parametrize("blocked", [[], ["_sha2", "_sha256"]], ids=["builtin", "hashlib"])
def test_fingerprint_digests_are_hashlibs_on_each_branch(blocked):
    # the default run's config and the benchmark's, hashed by the builtin sha256
    # this interpreter has (_sha2 from Python 3.12, _sha256 before) without
    # loading _hashlib, or by hashlib where neither imports
    probe = (
        "import sys; sys.modules.update(dict.fromkeys(sys.argv[1:])); "
        "from fractions import Fraction; from modsym import shell; RunConfig = shell.RunConfig; "
        "configs = [RunConfig(), RunConfig(n_max=20000, m_max=600, seed=1), "
        "RunConfig(n_max=20000, m_max=7000), RunConfig(n_max=20000, m_max=2000), "
        "RunConfig(n_max=20000, m_max=4000, d_filter=1, x0=Fraction(1, 10), x1=Fraction(7, 20))]; "
        "got = [c.fingerprint() for c in configs]; "
        "print(shell._sha256().__module__, '_hashlib' in sys.modules); "
        "import hashlib; shell._sha256 = lambda: hashlib.sha256; "
        "print(got == [c.fingerprint() for c in configs], got[0])"
    )
    builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    expect = "_hashlib True" if blocked else f"{builtin} False"
    assert _fresh_interpreter(probe, *blocked) == [expect, "True b71c8b266486"]


def test_fingerprint_tracks_result_fields():
    base = RunConfig()
    fp = base.fingerprint()
    changes = (
        {"curve": CurveSpec(0, -1, 1, -2, 2)},  # 57a1, which moves q to 57 with it
        {"m_max": 5},
        {"d_filter": 1},
        {"x0": Fraction(1, 10)},
        {"x1": Fraction(1, 2)},
        {"n_max": 7},
        {"seed": 2},
    )
    for change in changes:
        assert RunConfig(**change).fingerprint() != fp
    # every field is hashed or is a path: a new field must be one or the other
    assert RunConfig(**changes[0]).q == 57
    hashed = {name for change in changes for name in change} | {"q"}
    fields = {name for cls in RunConfig.__mro__ for name in getattr(cls, "__slots__", ())}
    assert hashed | {"cache_dir", "out_dir"} == fields
    # and none can change once the config is made
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(base, name, getattr(base, name))
        with pytest.raises(AttributeError):
            delattr(base, name)
    assert base.fingerprint() == fp


# ---------------------------------------------------------------------------
# symbol command


def test_symbol_command_prints_frozen_values(cli, capsys):
    run, _, _ = cli
    assert run("symbol", "2", "5") == EXIT_OK
    out = capsys.readouterr().out
    assert "r = 2/5" in out
    m_minus = float(out.split("m_minus(r) = ")[1].splitlines()[0])
    m_plus = float(out.split("m_plus(r)  = ")[1].splitlines()[0])
    assert m_minus == pytest.approx(0.798121111065892, abs=1e-12)
    assert m_plus == pytest.approx(-0.700301521166301, abs=1e-12)
    assert "d = gcd(c, q) = 5" in out


@pytest.mark.parametrize(
    "a, c, scaled",
    [
        (1, (1 << 130) + 1, "2.35754539370744e+39"),
        (1, 10**400 + 1, "3.87298334620742e+400"),
        (7, 10**400 + 3, "5.53283335172488e+399"),  # 7 | c, and c/7 is past it too
    ],
    ids=["2^130+1", "10^400+1", "7-over-10^400+3"],  # the last two are past the float range
)
def test_symbol_command_takes_any_denominator(cli, capsys, a, c, scaled):
    run, _, _ = cli
    assert run("symbol", str(a), str(c)) == EXIT_OK
    out = capsys.readouterr().out
    m_minus = float(out.split("m_minus(r) = ")[1].splitlines()[0])
    n = m_minus / 0.798121111065892
    assert abs(n - round(n)) < 1e-9
    assert f"c*sqrt(q/d) = {scaled}" in out


def test_symbol_command_reduces_and_folds(cli, capsys):
    run, _, _ = cli
    assert run("symbol", "4", "10") == EXIT_OK
    assert "note: 4/10 reduced to 2/5" in capsys.readouterr().out
    assert run("symbol", "7", "5") == EXIT_OK
    out = capsys.readouterr().out
    assert "note: 7/5 folded into [0, 1) as 2/5" in out
    assert "r = 2/5" in out


def test_symbol_command_rejects_bad_denominator(cli):
    run, _, _ = cli
    assert run("symbol", "1", "0") == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# exit codes


def test_validation_exit_codes(cli):
    run, _, _ = cli
    assert run("table", "--curve", "0,0,0,1,1") == EXIT_VALIDATION  # conductor 2^4 * 31
    assert run("scan", "--M", "40", "--interval", "0.5:0.2") == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--M", "10", "--d", "0"),
        ("scan", "--M", "10", "--d", "-3"),
        ("contig", "--M", "10", "--grid", "1"),
        ("contig", "--M", "10", "--grid", "0"),
        ("contig", "--M", "10", "--grid", "2"),
        ("scan", "--M", "10", "--interval", "1/0:1"),
        ("scan", "--M", "10", "--interval", "1/2:1/0"),
    ],
)
def test_bad_input_exits_2_with_an_error_line(cli, capsys, argv):
    run, _, _ = cli
    assert run(*argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert argv[-1] in err  # the message names the refused value


@pytest.mark.parametrize(
    "argv, named",
    [
        (("coeffs", "--n-max", "3"), ("n_max 3", "prime 5")),
        (("table", "--curve", "0,-1,1,-2,2", "--n-max", "10"), ("n_max 10", "prime 19")),
        # y^2 = x^3 - x: additive at 2, where 2 divides both the discriminant and c4
        (("coeffs", "--curve", "0,0,0,-1,0"), ("curve 0,0,0,-1,0", "discriminant 64", "c4 = 48")),
        # 15a1 scaled by u = 2, a model that is not minimal at 2
        (("coeffs", "--curve", "2,4,8,-160,-640"), ("not a minimal model", "c4 = 7696")),
    ],
)
def test_bad_input_is_refused_before_any_cache_is_built(tmp_path, capsys, argv, named):
    # run without the cli helper, whose own --n-max would override the one here
    cache = tmp_path / "cache"
    cache.mkdir()
    assert main([*argv, "--cache-dir", str(cache), "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(text in err for text in named)
    assert list(cache.iterdir()) == []


def test_short_n_max_is_refused_on_a_warm_table_cache(cli, capsys):
    # these commands read no coefficient when the table cache is warm
    _, cache, out = cli
    for command in (["table"], ["symbol", "2", "5"], ["scan", "--M", "50"]):
        argv = [*command, "--n-max", "3", "--cache-dir", str(cache), "--out-dir", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: n_max 3 stops short of the prime 5")


def test_theory_refuses_a_quadrature_cut_short_of_its_certificate(tmp_path, capsys):
    argv = ["theory", "--petersson", "--n-max", "50", "--cache-dir", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: the Petersson quadrature cut ")
    assert err.rstrip().endswith("raise --n-max")


def _write_table_body(path, lines):
    """A 15a1 table cache of these body lines under a header whose digest
    matches them, as a faulty build would write it."""
    curve = CurveSpec(1, 1, 1, -10, -10)
    curves.write_cache(str(path), periods._TABLE_MAGIC, periods._table_identity(curve), lines)


def test_tampered_table_cache_trips_the_gate(cli, tmp_path, capsys):
    run, cache, _ = cli
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    table_file = next(bad_cache.glob("table-*.txt"))
    lines = table_file.read_text().splitlines()
    key, re_s, im_s = lines[1].split()
    lines[1] = f"{key} {float(re_s) + 0.25!r} {im_s}"
    _write_table_body(table_file, lines[1:])  # with its digest, as a faulty build would
    code = main(
        ["table", "--cache-dir", str(bad_cache), "--n-max", N_MAX]
    )
    assert code == EXIT_GATE
    assert "gate failure" in capsys.readouterr().err


def test_table_off_the_lattice_trips_the_gate(tmp_path, monkeypatch, capsys):
    import modsym.shell as shell

    build = shell.build_period_table

    def off_the_lattice(f):
        table = build(f)
        table.lattice_residual = 1e-6
        return table

    monkeypatch.setattr(shell, "build_period_table", off_the_lattice)
    cache = tmp_path / "cache"
    code = main(["table", "--cache-dir", str(cache), "--n-max", N_MAX])
    assert code == EXIT_GATE
    assert "symbol lattice residual" in capsys.readouterr().err
    assert not list(cache.glob("table-*.txt"))  # refused tables are not persisted


def test_truncated_table_cache_is_rebuilt(cli, tmp_path, caplog):
    run, cache, _ = cli
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    table_file = bad_cache / "table-q15-tol1e-12.txt"  # the name perfbench/run.py checks
    intact = table_file.read_bytes()
    table_file.write_bytes(intact[: len(intact) // 2])  # cut mid-line
    with caplog.at_level(logging.WARNING, logger="modsym"):
        code = main(["table", "--cache-dir", str(bad_cache), "--n-max", N_MAX])
    assert code == EXIT_OK
    assert "rebuilding" in caplog.text
    assert table_file.read_bytes() == intact


def test_table_cache_of_another_tolerance_is_rebuilt(cli, tmp_path, caplog):
    # the header names 1e-10, not the one tolerance tables are built at
    run, cache, _ = cli
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    table_file = bad_cache / "table-q15-tol1e-12.txt"
    intact = table_file.read_bytes()
    table_file.write_bytes(intact.replace(b" tol=9.9999999999999998e-13 ", b" tol=1e-10 ", 1))
    assert table_file.read_bytes() != intact
    with pytest.raises(CacheFormatError, match="tol=1e-10"):
        read_table_cache(str(table_file), CurveSpec(1, 1, 1, -10, -10))
    with caplog.at_level(logging.WARNING, logger="modsym"):
        code = main(["table", "--cache-dir", str(bad_cache), "--n-max", N_MAX])
    assert code == EXIT_OK
    assert "rebuilding" in caplog.text
    assert table_file.read_bytes() == intact


def test_table_cache_with_a_duplicated_line_is_rebuilt(cli, tmp_path, caplog):
    # as many lines as classes, but one class twice: rebuilt, not gated
    run, cache, _ = cli
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    table_file = next(bad_cache.glob("table-*.txt"))
    intact = table_file.read_bytes()
    lines = intact.decode().splitlines()
    lines[5] = lines[4]
    table_file.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger="modsym"):
        code = main(["table", "--cache-dir", str(bad_cache), "--n-max", N_MAX])
    assert code == EXIT_OK
    assert "rebuilding" in caplog.text
    assert table_file.read_bytes() == intact


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_table_cache_with_a_value_that_is_not_finite_is_rebuilt(
    cli, tmp_path, capsys, caplog, value
):
    # max() and > pass a NaN, so the table's gates alone would let it through
    run, cache, _ = cli
    bad_cache = tmp_path / "cache"
    shutil.copytree(cache, bad_cache)
    table_file = next(bad_cache.glob("table-*.txt"))
    intact = table_file.read_bytes()
    lines = intact.decode().splitlines()
    key, _, im_s = lines[1].split()
    assert key == "0:1"
    lines[1] = f"{key} {value} {im_s}"
    _write_table_body(table_file, lines[1:])
    with caplog.at_level(logging.WARNING, logger="modsym"):
        code = main(["symbol", "1", "15", "--cache-dir", str(bad_cache), "--n-max", N_MAX])
    assert code == EXIT_OK
    assert "not finite" in caplog.text and "rebuilding" in caplog.text
    assert "m_minus(r) = 0\n" in capsys.readouterr().out
    assert table_file.read_bytes() == intact


def test_symbol_reads_only_the_table_cache(cli, tmp_path, capsys):
    run, cache, _ = cli
    assert run("symbol", "2", "5") == EXIT_OK
    expect = capsys.readouterr().out
    own = tmp_path / "cache"
    shutil.copytree(cache, own)
    coeffs = next(own.glob("coeffs-*.txt"))
    coeffs.unlink()
    argv = ["symbol", "2", "5", "--cache-dir", str(own), "--n-max", N_MAX]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expect
    assert not coeffs.exists()


@pytest.mark.parametrize(
    "command",
    [["symbol", "2", "5"], ["scan", "--M", "50"], ["fit", "--M", "50"], ["dist", "--M", "50", "--d", "1"]],
    ids=["symbol", "scan", "fit", "dist"],
)
def test_cold_commands_build_only_the_tables_coefficients(command, cli, tmp_path):
    # the table certifies 84 coefficients at q = 15; only `table` and `coeffs`
    # count all N and write the coefficient cache
    _, cache, _ = cli
    cold, table = tmp_path / "cache", "table-q15-tol1e-12.txt"
    argv = [*command, "--n-max", N_MAX, "--cache-dir", str(cold), "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert [p.name for p in cold.iterdir()] == [table]
    assert (cold / table).read_bytes() == (cache / table).read_bytes()


def test_cold_symbol_below_the_tables_length_is_refused(tmp_path, capsys):
    argv = ["symbol", "2", "5", "--n-max", "83", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == EXIT_VALIDATION
    assert "needs 84 coefficients but only 83 are available" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def _symbol_line(capsys, cache_dir, curve):
    argv = ["symbol", "1", "7", "--curve", curve]
    assert main(argv + ["--n-max", "500", "--cache-dir", str(cache_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    return next(line for line in out.splitlines() if line.startswith("m_plus"))


def test_caches_are_not_shared_between_curves(tmp_path, capsys, caplog):
    # 57a1 and 57b1 share a level, so their caches share file names
    from modsym.eigenform import load_or_build_eigenform

    # `table` writes both caches of 57a1; a cold symbol writes no coefficients
    shared = tmp_path / "shared"
    argv = ["table", "--curve", "0,-1,1,-2,2", "--n-max", "500"]
    assert main(argv + ["--cache-dir", str(shared)]) == EXIT_OK
    with caplog.at_level(logging.WARNING, logger="modsym"):
        reused = _symbol_line(capsys, shared, "0,1,1,20,-32")
        f = load_or_build_eigenform(CurveSpec(0, 1, 1, 20, -32), 500, str(shared))
    assert caplog.text.count("rebuilding") == 2  # table and coefficients
    fresh = _symbol_line(capsys, tmp_path / "fresh", "0,1,1,20,-32")
    assert reused == fresh
    assert f.coeffs[5] == 1


# ---------------------------------------------------------------------------
# report commands


def test_scan_is_deterministic(cli, tmp_path):
    run, _, _ = cli
    outs = [tmp_path / f"out{i}" for i in range(2)]
    assert run("scan", "--M", "60", out_dir=outs[0]) == EXIT_OK
    assert run("scan", "--M", "60", out_dir=outs[1]) == EXIT_OK
    ref = (outs[0] / "aggregates.csv").read_bytes()
    assert (outs[1] / "aggregates.csv").read_bytes() == ref


def test_scan_of_one_small_class_succeeds(cli, tmp_path):
    run, _, _ = cli
    assert run("scan", "--d", "15", "--M", "100", out_dir=tmp_path) == EXIT_OK
    lines = (tmp_path / "aggregates.csv").read_text().splitlines()
    rows = lines[2:]  # after the fingerprint and the column names
    assert [int(row.split(",")[0]) for row in rows] == [15, 30, 45, 60, 75, 90]


def test_scan_embeds_the_run_fingerprint(cli, tmp_path):
    run, _, _ = cli
    out = tmp_path / "fp"
    assert run("scan", "--M", "60", out_dir=out) == EXIT_OK
    first = (out / "aggregates.csv").read_text().splitlines()[0]
    expect = RunConfig(m_max=60, n_max=int(N_MAX)).fingerprint()
    assert first == f"# fingerprint={expect}"


def test_fit_command_prints_theory_and_classes(cli, tmp_path, capsys):
    run, _, _ = cli
    out = tmp_path / "fit"
    assert run("fit", "--M", "200", out_dir=out) == EXIT_OK
    text = capsys.readouterr().out
    assert "theory slope: paper -0.355823 / real +0.355823" in text
    for d in (1, 3, 5, 15):
        assert f"d={d}:" in text
    assert (out / "fit.csv").exists()


def test_dist_command_requires_a_class(cli):
    run, _, _ = cli
    assert run("dist", "--M", "100") == EXIT_VALIDATION


def test_dist_command_reports_both_normalizations(cli, tmp_path, capsys):
    run, _, _ = cli
    out = tmp_path / "dist"
    assert run("dist", "--M", "300", "--d", "5", out_dir=out) == EXIT_OK
    text = capsys.readouterr().out
    assert "d=5" in text
    assert "shift-normalized: moments" in text
    assert "slope-normalized: moments" in text
    assert (out / "dist.csv").exists()


def test_dist_command_sweeps_once(cli, tmp_path, monkeypatch):
    # the rows of the variance fit and the atoms of the report share a sweep
    sweeps = []
    compute = SymbolStore._compute

    def counting(self, m, *sinks, **kw):
        sweeps.append(m)
        compute(self, m, *sinks, **kw)

    monkeypatch.setattr(SymbolStore, "_compute", counting)
    run, _, _ = cli
    argv = ("dist", "--M", "300", "--d", "1", "--interval", "1/10:7/20")
    assert run(*argv, out_dir=tmp_path) == EXIT_OK
    assert sweeps == [300]


@pytest.mark.parametrize(
    "argv", [["--M", "20", "--d", "1", "--interval", "1/3:7/20"],
             ["--M", "40", "--d", "5", "--interval", "0:1/100"]], ids=["d1", "d5"]
)
def test_dist_on_an_empty_window_exits_2(argv, cli, tmp_path):
    # no point of the class lies in the window: an error line, not a
    # ZeroDivisionError from the moments
    _, cache, _ = cli
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    argv = ["dist", *argv, "--n-max", N_MAX, "--cache-dir", str(cache), "--out-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "modsym.shell", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), capture_output=True, text=True,
    )
    assert done.returncode == EXIT_VALIDATION
    assert done.stderr.startswith("error: empty sample: ")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "dist.csv").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["dist", "--M", "10", "--d", "15"], "no denominator c <= 10 has gcd 15 with q"),
        (["fit", "--M", "10", "--d", "15"], "no denominator c <= 10 has gcd 15 with q"),
        (["dist", "--M", "1", "--d", "1"], "no denominator 2 <= c <= 1 has gcd 1 with q"),
        (["fit", "--M", "1"], "no denominator 2 <= c <= 1"),
        (["fit", "--M", "2", "--d", "1"],
         "only one denominator 2 <= c <= 2 has gcd 1 with q (c = 2); the fit needs two"),
        (["dist", "--M", "5", "--d", "5"],
         "only one denominator c <= 5 has gcd 5 with q (c = 5); the fit needs two"),
        (["fit", "--M", "5", "--d", "5"],
         "only one denominator c <= 5 has gcd 5 with q (c = 5); the fit needs two"),
        # every class is fitted, and class 15 holds only c = 15
        (["fit", "--M", "20"], "only one denominator c <= 20 has gcd 15 with q (c = 15); the fit needs two"),
    ],
    ids=["dist-d15", "fit-d15", "dist-m1", "fit-m1", "fit-m2-d1", "dist-m5-d5", "fit-m5-d5",
         "fit-m20"],
)
def test_fits_refuse_an_empty_class_before_the_sweep(argv, message, cli, tmp_path, capsys,
                                                     monkeypatch):
    # the class has fewer than the two denominators 2 <= c <= M the free fit
    # needs: refused before the table is read or any sweep runs, naming the
    # class and M as weyl does
    monkeypatch.setattr(SymbolStore, "_compute", None)  # no sweep may start
    run, _, _ = cli
    assert run(*argv, out_dir=tmp_path) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("script", ["module", "entry"])
def test_the_script_keeps_exit_codes_and_piped_output(script, cli, tmp_path, capsys):
    # the script freezes the heap once main returns; the exit code, and all of
    # a piped stdout, which the interpreter flushes only as it exits, survive
    run, cache, _ = cli
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    start = {"module": ["-m", "modsym.shell"],
             "entry": ["-c", "import sys; from modsym.shell import entry; sys.exit(entry())"]}
    bad_cache = tmp_path / "bad-cache"
    shutil.copytree(cache, bad_cache)
    table_file = next(bad_cache.glob("table-*.txt"))
    lines = table_file.read_text().splitlines()
    key, re_s, im_s = lines[1].split()
    _write_table_body(table_file, [f"{key} {float(re_s) + 0.25!r} {im_s}", *lines[2:]])
    for argv, code in ((["theory"], EXIT_OK), (["scan", "--M", "10", "--d", "0"], EXIT_VALIDATION),
                       (["table", "--cache-dir", str(bad_cache)], EXIT_GATE)):
        argv = [*argv, "--n-max", N_MAX, "--out-dir", str(tmp_path / "out")]
        if "--cache-dir" not in argv:
            argv += ["--cache-dir", str(cache)]
        assert main(argv) == code
        want = capsys.readouterr()
        done = subprocess.run([sys.executable, *start[script], *argv], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
        assert (done.returncode, done.stdout, done.stderr) == (code, want.out, want.err)


def test_contig_command_reports_sup_deviation(cli, tmp_path, capsys):
    run, _, _ = cli
    out = tmp_path / "contig"
    assert run("contig", "--M", "150", "--grid", "11", out_dir=out) == EXIT_OK
    text = capsys.readouterr().out
    assert "grid: 11 points, M = 150" in text
    assert "sup|A_M - limit|" in text
    assert (out / "contig.csv").exists()


def test_weyl_command_lists_modes(tmp_path, capsys):
    out = tmp_path / "weyl"
    argv = ["weyl", "--M", "100", "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert all(f"n={n}:" in text for n in range(6))
    assert (out / "weyl.csv").exists()


def test_weyl_command_reads_and_writes_no_cache(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["--cache-dir", str(cache), "--out-dir", str(tmp_path / "out")]
    assert main(["weyl", "--M", "100", *argv]) == EXIT_OK
    assert list(cache.iterdir()) == []
    assert (tmp_path / "out" / "weyl.csv").exists()
    # no c <= 10 has gcd 15 with the level: an empty sample is refused, not divided by
    assert main(["weyl", "--M", "10", "--d", "15", *argv]) == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# theory and verify


def test_theory_command_emits_json(cli, capsys):
    run, _, _ = cli
    assert run("theory") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 15
    assert payload["slope_real"] == pytest.approx(0.3558229788559085)
    assert payload["shifts"]["1"] == pytest.approx(-0.440048, abs=1e-4)
    assert payload["petersson_norm_sq"] is None
    assert payload["petersson_nodes"] is None


def test_theory_reports_the_quadrature_order_it_reached(cli, capsys):
    run, _, _ = cli
    assert run("theory", "--petersson") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["petersson_mesh_error"] <= 1e-5
    assert payload["petersson_nodes"] == 8


_LVALUE_COMMANDS = [
    ["theory"], ["theory", "--petersson"], ["fit", "--M", "50"], ["dist", "--d", "3", "--M", "50"],
    ["verify", "--M", "50"],
]


@pytest.mark.parametrize("command", _LVALUE_COMMANDS)
def test_fixture_for_another_curve_is_refused(command, tmp_path, capsys):
    # 57a1 has no symmetric-square L-values in theory's table: refused before anything is built
    cache = tmp_path / "cache"
    argv = [*command, "--curve", "0,-1,1,-2,2"]
    argv += ["--n-max", "500", "--cache-dir", str(cache), "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: no L(Sym^2 f, 1) for curve 0,-1,1,-2,2, only for 1,1,1,-10,-10\n"
    assert not cache.exists()


def test_verify_runs_every_gate(cli, capsys):
    run, _, _ = cli
    assert run("verify", "--M", "600") == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is True
    names = [g["name"] for g in verdict["gates"]]
    assert names == [
        "relation_two_term",
        "relation_three_term",
        "symbol_lattice",
        "value_at_zero_plus",
        "value_at_zero_minus",
        "fixture_sym2_recovery",
        "petersson_mesh",
        "petersson_truncation",
        "hecke_identity",
        "dual_algorithm",
        "variance_shifts",
    ]
    assert all(g["passed"] for g in verdict["gates"])
    lattice = verdict["gates"][2]
    assert lattice["threshold"] == 2.0 * math.pi * 10.0 * 1e-12
    assert lattice["value"] <= 1e-14
    assert verdict["fingerprint"] == RunConfig(
        m_max=600, n_max=int(N_MAX)
    ).fingerprint()
    assert verdict["petersson_nodes"] == 8  # beside the gates, not one of them


def test_verify_loads_neither_fractions_nor_decimal(cli, capsys):
    # its Hecke and oracle points are integer cusps: with both imports
    # blocked, as None in sys.modules blocks them, it prints the same verdict
    _, cache, out = cli
    argv = ["verify", "--M", "600", "--n-max", N_MAX, "--cache-dir", str(cache),
            "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    expect = capsys.readouterr().out
    probe = ("import sys; sys.modules.update(dict.fromkeys(['fractions', 'decimal'])); "
             "from modsym.shell import main; print(main(sys.argv[1:]))")
    *lines, last = _fresh_interpreter(probe, *argv)
    assert last == "0"
    assert lines == expect.splitlines()


def test_verify_fails_a_quadrature_cut_short_of_its_certificate(cli, capsys, monkeypatch):
    run, _, _ = cli
    quadrature = shell.petersson_quadrature

    def cut_short(f, tol):
        return quadrature(f, tol=tol)._replace(truncated=1)

    monkeypatch.setattr(shell, "petersson_quadrature", cut_short)
    assert run("verify", "--M", "600") == EXIT_GATE
    gates = json.loads(capsys.readouterr().out)["gates"]
    assert [g["name"] for g in gates if not g["passed"]] == ["petersson_truncation"]


def test_verify_fails_a_quadrature_that_reaches_its_cap_above_tol(cli, capsys, monkeypatch):
    run, _, _ = cli
    width_integral = theory._width_integral

    def never_agreeing(f, width, ms, tol_tail, rule, x_panels):
        # a 2e-4 relative error whose sign flips with each doubling of the order
        part, cut = width_integral(f, width, ms, tol_tail, rule, x_panels)
        return part * (1.0 + 2e-4 * (-1) ** len(rule[0]).bit_length()), cut

    monkeypatch.setattr(theory, "_width_integral", never_agreeing)
    assert run("verify", "--M", "600") == EXIT_GATE
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["petersson_nodes"] == theory.PETERSSON_MAX_NODES
    assert [g["name"] for g in verdict["gates"] if not g["passed"]] == ["petersson_mesh"]


def test_verify_stops_when_the_direct_oracle_refuses_every_draw(cli, capsys, monkeypatch):
    # from N = 84, where the table first builds, the oracle certifies the small c
    # that verify draws, so the refusal is simulated
    def refuse(r, f):
        raise TruncationError(f"no certificate for {r}")

    monkeypatch.setattr(shell, "direct_symbol_oracle", refuse)
    run, _, _ = cli
    assert run("verify", "--M", "50") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "certified 0 of the 10 comparisons" in err
    assert "in 1000 draws" in err


def _fresh_interpreter(code: str, *argv: str, **environ: str | None) -> list[str]:
    """The stdout lines of a new interpreter that runs code with src on its
    path, in this environment updated by environ, where None unsets a name."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **environ)
    env = {name: value for name, value in env.items() if value is not None}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()


@pytest.mark.parametrize("cache_state", ["warm", "cold"])
@pytest.mark.parametrize(
    "command", [["symbol", "2", "5"], ["table"], ["coeffs"]], ids=["symbol", "table", "coeffs"]
)
def test_table_commands_run_without_loading_numpy(command, cache_state, cli, tmp_path, capsys):
    # a cold run also counts points, extends by the Hecke recursions and sums
    # the table's series, all in Python integers and floats
    _, cache, out = cli
    if cache_state == "cold":
        cache = tmp_path / "cache"
    argv = [*command, "--n-max", N_MAX, "--cache-dir", str(cache), "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    expect = capsys.readouterr().out
    if cache_state == "cold":
        shutil.rmtree(cache)
    # the lazy top-level entry may be there; any submodule means numpy loaded;
    # nor may the scan or theory layer load, or pickle and multiprocessing,
    # which only a sweep could use; json and logging only the other commands
    # use, and hashlib and typing (whose import takes about 3 ms) none, so none
    # loads past what the interpreter had before main; typing is dropped from
    # that first, as a site .pth file may have loaded it.  A warm symbol reads
    # the table cache alone: it loads no eigenform (the coefficient build, which
    # a cold run needs), no dataclasses (with its inspect) and no fractions
    # (with its decimal)
    warm_path = ("modsym.eigenform", "dataclasses", "inspect", "fractions", "decimal")
    probe = (
        "import sys; sys.modules.pop('typing', None); bare = set(sys.modules); "
        "from modsym.shell import main; rc = main(sys.argv[1:]); "
        "print(rc, sorted(m for m in sys.modules if m.startswith('numpy.')), "
        "[m for m in ('modsym.scanstats', 'modsym.theory', 'pickle', 'multiprocessing') "
        "if m in sys.modules], "
        "[m for m in ('hashlib', 'json', 'logging', 'typing') if m in set(sys.modules) - bare], "
        f"[m for m in {warm_path} if m in sys.modules])"
    )
    *lines, last = _fresh_interpreter(probe, *argv)
    warm_symbol = command[0] == "symbol" and cache_state == "warm"
    assert last == "0 [] [] [] " + ("[]" if warm_symbol else "['modsym.eigenform']")
    assert lines == expect.splitlines()


@pytest.mark.parametrize(
    "command", [["symbol", "2", "5"], ["table"], ["coeffs"]], ids=["symbol", "table", "coeffs"]
)
def test_table_commands_run_with_numpy_missing(command, tmp_path, capsys):
    # None in sys.modules blocks the import, as an interpreter without numpy
    # would: a cold run and the warm one after it print and write what they do
    # with numpy, and only a use of numpy raises, naming it
    cache = tmp_path / "cache"
    argv = [*command, "--n-max", "2000", "--cache-dir", str(cache), "--out-dir", str(tmp_path)]
    probe = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None",
        "from modsym import eigenform",
        "from modsym.shell import main",
        "codes = [main(sys.argv[1:]) for run in ('cold', 'warm')]",
        "try:",
        "    eigenform.np.zeros",
        "except ModuleNotFoundError as exc:",
        "    print(codes, 'numpy' in str(exc))",
    ])
    *lines, last = _fresh_interpreter(probe, *argv)
    assert last == "[0, 0] True"
    written = {p.name: p.read_bytes() for p in cache.iterdir()}
    shutil.rmtree(cache)
    assert [main(argv) for run in ("cold", "warm")] == [EXIT_OK, EXIT_OK]
    assert lines == capsys.readouterr().out.splitlines()
    assert written == {p.name: p.read_bytes() for p in cache.iterdir()}


@pytest.mark.parametrize("preset", [None, "3"])
def test_the_cli_runs_openblas_on_one_thread_unless_told_otherwise(cli, preset):
    # a bare import of numpy starts an OpenBLAS worker thread, which main
    # heads off before numpy loads, so the sweep forks from a process of one
    # thread; a value the caller set is kept
    if preset is None and not os.path.isdir("/proc/self/task"):
        pytest.skip("counts the threads in /proc")
    _, cache, out = cli
    argv = ["scan", "--M", str(FORK_MIN), "--n-max", N_MAX, "--cache-dir", str(cache),
            "--out-dir", str(out)]
    probe = (
        "import os, sys; from modsym.shell import main; rc = main(sys.argv[1:]); "
        "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else [0]; "
        "print(rc, 'numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'], len(tasks))"
    )
    *_, last = _fresh_interpreter(probe, *argv, OPENBLAS_NUM_THREADS=preset)
    rc, loaded, threads, tasks = last.split()
    assert (rc, loaded, threads) == ("0", "True", preset or "1")
    if preset is None:
        assert tasks == "1"


def test_importing_the_shell_and_binding_its_layers_leaves_the_environment_alone():
    probe = (
        "import os; before = dict(os.environ); import modsym.shell as shell; "
        "shell._bind_layers(); print(dict(os.environ) == before)"
    )
    assert _fresh_interpreter(probe, OPENBLAS_NUM_THREADS=None) == ["True"]


def test_a_command_that_needs_numpy_exits_2_naming_it(tmp_path):
    # scan's sweep runs in numpy: without it the run ends in an error line
    # that names the module, not in a traceback
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; sys.modules['numpy'] = None; from modsym.shell import main; "
            "sys.exit(main(sys.argv[1:]))")
    argv = ["scan", "--M", "10", "--n-max", "2000", "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), capture_output=True, text=True,
    )
    assert done.returncode == EXIT_VALIDATION
    assert done.stderr.startswith("error: ") and "numpy" in done.stderr
    assert "Traceback" not in done.stderr


def test_shell_binds_the_scan_and_theory_layers_on_lookup():
    # every name the benchmark's tracer wraps on the shell resolves there,
    # though the import loads neither layer; a name set before the layers
    # are bound stays set, and any other name is missing
    names = {
        "modsym.eigenform": ["load_or_build_eigenform", "lfun1"],
        "modsym.periods": ["build_period_table", "read_table_cache", "symbol",
                           "hecke_residual", "period_sum", "direct_symbol_oracle"],
        "modsym.scanstats": ["scan", "distribution_report", "contiguous_avg", "variance_fit",
                             "weyl_report", "write_aggregates_csv", "write_fit_csv",
                             "write_dist_csv", "write_contig_csv", "write_weyl_csv"],
        "modsym.theory": ["petersson_quadrature", "ghat"],
    }
    probe = (
        "import sys; import modsym.shell as shell; "
        "layers = lambda: [m for m in ('modsym.scanstats', 'modsym.theory') if m in sys.modules]; "
        "print(layers()); shell.ghat = print; "
        "print(*(getattr(shell, name).__module__ for name in sys.argv[2:]), sep=','); "
        "print(layers(), shell.ghat is print, hasattr(shell, sys.argv[1]))"
    )
    wanted = [name for module in names.values() for name in module]
    out = _fresh_interpreter(probe, "no_such_name", *wanted)
    assert out[0] == "[]"
    modules = [m for m, module in names.items() for _ in module]
    modules[wanted.index("ghat")] = "builtins"
    assert out[1].split(",") == modules
    assert out[2] == "['modsym.scanstats', 'modsym.theory'] True False"


def test_dist_runs_without_loading_scipy(cli):
    # but with both layers past the table's, which main binds for it
    _, cache, out = cli
    argv = ["dist", "--M", "200", "--d", "1", "--n-max", N_MAX]
    argv += ["--cache-dir", str(cache), "--out-dir", str(out)]
    probe = (
        "import sys; from modsym.shell import main; rc = main(sys.argv[1:]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "[m for m in ('modsym.scanstats', 'modsym.theory') if m in sys.modules], "
        "'_hashlib' in sys.modules)"
    )
    last = _fresh_interpreter(probe, *argv)[-1]
    assert last == "0 [] ['modsym.scanstats', 'modsym.theory'] False"


@pytest.mark.parametrize(
    "command, absent",
    [(["scan", "--M", "100"], ["modsym.eigenform", "modsym.theory"]),
     (["weyl", "--M", "50"], ["modsym.eigenform", "modsym.theory"]),
     (["theory"], ["modsym.scanstats"]),
     (["theory", "--petersson"], ["modsym.scanstats"])],
    ids=["scan", "weyl", "theory", "theory-petersson"],
)
def test_commands_load_only_the_layers_they_run(command, absent, cli):
    # a warm scan reads the table alone, weyl neither table nor coefficients,
    # and theory no symbol: neither loads the layers of the others
    _, cache, out = cli
    argv = [*command, "--cache-dir", str(cache), "--out-dir", str(out)]
    if command[0] != "weyl":
        argv += ["--n-max", N_MAX]
    probe = (
        "import sys; from modsym.shell import main; rc = main(sys.argv[2:]); "
        "print(rc, [m for m in sys.argv[1].split(',') if m in sys.modules])"
    )
    assert _fresh_interpreter(probe, ",".join(absent), *argv)[-1] == "0 []"


def test_theory_runs_with_numpy_missing(cli, capsys):
    # the closed-form constants are plain Python: blocked, numpy does not
    # load, and the JSON is the one printed with it
    _, cache, out = cli
    argv = ["theory", "--n-max", N_MAX, "--cache-dir", str(cache), "--out-dir", str(out)]
    probe = ("import sys; sys.modules['numpy'] = None; from modsym.shell import main; "
             "print(main(sys.argv[1:]))")
    *lines, last = _fresh_interpreter(probe, *argv)
    assert last == "0"
    assert main(argv) == EXIT_OK
    assert lines == capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "command", [["verify", "--M", "600"], ["scan", "--M", "100"]], ids=["verify", "scan"]
)
def test_reports_hash_without_loading_openssl(command, cli):
    # a report's fingerprint takes CPython's builtin sha256, so neither _hashlib
    # nor OpenSSL's libcrypto under it loads
    _, cache, out = cli
    argv = [*command, "--n-max", N_MAX, "--cache-dir", str(cache), "--out-dir", str(out)]
    probe = (
        "import sys; from modsym.shell import main; rc = main(sys.argv[1:]); "
        "print(rc, '_hashlib' in sys.modules)"
    )
    assert _fresh_interpreter(probe, *argv)[-1] == "0 False"
