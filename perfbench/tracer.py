"""Run one modsym command in-process with a span around every layer boundary.

    python3 perfbench/tracer.py SPANS.json <modsym arguments...>

The public functions of each layer are wrapped at run time, each under the
name it is looked up by (``modsym.shell.scan``, ``modsym.periods.
antiderivative_batch``, ``SymbolStore.dense``, ``numpy.polynomial.legendre.
leggauss``, ...); nothing under ``src/`` changes.  Spans (name, start, end,
parent) and counters are kept in memory and written to SPANS.json when the
command ends, whatever its exit status.  The exit code is the command's own.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a spanned call; hooks see the arguments.

        before(args) returns a state handed to after(args, result, state).
        A call that raises is closed and counted as ``<name>.raised.<type>``.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = self.open(name)
            try:
                result = inner(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                self.add(f"{name}.raised.{type(exc).__name__}")
                raise
            self.close(idx)
            if after:
                after(args, result, state)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def instrument(tr: Tracer) -> None:
    import numpy as np
    import numpy.polynomial.legendre as legendre

    from modsym import eigenform, periods, scanstats, shell

    def file_bytes(key):
        return lambda args, result, state: tr.add(key, os.path.getsize(args[0]))

    # eigenform: point counts, Hecke extension, coefficient cache, series
    tr.wrap(eigenform, "count_points", "eigenform.count_points",
            after=lambda args, r, s: tr.add("eigenform.count_points.residues", args[1]))
    tr.wrap(eigenform, "hecke_extend", "eigenform.hecke_extend")
    tr.wrap(eigenform, "build_eigenform", "eigenform.build")
    tr.wrap(eigenform, "read_coeffs_cache", "eigenform.cache_read")
    tr.wrap(eigenform, "write_coeffs_cache", "eigenform.cache_write",
            after=file_bytes("eigenform.cache_write.bytes"))

    def cache_before(args):
        return tr.calls.get("eigenform.cache_read", 0), tr.calls.get("eigenform.build", 0)

    def cache_after(args, result, state):
        read = tr.calls.get("eigenform.cache_read", 0) > state[0]
        built = tr.calls.get("eigenform.build", 0) > state[1]
        tr.add("eigenform.cache." + ("rebuilds" if read and built else
                                     "misses" if built else "hits"))

    tr.wrap(shell, "load_or_build_eigenform", "eigenform.load",
            before=cache_before, after=cache_after)

    def batch_points(args, result, state):
        tr.add("eigenform.antiderivative_batch.points", int(np.size(args[1])))

    for owner in (eigenform, periods):
        tr.wrap(owner, "antiderivative_batch", "eigenform.antiderivative_batch",
                after=batch_points)
    tr.wrap(shell, "lfun1", "eigenform.lfun1")

    # periods and exactmath: table build and cache, single symbols, gates
    tr.wrap(shell, "build_period_table", "periods.build_table",
            after=lambda args, r, s: tr.add("periods.build_table.classes", len(r.classes)))
    tr.wrap(shell, "read_table_cache", "periods.read_cache")
    tr.wrap(shell, "symbol", "periods.symbol")
    tr.wrap(shell, "hecke_residual", "periods.hecke_residual")
    for owner in (shell, periods):
        tr.wrap(owner, "period_sum", "periods.period_sum")
    tr.wrap(periods, "cf_decompose", "exactmath.cf_decompose")
    tr.wrap(shell, "direct_symbol_oracle", "periods.direct_oracle")

    # scanstats: the symbol engine, row reduction, reports, CSV output
    tr.wrap(scanstats.SymbolStore, "dense", "scanstats.dense")
    tr.wrap(scanstats.SymbolStore, "_compute", "scanstats.dense_compute",
            after=lambda args, r, s: tr.add("scanstats.dense.lanes", args[1]))
    tr.wrap(shell, "scan", "scanstats.scan",
            after=lambda args, r, s: tr.add("scanstats.scan.points",
                                            sum(row.phi for row in r)))
    for name in ("distribution_report", "contiguous_avg", "variance_fit", "weyl_report"):
        tr.wrap(shell, name, f"scanstats.{name}")
    for name in ("write_aggregates_csv", "write_fit_csv", "write_dist_csv",
                 "write_contig_csv", "write_weyl_csv"):
        tr.wrap(shell, name, "scanstats.csv_write",
                after=file_bytes("scanstats.csv_write.bytes"))

    # theory: Petersson quadrature and its Gauss-Legendre nodes, the profile
    tr.wrap(shell, "petersson_quadrature", "theory.petersson_quadrature")
    tr.wrap(legendre, "leggauss", "theory.leggauss")
    tr.wrap(shell, "ghat", "theory.ghat")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tr = Tracer()
    rc = 1
    try:
        idx = tr.open("shell.import")
        sys.path.insert(0, str(SRC))
        from modsym import shell

        tr.close(idx)
        instrument(tr)
        idx = tr.open("shell.command")
        try:
            rc = shell.main(cli_args)
        finally:
            tr.close(idx)
    finally:
        tr.dump(out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
