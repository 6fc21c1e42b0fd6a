#!/usr/bin/env python3
"""Where a trace run's time goes, as a Markdown table.

    python3 scripts/run_time_report.py

Run from anywhere; the program is imported from `src/` of the checkout that
holds this script. For `adapt` and `power`, each on qam and psk and on
case1 and case2 at a sample spacing of 4e-5 s (the benchmark's), it runs
the CLI in process 9 times after one warm-up run and prints, per run, the
medians of:
- the in-process wall time;
- the share of it spent in `cli._write_csv`;
- the number of `bep_analysis.union_bound_rows` calls and their time;
- the share of CSV cells that sit in columns of at least
  `cli._REPEAT_MIN_CELLS` cells holding a repeated value, the columns
  whose text the writer formats once per distinct value.

It wraps the two functions by rebinding their names in the modules that
call them, and only reports.
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 9
SAMPLE_DT = 4e-5
RUNS = [(command, scheme, case) for command in ("adapt", "power")
        for scheme in ("qam", "psk") for case in ("case1", "case2")]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from uavlink import bep_analysis, cli, power_control

    seen = {"write_s": 0.0, "bound_calls": 0, "bound_s": 0.0, "cells": 0,
            "repeated_cells": 0, "count_s": 0.0}
    write_csv, bound_rows = cli._write_csv, bep_analysis.union_bound_rows

    def timed_write(path, header, columns, meta):
        start = time.perf_counter()  # the count is left out of the wall
        for column in columns:
            column = np.asarray(column)
            seen["cells"] += column.size
            if (column.size >= cli._REPEAT_MIN_CELLS
                    and np.unique(column).size < column.size):
                seen["repeated_cells"] += column.size
        seen["count_s"] += time.perf_counter() - start
        start = time.perf_counter()
        write_csv(path, header, columns, meta)
        seen["write_s"] += time.perf_counter() - start

    def timed_rows(*call):
        start = time.perf_counter()
        out = bound_rows(*call)
        seen["bound_s"] += time.perf_counter() - start
        seen["bound_calls"] += 1
        return out

    cli._write_csv = timed_write
    for module in (bep_analysis, cli, power_control):
        module.union_bound_rows = timed_rows

    print("| run | wall (ms) | `_write_csv` share | `union_bound_rows` calls "
          "| `union_bound_rows` (ms) | cells in repeated-value columns |")
    print("| --- | --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for command, scheme, case in RUNS:
            config = Path(tmp) / f"{command}-{scheme}-{case}.ini"
            config.write_text(f"[run]\nfixture = {case}\nscheme = {scheme}\n"
                              f"seed = 1\nsample_dt = {SAMPLE_DT!r}\n")
            rows = []
            for _ in range(REPEATS + 1):  # the first run warms up
                for key in seen:
                    seen[key] = 0
                start = time.perf_counter()
                rc = cli.main([command, "--config", str(config), "--out",
                               str(Path(tmp) / config.stem), "--threads",
                               "1"])
                wall = time.perf_counter() - start - seen["count_s"]
                if rc != 0:
                    raise SystemExit(f"{config.stem}: exited with {rc}")
                rows.append((wall, seen["write_s"] / wall,
                             seen["bound_calls"], seen["bound_s"],
                             seen["repeated_cells"] / max(seen["cells"], 1)))
            wall, write, calls, bound, repeated = (
                statistics.median(column) for column in zip(*rows[1:]))
            print(f"| {command} {scheme} {case} | {1e3 * wall:.1f} "
                  f"| {100 * write:.1f} % | {calls:g} | {1e3 * bound:.2f} "
                  f"| {100 * repeated:.1f} % |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
