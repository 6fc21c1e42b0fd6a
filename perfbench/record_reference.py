#!/usr/bin/env python3
"""Record the reference CSVs that checks.py compares deterministic outputs with.

    python3 perfbench/record_reference.py

Runs every invocation of the deterministic workloads once and stores its CSVs,
gzipped, under perfbench/reference/<invocation>/. Re-record only when a change
is meant to alter those outputs, and say so in the change.
"""

import gzip
import shutil

import run
from checks import REFERENCE_DIR
from workloads import WORKLOADS


def main() -> None:
    _, cli = run.load_program()
    for name in ("schedule_trace", "rate_grid"):
        work_dir = run.RUN_DIR / f"reference-{name}"
        shutil.rmtree(work_dir, ignore_errors=True)
        bench = run.Run(cli, WORKLOADS[name], 1, work_dir)
        for inv in bench.workload.invocations:
            out_dir = work_dir / "out" / inv.name
            if cli.main([inv.command, "--config", str(bench.configs[inv.name]),
                         "--out", str(out_dir), "--seed", "1"]) != 0:
                raise SystemExit(f"{inv.name} failed")
            dest = REFERENCE_DIR / inv.name
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for csv_path in sorted(out_dir.glob("*.csv")):
                target = dest / (csv_path.name + ".gz")
                with open(target, "wb") as raw, \
                        gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                    gz.write(csv_path.read_bytes())
                print(f"{target.relative_to(run.ROOT)}: "
                      f"{target.stat().st_size} bytes")


if __name__ == "__main__":
    main()
