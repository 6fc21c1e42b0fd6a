#!/usr/bin/env python3
"""How far the CLI's digested outputs moved against another checkout: the
largest change of every CSV column that differs, next to its tolerance.

    python3 scripts/output_delta.py OTHER_CHECKOUT [--threads N]

Runs every invocation of `output_digest.invocations()` twice, each time in
a fresh process: once with the `src/` of the checkout that holds this
script, once with OTHER_CHECKOUT's `src/`. Both runs use this checkout's
configs and seed. For every CSV whose bytes differ it prints, per column
that differs, the largest absolute and relative change (this checkout
against OTHER_CHECKOUT) and the column's (abs, rel) tolerance from this
checkout's `perfbench/checks.py`, which is read, never written; a column
that file does not list must match exactly. The output is a Markdown table,
for a CI job summary. It only reports: the exit status is 0 whenever both
runs complete.
"""

import argparse
import csv
import importlib.util
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checks():
    """perfbench/checks.py of this checkout, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_outputs(src: Path, work: Path, threads: int) -> None:
    """Write every digested invocation's CSVs under `work` in a child
    process that imports `uavlink` from `src`."""
    code = ("import sys; from pathlib import Path; "
            f"sys.path.insert(0, {str(ROOT / 'scripts')!r}); "
            "import output_digest; "
            f"output_digest.digest(Path({str(work)!r}), {threads}, "
            f"Path({str(src)!r}))")
    subprocess.run([sys.executable, "-c", code], check=True)


def _read(path: Path):
    if not path.is_file():
        return None
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _column_change(got: list, want: list, tol):
    """(cells that differ, max abs change, max rel change, within) of one
    column, or None where it is equal. The changes are nan where a
    differing cell is not a number. within applies checks.py's rule,
    |a - b| <= abs + rel |b| on every cell; a column without a tolerance
    must match exactly."""
    pairs = [(g, w) for g, w in zip(got, want) if g != w]
    if not pairs:
        return None
    abs_max = rel_max = 0.0
    within = tol is not None
    for g, w in pairs:
        try:
            a, b = float(g), float(w)
        except ValueError:
            return len(pairs), math.nan, math.nan, False
        d = abs(a - b)
        abs_max = max(abs_max, d)
        rel_max = max(rel_max, d / abs(b) if b else (math.inf if d else 0.0))
        within = within and d <= tol[0] + tol[1] * abs(b)
    return len(pairs), abs_max, rel_max, within


def delta_rows(head: Path, base: Path, names: list, tolerances: dict) -> list:
    """One Markdown row per differing column of every differing CSV."""
    rows = []
    for name in names:
        for csv_name in sorted({p.name for d in (head, base)
                                for p in (d / name).glob("*.csv")}):
            got, want = _read(head / name / csv_name), _read(base / name /
                                                             csv_name)
            label = f"`{name}/{csv_name}`"
            if got == want:
                continue
            if got is None or want is None:
                rows.append(f"| {label} | | missing in "
                            f"{'head' if got is None else 'base'} | | | | NO |")
                continue
            if got[0] != want[0] or len(got) != len(want):
                rows.append(f"| {label} | | header or rows: {len(got) - 1} "
                            f"rows against {len(want) - 1} | | | | NO |")
                continue
            tols = tolerances.get(csv_name, {})
            for j, col in enumerate(want[0]):
                g, w = [r[j] for r in got[1:]], [r[j] for r in want[1:]]
                tol = tols.get(col)
                change = _column_change(g, w, tol)
                if change is None:
                    continue
                n, abs_max, rel_max, within = change
                rows.append(
                    f"| {label} | `{col}` | {n} cells | {abs_max:.3g} | "
                    f"{rel_max:.3g} | "
                    f"{'exact' if tol is None else f'({tol[0]:g}, {tol[1]:g})'}"
                    f" | {'yes' if within else 'NO'} |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path,
                        help="the checkout to compare against (its src/)")
    parser.add_argument("--threads", type=int, default=1,
                        help="--threads of every uavlink call")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "scripts"))
    import output_digest

    names = [name for name, _, _ in output_digest.invocations()]
    with tempfile.TemporaryDirectory() as tmp:
        head, base = Path(tmp) / "head", Path(tmp) / "base"
        for src, work in ((ROOT / "src", head),
                          (args.other.resolve() / "src", base)):
            work.mkdir()
            _write_outputs(src, work, args.threads)
        rows = delta_rows(head, base, names, _checks().TOLERANCES)
    print(f"### Output changes against {args.other}")
    if not rows:
        print("Every digested CSV is byte-identical.")
        return 0
    print("| CSV | column | changed | max abs change | max rel change "
          "| tolerance (abs, rel) | within |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
