"""scripts/output_delta.py: the per-column change table of two output
trees, on small hand-written CSVs (the script's subprocess runs are not
repeated here)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def delta():
    spec = importlib.util.spec_from_file_location(
        "output_delta", ROOT / "scripts" / "output_delta.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, name: str, csv_name: str, text: str) -> None:
    (root / name).mkdir(parents=True, exist_ok=True)
    (root / name / csv_name).write_text(text)


def test_rows_name_each_changed_column_with_its_tolerance(tmp_path, delta):
    head, base = tmp_path / "head", tmp_path / "base"
    schedule = "t_end,rate_bits,c_end\n"
    _write(base, "adapt", "adapt_schedule.csv",
           schedule + "0.5,1,0.25\n0.25,2,0.5\n")
    _write(head, "adapt", "adapt_schedule.csv",
           schedule + "0.5,1,0.25000000000025\n0.2500000001,3,0.5\n")
    _write(base, "adapt", "adapt_rave.csv", "t_c,r_ave\n0,1\n")
    _write(head, "adapt", "adapt_rave.csv", "t_c,r_ave\n0,1\n")
    _write(base, "power", "power_trace.csv", "t\n0\n")
    tolerances = delta._checks().TOLERANCES
    rows = delta.delta_rows(head, base, ["adapt", "power"], tolerances)
    assert rows == [
        "| `adapt/adapt_schedule.csv` | `t_end` | 1 cells | 1e-10 | 4e-10 | "
        "(1e-09, 0) | yes |",
        "| `adapt/adapt_schedule.csv` | `rate_bits` | 1 cells | 1 | 0.5 | "
        "exact | NO |",
        "| `adapt/adapt_schedule.csv` | `c_end` | 1 cells | 2.5e-13 | 1e-12 | "
        "(2e-12, 0) | yes |",
        "| `power/power_trace.csv` | | missing in head | | | | NO |",
    ]


def test_non_numbers_and_zero_bases(delta):
    assert delta._column_change(["a", "b"], ["a", "b"], None) is None
    n, abs_max, rel_max, within = delta._column_change(
        ["full", "x"], ["full", "y"], (1.0, 0.0))
    assert n == 1 and abs_max != abs_max and rel_max != rel_max  # nan
    assert not within
    assert delta._column_change(["1e-3"], ["0"], (1e-3, 0.0)) == (
        1, 1e-3, float("inf"), True)
