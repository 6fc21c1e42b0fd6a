"""Output checks: reference values, the SO union-bound gate and CSV hashes.

Deterministic CSVs are compared with reference CSVs recorded by
`record_reference.py`. Each float column has a tolerance derived from the
solver that produced it, so a later change may reorder floating-point work
without failing, but not move a result:

- threshold times come from the ACF inversion, whose stopping rule is
  |C(t) - target| <= 1e-10. Two correct solves may differ by 2e-10 in C; the
  smallest ACF slope at any threshold of these schedules is 0.31 /s, so the
  times may differ by 6.5e-10 s. The tolerance is 1e-9 s.
- C thresholds come from bisection on C to 1e-12: tolerance 2e-12.
- ACF values may differ by the ACF tolerance, 2e-10 where a time was solved.
- the QAM power root is solved to 1e-9 on ln(gamma); two solves may differ by
  1.5e-9, which is 6.5e-9 dB. The tolerance is 1e-8 dB.
- UUB values move by |d ln UUB / dC| * dC. The steepest slope on these traces
  is 7.7e4, so a 1e-10 change in C allows 7.7e-6. The relative tolerance is
  2e-5.
- average rates move by at most sum(n) * 1e-9 s / (T_e + T_c) = 2.1e-8 /
  1.04e-3 = 2.0e-5 bits/symbol. The tolerance is 2.5e-5.
"""

import csv
import gzip
import hashlib
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the SO simulation may exceed the UUB only by sampling noise
SO_GATE_SIGMAS = 4.0

_T_SAMPLE = (1e-12, 0.0)  # t_e + k * dt, no solver involved
_T_SOLVED = (1e-9, 0.0)
_ACF = (1e-10, 0.0)
_ACF_SOLVED = (2e-10, 0.0)
_C_SOLVED = (2e-12, 0.0)
_DB = (1e-8, 0.0)
_UUB = (0.0, 2e-5)
_RATE = (2.5e-5, 0.0)

# column -> (abs, rel) tolerance; columns not listed must match exactly
TOLERANCES = {
    "adapt_schedule.csv": {"t_start": _T_SOLVED, "t_end": _T_SOLVED,
                           "c_start": _ACF_SOLVED, "c_end": _C_SOLVED},
    "adapt_uub_trace.csv": {"t": _T_SAMPLE, "acf": _ACF, "uub": _UUB},
    "adapt_rave.csv": {"t_c": _T_SAMPLE, "r_ave": _RATE},
    "power_trace.csv": {"t": _T_SAMPLE, "acf": _ACF, "gamma_min_db": _DB,
                        "p_min_dbm": _DB, "bep_at_pmin": _UUB},
    "power_savings.csv": {"t_start": _T_SAMPLE, "t_end": _T_SOLVED,
                          "mean_power_dbm": _DB,
                          "savings_percent": (1e-6, 0.0)},
    "rate_opt_contour.csv": {"r_ave_max": _RATE},
}

# the file whose rows are the work items of each subcommand
ITEM_FILES = {"adapt": "adapt_uub_trace.csv", "power": "power_trace.csv",
              "rate-opt": "rate_opt_contour.csv"}


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def csv_hashes(out_dir: Path) -> dict:
    """sha256 of every CSV an invocation wrote (sidecars hold the seed)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def count_items(command: str, out_dir: Path) -> int:
    """Work items of one invocation, read from its output."""
    if command == "bep-curve":
        rows = read_csv(out_dir / "bep_curve.csv")[1:]
        return sum(int(r[7]) // (int(r[3]).bit_length() - 1)
                   for r in rows if r[4] in ("ml", "so"))
    return len(read_csv(out_dir / ITEM_FILES[command])) - 1


def _reference(inv_name: str, csv_name: str) -> list:
    path = REFERENCE_DIR / inv_name / (csv_name + ".gz")
    with gzip.open(path, "rt", newline="") as fh:
        return list(csv.reader(fh))


def reference_names(inv_name: str) -> list:
    return sorted(p.name[:-3] for p in (REFERENCE_DIR / inv_name).glob("*.gz"))


def _close(got: str, want: str, tol) -> bool:
    if tol is None:
        return got == want
    a, b = float(got), float(want)
    return math.isfinite(a) and abs(a - b) <= tol[0] + tol[1] * abs(b)


def compare_reference(inv_name: str, out_dir: Path) -> list:
    """Problems found comparing an invocation's CSVs with the reference."""
    problems = []
    for name in reference_names(inv_name):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        got, want = read_csv(path), _reference(inv_name, name)
        if got[0] != want[0]:
            problems.append(f"{name}: header {got[0]} != {want[0]}")
            continue
        if len(got) != len(want):
            problems.append(f"{name}: {len(got) - 1} rows, reference has "
                            f"{len(want) - 1}")
            continue
        tols = [TOLERANCES.get(name, {}).get(col) for col in want[0]]
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
            bad = [col for col, g, w, tol in zip(want[0], g_row, w_row, tols)
                   if not _close(g, w, tol)]
            if bad:
                problems.append(f"{name}: row {i} differs in {bad}: "
                                f"{g_row} vs {w_row}")
                break
    return problems


def check_bep_curve(run: dict, out_dir: Path) -> tuple:
    """Check one bep-curve CSV; return (problems, ML z-scores).

    The UUB is the exact-pairwise union bound of the SO rule, so every SO
    row must satisfy bep <= UUB + 4 std_error. ML rows get z-scores against
    the UUB and against SO, recorded but not gated.
    """
    problems, ml_z = [], []
    rows = read_csv(out_dir / "bep_curve.csv")
    order = int(run["orders"])
    n_symbols = int(run["n_symbols"])
    snrs = [float(v) for v in run["snr_db"].split()]
    acfs = [float(v) for v in run["acf"].split()]
    dets = {"ml", "so", "analytic-uub"}
    points = {}
    for r in rows[1:]:
        points.setdefault((float(r[0]), float(r[1])), {})[r[4]] = r
    if sorted(points) != sorted((s, a) for s in snrs for a in acfs) \
            or any(set(p) != dets for p in points.values()) \
            or len(rows) - 1 != len(points) * len(dets):
        return ["bep_curve.csv: grid does not match the config"], ml_z
    bits = n_symbols * (order.bit_length() - 1)
    for (snr, acf), p in sorted(points.items()):
        bound = float(p["analytic-uub"][5])
        so_bep, so_se = float(p["so"][5]), float(p["so"][6])
        ml_bep, ml_se = float(p["ml"][5]), float(p["ml"][6])
        for det in ("ml", "so"):
            if int(p[det][7]) != bits:
                problems.append(f"{det} at {snr} dB C={acf}: "
                                f"{p[det][7]} bits, expected {bits}")
        if not so_bep <= bound + SO_GATE_SIGMAS * so_se:
            problems.append(
                f"SO BEP {so_bep:.4g} exceeds UUB {bound:.4g} + "
                f"{SO_GATE_SIGMAS:g} sigma at {order}-QAM {snr} dB C={acf}")
        se_pair = math.hypot(ml_se, so_se)
        ml_z.append({
            "order": order, "snr_db": snr, "acf": acf, "ml_bep": ml_bep,
            "uub": bound, "so_bep": so_bep,
            "z_vs_uub": (ml_bep - bound) / ml_se if ml_se > 0 else None,
            "z_vs_so": (ml_bep - so_bep) / se_pair if se_pair > 0 else None,
        })
    return problems, ml_z
