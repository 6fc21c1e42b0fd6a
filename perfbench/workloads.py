"""The benchmark's workloads: which `uavlink` invocations each one runs, and why.

A workload is a fixed list of CLI invocations on generated INI configs. One
*pass* runs every invocation once. Each invocation belongs to a throughput
class; a class's throughput is the work items it produced (MC symbols, trace
rows or grid cells) divided by the time of its invocations. The workload seed reaches the program only as
`--seed`, so the deterministic workloads produce the same CSVs for every seed.
"""

from dataclasses import dataclass

# stale-CSI grid shared by the three MC orders: C = 0.8 gives every order a
# measurable BEP; C = 0.95 is where "ML" exceeds the union bound
MC_SNR_DB = (4.0, 8.0, 12.0)
MC_ACF = (0.95, 0.8)
# symbols per MC point, scaled so each order costs about the same wall time
MC_SYMBOLS = {4: 65536, 16: 32768, 64: 16384}

# 4x the CLI default sample spacing: the per-sample work is unchanged, and a
# pass over both schemes and both fixtures stays near 4 s
TRACE_SAMPLE_DT = 4e-5

# 20 SNR points x 4 thresholds = 80 schedules per scheme; the low-SNR cells
# give empty schedules
GRID_SNR_DB = tuple(float(v) for v in range(0, 40, 2))
GRID_THRESHOLDS = (1e-2, 1e-3, 1e-5, 1e-6)


@dataclass(frozen=True)
class Invocation:
    """One `uavlink` call: its subcommand, the [run] section and its class."""

    name: str  # unique in the workload; names the config and output directory
    command: str
    run: dict
    klass: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple
    classes: dict  # klass -> throughput name in the printed report
    heavy: tuple  # classes on the workload's costliest path
    light: tuple  # classes on its other path
    calibration: str  # the calibration loop that resembles its work


def _fmt(values) -> str:
    return " ".join(repr(v) for v in values)


def _mc_invocations() -> tuple:
    return tuple(
        Invocation(f"qam{order}", "bep-curve", {
            "fixture": "case1",
            "scheme": "qam",
            "orders": str(order),
            "detectors": "ml, so, uub",
            "snr_db": _fmt(MC_SNR_DB),
            "acf": _fmt(MC_ACF),
            "n_symbols": str(n),
        }, f"m{order}")
        for order, n in MC_SYMBOLS.items())


def _trace_invocations() -> tuple:
    out = []
    for fixture in ("case1", "case2"):
        for scheme in ("qam", "psk"):
            run = {"fixture": fixture, "scheme": scheme,
                   "sample_dt": repr(TRACE_SAMPLE_DT)}
            out.append(Invocation(f"adapt-{fixture}-{scheme}", "adapt", run,
                                  "adapt"))
            out.append(Invocation(f"power-{fixture}-{scheme}", "power", run,
                                  f"power.{scheme}"))
    return tuple(out)


def _grid_invocations() -> tuple:
    # each scheme's grid in two halves, so no invocation runs much longer
    # than a second or two between calibration loops
    half = len(GRID_SNR_DB) // 2
    return tuple(
        Invocation(f"rate-opt-{scheme}-{int(snrs[0])}-{int(snrs[-1])}db",
                   "rate-opt", {
                       "fixture": "case1",
                       "scheme": scheme,
                       "snr_db": _fmt(snrs),
                       "bep_thresholds": _fmt(GRID_THRESHOLDS),
                   }, scheme)
        for scheme in ("qam", "psk")
        for snrs in (GRID_SNR_DB[:half], GRID_SNR_DB[half:]))


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_bep",
        # detectors and _kernels do almost all the work; 4-QAM is dominated by
        # random draws and 64-QAM by detection, so a change that speeds one
        # order and slows another shows in heavy vs light
        "Monte Carlo BEP curves for 4/16/64-QAM at stale CSI: draws dominate "
        "4-QAM, detection dominates 64-QAM",
        _mc_invocations(),
        {f"m{o}": f"mc_symbols_per_s.m{o}" for o in MC_SYMBOLS},
        # MC batches allocate megabytes of temporaries per batch
        heavy=("m16", "m64"), light=("m4",), calibration="arrays"),
    Workload(
        "schedule_trace",
        # per-sample work along one schedule: a root solve in gamma per QAM
        # sample, a closed form per PSK sample, a UUB and an ACF per adapt
        # sample; detectors do nothing here
        "adapt and power traces for both schemes on case1 and case2: a "
        "per-sample root solve (QAM) or closed form (PSK)",
        _trace_invocations(),
        {"power.qam": "power_samples_per_s.qam",
         "power.psk": "power_samples_per_s.psk",
         "adapt": "adapt_samples_per_s"},
        heavy=("power.qam",), light=("power.psk", "adapt"),
        calibration="interpreter"),
    Workload(
        "rate_grid",
        # many schedules and C-threshold inversions, no per-sample trace: the
        # UUB is inverted in C here, where schedule_trace inverts it in gamma
        "rate-opt over an 80-cell SNR x threshold grid for both schemes: "
        "many schedules and C-threshold inversions",
        _grid_invocations(),
        {"qam": "schedules_per_s.qam", "psk": "schedules_per_s.psk"},
        heavy=("qam",), light=("psk",), calibration="interpreter"),
)}


def config_text(inv: Invocation) -> str:
    """INI text for one invocation; the seed is passed only as --seed."""
    lines = ["[run]"] + [f"{k} = {v}" for k, v in inv.run.items()]
    return "\n".join(lines) + "\n"
