"""Command-line front end: config file in, reproducible CSV files out.

Four subcommands cover the standard experiments: `bep-curve` (detector
comparison over an SNR x ACF grid), `adapt` (rate schedule, bound trace
and average-rate curve), `rate-opt` (max average rate over an SNR x
threshold grid) and `power` (minimum-power trace plus energy summary).

Every output is a CSV with a header row plus a JSON metadata sidecar
(`<name>.csv.meta.json`). Outputs are byte-for-byte reproducible from
(config, seed); the --threads flag never changes results.
"""

import argparse
import configparser
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bep_analysis import (
    UnionBound,
    psk_bep_approx,
    union_bound,
    union_bound_rows,
)
from .channel import ChannelEstimate, WobbleParams, temporal_acf
from .constellation import constellation_for
from .detectors import DetectorKind, backend_name, monte_carlo_bep
from .errors import ConfigError, UavlinkError
from .fixtures import FIXTURE_NAMES, load_fixture
from .power_control import energy_savings, min_power_schedule
from .rate_optimizer import (
    average_rate,
    build_rate_schedule,
    optimum_transmission_time,
    sample_grid,
    sample_lags,
    sweep_rave_max,
)
from .scenario import LinkScenario, average_snr_db

__all__ = ["RunConfig", "load_config", "main"]

_OUT_DIR_ENV = "UAVLINK_OUT_DIR"
_DETECTOR_TOKENS = {
    "ml": "ml",
    "so": "so",
    "uub": "analytic-uub",
    "analytic-uub": "analytic-uub",
    "psk-approx": "psk-approx",
}
_DEFAULT_SNR_DB = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0)
_DEFAULT_ACF = (1.0, 0.99, 0.95, 0.9)
_DEFAULT_THRESHOLDS = (1e-3, 1e-5, 1e-6)
_DEFAULT_ORDERS = (4, 16)


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run needs, resolved and validated."""

    fixture: str | None
    scenario: LinkScenario
    wobble: WobbleParams
    estimate: ChannelEstimate
    scheme: str
    snr_db: tuple
    acf: tuple
    bep_thresholds: tuple
    orders: tuple
    detectors: tuple
    n_symbols: int
    seed: int
    sample_dt: float
    out_dir: str

    def __post_init__(self):
        if self.scheme not in ("psk", "qam"):
            raise ConfigError(f"run.scheme must be psk or qam, got {self.scheme!r}")
        if self.n_symbols < 1:
            raise ConfigError("run.n_symbols must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self.seed}")
        # the negated range tests here and below also reject nan
        if not 0.0 < self.sample_dt < math.inf:
            raise ConfigError("run.sample_dt must be positive and finite")
        for name, grid in (("snr_db", self.snr_db), ("acf", self.acf),
                           ("bep_thresholds", self.bep_thresholds),
                           ("orders", self.orders),
                           ("detectors", self.detectors)):
            if len(grid) == 0:
                raise ConfigError(f"run.{name} must be non-empty")
        for det in self.detectors:
            if det not in _DETECTOR_TOKENS.values():
                raise ConfigError(f"unknown detector {det!r} in run.detectors")
        # bep-curve and rate-opt take the linear SNR gamma = 10^(dB / 10).
        # The bound and the Monte Carlo form gamma times at most
        # max(||h||^2, 1 / ||h||^2, N) times constants below 2^13 (the
        # bound's largest, 64-QAM's largest |s_m - s_mhat|^2 = 28 / 3 in
        # the pairwise argument gamma ||h||^2 |s_m - s_mhat|^2); keeping
        # that product 2^3 below the largest double keeps every value
        # finite. In logs, as 1 / ||h||^2 itself may overflow
        top_db = 10.0 * (math.log10(sys.float_info.max / 2.0 ** 16) - max(
            abs(math.log10(self.estimate.norm_sq)),
            math.log10(self.estimate.h.size)))
        for v in self.snr_db:
            if not math.isfinite(v):
                raise ConfigError(
                    f"run.snr_db entries must be finite, got {v}")
            if v > top_db:
                raise ConfigError(
                    f"run.snr_db entry {v} dB exceeds {top_db:.2f} dB, above "
                    "which the union bound or the Monte Carlo overflows on "
                    "this channel")
        for v in self.acf:
            if not 0.0 <= v <= 1.0:
                raise ConfigError(
                    f"run.acf entries must lie in [0, 1], got {v}")
        for v in self.bep_thresholds:
            # LinkScenario's range for a BEP threshold: the normal doubles
            # below 1/2, as a subnormal one has too few significant bits for
            # the threshold solve's relative residual gate
            if not sys.float_info.min <= v < 0.5:
                raise ConfigError("run.bep_thresholds entries must lie in "
                                  f"[{sys.float_info.min}, 0.5), got {v}")


def _require(parser: configparser.ConfigParser, section: str, key: str) -> str:
    if not parser.has_option(section, key):
        raise ConfigError(f"missing required field {section}.{key}")
    return parser.get(section, key)


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key} is not a number: {raw!r}") from exc


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"field {section}.{key} is not an integer: {raw!r}") from exc


def _as_whole(section: str, key: str, raw: str) -> int:
    v = _as_float(section, key, raw)
    if not v.is_integer():  # nor nan or inf
        raise ConfigError(f"field {section}.{key} is not a whole number: {raw!r}")
    return int(v)


def _numbers(section: str, key: str, raw: str, parse=_as_float) -> tuple:
    return tuple(parse(section, key, tok)
                 for tok in raw.replace(",", " ").split())


@contextlib.contextmanager
def _rejected_by(section: str):
    """Re-raise the ValueError a value type raises on a value it rejects
    as a ConfigError naming the config section the value came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _scenario_from(parser: configparser.ConfigParser) -> LinkScenario:
    sec = "scenario"
    if not parser.has_section(sec):
        raise ConfigError("missing required field run.fixture "
                          "(or a [scenario] section)")
    get = lambda key: _as_float(sec, key, _require(parser, sec, key))
    t_co = (_as_float(sec, "t_coherence", parser.get(sec, "t_coherence"))
            if parser.has_option(sec, "t_coherence") else None)
    fields = dict(
        uav_height=get("uav_height"),
        ground_xy=(get("ground_x"), get("ground_y")),
        carrier_freq=get("carrier_freq"),
        n_rx_antennas=_as_int(sec, "n_rx_antennas",
                              _require(parser, sec, "n_rx_antennas")),
        bandwidth=get("bandwidth"),
        temperature=get("temperature"),
        p_max_dbm=get("p_max_dbm"),
        bep_threshold=get("bep_threshold"),
        t_estimate=get("t_estimate"),
        t_coherence=t_co,
    )
    with _rejected_by(sec):
        return LinkScenario(**fields)


def _wobble_from(parser: configparser.ConfigParser,
                 scenario: LinkScenario) -> WobbleParams:
    sec = "wobble"
    if not parser.has_section(sec):
        raise ConfigError("missing required field wobble.omega_v")
    omega_v = _as_float(sec, "omega_v", _require(parser, sec, "omega_v"))
    mu = _as_float(sec, "mu", _require(parser, sec, "mu"))
    sigma = (_as_float(sec, "sigma_v_sq", parser.get(sec, "sigma_v_sq"))
             if parser.has_option(sec, "sigma_v_sq") else None)
    with _rejected_by(sec):
        return WobbleParams.for_carrier(scenario.carrier_freq, omega_v, mu,
                                        sigma)


def _estimate_from(parser: configparser.ConfigParser,
                   scenario: LinkScenario) -> ChannelEstimate:
    sec = "channel"
    if not parser.has_section(sec):
        raise ConfigError("missing required field channel.h_real")
    re = _numbers(sec, "h_real", _require(parser, sec, "h_real"))
    im = _numbers(sec, "h_imag", _require(parser, sec, "h_imag"))
    if len(re) != len(im):
        raise ConfigError("channel.h_real and channel.h_imag lengths differ")
    if len(re) != scenario.n_rx_antennas:
        raise ConfigError(
            f"channel vector has {len(re)} entries but "
            f"scenario.n_rx_antennas = {scenario.n_rx_antennas}")
    h = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
    with _rejected_by(sec):
        return ChannelEstimate(h, scenario.t_estimate)


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    """Parse an INI run configuration (see README for the format)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if not parser.has_section("run"):
        raise ConfigError("missing required section [run]")

    fixture = parser.get("run", "fixture", fallback=None)
    if fixture is not None:
        if fixture not in FIXTURE_NAMES:
            raise ConfigError(
                f"unknown fixture {fixture!r}; choose from {FIXTURE_NAMES}")
        fx = load_fixture(fixture)
        scenario, wobble, estimate = fx.scenario, fx.wobble, fx.estimate
    else:
        scenario = _scenario_from(parser)
        wobble = _wobble_from(parser, scenario)
        estimate = _estimate_from(parser, scenario)

    if seed_override is not None:
        seed = seed_override
    else:
        seed = _as_int("run", "seed", _require(parser, "run", "seed"))

    def grid(key: str, default: tuple, parse=_as_float) -> tuple:
        if parser.has_option("run", key):
            return _numbers("run", key, parser.get("run", key), parse)
        return default

    detectors_raw = parser.get("run", "detectors", fallback="ml, so, uub")
    detectors = []
    for tok in detectors_raw.replace(",", " ").split():
        if tok not in _DETECTOR_TOKENS:
            raise ConfigError(f"unknown detector {tok!r} in run.detectors")
        detectors.append(_DETECTOR_TOKENS[tok])

    out_dir = out_override
    if out_dir is None:
        out_dir = os.environ.get(_OUT_DIR_ENV)
    if out_dir is None:
        out_dir = parser.get("run", "out_dir", fallback="out")

    return RunConfig(
        fixture=fixture,
        scenario=scenario,
        wobble=wobble,
        estimate=estimate,
        scheme=_require(parser, "run", "scheme").strip().lower(),
        snr_db=grid("snr_db", _DEFAULT_SNR_DB),
        acf=grid("acf", _DEFAULT_ACF),
        bep_thresholds=grid("bep_thresholds", _DEFAULT_THRESHOLDS),
        orders=grid("orders", _DEFAULT_ORDERS, _as_whole),
        detectors=tuple(detectors),
        n_symbols=_as_int("run", "n_symbols",
                          parser.get("run", "n_symbols", fallback="100000")),
        seed=seed,
        sample_dt=_as_float("run", "sample_dt",
                            parser.get("run", "sample_dt", fallback="1e-5")),
        out_dir=out_dir,
    )


# a column is searched for repeated values only from this many cells, as
# the search (np.unique) costs more than it saves on shorter ones
_REPEAT_MIN_CELLS = 32


def _column_text(column) -> list:
    """One CSV column as text, keyed on its dtype: floats by shortest
    round-trip repr, flags as 1/0, integers and text by str. A long column
    formats each repeated value once (float64 told apart by its bits, so
    -0.0 and NaNs keep their text), and its text fills its cells."""
    column = np.asarray(column)
    if column.dtype.kind == "b":
        column = column.astype(np.int64)
    text = repr if column.dtype.kind == "f" else str
    key = column.view(np.uint64) if column.dtype == np.float64 else column
    if column.size >= _REPEAT_MIN_CELLS and (column.dtype == np.float64
                                             or column.dtype.kind in "iuU"):
        values, of_cell = np.unique(key, return_inverse=True)
        if values.size < column.size:
            texts = map(text, values.view(column.dtype).tolist())
            return np.array(list(texts), dtype=object)[of_cell].tolist()
    return list(map(text, column.tolist()))


def _write_csv(path: Path, header, columns, meta: dict) -> None:
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*map(_column_text, columns))))
    try:
        path.write_text("\n".join(lines) + "\n")
        sidecar = path.with_name(path.name + ".meta.json")
        sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise UavlinkError(f"cannot write {path}: {exc}") from exc


def _base_meta(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "backend": backend_name(),
        "seed": cfg.seed,
        "scheme": cfg.scheme,
        "fixture": cfg.fixture,
        "n_rx_antennas": cfg.scenario.n_rx_antennas,
        "norm_h_sq": cfg.estimate.norm_sq,
        "normalization": {
            "constellation": "unit average symbol energy",
            "power_average": "trapezoid over samples, in linear watts",
            "bep": "bit errors per transmitted bit, Gray labels",
        },
    }


def cmd_bep_curve(cfg: RunConfig, threads: int, out_dir: Path) -> None:
    """Detector comparison over the SNR x ACF grid, one CSV row per point.

    `analytic-uub` rows are the union bound clamped to 1; closed-form rows
    have std_error and bits 0.
    """
    if "psk-approx" in cfg.detectors and cfg.scheme != "psk":
        raise ConfigError("detector psk-approx requires run.scheme = psk")
    rows = []
    for order in cfg.orders:
        c = constellation_for(cfg.scheme, order)
        grid = [(snr_db, 10.0 ** (snr_db / 10.0), acf, det)
                for snr_db in cfg.snr_db for acf in cfg.acf
                for det in cfg.detectors]
        # the order's Monte Carlo points in one call, which draws each
        # batch once for all of them
        mc = [(acf, gamma, DetectorKind(det))
              for _, gamma, acf, det in grid if det in ("ml", "so")]
        sims = iter(())
        if mc:
            acfs, gammas, kinds = zip(*mc)
            sims = iter(monte_carlo_bep(cfg.estimate, acfs, gammas, c, kinds,
                                        cfg.n_symbols, cfg.seed,
                                        threads=threads))
        # and each closed form's points in one array call
        closed = {}
        for det in ("analytic-uub", "psk-approx"):
            points = [(acf, gamma) for _, gamma, acf, d in grid if d == det]
            if not points:
                continue
            acfs, gammas = np.array(points).T
            bep = (np.minimum(union_bound(cfg.scheme, order).u(
                       cfg.estimate.norm_sq, acfs, gammas), 1.0)
                   if det == "analytic-uub"
                   else psk_bep_approx(order, cfg.estimate, acfs, gammas))
            closed[det] = iter(bep.tolist())
        for snr_db, _, acf, det in grid:
            if det in ("ml", "so"):
                est = next(sims)
                bep, se, bits = est.bep, est.std_error, est.bits_simulated
            else:
                bep, se, bits = next(closed[det]), 0.0, 0
            rows.append((snr_db, acf, cfg.scheme, order, det, bep, se, bits))
    meta = _base_meta(cfg)
    meta.update(n_symbols=cfg.n_symbols, snr_db=list(cfg.snr_db),
                acf=list(cfg.acf), orders=list(cfg.orders),
                detectors=list(cfg.detectors))
    _write_csv(out_dir / "bep_curve.csv",
               ["snr_db", "acf", "scheme", "order", "detector",
                "bep", "std_error", "bits"],
               list(zip(*rows)), meta)


def _schedule_for(cfg: RunConfig):
    """(gamma_max, schedule, lags): the rate schedule at the power cap and
    its sample lags at run.sample_dt, which must give a grid one array can
    hold; both subcommands that sample check it before writing anything."""
    gamma_max = 10.0 ** (average_snr_db(cfg.scenario.p_max_dbm,
                                        cfg.scenario) / 10.0)
    schedule = build_rate_schedule(cfg.estimate, gamma_max, cfg.scheme,
                                   cfg.scenario.bep_threshold, cfg.wobble,
                                   cfg.scenario.t_estimate)
    try:
        lags = sample_lags(schedule, cfg.sample_dt)
    except ValueError as exc:  # NumPy refuses the grid's size
        raise ConfigError(f"run.sample_dt = {cfg.sample_dt:g} s is too fine:"
                          f" its sample grid cannot be built ({exc})") from exc
    return gamma_max, schedule, lags


def cmd_adapt(cfg: RunConfig, out_dir: Path) -> None:
    """Rate schedule, bound-versus-time trace and average-rate curve."""
    gamma_max, schedule, lags = _schedule_for(cfg)
    optimum = optimum_transmission_time(schedule, cfg.scenario.t_coherence)
    t_e = schedule.t_estimate

    # highest rate first: rate n holds on (t_{n+1}, t_n], with
    # t_{r_max+1} = T_e
    rate = np.arange(schedule.r_max, 0, -1)
    t_end = schedule.t_n[::-1]
    t_start = np.concatenate([[t_e], t_end[:-1]])[:schedule.r_max]
    c_start = temporal_acf(cfg.wobble, t_start - t_e)
    meta = _base_meta(cfg)
    meta.update(gamma_max_db=10.0 * math.log10(gamma_max),
                bep_threshold=cfg.scenario.bep_threshold,
                r_max=schedule.r_max,
                t_max=optimum.t_max, r_ave_max=optimum.r_ave_max,
                r_op=optimum.r_op)
    _write_csv(out_dir / "adapt_schedule.csv",
               ["t_start", "t_end", "rate_bits", "order", "c_start", "c_end"],
               [t_start, t_end, rate, 1 << rate, c_start, schedule.c_n[::-1]],
               meta)

    t, rate = sample_grid(schedule, cfg.sample_dt)
    acf = temporal_acf(cfg.wobble, t - t_e)
    bound = np.minimum(union_bound_rows(cfg.scheme, 1 << rate, UnionBound.u,
                                        cfg.estimate.norm_sq, acf,
                                        gamma_max)[0], 1.0)
    _write_csv(out_dir / "adapt_uub_trace.csv",
               ["t", "acf", "rate_bits", "order", "uub"],
               [t, acf, rate, 1 << rate, bound], meta)

    _write_csv(out_dir / "adapt_rave.csv", ["t_c", "r_ave"],
               [lags, average_rate(schedule, lags)], meta)


def cmd_rate_opt(cfg: RunConfig, out_dir: Path) -> None:
    """Max average rate for every (SNR, threshold) grid cell."""
    matrix = sweep_rave_max(cfg.estimate, cfg.snr_db, cfg.bep_thresholds,
                            cfg.scheme, cfg.wobble, cfg.scenario.t_estimate)
    meta = _base_meta(cfg)
    meta.update(snr_db=list(cfg.snr_db),
                bep_thresholds=list(cfg.bep_thresholds),
                t_estimate=cfg.scenario.t_estimate)
    _write_csv(out_dir / "rate_opt_contour.csv",
               ["snr_db", "bep_threshold", "r_ave_max"],
               [np.repeat(cfg.snr_db, len(cfg.bep_thresholds)),
                np.tile(cfg.bep_thresholds, len(cfg.snr_db)), matrix.ravel()],
               meta)


def cmd_power(cfg: RunConfig, out_dir: Path) -> None:
    """Minimum-power trace plus the energy summary over both windows."""
    gamma_max, schedule, _ = _schedule_for(cfg)
    try:
        power = min_power_schedule(schedule, cfg.estimate, cfg.scenario,
                                   cfg.wobble, cfg.sample_dt)
    except ValueError as exc:  # the PSK closed form has no root there
        raise ConfigError(
            f"scenario.bep_threshold = {cfg.scenario.bep_threshold:g} has "
            f"no minimum power: {exc}") from exc

    # both windows' savings before any output is written
    t_e = schedule.t_estimate
    optimum = optimum_transmission_time(schedule, cfg.scenario.t_coherence)
    windows = [("full", t_e, schedule.t_zero_rate)]
    if optimum.t_max > 0:
        windows.append(("optimum", t_e, t_e + optimum.t_max))
    srows = []
    for name, t_a, t_b in windows:
        try:
            sv = energy_savings(power, cfg.scenario.p_max_dbm, (t_a, t_b))
        except ValueError as exc:  # fewer than two samples in the window
            if schedule.is_empty:
                cause = (f"no rate meets scenario.bep_threshold = "
                         f"{cfg.scenario.bep_threshold:g} at "
                         f"scenario.p_max_dbm = {cfg.scenario.p_max_dbm:g} "
                         "dBm, so there is no power trace")
            else:
                cause = (f"run.sample_dt = {cfg.sample_dt:g} s is too coarse:"
                         f" the {name} window ({t_a:g}, {t_b:g}] s holds "
                         "fewer than two power samples")
            raise UavlinkError(cause) from exc
        srows.append((name, t_a, t_b, sv.mean_power_dbm, sv.savings_percent,
                      cfg.scenario.p_max_dbm))
    meta = _base_meta(cfg)
    meta.update(gamma_max_db=10.0 * math.log10(gamma_max),
                bep_threshold=cfg.scenario.bep_threshold,
                p_max_dbm=cfg.scenario.p_max_dbm,
                sample_dt=cfg.sample_dt)
    _write_csv(out_dir / "power_trace.csv",
               ["t", "rate_bits", "order", "acf", "gamma_min_db",
                "p_min_dbm", "clamped", "bep_at_pmin"],
               [power.t, power.rate, 1 << power.rate, power.acf_value,
                power.gamma_min_db, power.p_min_dbm, power.clamped,
                power.bep_at_pmin],
               meta)
    _write_csv(out_dir / "power_savings.csv",
               ["window", "t_start", "t_end", "mean_power_dbm",
                "savings_percent", "baseline_dbm"],
               list(zip(*srows)), meta)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main() call of the
    process and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="uavlink",
        description="Wobbling-UAV mm-wave link: BEP, rate and power tools")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bep-curve", "adapt", "rate-opt", "power"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (never changes results)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(
                f"--threads must be at least 1, got {args.threads}")
        cfg = load_config(args.config, seed_override=args.seed,
                          out_override=args.out)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "bep-curve":
            cmd_bep_curve(cfg, args.threads, out_dir)
        elif args.command == "adapt":
            cmd_adapt(cfg, out_dir)
        elif args.command == "rate-opt":
            cmd_rate_opt(cfg, out_dir)
        else:
            cmd_power(cfg, out_dir)
    except UavlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
