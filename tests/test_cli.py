"""End-to-end CLI runs: config parsing, CSV layout, reproducibility.

Every command is exercised through main() with configs written to
tmp_path; the reproducibility tests compare output bytes, not parsed
values, because byte-identical reruns are part of the contract.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavlink import __version__, cli, union_bound
from uavlink.cli import _write_csv, load_config, main
from uavlink.errors import ConfigError

BASE_RUN = """\
[run]
fixture = case1
scheme = psk
seed = 3
n_symbols = 2000
snr_db = 6 12
acf = 0.99 0.9
orders = 4
detectors = ml, so, uub
bep_thresholds = 1e-3 1e-5
sample_dt = 2e-4
"""

EXPLICIT_SCENARIO = """\
[run]
scheme = qam
seed = 7
snr_db = 18 24
bep_thresholds = 1e-4

[scenario]
uav_height = 100.0
ground_x = 100.0
ground_y = 0.0
carrier_freq = 28e9
n_rx_antennas = 2
bandwidth = 100e6
temperature = 300.0
p_max_dbm = 35.0
bep_threshold = 1e-5
t_estimate = 1e-3

[wobble]
omega_v = 62.8318
mu = 30.0

[channel]
h_real = 1.0, 0.5
h_imag = 0.0, -0.25
"""


# case1's link, wobble and channel written out, at a 10 dBm transmit cap
# where no rate meets the threshold: the schedule is empty
CASE1_AT_10_DBM = """\
[run]
scheme = qam
seed = 7

[scenario]
uav_height = 100.0
ground_x = 100.0
ground_y = 0.0
carrier_freq = 28e9
n_rx_antennas = 8
bandwidth = 100e6
temperature = 300.0
p_max_dbm = 10
bep_threshold = 1e-5
t_estimate = 1e-3

[wobble]
omega_v = 62.83185307179586
mu = 30.0

[channel]
h_real = 1.5511 -0.4685 0.8435 1.2329 -0.4971 0.1728 0.1781 -0.5205
h_imag = 0.1561 0.3031 -0.3901 0.4709 -1.1352 0.2262 -0.4837 0.6567
"""


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("UAVLINK_OUT_DIR", raising=False)


def write_config(tmp_path: Path, text: str = BASE_RUN) -> Path:
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def read_rows(path: Path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestBepCurve:
    def test_writes_curve_and_sidecar(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["bep-curve", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = read_rows(out / "bep_curve.csv")
        # orders x snr x acf x detectors
        assert len(rows) == 1 * 2 * 2 * 3
        assert set(rows[0]) == {"snr_db", "acf", "scheme", "order",
                                "detector", "bep", "std_error", "bits"}
        for row in rows:
            assert 0.0 <= float(row["bep"]) <= 1.0
            if row["detector"] == "analytic-uub":
                assert row["bits"] == "0" and float(row["std_error"]) == 0.0
            else:
                assert row["bits"] == "4000"  # 2000 QPSK symbols

    @pytest.mark.parametrize("scheme", ["psk", "qam"])
    def test_zero_snr(self, tmp_path, scheme):
        # -4000 dB underflows gamma to 0.0, where every pairwise argument
        # is 0 and the bound is sum(w) Q(0), clamped to 1
        cfg = write_config(tmp_path, BASE_RUN.replace(
            "scheme = psk", f"scheme = {scheme}").replace(
            "snr_db = 6 12", "snr_db = -4000 0"))
        out = tmp_path / "out"
        assert main(["bep-curve", "--config", str(cfg),
                     "--out", str(out)]) == 0
        bounds = [float(r["bep"]) for r in read_rows(out / "bep_curve.csv")
                  if r["detector"] == "analytic-uub"
                  and float(r["snr_db"]) == -4000.0]
        want = min(0.5 * union_bound(scheme, 4).weight.sum(), 1.0)
        assert bounds == [want, want]

    def test_sidecar_metadata(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["bep-curve", "--config", str(cfg), "--out", str(out)])
        meta = json.loads((out / "bep_curve.csv.meta.json").read_text())
        assert meta["version"] == __version__
        assert meta["backend"] in ("cython", "numpy")
        assert meta["seed"] == 3
        assert meta["fixture"] == "case1"
        assert not any("time" in k or "date" in k for k in meta)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["bep-curve", "--config", str(cfg), "--out", str(out_a)])
        main(["bep-curve", "--config", str(cfg), "--out", str(out_b)])
        for name in ("bep_curve.csv", "bep_curve.csv.meta.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("threads", [2, 5])
    def test_threads_never_change_results(self, tmp_path, threads):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["bep-curve", "--config", str(cfg), "--out", str(out_a),
              "--threads", "1"])
        main(["bep-curve", "--config", str(cfg), "--out", str(out_b),
              "--threads", str(threads)])
        assert (out_a / "bep_curve.csv").read_bytes() == \
            (out_b / "bep_curve.csv").read_bytes()

    def test_seed_flag_changes_mc_rows(self, tmp_path):
        # low SNR, so that every MC row counts errors: at 6/12 dB the base
        # config expects under 0.3 bit errors per row, and two seeds would
        # both print zeros with probability 0.58
        cfg = write_config(tmp_path, BASE_RUN.replace("snr_db = 6 12",
                                                      "snr_db = -4 0"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["bep-curve", "--config", str(cfg), "--out", str(out_a)])
        main(["bep-curve", "--config", str(cfg), "--out", str(out_b),
              "--seed", "99"])
        rows_a = read_rows(out_a / "bep_curve.csv")
        rows_b = read_rows(out_b / "bep_curve.csv")
        mc_a = [r["bep"] for r in rows_a if r["detector"] in ("ml", "so")]
        mc_b = [r["bep"] for r in rows_b if r["detector"] in ("ml", "so")]
        assert mc_a != mc_b
        an_a = [r["bep"] for r in rows_a if r["detector"] == "analytic-uub"]
        an_b = [r["bep"] for r in rows_b if r["detector"] == "analytic-uub"]
        assert an_a == an_b

    def test_psk_approx_requires_psk(self, tmp_path, capsys):
        text = BASE_RUN.replace("scheme = psk", "scheme = qam").replace(
            "orders = 4", "orders = 16").replace(
            "detectors = ml, so, uub", "detectors = psk-approx")
        cfg = write_config(tmp_path, text)
        assert main(["bep-curve", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "psk-approx" in capsys.readouterr().err


class TestAdapt:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["adapt", "--config", str(cfg), "--out", str(out)]) == 0
        sched = read_rows(out / "adapt_schedule.csv")
        assert [r["rate_bits"] for r in sched] == ["5", "4", "3", "2", "1"]
        for row in sched:
            assert float(row["t_start"]) < float(row["t_end"])
            assert float(row["c_start"]) > float(row["c_end"])
        trace = read_rows(out / "adapt_uub_trace.csv")
        assert all(float(r["uub"]) <= 1e-5 * (1 + 1e-9) for r in trace)
        curve = read_rows(out / "adapt_rave.csv")
        assert max(float(r["r_ave"]) for r in curve) <= 3.8617991530 + 1e-9

    def test_optimum_in_metadata(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["adapt", "--config", str(cfg), "--out", str(out)])
        meta = json.loads((out / "adapt_schedule.csv.meta.json").read_text())
        assert meta["r_max"] == 5
        assert meta["t_max"] == pytest.approx(0.0070407931, abs=1e-9)
        assert meta["r_ave_max"] == pytest.approx(3.8617991530, abs=1e-9)
        assert meta["r_op"] == 4

    def test_empty_schedule(self, tmp_path):
        # no rate at all: every CSV is its header alone
        cfg = write_config(tmp_path, CASE1_AT_10_DBM)
        out = tmp_path / "out"
        assert main(["adapt", "--config", str(cfg), "--out", str(out)]) == 0
        for name, header in (
                ("adapt_schedule.csv",
                 "t_start,t_end,rate_bits,order,c_start,c_end"),
                ("adapt_uub_trace.csv", "t,acf,rate_bits,order,uub"),
                ("adapt_rave.csv", "t_c,r_ave")):
            assert (out / name).read_text() == header + "\n"
        meta = json.loads((out / "adapt_schedule.csv.meta.json").read_text())
        assert meta["r_max"] == 0
        assert meta["r_ave_max"] == 0


class TestRateOpt:
    def test_contour(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["rate-opt", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out / "rate_opt_contour.csv")
        assert len(rows) == 2 * 2
        by_beta = {}
        for r in rows:
            by_beta.setdefault(r["bep_threshold"], []).append(
                (float(r["snr_db"]), float(r["r_ave_max"])))
        for pts in by_beta.values():
            pts.sort()
            assert pts[0][1] <= pts[1][1]  # more SNR never hurts


class TestPower:
    def test_trace_and_savings(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["power", "--config", str(cfg), "--out", str(out)]) == 0
        trace = read_rows(out / "power_trace.csv")
        assert all(r["clamped"] == "0" for r in trace)
        beta = 1e-5
        for r in trace:
            assert float(r["bep_at_pmin"]) <= beta * (1 + 1e-3)
            assert float(r["p_min_dbm"]) <= 35.0
        savings = read_rows(out / "power_savings.csv")
        assert [r["window"] for r in savings] == ["full", "optimum"]
        full, opt = savings
        assert 80.0 < float(full["savings_percent"]) < 95.0
        assert 55.0 < float(opt["savings_percent"]) < 75.0
        assert float(full["mean_power_dbm"]) < float(opt["mean_power_dbm"])
        assert float(full["baseline_dbm"]) == 35.0

    @pytest.mark.parametrize("text, cause", [
        (CASE1_AT_10_DBM, "no rate meets scenario.bep_threshold"),
        (BASE_RUN.replace("sample_dt = 2e-4", "sample_dt = 0.05"),
         "run.sample_dt = 0.05 s is too coarse"),
    ], ids=["empty-schedule", "coarse-sample-dt"])
    def test_window_without_two_samples_exits_2(self, tmp_path, capsys,
                                                 text, cause):
        # a savings window needs two power samples: the run names why it
        # has fewer and writes nothing
        out = tmp_path / "o"
        assert main(["power", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cause}") and err.count("\n") == 1
        assert not list(out.glob("*.csv"))

    def test_threshold_outside_the_psk_closed_form_exits_2(self, tmp_path,
                                                          capsys):
        # at 0.2 the union bound still schedules 32- and 64-PSK, but the
        # PSK approximation of both, at most 2 / log2(M) / 2, meets 0.2 at
        # every SNR: the run names the order and writes nothing
        text = (CASE1_AT_10_DBM.replace("scheme = qam", "scheme = psk")
                .replace("p_max_dbm = 10", "p_max_dbm = 35")
                .replace("bep_threshold = 1e-5", "bep_threshold = 0.2"))
        out = tmp_path / "o"
        assert main(["power", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario.bep_threshold = 0.2 has no "
                              "minimum power: 32-PSK approximation")
        assert err.count("\n") == 1
        assert not list(out.glob("*.csv"))


class TestGridValidation:
    @pytest.mark.parametrize("command, line, bad, field", [
        ("rate-opt", "bep_thresholds = 1e-3 1e-5", "0", "bep_thresholds"),
        ("rate-opt", "bep_thresholds = 1e-3 1e-5", "-0.1", "bep_thresholds"),
        ("rate-opt", "bep_thresholds = 1e-3 1e-5", "0.5", "bep_thresholds"),
        ("rate-opt", "bep_thresholds = 1e-3 1e-5", "0.6", "bep_thresholds"),
        ("rate-opt", "bep_thresholds = 1e-3 1e-5", "nan", "bep_thresholds"),
        ("rate-opt", "bep_thresholds = 1e-3 1e-5", "1e-310", "bep_thresholds"),
        ("rate-opt", "bep_thresholds = 1e-3 1e-5", "1e-320", "bep_thresholds"),
        ("rate-opt", "snr_db = 6 12", "nan", "snr_db"),
        ("rate-opt", "snr_db = 6 12", "inf", "snr_db"),
        ("rate-opt", "snr_db = 6 12", "-inf", "snr_db"),
        ("bep-curve", "acf = 0.99 0.9", "1.5", "acf"),
        ("bep-curve", "acf = 0.99 0.9", "nan", "acf"),
        ("bep-curve", "acf = 0.99 0.9", "-0.1", "acf"),
        ("bep-curve", "orders = 4", "4.7", "orders"),
        ("bep-curve", "orders = 4", "nan", "orders"),
        ("bep-curve", "orders = 4", "inf", "orders"),
        ("bep-curve", "seed = 3", "-1", "seed"),
        ("power", "sample_dt = 2e-4", "nan", "sample_dt"),
        ("power", "sample_dt = 2e-4", "inf", "sample_dt"),
        ("adapt", "sample_dt = 2e-4", "inf", "sample_dt"),
        ("adapt", "sample_dt = 2e-4", "0", "sample_dt"),
    ])
    def test_malformed_grid_exits_2(self, tmp_path, capsys, command, line,
                                    bad, field):
        key = line.split(" = ")[0]
        cfg = write_config(tmp_path, BASE_RUN.replace(line, f"{key} = {bad}"))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"run.{field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, field", [
        (["--seed", "-1"], "run.seed"),
        (["--threads", "0"], "--threads"),
        (["--threads", "-2"], "--threads"),
    ])
    def test_bad_flag_exits_2(self, tmp_path, capsys, flags, field):
        out = tmp_path / "o"
        assert main(["bep-curve", "--config", str(write_config(tmp_path)),
                     "--out", str(out), *flags]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bep-curve", "rate-opt"])
    @pytest.mark.parametrize("snr_db", ["6 4000", "3082", "3025.36"])
    def test_overflowing_snr_exits_2(self, tmp_path, capsys, command,
                                     snr_db):
        # 4000 dB overflows the linear SNR itself; 3082 dB has a finite
        # linear SNR at which the union bound and the Monte Carlo overflow
        # on case1; 3025.36 dB lies just above case1's limit of
        # 10 log10(max double / (2^16 * max(||h||^2, 1/||h||^2, N = 8))):
        # one error line, exit 2 and no output, not a traceback
        cfg = write_config(tmp_path, BASE_RUN.replace("snr_db = 6 12",
                                                      f"snr_db = {snr_db}"))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.snr_db") and err.count("\n") == 1
        assert not out.exists()

    def test_snr_limit_of_a_tiny_channel(self, tmp_path, capsys):
        # ||h||^2 = 5e-324, whose inverse overflows a double: the limit,
        # taken in logs, lies below 0 dB, and 18 dB exits 2
        text = EXPLICIT_SCENARIO.replace(
            "h_real = 1.0, 0.5", "h_real = 2e-162, 0.0").replace(
            "h_imag = 0.0, -0.25", "h_imag = 0.0, 0.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["rate-opt", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: run.snr_db entry 18.0 dB")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scheme, orders", [("qam", "4 8 16 32 64"),
                                                ("psk", "2 4 8 16 32 64")])
    def test_snr_at_the_limit_stays_finite(self, tmp_path, scheme, orders):
        # case1's largest accepted snr_db: every bound and Monte Carlo BEP
        # and every r_ave_max is finite, with no RuntimeWarning
        text = (BASE_RUN.replace("snr_db = 6 12", "snr_db = 3025.35")
                .replace("scheme = psk", f"scheme = {scheme}")
                .replace("orders = 4", f"orders = {orders}")
                .replace("acf = 0.99 0.9", "acf = 0 0.5 0.99 1")
                .replace("bep_thresholds = 1e-3 1e-5",
                         "bep_thresholds = 1e-300 1e-5 0.49"))
        cfg = write_config(tmp_path, text)
        for command, name, column in (("bep-curve", "bep_curve.csv", "bep"),
                                      ("rate-opt", "rate_opt_contour.csv",
                                       "r_ave_max")):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out",
                         str(out)]) == 0
            values = [float(r[column]) for r in read_rows(out / name)]
            assert values and np.isfinite(values).all()

    @pytest.mark.parametrize("beta", ["1e-320", "1e-310"])
    def test_subnormal_threshold_names_the_field(self, tmp_path, capsys,
                                                 beta):
        # a case1 QAM grid at 20 dB: the threshold is rejected by name,
        # before any solve
        text = (BASE_RUN.replace("scheme = psk", "scheme = qam")
                .replace("snr_db = 6 12", "snr_db = 20")
                .replace("bep_thresholds = 1e-3 1e-5",
                         f"bep_thresholds = {beta}"))
        out = tmp_path / "o"
        assert main(["rate-opt", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.bep_thresholds") and beta in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_least_normal_threshold_solves(self, tmp_path):
        text = (BASE_RUN.replace("scheme = psk", "scheme = qam")
                .replace("snr_db = 6 12", "snr_db = 20")
                .replace("bep_thresholds = 1e-3 1e-5",
                         "bep_thresholds = 2.3e-308"))
        out = tmp_path / "o"
        assert main(["rate-opt", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 0
        [row] = read_rows(out / "rate_opt_contour.csv")
        assert float(row["r_ave_max"]) > 0.0

    def test_grid_edges_accepted(self, tmp_path):
        text = BASE_RUN.replace("acf = 0.99 0.9", "acf = 0 1").replace(
            "bep_thresholds = 1e-3 1e-5", "bep_thresholds = 1e-300 0.49"
        ).replace("orders = 4", "orders = 4.0 16")
        cfg = load_config(str(write_config(tmp_path, text)))
        assert cfg.acf == (0.0, 1.0)
        assert cfg.bep_thresholds == (1e-300, 0.49)
        # whole numbers written as floats read as the integer orders
        assert cfg.orders == (4, 16)
        assert all(type(o) is int for o in cfg.orders)


class TestConfigResolution:
    def test_missing_scheme_names_field(self, tmp_path, capsys):
        text = BASE_RUN.replace("scheme = psk\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["rate-opt", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "run.scheme" in capsys.readouterr().err

    def test_missing_seed_names_field(self, tmp_path, capsys):
        text = BASE_RUN.replace("seed = 3\n", "")
        cfg = write_config(tmp_path, text)
        assert main(["rate-opt", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "run.seed" in capsys.readouterr().err

    def test_unknown_fixture(self, tmp_path, capsys):
        text = BASE_RUN.replace("fixture = case1", "fixture = case9")
        cfg = write_config(tmp_path, text)
        assert main(["rate-opt", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "case9" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["rate-opt", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_subcommand_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--config", "x"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_parser_is_built_once(self, capsys):
        # every main() call of a process parses with one parser, and
        # --help, --version and usage errors behave alike on each call
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert "bep-curve" in capsys.readouterr().out
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert __version__ in capsys.readouterr().out
            with pytest.raises(SystemExit) as exc:
                main(["power", "--threads", "2"])
            assert exc.value.code == 2
            assert "--config" in capsys.readouterr().err
        assert cli._parser() is cli._parser()

    def test_seed_override_in_loader(self, tmp_path):
        cfg = write_config(tmp_path)
        assert load_config(str(cfg)).seed == 3
        assert load_config(str(cfg), seed_override=11).seed == 11

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_RUN
                           + f"out_dir = {tmp_path / 'from_cfg'}\n")
        # config value is the fallback
        assert load_config(str(cfg)).out_dir == str(tmp_path / "from_cfg")
        # environment beats config
        monkeypatch.setenv("UAVLINK_OUT_DIR", str(tmp_path / "from_env"))
        assert load_config(str(cfg)).out_dir == str(tmp_path / "from_env")
        # explicit flag beats both
        assert load_config(str(cfg), out_override=str(tmp_path / "cli")) \
            .out_dir == str(tmp_path / "cli")

    def test_env_out_dir_used_by_main(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("UAVLINK_OUT_DIR", str(env_dir))
        assert main(["rate-opt", "--config", str(cfg)]) == 0
        assert (env_dir / "rate_opt_contour.csv").exists()

    def test_explicit_scenario_sections(self, tmp_path):
        cfg = write_config(tmp_path, EXPLICIT_SCENARIO)
        out = tmp_path / "out"
        assert main(["rate-opt", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads(
            (out / "rate_opt_contour.csv.meta.json").read_text())
        assert meta["fixture"] is None
        assert meta["n_rx_antennas"] == 2
        assert meta["norm_h_sq"] == pytest.approx(1.0 + 0.25 + 0.0625)

    @pytest.mark.parametrize("line, bad, section, field", [
        ("bep_threshold = 1e-5", "bep_threshold = 0.7", "scenario",
         "bep_threshold"),
        ("bep_threshold = 1e-5", "bep_threshold = 1e-310", "scenario",
         "bep_threshold"),
        ("uav_height = 100.0", "uav_height = nan", "scenario", "uav_height"),
        ("p_max_dbm = 35.0", "p_max_dbm = nan", "scenario", "p_max_dbm"),
        ("omega_v = 62.8318", "omega_v = -3", "wobble", "omega_v"),
        ("mu = 30.0", "mu = 0", "wobble", "mu"),
        ("mu = 30.0", "mu = nan", "wobble", "mu"),
        ("h_imag = 0.0, -0.25", "h_imag = 0.0, nan", "channel", "h"),
        # sigma_v_sq derived from these overflows
        ("omega_v = 62.8318", "omega_v = 1e200", "wobble", "sigma_v_sq"),
        ("mu = 30.0", "mu = 1e-320", "wobble", "sigma_v_sq"),
    ], ids=["threshold-0.7", "threshold-1e-310", "nan-uav_height",
            "nan-p_max_dbm", "negative-omega_v", "zero-mu", "nan-mu",
            "nan-h_imag", "huge-omega_v", "tiny-mu"])
    def test_rejected_section_value_exits_2(self, tmp_path, capsys, line,
                                            bad, section, field):
        # a value the link, wobble or channel type rejects: one error line
        # naming the section and the field, exit 2 and no output, not a
        # traceback
        cfg = write_config(tmp_path, EXPLICIT_SCENARIO.replace(line, bad))
        out = tmp_path / "o"
        assert main(["adapt", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{section}] ") and field in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["adapt", "power"])
    def test_sample_grid_too_long_exits_2(self, tmp_path, capsys, command):
        # NumPy refuses a 1e297-sample grid before allocating anything
        cfg = write_config(tmp_path, "[run]\nfixture = case1\nscheme = qam\n"
                           "seed = 1\nsample_dt = 1e-300\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.sample_dt = 1e-300 s is too fine")
        assert err.count("\n") == 1
        assert not list(out.iterdir())

    def test_channel_length_mismatch(self, tmp_path):
        text = EXPLICIT_SCENARIO.replace("h_imag = 0.0, -0.25",
                                         "h_imag = 0.0, -0.25, 1.0")
        cfg = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="lengths differ"):
            load_config(str(cfg))

    def test_channel_antenna_mismatch(self, tmp_path):
        text = EXPLICIT_SCENARIO.replace("n_rx_antennas = 2",
                                         "n_rx_antennas = 3")
        cfg = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="n_rx_antennas"):
            load_config(str(cfg))

    def test_bad_detector_token(self, tmp_path):
        text = BASE_RUN.replace("detectors = ml, so, uub",
                                "detectors = ml, genie")
        cfg = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="genie"):
            load_config(str(cfg))


def _cell(v) -> str:
    """The row-wise cell formatter the column writer replaced: the oracle
    for its bytes."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310,
                                -2.2250738585072e-308, 1e-300, -1e-300,
                                1.7976931348623157e308, float("inf"),
                                float("-inf"), float("nan"), -float("nan"),
                                0.1, 1e16])
_COLUMN_KINDS = st.sampled_from([
    (np.float64, st.one_of(_EDGE_FLOATS, st.floats())),
    (np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    (np.bool_, st.booleans()),
    (None, st.text(st.characters(blacklist_categories=("Cs", "Cc"),
                                 blacklist_characters=","), max_size=8)),
])


@st.composite
def _columns(draw):
    # up to 64 rows, across the writer's 32-cell threshold for repeated
    # values; a column draws its cells freely or from a small pool, so
    # that values repeat
    n_rows = draw(st.integers(0, 64))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        dtype, values = draw(_COLUMN_KINDS)
        if draw(st.booleans()):
            values = st.sampled_from(draw(st.lists(values, min_size=1,
                                                   max_size=4)))
        cells = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
        columns.append(np.array(cells, dtype=dtype) if dtype else cells)
    return columns


class TestColumnWriter:
    @settings(max_examples=200, deadline=None)
    @given(columns=_columns())
    @example(columns=[np.array(3 * [0.0, -0.0, 0.0, float("nan"),
                                    -float("nan"), float("nan"), float("inf"),
                                    -float("inf"), 5e-324, -5e-324, 5e-324,
                                    -0.0])])
    def test_bytes_match_rowwise_cells(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        header = [f"c{k}" for k in range(len(columns))]
        _write_csv(path, header, columns, {"k": 1})
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in zip(*columns))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        sidecar = path.with_name("out.csv.meta.json")
        assert json.loads(sidecar.read_text()) == {"k": 1}
