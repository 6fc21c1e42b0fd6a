"""Acceptance suite: twelve end-to-end guarantees, one test each.

Every test prints a summary line with the measured numbers before its
assertions, so a red criterion documents exactly what was observed.
Monte Carlo criteria run at a seed fixed a priori (seed 1); outcomes are
reported as drawn, never reseeded to force a pass.
"""

import json
import math
import time

import numpy as np
import pytest

from uavlink import (
    ChannelEstimate,
    DetectorKind,
    average_rate,
    build_rate_schedule,
    constellation_for,
    energy_savings,
    min_power_schedule,
    min_snr_psk,
    ml_detect,
    monte_carlo_bep,
    optimum_transmission_time,
    power_control,
    psk_bep_approx,
    rate_derivative,
    so_detect,
    sweep_rave_max,
    union_bound,
)
from uavlink.cli import main as cli_main
from uavlink.errors import InfeasibleCsiError
from uavlink.fixtures import load_fixture
from uavlink.scenario import average_snr_db

from exact_so import exact_so_bep

MC_SEED = 1  # fixed before the first run of this suite


@pytest.fixture(scope="module")
def case1():
    return load_fixture("case1")


@pytest.fixture(scope="module")
def gamma_max(case1):
    return 10.0 ** (average_snr_db(case1.scenario.p_max_dbm,
                                   case1.scenario) / 10.0)


@pytest.fixture(scope="module")
def power_traces(case1, gamma_max):
    """Rate schedule plus 10 us minimum-power trace for both schemes."""
    out = {}
    for scheme in ("psk", "qam"):
        schedule = build_rate_schedule(
            case1.estimate, gamma_max, scheme,
            case1.scenario.bep_threshold, case1.wobble,
            case1.scenario.t_estimate)
        power = min_power_schedule(schedule, case1.estimate, case1.scenario,
                                   case1.wobble, sample_dt=1e-5)
        out[scheme] = (schedule, power)
    return out


def test_criterion_01_detector_equivalence():
    """ML and sub-optimum PSK decisions agree on 100% of random inputs."""
    rng = np.random.default_rng(MC_SEED)
    t0 = time.time()
    total = agree = 0
    for order in (2, 4, 8, 16):
        c = constellation_for("psk", order)
        for _ in range(10_000):
            h = ((rng.standard_normal(8) + 1j * rng.standard_normal(8))
                 * np.sqrt(0.5))
            est = ChannelEstimate(h, 1e-3)
            acf = rng.uniform(0.5, 1.0)
            g = 10.0 ** rng.uniform(-1.0, 2.5)
            m = rng.integers(0, order)
            h_t = acf * h + np.sqrt(1 - acf ** 2) * (
                rng.standard_normal(8) + 1j * rng.standard_normal(8)
            ) * np.sqrt(0.5)
            y = (np.sqrt(g) * h_t * c.points[m]
                 + (rng.standard_normal(8) + 1j * rng.standard_normal(8))
                 * np.sqrt(0.5))
            total += 1
            agree += ml_detect(y, est, acf, g, c) == so_detect(y, est, acf,
                                                               g, c)
    elapsed = time.time() - t0
    print(f"criterion 01: {agree}/{total} identical decisions "
          f"in {elapsed:.1f}s (limit 10s)")
    assert agree == total
    assert elapsed < 10.0


def test_criterion_02_union_bound_validity_and_tightness(case1):
    """The union bound is built from the pairwise errors of the sub-optimum
    (nearest-reference) rule, so it is checked against that detector:
    simulated SO BEP never exceeds the bound beyond noise; where the bound
    lies in [1e-4, 1e-1] the ratio bound / exact SO BEP must lie in [1, 5].

    The pairwise terms are exact for the SO rule, so the bound sits within
    about 2e-3 relative of the true BEP; a 1e6-bit estimate cannot place
    the ratio on one side of 1, and the window is checked against the
    exact SO BEP instead (exact_so_bep).
    """
    est = case1.estimate
    validity_bad, window = [], []
    for scheme in ("psk", "qam"):
        for order in (2, 4, 8, 16):
            c = constellation_for(scheme, order)
            n_sym = math.ceil(1_000_000 / c.bits_per_symbol)
            points = [(acf, snr_db, 10.0 ** (snr_db / 10.0))
                      for acf in (1.0, 0.999, 0.99)
                      for snr_db in (10.0, 15.0, 20.0)]
            # the constellation's nine points in one call, each estimate
            # equal to its one-point call's
            sims = monte_carlo_bep(est, [p[0] for p in points],
                                   [p[2] for p in points], c,
                                   DetectorKind.SO, n_sym, seed=MC_SEED)
            for (acf, snr_db, g), sim in zip(points, sims):
                bound = min(union_bound(scheme, order).u(est.norm_sq, acf,
                                                         g), 1.0)
                if sim.bep > bound + 3.0 * sim.std_error:
                    validity_bad.append((scheme, order, acf, snr_db))
                if 1e-4 <= bound <= 1e-1:
                    exact = exact_so_bep(est, acf, g, c)
                    fine = exact_so_bep(est, acf, g, c, nodes=128)
                    mc_ratio = bound / sim.bep if sim.bep > 0 else np.inf
                    z = (sim.bep - bound) / sim.std_error
                    window.append((scheme, order, acf, snr_db, bound, exact,
                                   bound / exact, sim.bep, mc_ratio, z,
                                   abs(fine - exact) / exact))
    ratios = [w[6] for w in window]
    quad_gap = max((w[10] for w in window), default=0.0)
    ok_valid = not validity_bad
    ok_tight = bool(window) and all(1.0 <= r <= 5.0 for r in ratios)
    print(f"criterion 02: validity {'PASS' if ok_valid else 'FAIL'} "
          f"(72 points, SO simulation, 3-sigma); tightness "
          f"{'PASS' if ok_tight else 'FAIL'} over {len(window)} window "
          f"points (bound / exact SO BEP); quadrature 64 vs 128 nodes "
          f"agrees to {quad_gap:.1e} relative")
    for s, o, a, db, b, e, r, p, mr, z, _ in window:
        print(f"  {s}{o} C={a} {db:g}dB: bound={b:.4e} exact={e:.4e} "
              f"ratio={r:.8f} sim={p:.4e} mc_ratio={mr:.4f} z={z:+.2f}")
    assert ok_valid, f"SO simulation above bound + 3 sigma: {validity_bad}"
    assert quad_gap <= 1e-10
    assert ok_tight, f"window ratios outside [1, 5]: {sorted(ratios)}"


def test_criterion_03_bpsk_closed_form_oracle(case1):
    """Monte Carlo BPSK at C=1 matches the exact Q-form within 3 sigma."""
    est = case1.estimate
    c2 = constellation_for("psk", 2)
    worst = 0.0
    for snr_db in range(0, 13):
        g = 10.0 ** (snr_db / 10.0)
        want = psk_bep_approx(2, est, 1.0, g)
        sim = monte_carlo_bep(est, 1.0, g, c2, DetectorKind.ML, 1_000_000,
                              seed=MC_SEED)
        se = max(np.sqrt(want * (1.0 - want) / sim.bits_simulated), 1e-300)
        worst = max(worst, abs(sim.bep - want) / se)
    print(f"criterion 03: worst deviation {worst:.2f} sigma over "
          f"0..12 dB (limit 3)")
    assert worst < 3.0


def test_criterion_04_threshold_inversion_residuals():
    """Every schedule threshold satisfies |u(C_n) - beta| <= 1e-8 beta,
    with C_n strictly increasing in the rate."""
    checked = 0
    worst = 0.0
    for case in ("case1", "case2"):
        fx = load_fixture(case)
        g = 10.0 ** (average_snr_db(fx.scenario.p_max_dbm,
                                    fx.scenario) / 10.0)
        for scheme in ("psk", "qam"):
            for beta in (1e-3, 1e-5, 1e-6):
                sched = build_rate_schedule(fx.estimate, g, scheme, beta,
                                            fx.wobble,
                                            fx.scenario.t_estimate)
                cs = sched.c_n.tolist()
                assert all(a < b for a, b in zip(cs, cs[1:]))
                for n, c_n in enumerate(cs, 1):
                    val = union_bound(scheme, 1 << n).u(
                        fx.estimate.norm_sq, c_n, g)
                    worst = max(worst, abs(val - beta) / beta)
                    checked += 1
    print(f"criterion 04: {checked} thresholds, worst residual "
          f"{worst:.2e} relative (limit 1e-8)")
    assert worst <= 1e-8


def test_criterion_05_optimum_vs_brute_force():
    """optimum_transmission_time against a brute-force grid search: T_max
    within 1 us, r_ave_max within 1e-6 relative, and the search never
    beating the exact maximum.

    The maximum sits on a kink of R_ave(T_c), where a 1 us grid misses it
    by up to |R'| x 1 us (1e-5 to 4e-5 relative), so a 1 us grid alone
    cannot certify 1e-6. The search therefore refines its coarse argmax on
    a 1 ns grid spanning the two neighbouring coarse steps; like the
    coarse grid, it never looks at the schedule's switch times.
    """
    rows = []
    for case in ("case1", "case2"):
        fx = load_fixture(case)
        g = 10.0 ** (average_snr_db(fx.scenario.p_max_dbm,
                                    fx.scenario) / 10.0)
        for scheme in ("psk", "qam"):
            for beta in (1e-3, 1e-5, 1e-6):
                sched = build_rate_schedule(fx.estimate, g, scheme, beta,
                                            fx.wobble,
                                            fx.scenario.t_estimate)
                opt = optimum_transmission_time(sched)
                span = sched.t_zero_rate - sched.t_estimate
                grid = np.arange(1, int(np.floor(span / 1e-6)) + 1) * 1e-6
                # one array call per grid: equal, element by element, to
                # the scalar calls (TestAverageRate pins that)
                vals = average_rate(sched, grid)
                k = int(np.argmax(vals))
                fine = grid[k] + np.arange(-1000, 1001) * 1e-9
                fine = fine[(fine > 0.0) & (fine <= span)]
                fine_vals = average_rate(sched, fine)
                j = int(np.argmax(fine_vals))
                rows.append((case, scheme, beta,
                             abs(float(fine[j]) - opt.t_max),
                             (float(fine_vals[j]) - opt.r_ave_max)
                             / opt.r_ave_max))
    worst_dt = max(r[3] for r in rows)
    worst_rel = max(abs(r[4]) for r in rows)
    worst_over = max(r[4] for r in rows)
    ok = (worst_dt <= 1e-6 + 1e-12 and worst_rel <= 1e-6
          and worst_over <= 1e-12)
    print(f"criterion 05: {'PASS' if ok else 'FAIL'} over 12 combos; "
          f"worst |T_max| gap {worst_dt:.2e}s (limit 1e-6), "
          f"worst refined r_ave gap {worst_rel:.2e} relative (limit 1e-6), "
          f"largest excess of the search over the exact maximum "
          f"{worst_over:+.2e} relative (limit 1e-12)")
    for case, scheme, beta, dt, rel in rows:
        print(f"  {case} {scheme} beta={beta:g}: dt={dt:.2e} "
              f"signed rel (search - exact) = {rel:+.2e}")
    assert worst_dt <= 1e-6 + 1e-12
    assert worst_rel <= 1e-6, "grid-search agreement outside 1e-6 relative"
    assert worst_over <= 1e-12, "grid search beats the exact optimum"


def test_criterion_06_rate_calculus_consistency(case1, gamma_max):
    """average_rate equals breakpoint quadrature to 1e-12; rate_derivative
    matches central differences to 1e-6 relative away from switch times."""
    worst_quad, worst_fd = 0.0, 0.0
    for scheme in ("psk", "qam"):
        sched = build_rate_schedule(case1.estimate, gamma_max, scheme, 1e-5,
                                    case1.wobble, case1.scenario.t_estimate)
        t_e = sched.t_estimate
        for t_c in (1e-3, 5e-3, 7.0407931e-3, 2e-2, 4.5e-2):
            tau = t_e + t_c
            cuts = sorted({t_e, tau} | {t_n for t_n in sched.t_n.tolist()
                                        if t_e < t_n < tau})
            quad = sum(sched.rate_at(0.5 * (a + b)) * (b - a)
                       for a, b in zip(cuts, cuts[1:])) / tau
            worst_quad = max(worst_quad,
                             abs(quad - average_rate(sched, t_c)))
        switch_tcs = [t_n - t_e for t_n in sched.t_n.tolist()]
        mids = [0.5 * (a + b) for a, b in
                zip([0.0] + switch_tcs[::-1], switch_tcs[::-1] + [0.06])]
        for t_c in mids:
            h = 1e-7
            fd = (average_rate(sched, t_c + h)
                  - average_rate(sched, t_c - h)) / (2 * h)
            dv = rate_derivative(sched, t_c)
            worst_fd = max(worst_fd, abs(dv - fd) / max(abs(fd), 1e-9))
    print(f"criterion 06: worst quadrature gap {worst_quad:.2e} "
          f"(limit 1e-12), worst derivative gap {worst_fd:.2e} relative "
          f"(limit 1e-6)")
    assert worst_quad <= 1e-12
    assert worst_fd <= 1e-6


def test_criterion_07_psk_power_roundtrip(case1):
    """psk_bep_approx at the closed-form minimum SNR returns the threshold
    to 1e-9 relative wherever the inversion is feasible."""
    beta = 1e-5
    grid = np.round(np.arange(0.90, 1.0001, 0.01), 2)
    feasible = infeasible = 0
    worst = 0.0
    for order in (2, 4, 8, 16):
        for acf in grid:
            try:
                g = min_snr_psk(order, case1.estimate, float(acf), beta)
            except InfeasibleCsiError:
                infeasible += 1
                continue
            feasible += 1
            back = psk_bep_approx(order, case1.estimate, float(acf), g)
            worst = max(worst, abs(back - beta) / beta)
    print(f"criterion 07: {feasible} feasible roundtrips "
          f"(worst {worst:.2e} relative, limit 1e-9), "
          f"{infeasible} infeasible (C too low for the order) raised cleanly")
    assert feasible + infeasible == 44
    assert infeasible > 0  # 16-PSK near C = 0.9 has no finite-power solution
    assert worst <= 1e-9


def test_criterion_08_qam_root_convergence(case1):
    """From its closed-form start (the Chebyshev interpolant of its nodes'
    roots, each node solved from the start of every inversion of the
    bound, `bep_analysis._z_start`, at its C) the QAM solver converges in
    at most 100 iterations with the bound at the threshold to 1e-4
    relative; the slope v_m matches finite differences to 1e-4
    relative."""
    beta = 1e-5
    norm_sq = case1.estimate.norm_sq
    worst_res, worst_iters, worst_slope = 0.0, 0, 0.0
    for order in (4, 16):
        bound = union_bound("qam", order)
        for acf in (0.99, 0.999):
            roots = power_control._solve_qam(order, case1.estimate,
                                             np.array([acf]), beta)
            gamma_min = float(roots.root[0])
            worst_iters = max(worst_iters, int(roots.iterations[0]))
            val = bound.u(norm_sq, acf, gamma_min)
            worst_res = max(worst_res, abs(val - beta) / beta)
            for g0 in (gamma_min, 1.5 * gamma_min):
                _, v_m = bound.u_and_slope(norm_sq, acf, g0)
                eps = 1e-5
                up = bound.u(norm_sq, acf, g0 * math.exp(eps))
                dn = bound.u(norm_sq, acf, g0 * math.exp(-eps))
                fd = (dn - up) / (2 * eps)
                worst_slope = max(worst_slope, abs(v_m - fd) / abs(fd))
    print(f"criterion 08: max iterations {worst_iters} (limit 100), "
          f"worst residual {worst_res:.2e} relative (limit 1e-4), "
          f"worst slope gap {worst_slope:.2e} relative (limit 1e-4)")
    assert worst_iters <= 100
    assert worst_res <= 1e-4
    assert worst_slope <= 1e-4


def test_criterion_09_power_control_compliance(case1, power_traces):
    """Along both full minimum-power traces the achieved BEP never exceeds
    the threshold by more than 0.1%, and power control leaves the rate
    schedule untouched."""
    beta = case1.scenario.bep_threshold
    worst = 0.0
    for scheme, (schedule, power) in power_traces.items():
        before = schedule.c_n, schedule.t_n
        for s in power.samples:
            # SNR actually delivered by the emitted (possibly capped) power
            g = 10.0 ** (average_snr_db(s.p_min_dbm, case1.scenario) / 10.0)
            if scheme == "psk" or s.order == 2:
                bep = psk_bep_approx(s.order, case1.estimate, s.acf_value, g)
            else:
                bep = union_bound("qam", s.order).u(
                    case1.estimate.norm_sq, s.acf_value, g)
            worst = max(worst, bep / beta)
            assert s.rate == schedule.rate_at(s.t)
        rebuilt = build_rate_schedule(
            case1.estimate,
            10.0 ** (average_snr_db(case1.scenario.p_max_dbm,
                                    case1.scenario) / 10.0),
            scheme, beta, case1.wobble, case1.scenario.t_estimate)
        assert np.array_equal(rebuilt.c_n, before[0])
        assert np.array_equal(rebuilt.t_n, before[1])
    print(f"criterion 09: worst BEP at P_min = {worst:.9f} x threshold "
          f"(limit 1.001) over {sum(len(p.samples) for _, p in power_traces.values())} samples; "
          f"schedules identical with and without power control")
    assert worst <= 1.0 + 1e-3


def test_criterion_10_energy_reproduction_targets(case1, power_traces):
    """Mean power and savings against the external reference figures for
    the case1 setup (optimum window within 10 points / 1.5 dB, full window
    within 3 points).

    The six reference figures are quoted from the source paper's full text
    (its energy results for the case1 setup). That text is not in this
    repository; PAPER.md holds only the abstract, which gives no more than
    "as much as 50% energy". Until the text is here, neither the program's
    linear-watt saving nor these figures can be shown at fault, so the
    criterion stays red as written.
    """

    def windows(scheme):
        schedule, power = power_traces[scheme]
        t_e = schedule.t_estimate
        opt = optimum_transmission_time(schedule)
        full = energy_savings(power, 35.0, (t_e, schedule.t_zero_rate))
        optw = energy_savings(power, 35.0, (t_e, t_e + opt.t_max))
        return full, optw

    def db_trace_mean(scheme, window):
        # alternate reading: average the dBm trace itself, then convert
        schedule, power = power_traces[scheme]
        t_e = schedule.t_estimate
        t_b = (schedule.t_zero_rate if window == "full"
               else t_e + optimum_transmission_time(schedule).t_max)
        p = np.array([s.p_min_dbm for s in power.samples
                      if t_e < s.t <= t_b + 1e-12])
        mean_db = float((0.5 * (p[0] + p[-1]) + p[1:-1].sum()) / (p.size - 1))
        return mean_db, (1.0 - 10.0 ** ((mean_db - 35.0) / 10.0)) * 100.0

    psk_full, psk_opt = windows("psk")
    qam_full, qam_opt = windows("qam")
    clauses = [
        ("psk optimum savings", psk_opt.savings_percent, 67.7, 10.0),
        ("qam optimum savings", qam_opt.savings_percent, 52.2, 10.0),
        ("psk full savings", psk_full.savings_percent, 95.5, 3.0),
        ("qam full savings", qam_full.savings_percent, 95.4, 3.0),
        ("psk optimum mean dBm", psk_opt.mean_power_dbm, 30.1, 1.5),
        ("qam optimum mean dBm", qam_opt.mean_power_dbm, 31.8, 1.5),
    ]
    failed = [(name, got, ref, tol) for name, got, ref, tol in clauses
              if abs(got - ref) > tol]
    print(f"criterion 10: {'PASS' if not failed else 'FAIL'} "
          f"({len(clauses) - len(failed)}/{len(clauses)} clauses)")
    for name, got, ref, tol in clauses:
        mark = "ok " if abs(got - ref) <= tol else "OUT"
        print(f"  [{mark}] {name}: {got:.2f} (reference {ref} +/- {tol})")
    print("  faithful averaging is trapezoid-in-linear-watts; the alternate "
          "dB-trace average reads:")
    for scheme in ("psk", "qam"):
        for window in ("full", "optimum"):
            mdb, sv = db_trace_mean(scheme, window)
            print(f"    {scheme} {window}: mean {mdb:.2f} dBm, "
                  f"savings {sv:.2f}%")
    print("  the dB-trace averages land on the full-window references but "
          "not on the QAM optimum window; that a peak- rather than "
          "mean-energy QAM normalization closes the remaining gap is an "
          "unverified reading. The library keeps the physical linear-watt "
          "average. The reference figures come from the paper's full text, "
          "which this repository does not hold")
    assert not failed, f"clauses outside tolerance: {[f[0] for f in failed]}"


def test_criterion_11_sweep_monotonicity(case1):
    """On a 10 x 5 (SNR, threshold) grid the maximum average rate is
    monotone in SNR and threshold, and QAM dominates PSK pointwise."""
    t0 = time.time()
    snr_db = np.linspace(10.0, 28.0, 10)
    betas = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]  # ascending leniency
    mats = {scheme: sweep_rave_max(case1.estimate, snr_db, betas, scheme,
                                   case1.wobble, case1.scenario.t_estimate)
            for scheme in ("psk", "qam")}
    elapsed = time.time() - t0
    snr_ok = all(np.all(np.diff(m, axis=0) >= -1e-12) for m in mats.values())
    beta_ok = all(np.all(np.diff(m, axis=1) >= -1e-12) for m in mats.values())
    dominance = mats["qam"] >= mats["psk"] - 1e-12
    print(f"criterion 11: snr-monotone {snr_ok}, threshold-monotone "
          f"{beta_ok}, qam>=psk at {int(dominance.sum())}/50 cells, "
          f"{elapsed:.1f}s (limit 120s)")
    assert snr_ok
    assert beta_ok
    assert bool(dominance.all())
    assert elapsed < 120.0


def test_criterion_12_byte_identical_reruns(tmp_path):
    """Any command rerun with the same config and seed produces
    byte-identical CSVs at every thread count."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        "fixture = case1\n"
        "scheme = psk\n"
        "seed = 1\n"
        "n_symbols = 20000\n"
        "snr_db = 10 16\n"
        "acf = 0.99\n"
        "orders = 4 16\n"
        "detectors = ml, so, uub\n"
        "sample_dt = 1e-4\n")
    runs = {
        "a": ["bep-curve", "--threads", "1"],
        "b": ["bep-curve", "--threads", "1"],
        "c": ["bep-curve", "--threads", "3"],
        "pa": ["power"],
        "pb": ["power"],
    }
    for tag, argv in runs.items():
        out = tmp_path / tag
        assert cli_main(argv + ["--config", str(cfg),
                                "--out", str(out)]) == 0
    same_curve = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / other / n).read_bytes()
        for other in ("b", "c")
        for n in ("bep_curve.csv", "bep_curve.csv.meta.json"))
    same_power = all(
        (tmp_path / "pa" / n).read_bytes() == (tmp_path / "pb" / n).read_bytes()
        for n in ("power_trace.csv", "power_savings.csv"))
    meta = json.loads((tmp_path / "a" / "bep_curve.csv.meta.json").read_text())
    print(f"criterion 12: bep-curve byte-identical across rerun and thread "
          f"counts: {same_curve}; power rerun identical: {same_power}; "
          f"backend {meta['backend']}")
    assert same_curve
    assert same_power
