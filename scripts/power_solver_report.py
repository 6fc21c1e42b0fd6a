#!/usr/bin/env python3
"""The union-bound inversions' work, as three Markdown tables.

    python3 scripts/power_solver_report.py [--repeats N]

Run from anywhere; the program is imported from `src/` of the checkout that
holds this script, and the benchmark's grid from its `perfbench/`.

The first table is the QAM power solve's. For case1 and case2, each at the
schedule of its power cap and threshold, and at sample spacings of 4e-5 s
(the benchmark's) and 1e-5 s (the CLI default), it solves every sample of
the trace, rate 1 (BPSK, order 2) included, as `min_power_schedule` does
(`bep_analysis._qam_gamma_rows`) and prints, per order: the samples, the
Chebyshev node rows solved for every order's starts (`_NODES` per order)
and the most Newton evaluations a node took, the mean and largest number
of Newton evaluations per sample, and, on each trace's first row, the
median wall time of `min_power_schedule` over `--repeats` calls.

The second is the threshold (C_n) solve's, per scheme: the rows of the
one `newton_lockstep` call of `acf_thresholds`, counted while only
`acf_thresholds` runs, as the power solve calls it from `bep_analysis`
too (QAM: a row per
(rate, cell); PSK: a root per distinct (rate, threshold)) and their mean
and largest number of evaluations, on the fixtures' schedules (at the
cap power and their threshold) and on the two halves of the benchmark's
`rate-opt` grid on case1.

The third is the power solve's at the edge of the infinite-power floor,
on case1 at five (order, threshold) pairs: the edge C, the last double of
C at which the floor u(C, inf) is at least the threshold (by bisection),
and at that double and at 1, 10 and 40 doubles past it the outcome of one
one-sample `_qam_gamma_rows` call (infeasible, or the Newton evaluations
of its sample) and its median wall time over `--repeats` calls. It only
reports.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_DTS = (4e-5, 1e-5)
# the floor-edge table's (order, threshold) pairs and doubles past the edge
EDGE_PAIRS = ((4, 1e-15), (16, 1e-5), (64, 1e-3), (8, 1e-8), (2, 1e-9))
EDGE_STEPS = (0, 1, 10, 40)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9,
                        help="timed min_power_schedule calls per trace")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from uavlink import (
        acf_thresholds,
        bep_analysis,
        build_rate_schedule,
        min_power_schedule,
        temporal_acf,
    )
    from uavlink.fixtures import load_fixture
    from uavlink.rate_optimizer import sample_grid
    from uavlink.scenario import average_snr_db

    # the two lockstep solves of `_qam_gamma_rows`, in call order: the
    # nodes' and then the samples'
    solves = []
    solve = bep_analysis._ln_gamma_roots

    def recorded(order, *rest):
        roots = solve(order, *rest)
        solves.append((order, roots.iterations))
        return roots
    bep_analysis._ln_gamma_roots = recorded

    print("| fixture | sample_dt (s) | order | samples | node rows "
          "| node max evaluations | mean evaluations | max evaluations "
          "| `min_power_schedule` (ms) |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for case in ("case1", "case2"):
        fx = load_fixture(case)
        scenario = fx.scenario
        gamma_max = 10.0 ** (average_snr_db(scenario.p_max_dbm, scenario)
                             / 10.0)
        schedule = build_rate_schedule(fx.estimate, gamma_max, "qam",
                                       scenario.bep_threshold, fx.wobble,
                                       scenario.t_estimate)
        for dt in SAMPLE_DTS:
            walls = []
            for _ in range(args.repeats + 1):  # the first call warms up
                start = time.perf_counter()
                min_power_schedule(schedule, fx.estimate, scenario,
                                   fx.wobble, sample_dt=dt)
                walls.append(time.perf_counter() - start)
            t, rate = sample_grid(schedule, dt)
            acf = temporal_acf(fx.wobble, t - schedule.t_estimate)
            solves.clear()
            bep_analysis._qam_gamma_rows(fx.estimate.norm_sq, 1 << rate, acf,
                                         scenario.bep_threshold)
            (node_order, node_evaluations), (order, evaluations) = solves
            wall = f"{1e3 * statistics.median(walls[1:]):.2f}"
            for m in np.unique(order).tolist():
                at, node = (evaluations[order == m],
                            node_evaluations[node_order == m])
                print(f"| {case} | {dt:g} | {m} | {at.size} | {node.size} "
                      f"| {node.max()} | {at.mean():.3f} "
                      f"| {at.max()} | {wall} |")
                wall = ""

    # the C_n lockstep, one call per acf_thresholds call
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import GRID_SNR_DB, GRID_THRESHOLDS

    counts = []
    lockstep = bep_analysis.newton_lockstep

    def counted(*args):
        roots = lockstep(*args)
        counts.append(roots.iterations)
        return roots
    bep_analysis.newton_lockstep = counted
    half = len(GRID_SNR_DB) // 2
    grids = [(case, "schedule", None, None) for case in ("case1", "case2")]
    grids += [("case1", f"`rate-opt` {snrs[0]:g}-{snrs[-1]:g} dB", snrs,
               GRID_THRESHOLDS)
              for snrs in (GRID_SNR_DB[:half], GRID_SNR_DB[half:])]
    print()
    print("| fixture | cells | scheme | lockstep rows | mean evaluations "
          "| max evaluations |")
    print("| --- | --- | --- | --- | --- | --- |")
    for scheme in ("qam", "psk"):
        for case, name, snr_db, betas in grids:
            fx = load_fixture(case)
            if snr_db is None:
                snr_db = [average_snr_db(fx.scenario.p_max_dbm, fx.scenario)]
                betas = [fx.scenario.bep_threshold]
            counts.clear()
            acf_thresholds(fx.estimate,
                           10.0 ** (np.array(snr_db)[:, None] / 10.0),
                           scheme, np.array(betas))
            it = np.concatenate(counts)
            print(f"| {case} | {name} | {scheme} | {it.size} "
                  f"| {it.mean():.2f} | {it.max()} |")
    bep_analysis.newton_lockstep = lockstep

    # the floor's edge: the last double of C where u(C, inf) >= beta
    from uavlink import union_bound
    from uavlink.errors import InfeasibleCsiError

    norm_sq = load_fixture("case1").estimate.norm_sq
    print()
    print("| order | threshold | edge C | "
          + " | ".join(f"+{k} doubles: evaluations; ms" if k
                       else "at the edge: outcome; ms" for k in EDGE_STEPS)
          + " |")
    print("| --- " * (3 + len(EDGE_STEPS)) + "|")
    for order, beta in EDGE_PAIRS:
        bound = union_bound("qam", order)
        lo, hi = 0.0, 1.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = ((mid, hi) if bound.u(norm_sq, mid, np.inf) >= beta
                      else (lo, mid))
        doubles = [lo]  # lo and the doubles above it
        for _ in range(EDGE_STEPS[-1]):
            doubles.append(np.nextafter(doubles[-1], 1.0))
        cells = []
        for k in EDGE_STEPS:
            walls = []
            for _ in range(args.repeats):
                solves.clear()
                start = time.perf_counter()
                try:
                    bep_analysis._qam_gamma_rows(norm_sq, order, doubles[k],
                                                 beta)
                    outcome = str(solves[-1][1][0])
                except InfeasibleCsiError:
                    outcome = "infeasible"
                walls.append(time.perf_counter() - start)
            cells.append(f"{outcome}; {1e3 * statistics.median(walls):.2f}")
        print(f"| {order} | {beta:g} | {lo!r} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
