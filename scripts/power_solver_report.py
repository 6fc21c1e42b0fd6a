#!/usr/bin/env python3
"""The QAM power solve's work on the fixtures' traces, as a Markdown table.

    python3 scripts/power_solver_report.py [--repeats N]

Run from anywhere; the program is imported from `src/` of the checkout that
holds this script. For case1 and case2, each at the schedule of its power
cap and threshold, and at sample spacings of 4e-5 s (the benchmark's) and
1e-5 s (the CLI default), it solves the trace's 4- to 64-QAM samples as
`min_power_schedule` does and prints, per QAM order: the samples, the
Chebyshev node rows solved for their starts and the most Newton
evaluations a node took, the mean and largest number of Newton
evaluations per sample, and, on each trace's first row, the median
wall time of `min_power_schedule` over `--repeats` calls. It only reports.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_DTS = (4e-5, 1e-5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9,
                        help="timed min_power_schedule calls per trace")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from uavlink import (
        build_rate_schedule,
        min_power_schedule,
        power_control,
        temporal_acf,
    )
    from uavlink.fixtures import load_fixture
    from uavlink.rate_optimizer import sample_grid
    from uavlink.scenario import average_snr_db

    # every lockstep solve of `_solve_qam`, in call order: the nodes' (when
    # any order interpolates) and then the samples'
    solves = []
    solve = power_control._ln_gamma_roots

    def recorded(order, *rest):
        roots = solve(order, *rest)
        solves.append((order, roots.iterations))
        return roots
    power_control._ln_gamma_roots = recorded

    print("| fixture | sample_dt (s) | QAM order | samples | node rows "
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
            solved = rate > 1
            solves.clear()
            power_control._solve_qam(1 << rate[solved], fx.estimate,
                                     acf[solved], scenario.bep_threshold)
            (order, evaluations), nodes = solves[-1], solves[:-1]
            node_order, node_evaluations = (nodes[0] if nodes else
                                            (np.array([], np.int64),) * 2)
            wall = f"{1e3 * statistics.median(walls[1:]):.2f}"
            for m in np.unique(order).tolist():
                at, node = (evaluations[order == m],
                            node_evaluations[node_order == m])
                print(f"| {case} | {dt:g} | {m} | {at.size} | {node.size} "
                      f"| {node.max(initial=0)} | {at.mean():.3f} "
                      f"| {at.max()} | {wall} |")
                wall = ""
    return 0


if __name__ == "__main__":
    sys.exit(main())
