"""Spans around the calls into each `uavlink` module's public functions.

`Tracer.install()` wraps the functions listed in `TRACED` and rebinds every
`uavlink` module attribute that refers to them, including names one module
imported from another (`cli.uub`, `detectors.detect_symbols`,
`power_control.hamming_matrix`, ...), so calls made inside the package are
seen too. `uninstall()` restores the originals. Spans (name, start, end,
parent, invocation id) stay in memory, in columns, until `dump()`; self time
is a span's duration minus that of its direct children.

Functions missing from the program are skipped, and their metrics read 0.
"""

import gzip
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name)
TRACED = (
    ("uavlink.detectors", "monte_carlo_bep", "detectors.mc"),
    ("uavlink._kernels", "detect_symbols", "kernels.detect"),
    ("uavlink.bep_analysis", "uub", "bep_analysis.uub"),
    ("uavlink.bep_analysis", "min_acf_for_rate", "bep_analysis.min_acf"),
    ("uavlink.bep_analysis", "max_modulation_order", "bep_analysis.max_order"),
    ("uavlink.bep_analysis", "psk_bep_approx", "bep_analysis.psk_approx"),
    ("uavlink.power_control", "min_power_schedule", "power_control.schedule"),
    ("uavlink.power_control", "min_snr_qam", "power_control.qam_solve"),
    ("uavlink.power_control", "min_snr_psk", "power_control.psk_solve"),
    ("uavlink.power_control", "newton_step", "power_control.newton_step"),
    ("uavlink.rate_optimizer", "build_rate_schedule", "rate_optimizer.build"),
    ("uavlink.rate_optimizer", "average_rate", "rate_optimizer.avg_rate"),
    ("uavlink.channel", "temporal_acf", "channel.acf"),
    ("uavlink.channel", "acf_inverse", "channel.acf_inverse"),
    ("uavlink.channel", "check_acf_monotone", "channel.monotone_check"),
    ("uavlink.constellation", "make_psk", "constellation.build"),
    ("uavlink.constellation", "make_qam", "constellation.build"),
    ("uavlink.constellation", "hamming_matrix", "constellation.hamming"),
    ("uavlink.cli", "load_config", "cli.config"),
    ("uavlink.cli", "_write_csv", "cli.write"),
    ("uavlink.fixtures", "load_fixture", "fixtures.load"),
)

# counters that depend only on the workload's inputs: identical on every
# traced pass and every traced run
EXACT_COUNTERS = (
    "kernels.metric_terms",
    "bep_analysis.uub_calls",
    "bep_analysis.min_acf_calls",
    "power_control.qam_solves",
    "power_control.newton_steps",
    "power_control.bisection_fallbacks",
    "constellation.hamming_calls",
    "channel.acf_calls",
    "rate_optimizer.schedules",
    "cli.rows_written",
)


class Tracer:
    """Span recorder for one traced pass of a workload."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.invocation_of = array("i")
        self.invocation = -1
        self.counts = Counter()
        self.hook_errors = set()
        self._stack = []
        self._rebound = []

    # --- recording -------------------------------------------------------

    def _wrap(self, fn, span_name, after=None):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.invocation_of.append(self.invocation)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception as exc:  # the program changed shape
                    self.hook_errors.add(f"{span_name}: {exc!r}")
            return result

        return traced

    def _after_detect(self, args, kwargs, result):
        y, ref = args[0], args[1]
        self.counts["metric_terms"] += y.shape[0] * ref.shape[0] * y.shape[1]

    def _after_schedule(self, args, kwargs, result):
        self.counts["clamped"] += sum(bool(s.clamped) for s in result.samples)

    def _after_build(self, args, kwargs, result):
        self.counts["empty_schedules"] += bool(result.is_empty)

    def _after_write(self, args, kwargs, result):
        path, rows = Path(args[0]), args[2]
        self.counts["rows_written"] += len(rows)
        sidecar = path.with_name(path.name + ".meta.json")
        self.counts["bytes_written"] += path.stat().st_size
        if sidecar.is_file():
            self.counts["bytes_written"] += sidecar.stat().st_size

    def _qam_solver(self, fn):
        """min_snr_qam made to report its solver path, counted here.

        Callers still get what they asked for: the root, or the details.
        """
        def solve(*args, details=False, **kwargs):
            info = fn(*args, details=True, **kwargs)
            method = getattr(info, "method", None)
            if method == "bisection":
                self.counts["bisection_fallbacks"] += 1
            if details or method is None:
                return info
            return info.gamma_min
        return solve

    # --- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "uavlink" or name.startswith("uavlink."))
                   and m is not None]
        after = {"kernels.detect": self._after_detect,
                 "power_control.schedule": self._after_schedule,
                 "rate_optimizer.build": self._after_build,
                 "cli.write": self._after_write}
        for mod_name, attr, span_name in TRACED:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            fn = (self._qam_solver(original)
                  if span_name == "power_control.qam_solve" else original)
            wrapper = self._wrap(fn, span_name, after.get(span_name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    # --- analysis --------------------------------------------------------

    def by_name(self, factors: list) -> dict:
        """span name -> (calls, total seconds, self seconds).

        Each span's duration is multiplied by its invocation's factor.
        """
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * factors[self.invocation_of[i]]
               for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg[0] += 1
            agg[1] += dur[i]
            agg[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def layer_metrics(self, factors: list) -> dict:
        """The per-layer metrics of this pass, keyed by benchmark name.

        `factors[i]` rescales the span times of invocation i, as the
        calibration rescaled that invocation's wall time.
        """
        spans = self.by_name(factors)
        calls = lambda k: spans.get(k, (0, 0.0, 0.0))[0]
        total = lambda k: spans.get(k, (0, 0.0, 0.0))[1]
        own = lambda k: spans.get(k, (0, 0.0, 0.0))[2]
        qam_solves = calls("power_control.qam_solve")
        mc_s = total("detectors.mc")
        return {
            "detectors.mc_calls": calls("detectors.mc"),
            "detectors.mc_s": mc_s,
            "detectors.mc_self_s": own("detectors.mc"),
            "kernels.detect_calls": calls("kernels.detect"),
            "kernels.detect_s": total("kernels.detect"),
            "kernels.metric_terms": self.counts["metric_terms"],
            "kernels.detect_share": (total("kernels.detect") / mc_s
                                     if mc_s > 0 else 0.0),
            "bep_analysis.uub_calls": calls("bep_analysis.uub"),
            "bep_analysis.uub_s": total("bep_analysis.uub"),
            "bep_analysis.min_acf_calls": calls("bep_analysis.min_acf"),
            "bep_analysis.min_acf_s": total("bep_analysis.min_acf"),
            "bep_analysis.max_order_s": total("bep_analysis.max_order"),
            "bep_analysis.psk_approx_calls": calls("bep_analysis.psk_approx"),
            "power_control.schedule_s": total("power_control.schedule"),
            "power_control.qam_solves": qam_solves,
            "power_control.qam_solve_s": total("power_control.qam_solve"),
            "power_control.psk_solves": calls("power_control.psk_solve"),
            "power_control.psk_solve_s": total("power_control.psk_solve"),
            "power_control.newton_steps": calls("power_control.newton_step"),
            "power_control.bisection_fallbacks": (
                self.counts["bisection_fallbacks"] / qam_solves
                if qam_solves else 0.0),
            "power_control.clamped_samples": self.counts["clamped"],
            "rate_optimizer.schedules": calls("rate_optimizer.build"),
            "rate_optimizer.empty_schedules": self.counts["empty_schedules"],
            "rate_optimizer.build_self_s": own("rate_optimizer.build"),
            "rate_optimizer.avg_rate_calls": calls("rate_optimizer.avg_rate"),
            "rate_optimizer.avg_rate_s": total("rate_optimizer.avg_rate"),
            "channel.acf_calls": calls("channel.acf"),
            "channel.acf_s": total("channel.acf"),
            "channel.acf_inverse_calls": calls("channel.acf_inverse"),
            "channel.acf_inverse_s": total("channel.acf_inverse"),
            "channel.monotone_check_s": total("channel.monotone_check"),
            "constellation.builds": calls("constellation.build"),
            "constellation.build_s": total("constellation.build"),
            "constellation.hamming_calls": calls("constellation.hamming"),
            "constellation.hamming_s": total("constellation.hamming"),
            "cli.config_s": total("cli.config"),
            "cli.write_s": total("cli.write"),
            "cli.rows_written": self.counts["rows_written"],
            "cli.bytes_written": self.counts["bytes_written"],
            "fixtures.load_s": total("fixtures.load"),
        }

    def dump(self, path: Path, invocation_names: list) -> None:
        """Write the spans as gzipped JSON columns."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names,
                       "invocations": invocation_names,
                       "name": self.name.tolist(),
                       "start": self.start.tolist(),
                       "end": self.end.tolist(),
                       "parent": self.parent.tolist(),
                       "invocation": self.invocation_of.tolist()}, fh)


def combine(passes: list) -> tuple:
    """Median of each time metric over traced passes; counts from the first.

    Counters in EXACT_COUNTERS must agree across passes; a disagreement is
    returned as a problem.
    """
    first = passes[0]
    problems = [f"{k} differs between traced passes: "
                f"{[p[k] for p in passes]}"
                for k in EXACT_COUNTERS if any(p[k] != first[k] for p in passes)]
    out = {}
    for key, value in first.items():
        if isinstance(value, float):
            out[key] = statistics.median(p[key] for p in passes)
        else:
            out[key] = value
    return out, problems
