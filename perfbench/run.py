#!/usr/bin/env python3
"""The uavlink benchmark: drive the `uavlink` CLI in process and time it.

    python3 perfbench/run.py --workload mc_bep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from `src/` of that
checkout and run single-threaded (`--threads 1`). A run:

1. measures set-up: fresh processes that `import uavlink` and `load_config`
   (untraced runs only);
2. makes one untimed pass with `--threads <nproc>`, which warms caches and
   gives the CSV bytes every later pass must reproduce;
3. repeats timed passes over the workload's invocations until `--seconds`
   have elapsed. With `--trace 1`, untraced and traced passes alternate.

Each invocation is timed between two runs of the workload's calibration loop
(see calibration.py); the reported times are rescaled to the loop's reference
speed, and the raw wall times go to the run record. Set-up is raw wall time,
the median of several fresh processes. Every
invocation's output is checked (see checks.py). Human-readable lines come
first; the last line of stdout is the JSON result. The run record (machine,
versions, CSV hashes, every metric) is written to `.perfbench_run/records/`
and the spans of traced passes to `.perfbench_run/spans/`.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

MIN_TIMED_PASSES = 3
MIN_TRACE_PASSES = 2  # of each kind, traced and untraced
SETUP_REPEATS = 7
# the end-to-end metrics of BENCHMARK.json
GATED = ("setup_s", "ref_wall_s", "heavy_items_per_ref_s",
         "light_items_per_ref_s", "peak_rss_mb")

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import uavlink; "
               "from uavlink.cli import load_config; "
               "load_config(sys.argv[2], seed_override=int(sys.argv[3]))")


@dataclass
class PassResult:
    walls: dict = field(default_factory=dict)  # invocation -> raw seconds
    scaled: dict = field(default_factory=dict)  # invocation -> scaled seconds
    items: dict = field(default_factory=dict)  # invocation -> work items


class Run:
    """State of one benchmark run: outputs seen, checks made, failures."""

    def __init__(self, cli, workload, seed: int, work_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.configs = {}
        self.attempted = 0
        self.failures = []  # (pass label, invocation, reason)
        self.problems = []  # run-level check failures
        self.hashes = {}  # invocation -> {csv: sha256} of the first pass
        self._verified = {}  # invocation -> (hashes, problems, items)
        self.ml_z = {}
        for inv in workload.invocations:
            path = work_dir / "configs" / f"{inv.name}.ini"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(config_text(inv))
            self.configs[inv.name] = path

    def _verify(self, inv, out_dir: Path, hashes: dict) -> tuple:
        """Check an output once per distinct set of hashes."""
        cached = self._verified.get(inv.name)
        if cached is not None and cached[0] == hashes:
            return cached[1], cached[2]
        if inv.command == "bep-curve":
            problems, self.ml_z[inv.name] = checks.check_bep_curve(inv.run,
                                                                   out_dir)
        else:
            problems = checks.compare_reference(inv.name, out_dir)
        items = checks.count_items(inv.command, out_dir)
        self._verified[inv.name] = (hashes, problems, items)
        return problems, items

    def invoke(self, inv, threads: int, label: str):
        """Run one invocation; return (raw s, scaled s, items) or None."""
        out_dir = self.work_dir / "out" / inv.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [inv.command, "--config", str(self.configs[inv.name]),
                "--out", str(out_dir), "--seed", str(self.seed),
                "--threads", str(threads)]
        self.attempted += 1
        loop = self.workload.calibration
        before = calibration.loop_seconds(loop)
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a lost run
            traceback.print_exc(file=sys.stderr)
            rc = "exception"
        wall = time.perf_counter() - t0
        after = calibration.loop_seconds(loop)
        if rc != 0:
            self.failures.append((label, inv.name, f"exit status {rc}"))
            return None
        hashes = checks.csv_hashes(out_dir)
        first = self.hashes.setdefault(inv.name, hashes)
        if hashes != first:
            self.failures.append((label, inv.name,
                                  "CSV bytes differ from the untimed pass "
                                  f"(--threads {nproc()})"))
            return None
        problems, items = self._verify(inv, out_dir, hashes)
        if problems:
            self.failures.append((label, inv.name, "; ".join(problems)))
            return None
        return wall, calibration.scaled(loop, wall, before, after), items

    def run_pass(self, threads: int, label: str, tracer=None) -> PassResult:
        result = PassResult()
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            for i, inv in enumerate(self.workload.invocations):
                if tracer is not None:
                    tracer.invocation = i
                got = self.invoke(inv, threads, label)
                if got is not None:
                    (result.walls[inv.name], result.scaled[inv.name],
                     result.items[inv.name]) = got
        finally:
            if tracer is not None:
                tracer.uninstall()
        return result

    def pass_time(self, passes: list, raw: bool = False) -> float:
        """Median over complete passes of the time of all invocations."""
        n = len(self.workload.invocations)
        times = [sum((p.walls if raw else p.scaled).values())
                 for p in passes if len(p.walls) == n]
        return statistics.median(times) if times else float("nan")

    def class_rate(self, passes: list, klasses: tuple) -> float:
        """Median over passes of some classes' items per scaled second."""
        names = [inv.name for inv in self.workload.invocations
                 if inv.klass in klasses]
        rates = [sum(p.items[n] for n in names)
                 / sum(p.scaled[n] for n in names)
                 for p in passes if all(n in p.scaled for n in names)]
        return statistics.median(rates) if rates else float("nan")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_program():
    """Import uavlink from this checkout's src/, or exit if it is not there."""
    if not (SRC / "uavlink" / "__init__.py").is_file():
        print(f"error: no uavlink package under {SRC}; run from the root of "
              "a uavlink checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import uavlink
    import uavlink.cli
    if Path(uavlink.__file__).resolve().parent != SRC / "uavlink":
        print(f"error: imported uavlink from {uavlink.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return uavlink, uavlink.cli


def measure_setup(config: Path, seed: int) -> list:
    """Wall seconds of fresh processes through import and load_config."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC),
                        str(config), str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "uavlink").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    if (git / ref[5:]).is_file():
        return (git / ref[5:]).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(uavlink) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": uavlink.backend_name(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def check_ledger(run: Run, digest: str, counts: dict) -> None:
    """CSV hashes and exact counters must repeat across runs of one source."""
    path = RUN_DIR / "ledger.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    entries = {f"csv/{run.workload.name}/{run.seed}/{inv}/{name}": sha
               for inv, hashes in run.hashes.items()
               for name, sha in hashes.items()}
    entries.update({f"count/{run.workload.name}/{k}": v
                    for k, v in counts.items()})
    book = ledger.setdefault(digest, {})
    for key, value in entries.items():
        if book.setdefault(key, value) != value:
            run.problems.append(f"{key} is {value}, an earlier run of the "
                                f"same source got {book[key]}")
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def timed_passes(run: Run, seconds: float, traced: bool) -> tuple:
    """Untraced passes, alternated with traced ones when `traced`."""
    plain, traced_passes, tracers = [], [], []
    need = MIN_TRACE_PASSES if traced else MIN_TIMED_PASSES
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds or len(plain) < need
           or (traced and len(traced_passes) < need)):
        k = len(plain) + len(traced_passes)
        if traced and k % 2 == 1:
            tracer = tracing.Tracer()
            traced_passes.append(run.run_pass(1, f"traced pass {k}", tracer))
            tracers.append(tracer)
        else:
            plain.append(run.run_pass(1, f"pass {k}"))
    return plain, traced_passes, tracers


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "bisection_fallbacks")):
        return "ratio"
    if metric == "cli.bytes_written":
        return "bytes"
    return "count"


def trace_layers(run: Run, plain: list, traced_passes: list,
                 tracers: list, stem: str) -> dict:
    """Per-layer metrics of the traced passes; spans are written here."""
    per_pass = []
    for p, t in zip(traced_passes, tracers):
        # span times get their invocation's calibration factor
        factors = [p.scaled[inv.name] / p.walls[inv.name]
                   if inv.name in p.walls else 1.0
                   for inv in run.workload.invocations]
        per_pass.append(t.layer_metrics(factors))
        run.problems += sorted(t.hook_errors)
    layers, problems = tracing.combine(per_pass)
    run.problems += problems
    layers["trace.overhead_s"] = (run.pass_time(traced_passes)
                                  - run.pass_time(plain))
    spans_dir = RUN_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    names = [inv.name for inv in run.workload.invocations]
    for i, t in enumerate(tracers):
        t.dump(spans_dir / f"{stem}-pass{i}.json.gz", names)
    return layers


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}: {record['why']}")
    print(f"seed {record['seed']}, {record['passes']['untraced']} untraced "
          f"and {record['passes']['traced']} traced passes; "
          f"{env['nproc']} x {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, "
          f"backend {env['backend']}, commit {env['git_commit']}")
    for name, m in record["report"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in record["layers"].items():
        print(f"  {name:34s} {value:.6g} {unit_of(name)}")
    for inv, zs in record["ml_z"].items():
        worst = max((z for z in zs if z["z_vs_uub"] is not None),
                    key=lambda z: z["z_vs_uub"], default=None)
        if worst is not None:
            print(f"  ML vs UUB ({inv}, not gated): max z = "
                  f"{worst['z_vs_uub']:.1f} at {worst['snr_db']:g} dB "
                  f"C={worst['acf']:g}")
    for label, inv, reason in record["failures"]:
        print(f"  FAILED {label} {inv}: {reason}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    uavlink, cli = load_program()
    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = RUN_DIR / stem
    shutil.rmtree(work_dir, ignore_errors=True)
    run = Run(cli, workload, args.seed, work_dir)
    env = environment(uavlink)

    setup = []
    if not args.trace:
        setup = measure_setup(run.configs[workload.invocations[0].name],
                              args.seed)
    run.run_pass(nproc(), f"untimed pass (--threads {nproc()})")
    plain, traced_passes, tracers = timed_passes(run, args.seconds,
                                                 bool(args.trace))

    # the issue-level figures: printed and recorded, some not gated
    report = {}
    if setup:
        report["setup_s"] = (statistics.median(setup), "s")
    report["ref_wall_s"] = (run.pass_time(plain), "s")
    report["wall_s"] = (run.pass_time(plain, raw=True), "s")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0, "MB")
    report["failed_frac"] = (len(run.failures) / run.attempted, "ratio")
    report["heavy_items_per_ref_s"] = (run.class_rate(plain, workload.heavy),
                                       "1/s")
    report["light_items_per_ref_s"] = (run.class_rate(plain, workload.light),
                                       "1/s")
    for klass, name in workload.classes.items():
        report[name] = (run.class_rate(plain, (klass,)), "1/s")

    layers = {}
    if args.trace:
        layers = trace_layers(run, plain, traced_passes, tracers, stem)
    check_ledger(run, env["source_sha256"],
                 {k: layers[k] for k in tracing.EXACT_COUNTERS if k in layers})

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": report[k][0], "unit": report[k][1]}
                   for k in GATED}

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "calibration": [workload.calibration,
                        calibration.LOOPS[workload.calibration][1]],
        "passes": {"untraced": len(plain), "traced": len(traced_passes),
                   "untraced_raw_s": [p.walls for p in plain],
                   "untraced_scaled_s": [p.scaled for p in plain],
                   "traced_raw_s": [p.walls for p in traced_passes]},
        "setup_s": setup,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "layers": layers, "csv_sha256": run.hashes, "ml_z": run.ml_z,
        "failures": run.failures, "problems": run.problems,
        "attempted": run.attempted, "metrics": metrics,
    }
    records = RUN_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print_report(record)
    print(json.dumps({
        "correct": not run.failures and not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
