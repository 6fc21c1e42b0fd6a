#!/usr/bin/env python3
"""Digest of the CLI's deterministic outputs: one sha256 per CSV and one
combined digest over all of them.

    python3 scripts/output_digest.py [--threads N]

Run from anywhere; the program is imported from `src/` of the checkout that
holds this script. It runs `adapt`, `power` and `rate-opt` on case1 and
case2 for both schemes, one PSK `bep-curve` with both Monte Carlo
detectors, one QAM `bep-curve` over every QAM order, which pins the QAM
constellations end to end through detection, and a QPSK and a 4-QAM
`bep-curve` at stale CSI, where ML and SO share their decisions and no
gamma variates are drawn, each on a fixed config and seed. Every CSV is a
pure function of (config, seed), so two checkouts, or two `--threads`
values, that print the same combined digest wrote the same bytes. The
`.meta.json` sidecars are left out: they record the package version, which
a change may bump.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

# an SNR x threshold grid with empty cells at low SNR and every rate at high
RATE_OPT = {"snr_db": " ".join(str(v) for v in range(0, 40, 3)),
            "bep_thresholds": "1e-2 1e-3 1e-5 1e-6"}
BEP_CURVE = {"orders": "2 4 8", "detectors": "ml, so, uub, psk-approx",
             "snr_db": "0 8 16", "acf": "1.0 0.99 0.9", "n_symbols": "20000"}
QAM_BEP_CURVE = {"orders": "4 8 16 32 64", "detectors": "ml, so, uub",
                 "snr_db": "0 8 16", "acf": "1.0 0.99 0.9",
                 "n_symbols": "4000"}
# two full Monte Carlo batches and a partial one
STALE_BEP_CURVE = {"orders": "4", "detectors": "ml, so", "snr_db": "0 8 16",
                   "acf": "0.95 0.8", "n_symbols": "20000"}


def invocations() -> list:
    """(name, subcommand, [run] section) of every digested run."""
    out = []
    for fixture in ("case1", "case2"):
        for scheme in ("qam", "psk"):
            base = {"fixture": fixture, "scheme": scheme}
            out.append((f"adapt-{fixture}-{scheme}", "adapt", base))
            out.append((f"power-{fixture}-{scheme}", "power", base))
            out.append((f"rate-opt-{fixture}-{scheme}", "rate-opt",
                        {**base, **RATE_OPT}))
    out.append(("bep-curve-case1-psk", "bep-curve",
                {"fixture": "case1", "scheme": "psk", **BEP_CURVE}))
    out.append(("bep-curve-case1-qam", "bep-curve",
                {"fixture": "case1", "scheme": "qam", **QAM_BEP_CURVE}))
    for scheme in ("psk", "qam"):
        out.append((f"bep-curve-case1-{scheme}4-stale", "bep-curve",
                    {"fixture": "case1", "scheme": scheme,
                     **STALE_BEP_CURVE}))
    return out


def digest(work: Path, threads: int) -> list:
    """(label, sha256) of every CSV written under `work`, in a fixed order."""
    sys.path.insert(0, str(ROOT / "src"))
    from uavlink.cli import main

    lines = []
    for name, command, run in invocations():
        config = work / f"{name}.ini"
        config.write_text("[run]\n" + "".join(f"{k} = {v}\n"
                                              for k, v in run.items()))
        out = work / name
        rc = main([command, "--config", str(config), "--out", str(out),
                   "--seed", str(SEED), "--threads", str(threads)])
        if rc != 0:
            raise SystemExit(f"{name}: uavlink {command} exited with {rc}")
        lines.extend((f"{name}/{p.name}",
                      hashlib.sha256(p.read_bytes()).hexdigest())
                     for p in sorted(out.glob("*.csv")))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, default=1,
                        help="--threads of every uavlink call")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest(Path(tmp), args.threads)
    combined = hashlib.sha256("".join(f"{h}  {label}\n"
                                      for label, h in lines).encode())
    for label, h in lines:
        print(f"{h}  {label}")
    print(f"{combined.hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main())
