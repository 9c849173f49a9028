#!/usr/bin/env python3
"""Append one entry to the bench trajectory: every workload, untraced and traced.

    python3 perfbench/trajectory.py --label "baseline" --out perfbench/trajectory/BENCH_0.json

runs run.py on each workload of BENCHMARK.json and on the z_hang_probe, with
``--trace 0`` and ``--trace 1`` at one seed, and stores the final JSON line of
each run together with its printed summary (per-op dominant spans for traced
runs) and the failures it reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from run import BENCH_DIR, ROOT

PROBE = "z_hang_probe"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entry = {
        "label": args.label,
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "machine": f"{os.cpu_count()} cpus, {platform.machine()}, Python {platform.python_version()}",
        "runs": [],
    }
    for workload in [w["name"] for w in spec["workloads"]] + [PROBE]:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", "1" if workload == PROBE else str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            entry["runs"].append({
                "workload": workload,
                "trace": trace,
                "exit_status": proc.returncode,
                "result": json.loads(lines[-1]) if lines else None,
                "summary": lines[:-1],
                "failures": proc.stderr.strip().splitlines(),
            })
            print(workload, trace, proc.returncode, file=sys.stderr)
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
