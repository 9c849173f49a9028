#!/usr/bin/env python3
"""Record the reference outputs of every request the workloads can generate.

    python3 perfbench/record.py

writes perfbench/reference.json: the SHA-256 of the stdout of every op in
``workloads.menu()``, and, for every integral table request, the dimensions of
the same request over F2, F3, F5, F7 and Q, for the universal-coefficient
check.  Run it only at a commit whose outputs are trusted as the reference; it
takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import workloads
from run import LAUNCH, ROOT, SCRUBBED_ENV, SRC


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)

    def cli(argv, stdin=None) -> str:
        with tempfile.TemporaryDirectory(dir=scratch) as cache:
            proc = subprocess.run(
                [sys.executable, "-c", LAUNCH, *argv, "--cache-dir", cache],
                input=stdin, capture_output=True, text=True, env=env, check=True,
            )
        return proc.stdout

    outputs = {}
    for op in workloads.menu():
        outputs[op.key] = workloads.digest(cli(op.argv, op.stdin))
        print(op.key, file=sys.stderr)
    uct = {}
    for argv in workloads.uct_menu():
        uct[" ".join(argv)] = {
            ring: workloads.field_dims(json.loads(cli((*argv, "--ring", ring)))) for ring in workloads.UCT_RINGS
        }
        print(" ".join(argv), "(field tables)", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(
        json.dumps({"outputs": outputs, "uct": uct}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
