#!/usr/bin/env python3
"""End-to-end benchmark of the polystab CLI.

    python3 perfbench/run.py --workload z_tables --seed 1 --seconds 40 --trace 0

One client in a closed loop: each op is its own ``polystab`` process, started
only after the previous one has been reaped, so at most one op process is alive.
A run repeats passes over the seeded op list: at least the workload's minimum
pass count, and more while a pass of average length still ends within
``--seconds``.  Between ops it times a no-compute CLI call (``setup_s``) once
per ``SETUP_EVERY_S`` of op time, so those samples span the whole run.  Every
op's stdout is checked (see workloads.py); an op that exits non-zero, prints a
traceback, is killed at its cap or answers wrongly counts as failed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each op untraced and then under tracer.py, back to back, and prints the
per-layer metrics, medians over the passes of per-pass totals of the traced
runs.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit status is 0 only when every op was right.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCH = "import sys; from polystab.cli import main; sys.exit(main())"  # the console script
SETUP_EVERY_S = 1.5  # op time between two timed setup calls
GRACE_S = 2.0  # between SIGTERM and SIGKILL at the cap
# No op starts unless it would end, even at its cap, by this time into the run;
# a pass cut short by it is left out of the pass figures.
RUN_DEADLINE_S = 175.0
SCRUBBED_ENV = ("POLYSTAB_CACHE", "XDG_CACHE_HOME", "PYTHONPATH")


@dataclass
class OpResult:
    op: Op
    warm: bool
    wall: float
    cpu: float
    rss_kib: int
    stdout: str
    error: str | None
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Pass:
    results: list[OpResult]
    traced: bool
    complete: bool = False

    @property
    def wall(self) -> float:
        """The pass's ops back to back, without the checks and setup calls between them."""
        return sum(r.wall for r in self.results)


class Runner:
    """Spawns one op at a time and reaps it with os.wait4 for its own rusage."""

    def __init__(self, tmp: Path, reference: dict, cap: float, deadline: float, setup_ops=None):
        self.tmp = tmp
        self.reference = reference
        self.cap = cap
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        self.env.update(PYTHONPATH=str(SRC), TMPDIR=str(tmp), HOME=str(tmp))
        self.serial = 0
        self.setup_ops = setup_ops  # None: no setup calls (traced runs)
        self.setup: list[OpResult] = []
        self.since_setup = math.inf

    def room_for(self, ops: int) -> bool:
        """Whether ``ops`` more ops would end by the deadline even if each ran to its cap."""
        return time.monotonic() + ops * (self.cap + GRACE_S) <= self.deadline

    def maybe_setup(self) -> None:
        """Time one no-compute call if SETUP_EVERY_S of op time has passed since the last."""
        if self.setup_ops is None or self.since_setup < SETUP_EVERY_S or not self.room_for(1):
            return
        cache_dir = self.tmp / "setup-cache"
        cache_dir.mkdir(exist_ok=True)
        self.setup.append(self.run(next(self.setup_ops), cache_dir, False, False))
        self.since_setup = 0.0

    def run(self, op: Op, cache_dir: Path, warm: bool, traced: bool) -> OpResult:
        self.serial += 1
        io = {name: self.tmp / f"op.{name}" for name in ("stdin", "stdout", "stderr", "spans")}
        if op.stdin is not None:
            io["stdin"].write_text(op.stdin, encoding="utf-8")
        io["spans"].unlink(missing_ok=True)
        argv = [*op.argv, "--cache-dir", str(cache_dir)]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(io["spans"]), f"{self.serial}", "--", *argv]
        else:
            cmd = [sys.executable, "-c", LAUNCH, *argv]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, str(io["stdin"]) if op.stdin is not None else os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(io["stdout"]), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(io["stderr"]), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, self.env, file_actions=actions)
        status, usage, killed = reap(pid, self.cap)
        wall = time.perf_counter() - start
        stdout = io["stdout"].read_text(encoding="utf-8", errors="replace")
        stderr = io["stderr"].read_text(encoding="utf-8", errors="replace")
        if killed:
            error = f"killed at the {self.cap:.1f} s cap"
        elif os.waitstatus_to_exitcode(status) != 0:
            error = f"exit status {os.waitstatus_to_exitcode(status)}: {stderr.strip()[-200:]}"
        elif "Traceback" in stderr:
            error = "traceback on stderr"
        else:
            error = workloads.check_output(op, stdout, self.reference)
        spans = None
        if traced and io["spans"].exists():
            with open(io["spans"], "rb") as handle:
                spans = marshal.load(handle)  # written by our own tracer.py
        return OpResult(op, warm, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout, error, spans)


def reap(pid: int, cap: float):
    """Wait for ``pid`` up to ``cap`` seconds, killing it past that; always reaps."""
    fd = os.pidfd_open(pid)

    def send(sig):
        try:
            signal.pidfd_send_signal(fd, sig)
        except ProcessLookupError:  # exited meanwhile; wait4 below reaps it
            pass

    killed = False
    try:
        if not select.select([fd], [], [], max(cap, 0.0))[0]:
            killed = True
            send(signal.SIGTERM)
            if not select.select([fd], [], [], GRACE_S)[0]:
                send(signal.SIGKILL)
    except BaseException:
        send(signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    return status, usage, killed


def run_pass(runner: Runner, ops: list[Op], modes: tuple[bool, ...]) -> list[Pass]:
    """One pass over ``ops`` per mode (traced or not).

    With both modes each op runs untraced and then traced back to back, so the
    two runs of an op see the same machine state.  A pass is complete unless
    the run deadline stopped it.
    """
    passes = [Pass([], traced) for traced in modes]
    for op in ops:
        runner.maybe_setup()
        for p in passes:
            if not runner.room_for(1 + op.warm):
                return passes
            cache_dir = runner.tmp / "cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            cache_dir.mkdir()
            cold = runner.run(op, cache_dir, False, p.traced)
            p.results.append(cold)
            if op.warm:
                warm = runner.run(op, cache_dir, True, p.traced)
                if warm.ok and cold.ok and warm.stdout != cold.stdout:
                    warm.error = "warm output differs from the cold output"
                p.results.append(warm)
            runner.since_setup += sum(r.wall for r in p.results[-1 - op.warm :])
    for p in passes:
        p.complete = True
    return passes


# ---------------------------------------------------------------- metrics


def tail_percentile(workload: str, ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten ops beyond it in the smallest run."""
    n = workloads.MIN_PASSES[workload] * ops_per_pass
    return max(50, math.floor(100 * (1 - 10 / n)))


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def median_op(passes: list[Pass], keep) -> float | None:
    """Median time of the kept ops of all the passes."""
    walls = [r.wall for p in passes for r in p.results if keep(r)]
    return statistics.median(walls) if walls else None


def end_to_end(passes: list[Pass], setup: list[OpResult], pct: int) -> dict[str, float]:
    """Pass and op figures from the complete passes; ok_ratio and peak RSS from every op."""
    everything = setup + [r for p in passes for r in p.results]
    passes = [p for p in passes if p.complete]
    cold = median_op(passes, lambda r: not r.warm)
    warm = median_op(passes, lambda r: r.warm)
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p.results) for p in passes),
        "op_p50_s": median_op(passes, lambda r: True),
        "op_tail_s": nearest_rank([r.wall for p in passes for r in p.results], pct),
        "cold_op_p50_s": cold,
        # Workloads whose ops never see a filled cache report their cold figure.
        "warm_op_p50_s": warm if warm is not None else cold,
        "ok_ratio": sum(r.ok for r in everything) / len(everything),
        "peak_rss_mib": max(r.rss_kib for r in everything) / 1024,
        "setup_s": statistics.median(r.wall for r in setup),
    }


def op_layers(result: OpResult) -> Counter:
    """Per-op layer totals from the op's spans; self time excludes children and bookkeeping."""
    rec = result.spans
    m: Counter = Counter()
    if rec is None:
        return m
    spans = rec["spans"]
    child = [0] * len(spans)
    for _name, start, end, parent, _book, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    seen_keys = set()
    main_ns = 0
    for i, (name, start, end, _parent, book, attrs) in enumerate(spans):
        attrs = attrs or {}
        dur, self_ns = end - start, end - start - child[i] - book
        layer = name.split(".")[0]
        m[f"{layer}.self_s"] += self_ns / 1e9
        m[f"{layer}.calls"] += 1
        m[f"{name}.s"] += dur / 1e9
        m[f"{name}.self_s"] += self_ns / 1e9
        m[f"{name}.calls"] += 1
        m["trace.bookkeeping_s"] += book / 1e9
        for attr in ("entries", "nnz"):
            m[f"{name}.{attr}"] += attrs.get(attr, 0)
        if "max_in_bits" in attrs:
            m[f"{name}.max_in_bits"] = max(m[f"{name}.max_in_bits"], attrs["max_in_bits"])
        if name == "cli.main":
            main_ns += dur
            m["trace.unattributed_s"] += self_ns / 1e9
        elif name == "braid.config_homology":
            m["braid.config_homology.repeats"] += attrs["key"] in seen_keys
            seen_keys.add(attrs["key"])
        elif name.startswith("cache."):
            m["cache.hits"] += attrs.get("hit", False)
            m["cache.bytes"] += attrs.get("bytes", 0)
    m["cli.import_s"] = rec["import_ns"] / 1e9
    m["cli.proc_s"] = result.wall - m["cli.import_s"] - main_ns / 1e9
    m["cli.emit_s"] = m["cli.emit.s"]
    m["jets.tuples"] = result.op.tuples
    return m


def pass_layers(p: Pass) -> Counter:
    total: Counter = Counter()
    for r in p.results:
        for name, value in op_layers(r).items():
            total[name] = max(total[name], value) if name.endswith("max_in_bits") else total[name] + value

    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    total["cache.hit_ratio"] = ratio("cache.hits", "cache.get.calls")
    total["braid.repeat_ratio"] = ratio("braid.config_homology.repeats", "braid.config_homology.calls")
    total["jets.jet_map.calls_per_tuple"] = ratio("jets.jet_map.calls", "jets.tuples")
    return total


def accounted(m: Counter) -> float:
    """Layer self times plus import and process time: the traced op's wall minus bookkeeping."""
    layers = sum(v for n, v in m.items() if n.count(".") == 1 and n.endswith(".self_s"))
    return layers + m["cli.import_s"] + m["cli.proc_s"]


def op_pairs(passes: list[Pass]) -> list[tuple[OpResult, OpResult]]:
    """(untraced, traced) runs of the same op, from each complete pair of passes."""
    pairs = []
    for plain, traced in zip(passes[::2], passes[1::2]):
        if plain.complete and traced.complete:
            pairs += zip(plain.results, traced.results)
    return pairs


def op_gap(plain: OpResult, traced: OpResult) -> float:
    """How far the traced op's accounted time exceeds the same op's untraced wall, as a share of it."""
    return (accounted(op_layers(traced)) - plain.wall) / plain.wall


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced and p.complete]
    plain = [p for p in passes if not p.traced and p.complete]
    totals = [pass_layers(p) for p in traced]
    names = set().union(*totals)
    out = {name: statistics.median(t[name] for t in totals) for name in names}
    untraced_wall = statistics.median(p.wall for p in plain)
    out["trace.overhead_s"] = statistics.median(p.wall for p in traced) - untraced_wall
    out["trace.overhead_share"] = out["trace.overhead_s"] / untraced_wall
    out["trace.unattributed_share"] = statistics.median(
        t["trace.unattributed_s"] / p.wall for t, p in zip(totals, traced)
    )
    gaps = [op_gap(a, b) for a, b in op_pairs(passes)]
    out["trace.op_gap_share"] = statistics.median(gaps)
    out["trace.op_gap_max_share"] = max(gaps, key=abs)
    return out


def dominant_spans(result: OpResult) -> str:
    m = op_layers(result)
    selfs = {n[: -len(".self_s")]: v for n, v in m.items() if n.count(".") >= 2 and n.endswith(".self_s")}
    selfs.update({"cli.import": m["cli.import_s"], "cli.proc": m["cli.proc_s"]})
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
    return " ".join(f"{n}={v / result.wall:.0%}" for n, v in top)


# ---------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CAPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polystab" / "cli.py").is_file():
        print(f"perfbench: no polystab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = workloads.load_reference()
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    started = time.monotonic()
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setup_ops = workloads.setup_ops(args.seed)
        runner = Runner(tmp, reference, workloads.CAPS[args.workload], started + RUN_DEADLINE_S,
                        setup_ops=None if args.trace else setup_ops)
        (tmp / "cache").mkdir()
        warmup = runner.run(next(setup_ops), tmp / "cache", False, False)  # compiles bytecode; not timed

        ops = workloads.generate(args.workload, args.seed)
        modes = (False, True) if args.trace else (False,)
        min_rounds = 1 if args.trace else workloads.MIN_PASSES[args.workload]
        passes: list[Pass] = []
        window = time.monotonic()
        # Start another round only while one of average length still ends within --seconds.
        while (rounds := len(passes) // len(modes)) < min_rounds or (
            (time.monotonic() - window) * (1 + 1 / rounds) <= args.seconds
        ):
            passes += run_pass(runner, ops, modes)
            if not passes[-1].complete:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    setup = runner.setup
    everything = [warmup, *setup] + [r for p in passes for r in p.results]
    failures = [r for r in everything if not r.ok]
    for r in failures:
        print(f"FAILED {'warm' if r.warm else 'cold'} {r.op.key}: {r.error}", file=sys.stderr)
    complete = [p for p in passes if p.complete]
    measured = bool(op_pairs(passes)) if args.trace else bool(complete and setup)
    if not measured:
        print(f"perfbench: too few passes completed within the {RUN_DEADLINE_S:.0f} s run deadline", file=sys.stderr)

    values = {}
    if args.trace:
        wanted = spec["per_layer"]
        if measured:
            values = per_layer(passes)
            for a, b in op_pairs(passes)[: len(complete[0].results)]:
                print(f"{a.op.kind:<22} {a.wall:7.3f}s traced {b.wall:7.3f}s gap {op_gap(a, b):+6.1%}  "
                      f"{dominant_spans(b)}")
    else:
        wanted = spec["end_to_end"]
        ops_per_pass = len(ops) + sum(op.warm for op in ops)
        pct = tail_percentile(args.workload, ops_per_pass)
        if measured:
            values = end_to_end(passes, setup, pct)
        print(f"passes {len(passes)} ({' '.join(f'{p.wall:.3f}' for p in passes)} s), "
              f"{len(passes) - len(complete)} cut short; ops per pass {ops_per_pass}, "
              f"op_tail_s is p{pct} of {sum(len(p.results) for p in complete)} ops; {len(setup)} setup calls")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:.6g} {metric['unit']}")
    correct = measured and not failures
    print(json.dumps({"correct": correct, "attempted": len(everything), "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
