"""Benchmark for tlabel: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload label-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  Set-up (generation, serialization, warm-up) runs three times
and ``setup_s`` is its median.  The measured phase then makes whole rounds,
each one pass over every input of the workload: two at least, and no round
that would end after ``--seconds``.  Every set-up and op is timed between
two probes of a fixed reference kernel and reported in calibrated time,
which host speed swings cancel out of (see ``calib``).  Every op's output
is checked independently between ops, outside the op's timer.  With
``--trace 1`` each op runs untraced and then traced, and the per-layer
metrics come from the traced runs.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3
WORKLOAD_NAMES = ("label-dense", "label-sparse-cli", "small-search", "audit-large")


def load_program() -> None:
    """Import tlabel from this checkout's src/, or fail without a result."""
    if not (SRC / "tlabel" / "__init__.py").is_file():
        raise SystemExit("error: %s/tlabel not found; run from a tlabel checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import tlabel

    if Path(tlabel.__file__).resolve().parent != (SRC / "tlabel").resolve():
        raise SystemExit("error: tlabel was imported from %s, not %s" % (tlabel.__file__, SRC))


def stamp(args) -> dict:
    """Where and on what a run was made."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tlabel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Phase:
    """Op latencies, per input, and failures of one or more rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.samples: list[list[float]] = [[] for _ in ops]
        self.round_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, i: int, seq: int, clock, tracer=None) -> None:
        """Time op i on ``clock``, then check its output outside the timer."""
        op = self.ops[i]
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = seq
        try:
            result, raw, calibrated = clock.time(op.call)
        except Exception:  # a failed op is counted, never fatal
            self.failed += 1
            self.problems.append("op %d raised:\n%s" % (seq, traceback.format_exc()))
            return
        finally:
            if tracer is not None:
                tracer.op_id = -1
        self.round_s[-1] += raw
        problems = op.check(result)
        if problems:
            self.failed += 1
            self.problems.append("op %d: %s" % (seq, "; ".join(problems[:5])))
        else:
            self.samples[i].append(calibrated)


def set_up(workload: str, seed: int, work_dir: str, clock):
    """Build the inputs and warm up on the smallest op.

    Returns ``(ops, raw seconds, calibrated seconds)``.  Each input is
    built between probes of ``clock``, so that set-up, too, is calibrated
    piece by piece.  The ops are shuffled so that inputs of every size are
    spread over a round and meet the same swings in machine speed.
    """
    import workloads

    build = workloads.WORKLOADS[workload](seed, work_dir)
    ops, raw, calibrated = [], 0.0, 0.0
    while True:
        op, dt, cal = clock.time(lambda: next(build, None))
        raw += dt
        calibrated += cal
        if op is None:
            break
        ops.append(op)
    random.Random(seed).shuffle(ops)
    warm = min(ops, key=lambda op: op.elements)
    _, dt, cal = clock.time(lambda: warm.check(warm.call()))
    return ops, raw + dt, calibrated + cal


def end_to_end(phase: Phase, setup_s: list, raw_setup_s: list) -> tuple[dict, str]:
    """The end-to-end metrics of an untraced phase.

    Every time is calibrated (see ``calib``).  An input's latency is the
    median of its ops over the rounds, and percentiles range over the
    inputs, the same ones however many rounds the time allowed.
    """
    import stats

    done = [(op, statistics.median(s)) for op, s in zip(phase.ops, phase.samples) if s]
    latency = [dt for _, dt in done]
    by_size: dict = {}
    for op, dt in done:
        if op.size is not None:
            by_size.setdefault(op.size, []).append(dt)
    wall = sum(latency)
    value, pct, count = stats.tail(latency)
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (len(done) / wall, "1/s"),
        "elements_per_s": (sum(op.elements for op, _ in done) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
        "doubling_ratio": (stats.doubling_ratio(by_size), "ratio"),
    }
    raw = statistics.fmean(phase.round_s)
    note = ("op_tail_ms is p%.2f of %d inputs; failed_frac %.4f (%d of %d ops); "
            "%d rounds; uncalibrated: %.4f s of ops per round, %.4f s per set-up; "
            "calibrated over uncalibrated %.4f"
            % (pct, count, phase.failed / phase.attempted, phase.failed,
               phase.attempted, len(phase.round_s), raw, statistics.median(raw_setup_s),
               wall / raw))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, note


def measure(args, work_dir: str):
    """Untraced run: three set-ups, then whole rounds for --seconds."""
    from calib import Clock

    clock = Clock()
    setup_s, raw_setup_s = [], []
    for _ in range(SETUPS):
        ops = None  # the previous set-up's inputs are garbage now
        gc.collect()
        ops, raw, calibrated = set_up(args.workload, args.seed, work_dir, clock)
        setup_s.append(calibrated)
        raw_setup_s.append(raw)
    gc.collect()
    phase = Phase(ops)
    seq = 0
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        phase.round_s.append(0.0)
        for i in range(len(ops)):
            phase.run_op(i, seq, clock)
            seq += 1
        # two rounds at least, and none that would end past --seconds
        if len(phase.round_s) >= 2 and 2 * perf_counter() - t0 - begin > args.seconds:
            break
    if not any(phase.samples):
        return phase, {}, "no op completed"
    metrics, note = end_to_end(phase, setup_s, raw_setup_s)
    return phase, metrics, note


def measure_traced(args, work_dir: str, stamp_doc: dict):
    """Traced run: a traced set-up, then each op untraced and traced in turn.

    Running every op both ways back to back keeps slow drifts in machine
    speed out of ``trace.overhead_frac``.
    """
    import layers
    from calib import Clock
    from spans import Tracer

    counters = layers.Counters()
    tracer = Tracer(layers.targets(), counters.hooks())
    clock = Clock()
    with tracer:
        ops, _, _ = set_up(args.workload, args.seed, work_dir, clock)
    counters.clear()
    gc.collect()
    plain, traced = Phase(ops), Phase(ops)
    seq = 0
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        plain.round_s.append(0.0)
        traced.round_s.append(0.0)
        for i in range(len(ops)):
            plain.run_op(i, seq, clock)
            with tracer:
                traced.run_op(i, seq + 1, clock, tracer)
            seq += 2
        if 2 * perf_counter() - t0 - begin > args.seconds:
            break
    overhead = sum(traced.round_s) / sum(plain.round_s) - 1
    metrics, absent = layers.per_layer_metrics(
        tracer, counters, len(traced.round_s), overhead)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.json.gz" % (args.workload, args.seed))
    tracer.write(str(path), stamp_doc)
    note = "%d spans written to %s; %d rounds, each op untraced then traced; absent: %s" % (
        len(tracer.names), path.relative_to(ROOT), len(traced.round_s),
        ", ".join(absent) or "none")
    phase = Phase(ops)
    for part in (plain, traced):
        phase.attempted += part.attempted
        phase.failed += part.failed
        phase.problems += part.problems
    return phase, metrics, note


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exited with %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("== %s" % name)
        for line in lines[:-1]:
            print(line)
        for metric, entry in result["metrics"].items():
            print("  %-34s %14.6g %s" % (metric, entry["value"], entry["unit"]))
            merged["metrics"]["%s.%s" % (name, metric)] = entry
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_program()
    if args.workload == "all":
        return run_all(args)
    stamp_doc = stamp(args)
    print("stamp " + json.dumps(stamp_doc, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            phase, metrics, note = measure_traced(args, work_dir, stamp_doc)
        else:
            phase, metrics, note = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in phase.problems[:5]:
        print("FAILED " + problem, file=sys.stderr)
    print(note)
    print(json.dumps({
        "correct": phase.failed == 0 and bool(metrics),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
