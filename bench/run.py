"""Benchmark of the twinwidth toolkit along the paths a user runs.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: one process, one
thread, the next operation sent only when the previous one is done,
cycling through a fixed list of blocks of operations generated from
--seed (see workloads.py).  The loop stops at the first block boundary
after the operations have taken --seconds in total.  Every output is
checked outside the timed region; a failed check, an exception of any
kind or a wrong exit code counts as a failed operation and does not
stop the run.

--trace 0 prints the end-to-end metrics (ops_per_s, latency_p50_ms,
latency_tail_ms, peak_rss_mb, setup_s; error_rate is failed/attempted).
--trace 1 runs every operation of the list once untraced and once
traced, checks that both give the same outputs, prints the per-layer
metrics of tracing.py per operation and the size sweep's growth
exponents of sweep.py, and writes the spans under .bench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie above the tail percentile


def _import_library() -> None:
    """Import twinwidth from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "twinwidth", "__init__.py")):
        sys.exit("bench: no src/twinwidth under %s; run from a checkout of the repository" % ROOT)
    sys.path.insert(0, SRC)
    import twinwidth
    if not os.path.abspath(twinwidth.__file__).startswith(SRC + os.sep):
        sys.exit("bench: twinwidth was imported from %s, not from %s" % (twinwidth.__file__, SRC))


def environment() -> dict:
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform()}


class Loop:
    """Runs operations, times them, and counts failures by kind.

    The first output of each operation is kept and checked only by
    check_all(), after the timed loop and after peak memory was read,
    so the checks' own time and memory stay out of the metrics.
    """

    def __init__(self, ops) -> None:
        self.ops = ops
        self.latencies = []
        self.busy = 0.0  # sum of latencies
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.first = {}  # index -> (result, output bytes, digest)

    def fail(self, label: str, kind: str, detail: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if self.failures[kind] <= 3:
            lines = detail.strip().splitlines()
            print("failed: %s: %s: %s" % (label, kind, lines[-1] if lines else ""),
                  file=sys.stderr)

    def step(self, index: int):
        """Run one operation; returns the digest of its output or None."""
        op = self.ops[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as exc:
            self._took(time.perf_counter() - start)
            self.fail(op.label, type(exc).__name__, traceback.format_exc())
            return None
        self._took(time.perf_counter() - start)
        try:
            blob = op.output(result)
        except Exception as exc:
            self.fail(op.label, type(exc).__name__, traceback.format_exc())
            return None
        digest = hashlib.sha256(blob).hexdigest()
        if index not in self.first:
            self.first[index] = (result, blob, digest)
        elif self.first[index][2] != digest:
            self.fail(op.label, "output_differs", "output differs from the first run of this input")
            return None
        return digest

    def _took(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.busy += seconds

    def check_all(self) -> None:
        for index, (result, blob, _) in sorted(self.first.items()):
            op = self.ops[index]
            try:
                op.check(result, blob)
            except Exception as exc:
                self.fail(op.label, type(exc).__name__, traceback.format_exc())


def tail(latencies) -> tuple:
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Nearest-rank: the p-th percentile is the ceil(p/100 * N)-th smallest
    sample.  With too few samples the maximum is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def set_up(workload, seed: int, work_root: str):
    """Build the operations and warm up; returns (blocks, seconds).

    The warm-up runs the first operation once, so that lazy state is in
    place before timing.
    """
    start = time.perf_counter()
    work = os.path.join(work_root, "inputs")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    blocks = workload(random.Random(seed), work)
    try:
        blocks[0][0].run()
    except (Exception, SystemExit):
        pass  # the timed loop counts this operation's failure
    return blocks, time.perf_counter() - start


def end_to_end(name: str, seed: int, seconds: float, work_root: str) -> dict:
    from workloads import WORKLOADS
    setups = []
    for _ in range(SETUP_REPEATS):
        blocks, took = set_up(WORKLOADS[name], seed, work_root)
        setups.append(took)
    ops = [op for block in blocks for op in block]
    loop = Loop(ops)
    while loop.busy < seconds:
        start = 0
        for block in blocks:
            for i in range(start, start + len(block)):
                loop.step(i)
            start += len(block)
            if loop.busy >= seconds:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check_all()
    lat = loop.latencies
    p, tail_s, beyond = tail(lat)
    metrics = {
        "ops_per_s": {"value": len(lat) / loop.busy, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1000.0, "unit": "ms"},
        "latency_tail_ms": {"value": tail_s * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    for key, m in metrics.items():
        print("%-16s %14.4f %s" % (key, m["value"], m["unit"]))
    print("%-16s %14.4f %s" % ("error_rate", loop.failed / loop.attempted, "1"))
    print("latency_tail_ms is p%d of %d samples (%d beyond it); %d blocks of %d operations"
          % (p, len(lat), beyond, len(blocks), len(blocks[0])))
    if loop.failures:
        print("failures by kind: %s" % json.dumps(loop.failures, sort_keys=True))
    return {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed, "metrics": metrics}


def traced(name: str, seed: int, work_root: str, env: dict) -> dict:
    import sweep
    import tracing
    from workloads import WORKLOADS
    blocks, _ = set_up(WORKLOADS[name], seed, work_root)
    ops = [op for block in blocks for op in block]
    # each operation runs untraced and then traced, back to back, so
    # that drifts in machine speed hit both sides of the overhead ratio
    plain, traced_loop = Loop(ops), Loop(ops)
    tracer = tracing.Tracer()
    mismatched = 0
    for i in range(len(ops)):
        digest = plain.step(i)
        tracer.op = i
        tracer.install()
        try:
            mismatched += traced_loop.step(i) != digest
        finally:
            tracer.uninstall()
    plain.check_all()
    failed = plain.failed + traced_loop.failed
    failures = dict(plain.failures)
    for kind, count in traced_loop.failures.items():
        failures[kind] = failures.get(kind, 0) + count
    if mismatched:
        failed += mismatched
        failures["traced_output_differs"] = mismatched
    per_layer = tracer.per_layer(len(ops))
    per_layer["trace.overhead_ratio"] = traced_loop.busy / plain.busy
    missing = [m for m in tracing.DRIVEN[name] if not per_layer.get(m)]
    if missing:
        failed += len(missing)
        failures["layer_not_driven"] = len(missing)
        print("per-layer metrics that stayed 0 on %s: %s" % (name, ", ".join(missing)),
              file=sys.stderr)
    for key, value in per_layer.items():
        print("%-48s %16.6f" % (key, value))
    if name == "pipeline":
        # verify and final_trigraph replays per operation, by formula count
        by_op = tracer.calls_by_op(["sequence.verify", "sequence.final_trigraph"])
        shown = set()
        for i, op in enumerate(ops):
            count = op.label.split()[0]
            if count not in shown:
                shown.add(count)
                print("pipeline %s: sequence.verify.calls %d, sequence.final_trigraph.calls %d"
                      " in one operation" % (count, by_op[i]["sequence.verify"],
                                             by_op[i]["sequence.final_trigraph"]))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (name, seed)),
                 dict(env, workload=name, seed=seed, ops=len(ops)))
    growth = sweep.run()
    for key, value in growth.items():
        print("%-48s %16.6f" % (key, value))
    if failures:
        print("failures by kind: %s" % json.dumps(failures, sort_keys=True))
    metrics = {key: {"value": value, "unit": tracing.unit(key)}
               for key, value in list(per_layer.items()) + list(growth.items())}
    return {"correct": failed == 0, "attempted": plain.attempted + traced_loop.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "recognize", "solve", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.dont_write_bytecode = True
    _import_library()
    env = environment()
    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    work_root = os.path.join(ROOT, ".bench_tmp", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        if args.trace:
            result = traced(args.workload, args.seed, work_root, env)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
