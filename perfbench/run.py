"""Benchmark of ``rbcm``: certified classification and the oracle tier.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout; it imports ``rbcm`` from ``src/``.  Each
round runs in a fresh interpreter (``worker.py``) so that every round starts
cold.  With ``--trace 0`` whole rounds run until the next one would end
after ``--seconds``, and the last line printed holds the end-to-end metrics
(medians over rounds; ``setup_s`` is the median over the rounds and
``SETUP_PROBES`` more set-ups).  With ``--trace 1`` one untraced and one
traced round run with one worker, and the last line holds the per-layer
metrics and the tracing overhead.  Every output is checked by
``checker.py``, which does not use ``rbcm``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
SKEW_SAMPLE_PAIRS = 1 << 16
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def spawn(root: Path, workload: str, seed: int, workers: int, deadline: float, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), *extra]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def check_rounds(workload: str, seed: int, rounds: "list[dict]") -> "tuple[int, int, list[str]]":
    """(attempted, failed, problems) over every operation of every round."""
    import numpy as np

    import checker

    rng = np.random.default_rng(seed)
    attempted = failed = 0
    problems: "list[str]" = []
    self_tested = False
    for rnd in rounds:
        found: "dict[tuple[str, str], set]" = {}
        for res in rnd["results"]:
            op = tuple(res["op"])
            label = workloads.op_label(op)
            attempted += 1
            if "error" in res or res.get("rc", 0) != 0:
                failed += 1
                print(f"perfbench: {label} failed: {res.get('error', res.get('rc'))}", file=sys.stderr)
                continue
            try:
                if op[0] == "classify":
                    checker.check_classify(res["doc"], rng, SKEW_SAMPLE_PAIRS)
                    if not self_tested and res["doc"]["solutions"]:
                        checker.self_test_classify(res["doc"], rng, SKEW_SAMPLE_PAIRS)
                        self_tested = True
                else:
                    expected = workloads.ENUMERATION_COUNTS[op[1]]
                    found[op] = checker.check_enumeration(res["maps"], expected, rng)
                    if not self_tested and op[1] == "L(8,2,3)":
                        widest = max(res["maps"], key=lambda m: m["valency"])
                        checker.self_test_enumeration(widest, rng)
                        self_tested = True
            except (checker.CheckFailed, KeyError, TypeError, ValueError) as exc:
                problems.append(f"{label}: {type(exc).__name__}: {exc}")
        for (kind, group), keys in found.items():
            if kind == "naive" and ("enumerate", group) in found:
                if keys != found[("enumerate", group)]:
                    problems.append(f"naive and structured enumerations differ on {group}")
    if not self_tested and not failed:
        problems.append("the checker's negative self-test did not run")
    return attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "rbcm" / "__init__.py").is_file():
        print(f"perfbench: no rbcm sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    def run(workers: int, *extra: str) -> dict:
        return spawn(root, args.workload, args.seed, workers, deadline, *extra)

    try:
        if args.trace:
            trace_file = HERE / "out" / f"{args.workload}.trace.npz"
            rounds = [run(1), run(1, "--trace", str(trace_file))]
        else:
            # set-up probes before and after the rounds, so that they do not
            # all fall into one spell of the host's speed
            before = SETUP_PROBES // 2
            setups = [run(1, "--setup-only")["setup_s"] for _ in range(before)]
            rounds = []
            start = time.monotonic()
            while True:
                began = time.monotonic()
                rounds.append(run(workloads.worker_count(args.workload)))
                now = time.monotonic()
                if now - start + (now - began) > args.seconds:
                    break
            setups += [r["setup_s"] for r in rounds]
            setups += [run(1, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES - before)]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_rounds(args.workload, args.seed, rounds)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        base, traced = rounds
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith(".s") else "count"}
            for name, value in traced["per_layer"].items()
        }
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - base["wall_s"], "unit": "s"}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
