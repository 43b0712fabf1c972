"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py --root . --workload W --seed S --workers K [--trace] [--setup-only]

Set-up is the import of ``rbcm`` from ``<root>/src`` plus building the
round's inputs, timed from the first line of this file.  The round then runs
every operation once, cold: a fresh interpreter starts with the module-level
caches of ``rbcm`` empty, as every ``rbcm`` command does.  The last line of
standard output is one JSON object with the timings, the outputs of every
operation and, with ``--trace``, the per-layer metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _import_rbcm(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    rbcm = importlib.import_module("rbcm")
    if src not in Path(rbcm.__file__).resolve().parents:
        raise SystemExit(f"rbcm was imported from {rbcm.__file__}, not from {src}")
    return importlib.import_module("rbcm.cli"), importlib.import_module("rbcm.brute")


def _build_inputs(ops: "list[tuple]", workers: int, groups_mod) -> list:
    inputs = []
    for op in ops:
        if op[0] == "classify":
            _, a, b, c, level = op
            inputs.append(
                ["--workers", str(workers), "classify", "--a", str(a), "--b", str(b),
                 "--c", str(c), "--verify-level", level]
            )
        else:
            inputs.append(groups_mod.parse_group(op[1]))
    return inputs


def _run_op(op: tuple, inp, cli, brute):
    if op[0] == "classify":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(inp)
        return {"rc": rc, "stdout": out.getvalue()}
    if op[0] == "enumerate":
        return brute.enumerate_rbcm(inp, exhaustive=True)
    return brute.naive_enumerate_rbcm(inp)


def _serialize(op: tuple, raw) -> dict:
    if op[0] == "classify":
        text = raw["stdout"]
        return {"rc": raw["rc"], "doc": json.loads(text), "bytes": len(text.encode())}
    return {"maps": [fm.to_json_dict() for fm in raw]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", default=None, help="write spans to this .npz file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(args.root)
    cli, brute = _import_rbcm(root)
    ops = workloads.round_ops(args.workload, args.seed)
    inputs = _build_inputs(ops, args.workers, importlib.import_module("rbcm.groups"))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    raw_results = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for op, inp in zip(ops, inputs):
        try:
            raw_results.append(_run_op(op, inp, cli, brute))
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            raw_results.append(exc)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    results = []
    for op, raw in zip(ops, raw_results):
        try:
            if isinstance(raw, BaseException):
                raise raw
            entry = _serialize(op, raw)
        except (Exception, SystemExit) as exc:
            entry = {"error": f"{type(exc).__name__}: {exc}"}
        results.append(dict(entry, op=list(op)))

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "results": results,
    }
    if tracer is not None:
        Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
        tracer.save(args.trace)
        layer = tracer.metrics()
        layer["cli.output_bytes"] = sum(r.get("bytes", 0) for r in results)
        report["per_layer"] = layer
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
