"""Benchmark of the subindex toolkit: time to a verified result, and its memory.

Run from the repository root:

    python3 perfbench/run.py --workload classify-stream --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/selftest.py

One process runs one workload with a single closed-loop caller: the next
operation starts when the previous one has returned and been checked. The
workload's operation list is built from ``--seed``; one untimed warm-up pass
is followed by timed passes until ``--seconds`` have gone by. ``wall_s`` is
the median pass time and the operation latencies are pooled over the timed
passes. Every output of every pass, the warm-up included, is checked against
ground truth known from how the input was built (see workloads.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate; the last line reports the
per-layer metrics of the traced passes (see tracing.py), including the
tracing overhead, and the spans are written to ``perfbench/_out/``.

Exit status is 0 when every operation was correct, 1 when an operation
failed or an output changed between passes, 2 on a usage error or when the
``src/subindex`` package is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("classify-stream", "classify-wide", "torus-ground-truth", "verify-suites")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = {"full": 3, "tiny": 1}
# p90 needs ten samples beyond it; the passes repeat until this many operations ran
MIN_OPS = {"full": 100, "tiny": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-test")
    parser.add_argument("--corrupt-truth", action="store_true",
                        help="corrupt one expected value, for the self-test")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# machine note
# --------------------------------------------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_note(args) -> dict:
    """Settings that move the numbers; recorded as found, never set."""
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "SUBINDEX_THREADS": os.environ.get("SUBINDEX_THREADS"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def measure_setup(args, work: Path) -> list[float]:
    """Fresh-process set-up times: import subindex plus the workload's fixed objects."""
    times = []
    for _ in range(SETUP_PROBES[args.size]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), args.workload, str(work)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.digest = ""
        self.report_bytes = 0
        self.spans = []


def run_pass(ops, recorder, traced: bool, workloads) -> Pass:
    result = Pass(traced)
    outcomes = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if traced:
            recorder.op = index
            recorder.enabled = True
        t0 = time.perf_counter()
        try:
            value, error = op.call(), None
        except (Exception, SystemExit) as exc:  # a raising operation is a failed operation
            value, error = None, f"{type(exc).__name__}: {exc}"
        result.latencies.append(time.perf_counter() - t0)
        if traced:
            recorder.enabled = False
        if error is None:
            try:
                outcome = op.verify(value)
            except workloads.CheckFailed as exc:
                outcome = workloads.Outcome(str(exc))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                outcome = workloads.Outcome(f"unreadable output: {type(exc).__name__}: {exc}")
        else:
            outcome = workloads.Outcome(error)
        if outcome.error is not None:
            result.failures.append(f"{op.label}: {outcome.error}")
        outcomes.append(outcome)
    result.wall = time.perf_counter() - start
    result.digest = workloads.digest(outcomes)
    result.report_bytes = sum(o.report_bytes for o in outcomes)
    if traced:
        result.spans = recorder.take()
    return result


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = measure_setup(args, work) if not args.trace else []
        import tracing
        import workloads

        note = machine_note(args)
        if args.workload == "classify-wide":
            note["known_defects"] = workloads.known_defects(args.seed)
        workloads.setup(args.workload, str(work))
        ops = workloads.build(args.workload, args.seed, args.size, str(work), args.corrupt_truth)
        recorder = None
        if args.trace:
            recorder = tracing.Recorder()
            recorder.install()
            if recorder.unpatched:
                print(f"warning: not traced (name not found): {recorder.unpatched}", file=sys.stderr)
        # the first pass warms caches and is checked but not timed
        warmup = run_pass(ops, recorder, False, workloads)
        passes: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(ops, recorder, traced, workloads))
            if args.trace:
                enough = len(passes) >= 2
            else:
                enough = sum(len(p.latencies) for p in passes) >= MIN_OPS[args.size]
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    checked = [warmup] + passes
    attempted = sum(len(p.latencies) for p in checked)
    failed = sum(len(p.failures) for p in checked)
    problems = sorted({f for p in checked for f in p.failures})
    digests = {p.digest for p in checked}
    if len(digests) > 1:
        problems.append(f"outputs differ between passes ({len(digests)} digests)")

    if args.trace:
        per_pass = [tracing.layer_metrics(p.spans, p.report_bytes) for p in traced]
        metrics = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name in tracing.EXACT:
                if len(set(values)) > 1:
                    problems.append(f"count {name} differs between traced passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - statistics.median(p.wall for p in plain))
        units = tracing.PER_LAYER
        spans_path = HERE / "_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        note["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        latencies = [t for p in plain for t in p.latencies]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.wall for p in plain),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * quantile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        note["setup_samples_s"] = setup_times
        note["op_samples"] = len(latencies)
        note["op_samples_beyond_p90"] = sum(1 for t in latencies if t > metrics["op_p90_ms"] / 1e3)

    note.update(passes=len(passes), traced_passes=len(traced), digest=sorted(digests)[0],
                warmup_wall_s=round(warmup.wall, 4),
                pass_walls_s=[round(p.wall, 4) for p in passes],
                failed_frac=failed / attempted)
    if args.trace:
        spans_path.parent.mkdir(exist_ok=True)
        tracing.write_spans(spans_path, [p.spans for p in traced], note)
    print("note: " + json.dumps(note, sort_keys=True))
    for message in problems[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table of every metric."""
    summary = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.corrupt_truth:
            argv.append("--corrupt-truth")
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark exited with status {proc.returncode}", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
        summary[name] = json.loads(lines[-1])
    for name, result in summary.items():
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:16.6f} {entry['unit']}")
        print(f"  {'failed_frac':40s} {result['failed'] / result['attempted']:16.6f} ratio")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "subindex" / "__init__.py").is_file():
        print(f"error: no subindex package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
