"""Self-test of the benchmark itself (not of the subindex library).

    python3 perfbench/selftest.py

Runs every workload at a tiny size and checks that:

- every end-to-end metric named in BENCHMARK.json prints with its unit, and
  the result line has exactly the keys correct, attempted, failed, metrics;
- every per-layer metric prints with its unit in the traced run, the exact
  counts and the output digest repeat between two traced runs of one seed,
  and the digest matches the untraced run;
- a corrupted expected value shows up in ``failed`` and gives exit status 1;
- the benchmark refuses to run, without a result line, when only
  BENCHMARK.json and perfbench/ are present;
- ``torus-table --dim 5`` makes 62 separation and 31 interior LP solves, the
  count pinned when this benchmark was introduced. A change that removes the
  repeated separation LP is expected to move it; update the pin with it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
PINNED_TORUS5_LP = {"lp.separation": 62, "lp.interior": 31}

failures: list[str] = []


def check(condition: bool, message: str):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def bench(*args, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", str(SEED), "--seconds", "1",
            "--size", "tiny", *args]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    note = next((json.loads(line[6:]) for line in lines if line.startswith("note: ")), {})
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, note, proc.stderr


def metrics_match(result, spec, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    check(got == want, f"{label}: metrics and units are exactly those of BENCHMARK.json")
    numbers = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    check(numbers, f"{label}: every metric value is a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        code, result, plain_note, err = bench("--workload", name, "--trace", "0")
        check(code == 0 and result is not None, f"{name}: untraced run exits 0 with a result line {err[-300:]}")
        if result is None:
            continue
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{name}: correct, nothing failed, attempted {result['attempted']}")
        metrics_match(result, spec["end_to_end"], f"{name} --trace 0")
        check(all(v["value"] > 0 for v in result["metrics"].values()), f"{name}: end-to-end metrics are nonzero")

        traced = [bench("--workload", name, "--trace", "1") for _ in range(2)]
        if all(r[0] == 0 and r[1] is not None for r in traced):
            metrics_match(traced[0][1], spec["per_layer"], f"{name} --trace 1")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            counts = [{k: v["value"] for k, v in r[1]["metrics"].items() if units[k].startswith("count") or units[k] == "bytes"}
                      for r in traced]
            check(counts[0] == counts[1], f"{name}: exact counts repeat between two traced runs")
            digests = {plain_note.get("digest"), traced[0][2].get("digest"), traced[1][2].get("digest")}
            check(len(digests) == 1, f"{name}: output digest repeats across runs, traced or not")
        else:
            check(False, f"{name}: traced runs exit 0 with a result line {traced[0][3][-300:]}")

        code, result, _, _ = bench("--workload", name, "--trace", "0", "--corrupt-truth")
        check(code == 1 and result is not None and result["failed"] > 0 and not result["correct"],
              f"{name}: a corrupted expected value fails the run")

    code, result, _, _ = bench("--workload", "all", "--trace", "0")
    check(code == 0 and result is not None and set(result) == set(names), "--workload all runs every workload")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _, _ = bench("--workload", names[0], "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code not in (0, None) and result is None, f"without src/ the benchmark exits {code} and prints no result")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import subindex.cli
    import tracing

    recorder = tracing.Recorder()
    recorder.install()
    out = HERE / "_work" / "pin.json"
    out.parent.mkdir(exist_ok=True)
    recorder.enabled = True
    code = subindex.cli.main(["torus-table", "--dim", "5", "--out", str(out)])
    recorder.enabled = False
    out.unlink()
    spans = recorder.take()
    solves = {name: sum(1 for s in spans if s.name == name) for name in PINNED_TORUS5_LP}
    check(code == 0 and solves == PINNED_TORUS5_LP, f"torus-table --dim 5 LP solves {solves} == {PINNED_TORUS5_LP}")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
