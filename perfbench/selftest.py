"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
- a deliberately wrong realization counts as failed (negative control);
- one seed gives one output digest, in fresh interpreters with different
  hash seeds, and another seed gives other inputs;
- the printed metric names and units match BENCHMARK.json, in both modes;
- every chunk of the reference kernels does the same work;
- in a directory without the lefgroup source, run.py exits non-zero and
  prints no result.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import reference
import run
import workloads
from workloads import RealizeItem, fibration, presentations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


class WrongRealize(workloads.Realize):
    """Realizes < x | x^3 > whatever the source is."""

    def call(self, item, ctx):
        out = fibration.realize_group(presentations.presentation("x", "x^3"), genus=item.genus)
        return dataclasses.replace(out, source=item.source)


def negative_control() -> None:
    items = [RealizeItem(presentations.presentation("x", "x^2"), None)]
    right = run.Run(workloads.Realize(), items, None)
    right.timed_pass()
    check(right.failed() == 0, "a right realization of < x | x^2 > passes its check")
    wrong = run.Run(WrongRealize(), items, None)
    wrong.timed_pass()
    wrong.timed_pass()
    check(wrong.failed() == wrong.attempted == 2, "a wrong realization counts as failed")


def pass_digest(name: str, seed: int) -> str:
    """Digest of one pass, as run.py prints it."""
    workload = workloads.WORKLOADS[name]
    one = run.Run(workload, workload.items(seed), workload.setup())
    one.timed_pass()
    return one.digest()


def digest_in_fresh_process(name: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, __file__, "--digest", name, str(seed)],
                         env=env, capture_output=True, text=True, check=True, timeout=170)
    return out.stdout.split()[-1]


def determinism() -> None:
    for name, workload in workloads.WORKLOADS.items():
        check(workload.items(1) == workload.items(1), f"{name}: one seed gives one input list")
        check(workload.items(1) != workload.items(2), f"{name}: another seed gives other inputs")
        first = digest_in_fresh_process(name, 1, "1")
        second = digest_in_fresh_process(name, 1, "2")
        check(first == second, f"{name}: one seed gives one digest across processes")


def reference_kernels() -> None:
    for kernel, _ in reference.KERNELS:
        check(len({kernel() for _ in range(3)}) == 1,
              f"reference kernel {kernel.__name__} gives one result every chunk")


def result_of(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invariants", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = result_of(ROOT, trace)
        check(done.returncode == 0, f"run.py --trace {trace} exits 0")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"--trace {trace} result has exactly the four keys")
        check(result["correct"] and result["failed"] == 0, f"--trace {trace}: every output passes")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        check(printed == declared, f"--trace {trace} prints the {key} metrics of BENCHMARK.json")


def bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = result_of(bare, 0)
    finally:
        shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the lefgroup source run.py fails and prints no result")


def main() -> None:
    if sys.argv[1:2] == ["--digest"]:
        print(pass_digest(sys.argv[2], int(sys.argv[3])))
        return
    negative_control()
    determinism()
    reference_kernels()
    metric_names()
    bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
