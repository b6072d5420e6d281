"""Runs the benchmark once per seed and summarises the runs.  From the root
of a checkout:

    python3 perfbench/series.py --workloads realize certify invariants \\
        --seeds 1-10 [--trace 1] [--out perfbench/baseline.json]

Runs are sequential, one process each.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, and every run's output digest.  With
``--out`` it also writes all of it, run by run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["digest"] = next(line.split()[-1] for line in lines if line.startswith("digest "))
    return result


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.trace))
            metrics = runs[-1]["metrics"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(metrics.items())
                             if args.trace == 0)
            print(f"{workload} seed={seed} correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} {shown}", flush=True)
        report[workload] = {"summary": summary(runs), "runs": runs}
        for name, s in report[workload]["summary"].items():
            print(f"  {workload} {name}: median {s['median']:.4g} {s['unit']}, "
                  f"quartiles {s['q1']:.4g}..{s['q3']:.4g}, spread {s['spread']:.3f}")
        print(f"  {workload} digests: " + " ".join(f"{r['seed']}:{r['digest'][:12]}" for r in runs),
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
