"""The lefgroup benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One caller sends the seeded items of
the workload to lefgroup in a closed loop: each item starts only after
the previous one returned.  A run

1. builds the item list from the seed (untimed) and the workload's set-up;
2. runs timed whole passes over the list until ``--seconds`` of item time
   have been measured and at least ``MIN_ITEMS`` items are done, so that
   at least ten latencies lie beyond the 90th percentile.  Before every
   item it times a chunk of the reference kernels (``reference.py``), and
   it divides each pass's latencies by the host speed factor those chunks
   measured, so that the host's drift in speed cancels out.  Before the
   first item, and then after every ``PROBE_EVERY_S`` of item time, it
   times a fresh process that imports lefgroup and builds the set-up,
   divided by the same factor; ``setup_s`` is the median of these probes;
3. checks, outside the timing, the first output of every item with the
   workload's oracle, and every later output against the first one's
   digest.

With ``--trace 1`` the set-up runs with every traced lefgroup function
wrapped, and then whole passes run each item untraced and then traced,
until the untraced half has taken half of ``--seconds``.  The run prints
per-layer metrics instead: one set-up plus the mean of one traced pass,
and the tracing overhead.  The spans go to
``perfbench/out/spans-<workload>.json``.

The output digest (sha256 over the canonical text of one pass of
outputs) is printed before the result.  The last line of standard output
is the JSON result.  Items that raise or fail their check count in
``failed``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
PROBE_EVERY_S = 1.5
MIN_ITEMS = 110


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to its set-up being ready."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


class Run:
    """Runs one workload's items and keeps what the checks need."""

    def __init__(self, workload, items, ctx):
        self.workload = workload
        self.items = items
        self.ctx = ctx
        self.outputs: dict[int, object] = {}
        self.expected: dict[int, str | None] = {}
        self.attempts: Counter[int] = Counter()
        self.mismatches: Counter[int] = Counter()

    def _call(self, index: int, tracer: tracing.Tracer | None):
        call = self.workload.call
        item = self.items[index]
        start = perf_counter()
        try:
            out = tracer.item(call, item, self.ctx) if tracer else call(item, self.ctx)
        except Exception:  # the run goes on; the item counts as failed
            elapsed = perf_counter() - start
            print(f"item {index} raised:", file=sys.stderr)
            traceback.print_exc()
            return elapsed, None, True
        return perf_counter() - start, out, False

    def _timed(self, index: int, tracer: tracing.Tracer | None) -> float:
        """Time one item.  Its first output is kept for the oracle; every
        later output must have the same digest."""
        latency, out, raised = self._call(index, tracer)
        self.attempts[index] += 1
        digest = None if raised else workloads.item_digest(
            self.workload.digest_text(self.items[index], out))
        if index not in self.expected:
            self.outputs[index] = out
            self.expected[index] = digest
        if raised or digest != self.expected[index]:
            if not raised:
                print(f"item {index} output differs from its first run", file=sys.stderr)
            self.mismatches[index] += 1
        return latency

    def timed_pass(self) -> list[float]:
        return [self._timed(index, None) for index in range(len(self.items))]

    def timed(self, seconds: float, min_items: int,
              probe) -> tuple[list[float], list[float], list[float]]:
        """Whole passes until ``seconds`` of item time and ``min_items``
        items are done.  A reference chunk is timed before every item, and
        ``probe`` (a set-up time) runs before the first item and then after
        every ``PROBE_EVERY_S`` of item time.  Returns the latencies and the
        set-up times, each divided by the speed factor of its pass, and the
        factors."""
        latencies: list[float] = []
        setups: list[float] = []
        factors: list[float] = []
        spent = 0.0
        since_probe = PROBE_EVERY_S
        while spent < seconds or len(latencies) < min_items:
            chunks, raw, raw_setups = [], [], []
            for index in range(len(self.items)):
                if since_probe >= PROBE_EVERY_S:
                    raw_setups.append(probe())
                    since_probe = 0.0
                chunks.append(reference.timed_chunk())
                raw.append(self._timed(index, None))
                since_probe += raw[-1]
            factor = statistics.fmean(chunks)
            spent += sum(raw)
            latencies += [x / factor for x in raw]
            setups += [x / factor for x in raw_setups]
            factors.append(factor)
        return latencies, setups, factors

    def paired(self, seconds: float, tracer: tracing.Tracer) -> tuple[float, float, int]:
        """Whole passes in which each item runs untraced, then traced, until
        the untraced time reaches ``seconds``; returns both times and the
        pass count.  Pairing item by item keeps drift in machine speed out
        of the tracing overhead."""
        plain = traced = 0.0
        passes = 0
        while plain < seconds:
            for index in range(len(self.items)):
                plain += self._timed(index, None)
                tracer.install()
                try:
                    traced += self._timed(index, tracer)
                finally:
                    tracer.uninstall()
            passes += 1
        return plain, traced, passes

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    def failed(self) -> int:
        """Attempts that raised or differ from the item's first output, and
        every attempt of an item whose first output fails the oracle."""
        memo: dict = {}
        bad = set()
        for index, item in enumerate(self.items):
            if self.expected[index] is None:
                continue
            problems = self.workload.check(item, self.outputs[index], self.ctx, memo)
            for problem in problems:
                print(f"item {index} failed its check: {problem}", file=sys.stderr)
            if problems:
                bad.add(index)
        return sum(self.attempts[i] if i in bad else self.mismatches[i] for i in self.attempts)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.expected[i] or "raised"
                                      for i in range(len(self.items))).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    items = workload.items(args.seed)
    setup_tracer = tracing.Tracer()
    if args.trace:
        setup_tracer.install()
    try:
        ctx = workload.setup()
    finally:
        setup_tracer.uninstall()
    run = Run(workload, items, ctx)
    gc.collect()

    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, passes = run.paired(args.seconds / 2, tracer)
        metrics = tracing.combined_metrics(setup_tracer, tracer, passes)
        metrics["trace.items_per_s"] = passes * len(items) / traced
        metrics["trace.overhead_frac"] = 1 - plain / traced
        metrics["trace.spans"] = len(tracer.names) / passes
        out = HERE / "out" / f"spans-{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"setup": setup_tracer.spans(), "passes": tracer.spans()},
                                  separators=(",", ":")))
    else:
        reference.warm_up()
        latencies, setups, factors = run.timed(args.seconds, MIN_ITEMS,
                                               lambda: probe_setup(args.workload))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p90 = statistics.quantiles(latencies, n=10)[8]
        print(f"{args.workload}: {len(latencies)} items in {sum(latencies):.3f} s at nominal "
              f"speed, {sum(x > p90 for x in latencies)} beyond p90; {len(setups)} set-up probes; "
              "speed factor per pass " + " ".join(f"{f:.3f}" for f in factors))
        metrics = {
            "items_per_s": len(latencies) / sum(latencies),
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_p90_ms": p90 * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }

    failed = run.failed()
    if not args.trace:
        metrics["ok_frac"] = 1 - failed / run.attempted
    # names and units come from BENCHMARK.json; the run must measure exactly those
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print(f"digest {args.workload} seed={args.seed} {run.digest()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
