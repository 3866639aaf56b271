"""Workflow benchmark: one command, four workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload guidance_dag --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated from ``--seed``; see ``workloads.py``):

* ``guidance_dag``  — 7.8k-task GUIDANCE DAG on 16 simulated HPC nodes
  (locality policy): dispatch, capacity, policy, data location.
* ``sensor_stream`` — hybrid stream campaign, 200k elements in 160
  windows: the stream plane and the lane window loop.
* ``fleet_churn``   — 12.5k agents under 1%/s churn: message bus, agents,
  re-homing into the location layer.
* ``task_pipeline`` — a real ``@task`` program on the thread-pool runtime,
  one closed-loop client, memoized repeats: the real-time path.

Each iteration is set-up plus one campaign (about a second; 5,000
requests and several seconds for the pipeline), on inputs of its own drawn
from the seed; the run repeats iterations for ``--seconds`` and reports
medians.  Iteration 0's inputs depend on ``--seed`` alone, so its
simulated outcomes (``sim_makespan_s``, ``sim_window_latency_max_s``) are
printed as guards: on the same seed they are bit-identical from commit to
commit unless a change altered placement or window timing.  Between
iterations a fixed reference kernel measures the host's current speed,
and every timed end-to-end metric is scaled to the nominal host (see
``NOMINAL_KERNEL_S``): a shared host's speed drifts by tens of percent
from minute to minute, which unscaled medians would report as changes.
The unscaled figures are printed too.  The pipeline's timings are not
scaled (see ``TaskPipeline.host_scaled``).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace
1`` it runs untraced for half the time, then traced with spans around
every layer boundary (``layers.py``), and prints the per-layer cost table,
its reconciliation with the traced wall time, and the tracing overhead.
Outputs are checked on every iteration, and traced iterations must repeat
the untraced outcome on the same inputs bit for bit.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when a check failed.

The program under test is imported from ``src/`` beside this directory;
without it the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("guidance_dag", "sensor_stream", "fleet_churn", "task_pipeline")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the smoke test only",
    )
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


# ------------------------------------------------------------------ stamp


def _commit() -> Optional[str]:
    """The checkout's HEAD commit, read from its git files (None without)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[len("ref: "):]).read_text().strip()
    except OSError:
        return None
    return head


def stamp() -> Dict[str, Any]:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
    }


# -------------------------------------------------------------------- run


#: Reference-kernel time on the nominal host (this kernel's time on a quiet
#: 2-CPU development host).  The kernel runs between iterations; each
#: iteration's timings are scaled by the mean kernel time on either side of
#: it over this constant, so they read as on the nominal host even when a
#: shared host's speed drifts.
NOMINAL_KERNEL_S = 0.07


class _KernelNode:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.key & 7


def reference_kernel() -> float:
    """Seconds a fixed pure-Python kernel takes now: the host's speed.

    It mixes what the program's hot paths do — small-object allocation and
    method calls, a bounded and a large binary heap, dict counters — and
    never touches the program, so a change to the program cannot move it.
    The collector runs first and is paused while timing, so the kernel
    never pays for garbage an iteration left behind.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: List[tuple] = []
        counts: Dict[int, int] = {}
        for i in range(20_000):
            node = _KernelNode(i * 7919 % 1009, i)
            heapq.heappush(heap, (node.key, i))
            if len(heap) > 512:
                heapq.heappop(heap)
            counts[node.key & 255] = counts.get(node.key & 255, 0) + node.weight()
        heap = []
        for i in range(20_000):
            heapq.heappush(heap, (i * 7919 % 10007, i))
            counts[i & 255] = counts.get(i & 255, 0) + 1
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _iterate(workload, inputs, tracer, expected, problems: List[str]):
    """One checked iteration; returns (sample, wall seconds).

    ``expected`` is the outcome an earlier iteration on the same inputs
    produced (None on first sight): tracing must not change it.
    """
    gc.collect()
    start = time.perf_counter()
    sample = workload.iterate(inputs, tracer)
    wall = time.perf_counter() - start
    problems.extend(workload.check(inputs, sample))
    if expected is not None and sample.outcome != expected:
        problems.append(
            f"{workload.name}: traced outcome differs from the untraced one "
            "on the same inputs"
        )
    sample.result = None  # checked; release it before the next iteration
    return sample, wall


def _repeat(workload, inputs_of, tracer, budget_s, minimum, problems, expected=None):
    """Iterate until the next iteration would overrun ``budget_s``.

    Iteration ``k`` runs ``inputs_of(k)``; with ``expected`` (outcomes of
    an earlier pass over the same inputs) each outcome must repeat.
    Returns (samples, walls, host factor per iteration).
    """
    samples, walls = [], []
    start = time.perf_counter()
    kernels = [reference_kernel()]
    while True:
        k = len(samples)
        sample, wall = _iterate(
            workload,
            inputs_of(k),
            tracer,
            expected[k % len(expected)] if expected else None,
            problems,
        )
        kernels.append(reference_kernel())
        samples.append(sample)
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if len(samples) >= minimum and elapsed + statistics.mean(walls) > budget_s:
            hosts = [
                (before + after) / 2 / NOMINAL_KERNEL_S
                for before, after in zip(kernels, kernels[1:])
            ]
            return samples, walls, hosts


def _describe(walls: List[float]) -> str:
    return (
        f"{len(walls)} iterations, wall median {statistics.median(walls):.3f} s "
        f"(min {min(walls):.3f}, max {max(walls):.3f})"
    )


def _host(hosts: List[float]) -> str:
    return (
        f"host factor median {statistics.median(hosts):.3f} (min {min(hosts):.3f}, "
        f"max {max(hosts):.3f}; reference kernel {NOMINAL_KERNEL_S * 1e3:g} ms = 1)"
    )


def end_to_end(samples, hosts: List[float]) -> Dict[str, dict]:
    """The BENCHMARK.json end-to-end metrics; each iteration's times are
    divided by its ``hosts`` factor (all 1 for an unscaled workload)."""
    latencies = [x / h for s, h in zip(samples, hosts) for x in s.latencies_ms]
    if not latencies:  # a campaign is one operation: its wall time
        latencies = [s.run_s * 1e3 / h for s, h in zip(samples, hosts)]
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_per_s": {
            "value": sum(s.work for s in samples)
            / sum(s.run_s / h for s, h in zip(samples, hosts)),
            "unit": "1/s",
        },
        "latency_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
        "setup_s": {
            "value": statistics.median(s.setup_s / h for s, h in zip(samples, hosts)),
            "unit": "s",
        },
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "completed_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def guards(samples) -> Dict[str, tuple]:
    """Iteration 0's simulated outcomes (its inputs come from the seed alone)."""
    return dict(samples[0].guards)


def _median_figures(samples) -> Dict[str, tuple]:
    names = samples[0].figures
    return {
        name: (statistics.median(s.figures[name][0] for s in samples), unit)
        for name, (_v, unit) in names.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_program()
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, percentile

    workload = WORKLOADS[args.workload]
    # Every iteration gets its own inputs, drawn from a seed sequence the
    # run's seed fixes: a run averages over inputs, not over one draw.
    seeds = random.Random(args.seed)
    subseeds: List[int] = []

    def inputs_of(k: int):
        while len(subseeds) <= k:
            subseeds.append(seeds.randrange(1 << 30))
        return workload.inputs(subseeds[k], args.scale)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("stamp " + json.dumps(stamp(), sort_keys=True))

    problems: List[str] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    samples, walls, hosts = _repeat(
        workload, inputs_of, None, budget, 1 if args.trace else 2, problems
    )
    scales = hosts if workload.host_scaled else [1.0] * len(hosts)
    all_samples = list(samples)
    print(f"untraced: {_describe(walls)}; {_host(hosts)}")
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced, traced_walls, traced_scales = _repeat(
                workload,
                lambda k: inputs_of(k % len(samples)),
                tracer,
                args.seconds - budget,
                1,
                problems,
                expected=[sample.outcome for sample in samples],
            )
        finally:
            tracer.remove()
        all_samples += traced
        print(f"traced: {_describe(traced_walls)}; {_host(traced_scales)}")
        if not workload.host_scaled:
            traced_scales = [1.0] * len(traced_scales)
        # Traced iteration k re-ran untraced iteration k mod n's inputs;
        # compare walls scaled as the end-to-end metrics are.
        traced_norm = sum(w / h for w, h in zip(traced_walls, traced_scales))
        paired = sum(walls[k % len(walls)] / scales[k % len(walls)] for k in range(len(traced)))
        overhead = traced_norm / paired - 1.0
        traced_wall = statistics.mean(traced_walls)
        lines, unattributed, table_problems = layers.table(tracer, len(traced), traced_wall)
        problems.extend(table_problems)
        print(f"per-layer cost per traced iteration ({args.workload}):")
        for line in lines:
            print(line)
        print(f"tracing overhead: traced {traced_norm:.3f} s vs untraced {paired:.3f} s "
              f"on the same inputs, {'host-normalized' if workload.host_scaled else 'unscaled'} "
              f"({overhead:+.1%})")
        counters = {
            name: statistics.mean(s.counters[name] for s in samples)
            for name in samples[0].counters
        }
        if samples[-1].latencies_ms:
            ordered = sorted(x for s in samples for x in s.latencies_ms)
            counters["rt.request_p99_ms"] = percentile(ordered, 0.99)
        counters.update((name, value) for name, (value, _unit) in guards(samples).items())
        counters["trace.overhead_share"] = overhead
        counters["trace.unattributed_s"] = unattributed
        metrics = layers.metrics(layers.per_iteration(tracer, len(traced)), counters)
    else:
        metrics = end_to_end(samples, scales)
    for name, (value, unit) in _median_figures(samples).items():
        print(f"{name:<32}{value:>16.6g} {unit}")
    if samples[0].guards:
        print("guards (iteration 0, inputs from --seed alone; equal on every commit "
              "unless placement or window timing changed):")
    for name, (value, unit) in guards(samples).items():
        print(f"{name:<32}{value!r:>16} {unit}")
    for name, metric in metrics.items():
        print(f"{name:<32}{metric['value']:>16.6g} {metric['unit']}")
    attempted = sum(s.attempted for s in all_samples)
    failed = sum(s.failed for s in all_samples)
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("ok" if not problems else f"{len(problems)} failed"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
