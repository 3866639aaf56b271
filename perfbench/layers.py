"""The program's layers as the traced run sees them.

:data:`LAYER_METHODS` names the public methods wrapped at each layer
boundary; :data:`PER_LAYER` names the per-layer metrics the traced run
reports, each derived from span totals or from a counter the program
reports itself.  Every metric is reported on every workload: a layer a
workload never enters reads 0 there, which is the "should not move"
half of each prediction in ``predictions.json``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.agents.agent import Agent
from repro.agents.bus import MessageBus
from repro.core.access_processor import AccessProcessor
from repro.core.compile import WorkflowCompiler
from repro.core.graph import TaskGraph
from repro.core.runtime import Runtime
from repro.executor.local import LocalExecutor
from repro.infrastructure.network import NetworkTopology
from repro.intelligence.memoization import TaskMemoizer
from repro.scheduling.capacity import CapacityLedger, NodeCapacity
from repro.scheduling.locations import DataLocationService, TransferPlanner
from repro.scheduling.policies import FifoPolicy, LoadBalancingPolicy, LocalityPolicy
from repro.scheduling.scheduler import TaskScheduler
from repro.simulation.events import EventQueue
from repro.streams.sources import CreditValve
from repro.streams.stream import DataStream

from spans import LayerStats, Tracer


def _placed(args: tuple, result) -> int:
    return 0 if result is None else 1


def _batch_size(args: tuple, result) -> int:
    return len(args[1])


#: (layer, class, method, items callback, generator?)
LAYER_METHODS: List[Tuple[str, type, str, Optional[Callable], bool]] = [
    ("engine.queue", EventQueue, "push", None, False),
    ("engine.queue", EventQueue, "pop", None, False),
    ("graph", TaskGraph, "add_task", None, False),
    ("graph", TaskGraph, "add_tasks", None, False),
    ("graph", TaskGraph, "add_completed_task", None, False),
    ("graph", TaskGraph, "mark_running", None, False),
    ("graph", TaskGraph, "mark_done", None, False),
    ("graph", TaskGraph, "mark_failed", None, False),
    ("graph", TaskGraph, "requeue", None, False),
    ("graph", TaskGraph, "iter_ready", None, True),
    ("sched.try_place", TaskScheduler, "try_place", _placed, False),
    ("sched.capacity", CapacityLedger, "candidates", None, False),
    ("sched.capacity", CapacityLedger, "best_balanced", None, False),
    ("sched.capacity", NodeCapacity, "allocate", None, False),
    ("sched.capacity", NodeCapacity, "release", None, False),
    ("sched.policy", FifoPolicy, "select", None, False),
    ("sched.policy", LoadBalancingPolicy, "select", None, False),
    ("sched.policy", LoadBalancingPolicy, "select_indexed", None, False),
    ("sched.policy", LocalityPolicy, "select", None, False),
    ("locations.publish", DataLocationService, "publish", None, False),
    ("locations.rehome", DataLocationService, "rehome_node", None, False),
    ("locations.stage_in_plan", TransferPlanner, "stage_in_plan", None, False),
    ("infra.record_transfer", NetworkTopology, "record_transfer", None, False),
    ("stream.publish_batch", DataStream, "publish_batch", _batch_size, False),
    ("stream.prune", DataStream, "prune_upto", None, False),
    ("stream.valve.admit", CreditValve, "admit", None, False),
    ("bus.send", MessageBus, "send", None, False),
    ("bus.kill", MessageBus, "kill_now", None, False),
    ("agents.handle", Agent, "handle", None, False),
    ("ap.prepare", AccessProcessor, "prepare_task", None, False),
    ("compile.key", WorkflowCompiler, "compile_call", None, False),
    ("memo.lookup", TaskMemoizer, "lookup", None, False),
    ("memo.store", TaskMemoizer, "store", None, False),
    ("runtime.submit", Runtime, "submit", None, False),
    ("runtime.on_task_done", Runtime, "on_task_done", None, False),
    ("runtime.wait_on", Runtime, "wait_on", None, False),
    ("executor.local.dispatch", LocalExecutor, "kick_locked", None, False),
    ("executor.local.run", LocalExecutor, "_run", None, False),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary (undo with ``tracer.remove()``)."""
    for layer, owner, method, items, generator in LAYER_METHODS:
        tracer.wrap(owner, method, layer, items=items, generator=generator)


def _calls(layer: str):
    return lambda spans, counters: spans[layer].calls if layer in spans else 0


def _self(layer: str):
    return lambda spans, counters: spans[layer].self_s if layer in spans else 0.0


def _items_per_call(layer: str):
    def derive(spans, counters):
        stats = spans.get(layer)
        return stats.items / stats.calls if stats and stats.calls else 0.0

    return derive


def _counter(name: str):
    return lambda spans, counters: counters.get(name, 0)


_S, _COUNT, _RATIO = "s", "count", "ratio"

#: (metric name, unit, better, derive(spans per traced iteration, counters)).
PER_LAYER: List[Tuple[str, str, str, Callable]] = [
    ("executor.self_s", _S, "lower", _self("executor")),
    ("engine.queue.calls", _COUNT, "lower", _calls("engine.queue")),
    ("engine.queue.self_s", _S, "lower", _self("engine.queue")),
    ("engine.events", _COUNT, "lower", _counter("engine.events")),
    ("sched.try_place.calls", _COUNT, "lower", _calls("sched.try_place")),
    ("sched.try_place.self_s", _S, "lower", _self("sched.try_place")),
    ("sched.capacity.self_s", _S, "lower", _self("sched.capacity")),
    ("sched.policy.self_s", _S, "lower", _self("sched.policy")),
    ("sched.place_ratio", _RATIO, "higher", _items_per_call("sched.try_place")),
    ("locations.publish.calls", _COUNT, "lower", _calls("locations.publish")),
    ("locations.publish.self_s", _S, "lower", _self("locations.publish")),
    ("locations.stage_in_plan.calls", _COUNT, "lower", _calls("locations.stage_in_plan")),
    ("locations.stage_in_plan.self_s", _S, "lower", _self("locations.stage_in_plan")),
    ("infra.record_transfer.self_s", _S, "lower", _self("infra.record_transfer")),
    ("locations.rehome.calls", _COUNT, "lower", _calls("locations.rehome")),
    ("locations.rehome.self_s", _S, "lower", _self("locations.rehome")),
    ("graph.calls", _COUNT, "lower", _calls("graph")),
    ("graph.self_s", _S, "lower", _self("graph")),
    ("setup.build_us_per_task", "us", "lower", _counter("setup.build_us_per_task")),
    ("stream.publish_batch.calls", _COUNT, "lower", _calls("stream.publish_batch")),
    ("stream.publish_batch.self_s", _S, "lower", _self("stream.publish_batch")),
    ("stream.prune.self_s", _S, "lower", _self("stream.prune")),
    ("stream.valve.admit.calls", _COUNT, "lower", _calls("stream.valve.admit")),
    ("stream.elements_per_batch", _COUNT, "higher", _items_per_call("stream.publish_batch")),
    ("stream.retained_high_water", _COUNT, "lower", _counter("stream.retained_high_water")),
    ("lane.windows", _COUNT, "lower", _counter("lane.windows")),
    ("lane.widened_windows", _COUNT, "higher", _counter("lane.widened_windows")),
    ("lane.messages", _COUNT, "lower", _counter("lane.messages")),
    ("lane.coordinator_cpu_s", _S, "lower", _counter("lane.coordinator_cpu_s")),
    ("bus.send.calls", _COUNT, "lower", _calls("bus.send")),
    ("bus.send.self_s", _S, "lower", _self("bus.send")),
    ("bus.kill.self_s", _S, "lower", _self("bus.kill")),
    ("bus.down_notices", _COUNT, "lower", _counter("bus.down_notices")),
    ("bus.useful_ratio", _RATIO, "higher", _counter("bus.useful_ratio")),
    ("ap.prepare.self_s", _S, "lower", _self("ap.prepare")),
    ("compile.key.self_s", _S, "lower", _self("compile.key")),
    ("memo.lookup.calls", _COUNT, "lower", _calls("memo.lookup")),
    ("memo.hit_ratio", _RATIO, "higher", _counter("memo.hit_ratio")),
    ("memo.store.self_s", _S, "lower", _self("memo.store")),
    ("memo.evictions", _COUNT, "lower", _counter("memo.evictions")),
    ("runtime.submit.self_s", _S, "lower", _self("runtime.submit")),
    ("runtime.on_task_done.self_s", _S, "lower", _self("runtime.on_task_done")),
    ("runtime.wait_on.wait_s", _S, "lower", _self("runtime.wait_on")),
    ("rt.request_p99_ms", "ms", "lower", _counter("rt.request_p99_ms")),
    ("sim_makespan_s", _S, "lower", _counter("sim_makespan_s")),
    ("sim_window_latency_max_s", _S, "lower", _counter("sim_window_latency_max_s")),
    ("trace.overhead_share", _RATIO, "lower", _counter("trace.overhead_share")),
    ("trace.unattributed_s", _S, "lower", _counter("trace.unattributed_s")),
]


#: The thread that drives the load; the runtime pool's threads overlap it.
LOAD_THREAD = "MainThread"


def per_iteration(tracer: Tracer, iterations: int) -> Dict[str, LayerStats]:
    """Span totals across all threads, divided by the traced iteration count."""
    merged = tracer.layer_totals()
    for stats in merged.values():
        stats.calls = stats.calls / iterations
        stats.total_s /= iterations
        stats.self_s /= iterations
        stats.items = stats.items / iterations
    return merged


def metrics(spans: Dict[str, LayerStats], counters: Dict[str, float]) -> Dict[str, dict]:
    return {
        name: {"value": derive(spans, counters), "unit": unit}
        for name, unit, _better, derive in PER_LAYER
    }


def table(
    tracer: Tracer, iterations: int, traced_wall_s: float
) -> Tuple[List[str], float, List[str]]:
    """The per-layer cost table of one traced run, per traced iteration.

    Returns (lines, unattributed seconds on the load thread, problems).
    Self times on the load-driving thread plus its unattributed remainder
    add up to the traced wall time; worker-thread layers are listed apart
    because they overlap it.
    """
    lines: List[str] = []
    problems: List[str] = []
    groups = {
        "load thread": tracer.layer_totals(lambda name: name == LOAD_THREAD),
        "worker threads": tracer.layer_totals(lambda name: name != LOAD_THREAD),
    }
    header = f"  {'layer':<26}{'calls':>12}{'total_s':>11}{'self_s':>11}{'share':>8}"
    unattributed = 0.0
    for group_name, layers in groups.items():
        if not layers:
            continue
        lines.append(f"{group_name}:")
        lines.append(header)
        self_sum = 0.0
        for layer, stats in sorted(layers.items(), key=lambda kv: -kv[1].self_s):
            self_s = stats.self_s / iterations
            self_sum += self_s
            if self_s < -1e-6:
                problems.append(f"layer {layer} has negative self time {self_s:.6f} s")
            lines.append(
                f"  {layer:<26}{stats.calls / iterations:>12.0f}"
                f"{stats.total_s / iterations:>11.4f}{self_s:>11.4f}"
                f"{self_s / traced_wall_s:>8.1%}"
            )
        if group_name == "load thread":
            unattributed = traced_wall_s - self_sum
            lines.append(
                f"  {'(unattributed)':<26}{'':>12}{'':>11}{unattributed:>11.4f}"
                f"{unattributed / traced_wall_s:>8.1%}"
            )
            lines.append(
                f"  reconciliation: sum of self {self_sum:.4f} s + unattributed "
                f"{unattributed:.4f} s = traced wall {traced_wall_s:.4f} s"
            )
            if unattributed < -1e-3:
                problems.append(
                    f"layer self times ({self_sum:.4f} s) exceed the traced wall "
                    f"time ({traced_wall_s:.4f} s)"
                )
        else:
            lines.append(
                f"  sum of worker self time {self_sum:.4f} s "
                "(runtime pool, concurrent with the load thread)"
            )
    return lines, unattributed, problems
