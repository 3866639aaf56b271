"""The benchmark's four workloads, driven through the program's public API.

Each workload turns a seed into inputs (:meth:`Workload.inputs`), runs one
iteration — set-up plus the measured run — and returns a :class:`Sample`
(:meth:`Workload.iterate`), and checks a sample's outputs
(:meth:`Workload.check`).  Iterations of one seed repeat the same inputs,
so every deterministic outcome must repeat bit for bit, traced or not.

``scale="tiny"`` shrinks every input so the smoke test runs in seconds.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import Runtime, compss_wait_on, task
from repro.executor import SimulatedExecutor
from repro.infrastructure import make_hpc_cluster
from repro.intelligence.memoization import TaskMemoizer
from repro.scheduling.locations import DataLocationService
from repro.scheduling.policies import LocalityPolicy
from repro.simulation.engine import SimulationEngine
from repro.streams.dataflow import DataflowPlane
from repro.streams.operators import BatchNode
from repro.workloads import (
    ChurnConfig,
    GuidanceConfig,
    HybridStreamConfig,
    build_guidance_workflow,
    run_churn_fleet,
    run_hybrid_stream,
)
import repro.workloads.hybrid_stream as hybrid_stream_module

from spans import Patches, Tracer

_clock = time.perf_counter


@dataclass
class Sample:
    """One iteration of a workload."""

    setup_s: float
    #: Wall time of the measured part (set-up excluded).
    run_s: float
    #: Work units done in ``run_s`` (the throughput numerator).
    work: float
    attempted: int
    failed: int
    #: Deterministic outcome: equal across iterations and tracing modes.
    outcome: Any
    #: Per-operation wall latencies in ms (requests; empty for campaigns).
    latencies_ms: List[float] = field(default_factory=list)
    #: Workload-specific end-to-end figures: name -> (value, unit).
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Simulated outcomes fixed by the inputs alone: a commit that changes
    #: one of them on the same inputs changed what the program computes
    #: (placement, window timing), not how fast.
    guards: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Layer counters the program reports itself (per_layer names).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Raw result the checks read.
    result: Any = None


class Workload:
    name = ""
    #: Whether the run scales this workload's timings by the reference
    #: kernel's host factor (see ``run.NOMINAL_KERNEL_S``).
    host_scaled = True

    def inputs(self, seed: int, scale: str) -> Any:
        raise NotImplementedError

    def iterate(self, inputs: Any, tracer: Optional[Tracer] = None) -> Sample:
        raise NotImplementedError

    def check(self, inputs: Any, sample: Sample) -> List[str]:
        """Problems with one sample's outputs (empty when correct)."""
        raise NotImplementedError


def _span(tracer: Optional[Tracer], layer: str, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(layer, fn, *args, **kwargs)


# ------------------------------------------------------------- guidance_dag


class GuidanceDag(Workload):
    """``repro simulate --workload guidance --policy locality``: 22
    chromosomes x 88 chunks (7.8k tasks) on 16 nodes of 48 cores, enough
    ready work to keep the queue long."""

    name = "guidance_dag"

    def inputs(self, seed: int, scale: str) -> Dict[str, Any]:
        if scale == "tiny":
            return {
                "config": GuidanceConfig(chromosomes=2, chunks_per_chromosome=6, seed=seed),
                "nodes": 2,
            }
        return {
            "config": GuidanceConfig(chromosomes=22, chunks_per_chromosome=88, seed=seed),
            "nodes": 16,
        }

    def _setup(self, inputs: Dict[str, Any]) -> SimulatedExecutor:
        workload = build_guidance_workflow(inputs["config"])
        platform = make_hpc_cluster(inputs["nodes"], cores_per_node=48)
        locations = DataLocationService()
        return SimulatedExecutor(
            workload.graph,
            platform,
            policy=LocalityPolicy(locations),
            locations=locations,
            initial_data=workload.initial_data,
        )

    def iterate(self, inputs: Dict[str, Any], tracer: Optional[Tracer] = None) -> Sample:
        start = _clock()
        executor = _span(tracer, "setup", self._setup, inputs)
        setup_s = _clock() - start
        start = _clock()
        report = _span(tracer, "executor", executor.run)
        run_s = _clock() - start
        tasks = len(executor.graph)
        return Sample(
            setup_s=setup_s,
            run_s=run_s,
            work=report.tasks_done,
            attempted=tasks,
            failed=tasks - report.tasks_done,
            outcome=(report.makespan, report.bytes_transferred, report.energy_joules),
            figures={"sim_tasks_per_s": (report.tasks_done / run_s, "1/s")},
            guards={"sim_makespan_s": (report.makespan, "s")},
            counters={
                "engine.events": executor.engine.dispatched_events,
                "setup.build_us_per_task": setup_s / tasks * 1e6,
            },
            result={"tasks": tasks, "done": report.tasks_done},
        )

    def check(self, inputs: Dict[str, Any], sample: Sample) -> List[str]:
        result = sample.result
        if result["done"] != result["tasks"]:
            return [f"guidance_dag: {result['done']} of {result['tasks']} tasks done"]
        return []


# ------------------------------------------------------------ sensor_stream


class SensorStream(Workload):
    """``run_hybrid_stream`` on the single engine: 2 zones x 8 sensors at
    50 Hz for 200 simulated seconds (200k ingested elements, 160 windows)."""

    name = "sensor_stream"

    def inputs(self, seed: int, scale: str) -> HybridStreamConfig:
        if scale == "tiny":
            return HybridStreamConfig(
                zones=2, sensors_per_zone=2, rate_hz=10.0, duration_s=30.0, seed=seed
            )
        return HybridStreamConfig(
            zones=2,
            sensors_per_zone=8,
            rate_hz=50.0,
            batch=16,
            window_s=5.0,
            duration_s=200.0,
            overflow="spill",
            seed=seed,
        )

    def iterate(self, cfg: HybridStreamConfig, tracer: Optional[Tracer] = None) -> Sample:
        # The zone programs build their platform, operator graph and plane
        # inside the engine's run; timing each factory call separates that
        # set-up from the campaign.
        setup_times: List[float] = []
        make_programs = hybrid_stream_module.make_hybrid_stream_programs

        def timed(factory):
            def setup(api):
                start = _clock()
                try:
                    return _span(tracer, "setup", factory, api)
                finally:
                    setup_times.append(_clock() - start)

            return setup

        # The planes are kept so the check can count, from the source
        # streams, what each zone's plane should have ingested.
        planes: List[DataflowPlane] = []
        plane_start = DataflowPlane.start

        def keep_plane(plane, *args, **kwargs):
            planes.append(plane)
            return plane_start(plane, *args, **kwargs)

        patches = Patches()
        patches.swap(
            hybrid_stream_module,
            "make_hybrid_stream_programs",
            lambda c: {zone: timed(f) for zone, f in make_programs(c).items()},
        )
        patches.swap(DataflowPlane, "start", keep_plane)
        try:
            start = _clock()
            result, stats = _span(tracer, "executor", run_hybrid_stream, cfg, engine="single")
            total_s = _clock() - start
        finally:
            patches.restore()
        setup_s = sum(setup_times)
        run_s = total_s - setup_s
        per_zone = result["per_zone"]
        result["streams"] = {plane.zone: _stream_counts(plane) for plane in planes}
        return Sample(
            setup_s=setup_s,
            run_s=run_s,
            work=result["stream_events"],
            attempted=result["produced"],
            failed=result["stream_dropped"],
            outcome=tuple((zone, z["outcome_crc32"]) for zone, z in per_zone.items()),
            figures={"stream_elements_per_s": (result["stream_events"] / run_s, "1/s")},
            guards={"sim_window_latency_max_s": (result["max_latency_s"], "s")},
            counters={
                "engine.events": result["events"],
                "stream.retained_high_water": result["retained_high_water"],
                "lane.windows": stats["windows"],
                "lane.widened_windows": stats["widened_windows"],
                "lane.messages": stats["messages"],
                "lane.coordinator_cpu_s": stats["coordinator_cpu_seconds"],
            },
            result=result,
        )

    def check(self, cfg: HybridStreamConfig, sample: Sample) -> List[str]:
        problems = []
        result = sample.result
        for zone, z in result["per_zone"].items():
            # Every produced element was published, dropped, or is still
            # parked in the spill buffer (bounded by the spill writes).
            unaccounted = z["produced"] - z["emitted"] - z["dropped"]
            if not 0 <= unaccounted <= z["spilled"]:
                problems.append(
                    f"sensor_stream {zone}: produced {z['produced']} != emitted "
                    f"{z['emitted']} + dropped {z['dropped']} + spilled "
                    f"(<= {z['spilled']})"
                )
            published, delivered = result["streams"][zone]
            if z["emitted"] != published:
                problems.append(
                    f"sensor_stream {zone}: sensors emitted {z['emitted']}, "
                    f"source streams published {published}"
                )
            if z["stream_events"] != delivered:
                problems.append(
                    f"sensor_stream {zone}: plane ingested {z['stream_events']}, "
                    f"its window inputs were published {delivered} elements"
                )
            if z["tasks_done"] != z["tasks_lowered"]:
                problems.append(
                    f"sensor_stream {zone}: {z['tasks_done']} of "
                    f"{z['tasks_lowered']} lowered tasks done"
                )
        if result["produced"] <= 0 or result["windows_closed"] <= 0:
            problems.append("sensor_stream: campaign produced no windows")
        return problems


def _stream_counts(plane: DataflowPlane) -> Tuple[int, int]:
    """(elements published on the plane's source streams, elements those
    streams delivered to window inputs), counted from the streams: an
    input's elements reach the plane once per window input it feeds (the
    join's two sides read sensors already in the window)."""
    operators = plane.operators
    published = sum(source.stream.total_published for source in operators.sources)
    delivered = sum(
        operators.chain_of(node)[0].stream.total_published
        for op in operators.window_nodes
        if not isinstance(op, BatchNode)
        for node in op.inputs
    )
    return published, delivered


# -------------------------------------------------------------- fleet_churn


class FleetChurn(Workload):
    """``run_churn_fleet``: 12.5k agents in 4 zones, 1%/s churn for 60
    simulated seconds, interest-scoped notification, persistence on."""

    name = "fleet_churn"

    def inputs(self, seed: int, scale: str) -> ChurnConfig:
        if scale == "tiny":
            return ChurnConfig(agents=400, zones=4, duration_s=10.0, seed=seed)
        return ChurnConfig(
            agents=12_500,
            zones=4,
            churn_per_s=0.01,
            duration_s=60.0,
            notification="interest",
            persistence=True,
            seed=seed,
        )

    def iterate(self, cfg: ChurnConfig, tracer: Optional[Tracer] = None) -> Sample:
        # run_churn_fleet builds the fleet, then drives one engine run: the
        # set-up ends when that run starts.
        run_entered: List[float] = []
        engine_run = SimulationEngine.run

        def run(engine, *args, **kwargs):
            run_entered.append(_clock())
            return engine_run(engine, *args, **kwargs)

        patches = Patches()
        patches.swap(SimulationEngine, "run", run)
        try:
            start = _clock()
            result = _span(tracer, "executor", run_churn_fleet, cfg, engine="single")
            end = _clock()
        finally:
            patches.restore()
        setup_s = run_entered[0] - start
        run_s = end - run_entered[0]
        useful = result["useful_events"]
        return Sample(
            setup_s=setup_s,
            run_s=run_s,
            work=useful,
            attempted=result["tasks_done"] + result["tasks_lost"],
            failed=result["tasks_lost"],
            outcome=tuple(
                (zone, z["outcome_crc32"]) for zone, z in result["per_zone"].items()
            ),
            figures={"churn_useful_events_per_s": (useful / run_s, "1/s")},
            counters={
                "engine.events": result["events"],
                "bus.down_notices": result["down_notices"],
                "bus.useful_ratio": useful / result["events"],
            },
            result=result,
        )

    def check(self, cfg: ChurnConfig, sample: Sample) -> List[str]:
        problems = []
        result = sample.result
        # One orchestrator per zone besides the workers: every death and
        # arrival shows in the live count.
        expected_alive = cfg.agents + cfg.zones + result["arrivals"] - result["deaths"]
        if result["alive_agents"] != expected_alive:
            problems.append(
                f"fleet_churn: {result['alive_agents']} agents alive, "
                f"expected {expected_alive} from arrivals and deaths"
            )
        if result["deaths"] <= 0 or result["tasks_done"] <= 0:
            problems.append("fleet_churn: no churn or no application work")
        return problems


# ------------------------------------------------------------ task_pipeline

#: Modulus of the leaf computation (a prime, so values spread).
_LEAF_MODULUS = 1_000_003
_LEAVES_PER_REQUEST = 8
_REPEAT_SHARE = 0.3


@task(returns=1, cache=True)
def score_chunk(a, b):
    return (a * 31 + b) % _LEAF_MODULUS


@task(returns=1, cache=True)
def reduce_scores(scores):
    return sum(scores)


def expected_value(request: Tuple[Tuple[int, int], ...]) -> int:
    """Pure-Python recomputation of one request's reduced value."""
    return sum((a * 31 + b) % _LEAF_MODULUS for a, b in request)


def _submit(request: Tuple[Tuple[int, int], ...]) -> Any:
    leaves = [score_chunk(a, b) for a, b in request]
    return compss_wait_on(reduce_scores(leaves))


class TaskPipeline(Workload):
    """A real ``@task`` program on the thread-pool runtime, one closed-loop
    client: 8 cached leaves and a reduce per request, 30% repeated requests
    served by the content-keyed memoizer.  Each iteration is one runtime
    serving 5,000 requests: about 31k distinct memo entries, so the
    memoizer's LRU (10k entries by default) evicts for most of it, as in a
    long-lived server."""

    name = "task_pipeline"
    #: The pipeline's speed does not follow the single-threaded reference
    #: kernel on a shared 2-CPU host: over 40 alternating 500-request chunks
    #: and kernel runs their times correlated 0.25, and dividing by the
    #: kernel widened the chunks' spread from 0.14 to 0.24 (IQR/median).
    host_scaled = False
    #: Warm-up request run during set-up (spawns workers, fills lazy state).
    WARMUP = tuple((i, i + 1) for i in range(_LEAVES_PER_REQUEST))
    #: Set-ups timed per iteration, all but the last runtime stopped again:
    #: an iteration takes seconds, so a run holds only two or three.
    SETUPS = 5

    def inputs(self, seed: int, scale: str) -> List[Tuple[Tuple[int, int], ...]]:
        count = 60 if scale == "tiny" else 5_000
        rng = random.Random(seed)
        requests: List[Tuple[Tuple[int, int], ...]] = []
        for _ in range(count):
            if requests and rng.random() < _REPEAT_SHARE:
                requests.append(requests[rng.randrange(len(requests))])
            else:
                requests.append(
                    tuple(
                        (rng.randrange(1 << 20), rng.randrange(1 << 20))
                        for _ in range(_LEAVES_PER_REQUEST)
                    )
                )
        return requests

    def _setup(self) -> Runtime:
        runtime = Runtime(workers=2, memoizer=TaskMemoizer())
        runtime.start()
        try:
            if _submit(self.WARMUP) != expected_value(self.WARMUP):
                raise AssertionError("task_pipeline: warm-up request returned a wrong value")
        except BaseException:
            runtime.stop(wait=False)
            raise
        return runtime

    def iterate(self, requests, tracer: Optional[Tracer] = None) -> Sample:
        setup_times = []
        for attempt in range(self.SETUPS):
            if attempt:
                runtime.stop()
            start = _clock()
            runtime = _span(tracer, "setup", self._setup)
            setup_times.append(_clock() - start)
        setup_s = statistics.median(setup_times)
        values: List[Optional[int]] = []
        latencies: List[float] = []
        failed = 0
        try:
            start = _clock()
            for request in requests:
                sent = _clock()
                try:
                    value = _span(tracer, "client", _submit, request)
                except Exception:  # a failed request counts, the loop goes on
                    value = None
                    failed += 1
                latencies.append((_clock() - sent) * 1e3)
                values.append(value)
            run_s = _clock() - start
        finally:
            runtime.stop()
        memo = runtime.memoizer.stats()
        tasks = len(requests) * (_LEAVES_PER_REQUEST + 1)
        ordered = sorted(latencies)
        return Sample(
            setup_s=setup_s,
            run_s=run_s,
            work=tasks,
            attempted=len(requests),
            failed=failed,
            outcome=tuple(values),
            latencies_ms=latencies,
            figures={
                "rt_tasks_per_s": (tasks / run_s, "1/s"),
                "rt_request_p50_ms": (percentile(ordered, 0.50), "ms"),
                "rt_request_p99_ms": (percentile(ordered, 0.99), "ms"),
            },
            counters={"memo.hit_ratio": memo["hit_rate"], "memo.evictions": memo["evictions"]},
            result=values,
        )

    def check(self, requests, sample: Sample) -> List[str]:
        problems = []
        for index, (request, value) in enumerate(zip(requests, sample.result)):
            if value != expected_value(request):
                problems.append(
                    f"task_pipeline: request {index} reduced to {value!r}, "
                    f"expected {expected_value(request)}"
                )
                if len(problems) >= 5:
                    break
        if len(sample.result) != len(requests):
            problems.append(
                f"task_pipeline: {len(sample.result)} results for {len(requests)} requests"
            )
        return problems


def percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (GuidanceDag(), SensorStream(), FleetChurn(), TaskPipeline())
}
