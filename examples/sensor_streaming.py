"""Streaming sensors across the continuum (§I/§III).

Run:  python examples/sensor_streaming.py

Three jittery edge sensors stream readings into a tumbling-window
operator that the dataflow plane lowers into window tasks on the fog/cloud
platform; per-window anomaly summaries stream out while the campaign runs,
and a live monitor prints them as they appear — the "results streamed out
for monitoring ... to enable interactivity" the paper motivates.  The same
campaign processed as an offline batch shows what fragmentation costs in
result freshness.
"""

from repro.core.graph import TaskGraph
from repro.executor import SimulatedExecutor
from repro.infrastructure import make_fog_platform
from repro.scheduling import DataLocationService, LoadBalancingPolicy
from repro.simulation import SimulationEngine
from repro.streams import (
    BatchCollector,
    DataflowPlane,
    DataStream,
    OperatorGraph,
    SensorSource,
)

CAMPAIGN_S = 120.0
WINDOW_S = 10.0


def anomaly_summary(values):
    mean = sum(values) / len(values)
    spikes = sum(1 for v in values if v > 1.5)
    return {"mean": round(mean, 3), "spikes": spikes, "n": len(values)}


def reading(seq, rng):
    base = 1.0 + 0.1 * (rng.random() - 0.5)
    # Occasional spikes (a misbehaving instrument).
    return base + (1.0 if rng.random() < 0.05 else 0.0)


def main():
    engine = SimulationEngine()
    platform = make_fog_platform(num_edge=3, num_fog=1, num_cloud=1)
    executor = SimulatedExecutor(
        TaskGraph(), platform, policy=LoadBalancingPolicy(), engine=engine,
        locations=DataLocationService(),
    )
    operators = OperatorGraph("monitoring")
    sources = [operators.source(f"edge-{index}") for index in range(3)]
    window = operators.tumbling_window(
        "anomalies", sources, WINDOW_S, compute_fn=anomaly_summary
    )
    for index, source in enumerate(operators.sources):
        SensorSource(
            engine, source.stream, name=source.name, period_s=1.0,
            jitter=0.2, until=CAMPAIGN_S, seed=index, reading_fn=reading,
        ).start(at=index * 0.1)

    # The "scientist's monitor": prints results the moment they stream out.
    print(f"Live monitor (window={WINDOW_S:.0f}s, campaign={CAMPAIGN_S:.0f}s):")
    window.output.subscribe(
        lambda element: print(
            f"  t={element.timestamp:7.2f}s  window result: {element.value.value}"
        )
    )

    plane = DataflowPlane(operators, executor, ingest_node="fog-0")
    plane.start()
    plane.close_sources_at(CAMPAIGN_S + 1e-6)
    engine.run()

    results = plane.results_of("anomalies")
    print(f"\nStreaming: {len(results)} window results, "
          f"mean freshness {plane.mean_latency('anomalies'):.2f}s")

    # The fragmented alternative: same campaign, one batch at the end.
    engine2 = SimulationEngine()
    platform2 = make_fog_platform(num_edge=3, num_fog=1, num_cloud=1)
    readings2 = DataStream("readings")
    for index in range(3):
        SensorSource(
            engine2, readings2, name=f"edge-{index}", period_s=1.0,
            jitter=0.2, until=CAMPAIGN_S, seed=index, reading_fn=reading,
        ).start(at=index * 0.1)
    batch = BatchCollector(
        engine2, platform2, readings2, "cloud-0",
        compute_fn=lambda elements: anomaly_summary([e.value for e in elements]),
    )
    batch.process_at(CAMPAIGN_S + 1e-6)
    engine2.run()
    print(
        f"Batch    : one result, oldest data {batch.result_latency:.0f}s stale "
        f"({batch.result.value})"
    )


if __name__ == "__main__":
    main()
