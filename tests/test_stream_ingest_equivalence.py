"""Equivalence of the batch-at-a-time ingest kernel with the per-element one.

``DataflowPlane._make_ingest`` runs each map/filter op over a whole batch
and buckets a batch that falls in one window with a single ``extend``.
``tests/reference/stream_ingest.py`` keeps the element-at-a-time body it
replaced.  Fed the same batches, both must leave the plane in exactly the
same state: window buffers (contents and order), counts, per-window
credit counts, late and ingested counters, the buffered level and its
high-water mark, and the valve grants.

The cases cover plain, keyed and join windows, batches that cross window
boundaries, late elements below ``next_index`` (as spilled re-admits
produce), batches filtered out entirely, and valved and unvalved inputs;
a NaN timestamp makes both raise.
Beyond the kernel, a whole hybrid campaign must digest identically under
either ingest, and a plane that seeds a multi-window backlog as one batch
must close the same windows as one attached before the sensor emitted.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graph import TaskGraph
from repro.executor.simulated import SimulatedExecutor
from repro.infrastructure import make_fog_platform
from repro.scheduling import DataLocationService, LoadBalancingPolicy
from repro.simulation import SimulationEngine
from repro.streams import (
    CreditValve,
    DataflowPlane,
    OperatorGraph,
    SensorSource,
    StreamElement,
)
from repro.streams.dataflow import _WindowRuntime
from repro.workloads import HybridStreamConfig, run_hybrid_stream
from tests.reference.stream_ingest import make_ingest as reference_ingest

MAPS = {
    "double": lambda v: v * 2.0,
    "shift": lambda v: v - 1.5,
    "square": lambda v: v * v,
}
FILTERS = {
    "nonneg": lambda v: v >= 0.0,
    "not3": lambda v: int(v) % 3 != 0,
    "none": lambda v: False,
    "all": lambda v: True,
    # A truthy non-bool result, as a filter may legally return.
    "int": lambda v: int(v),
}
OPS = [("map", name) for name in MAPS] + [("filter", name) for name in FILTERS]


def _key(v):
    return int(v) % 4


def _right_key(v):
    return int(v * 10) % 3


def _build(mode, op_specs, window_s, origin, valved):
    """One plane with a two-input window operator, not started.

    Returns the plane, its window runtime, and (node, valve, side) for
    each of the operator's two inputs.
    """
    operators = OperatorGraph("eq")
    chains, valves = [], []
    for i in range(2):
        valve = CreditValve(10**6) if valved else None
        valves.append(valve)
        chain = operators.source(f"s{i}", valve=valve)
        for j, (kind, name) in enumerate(op_specs[i]):
            table = MAPS if kind == "map" else FILTERS
            chain = getattr(chain, kind)(f"{kind}-{i}-{j}-{name}", table[name])
        chains.append(chain)
    if mode == "join":
        operators.keyed_join(
            "w", chains[0], chains[1], window_s,
            key_fn=_key, right_key_fn=_right_key,
            join_fn=lambda key, left, right: (key, len(left), len(right)),
        )
        sides = [0, 1]
    else:
        operators.tumbling_window(
            "w", chains, window_s, compute_fn=sum,
            key_fn=_key if mode == "keyed" else None,
        )
        sides = [None, None]
    # Ingestion touches only the plane's counters, never its executor.
    plane = DataflowPlane(
        operators, SimpleNamespace(engine=None), ingest_node="n0", start_at=origin
    )
    op = operators.window_nodes[0]
    runtime = _WindowRuntime(op, window_s)
    return plane, runtime, [
        (node, valve, side) for node, valve, side in zip(op.inputs, valves, sides)
    ]


def _ingests(plane, runtime, inputs, factory):
    callbacks = []
    for node, valve, side in inputs:
        _source, ops = plane.operators.chain_of(node)
        callbacks.append(factory(plane, runtime, ops, valve, side))
    return callbacks


def _state(plane, runtime, inputs):
    # Valves differ between the two planes; name them by input position.
    position = {id(valve): i for i, (_node, valve, _side) in enumerate(inputs)}
    return {
        # repr pins insertion order and float bits, not just equality.
        "buffers": repr(runtime.buffers),
        "counts": repr(runtime.counts),
        "credit_counts": repr(
            {
                index: [(position[id(valve)], n) for valve, n in per.items()]
                for index, per in runtime.credit_counts.items()
            }
        ),
        "late_elements": plane.late_elements,
        "elements_ingested": plane.elements_ingested,
        "buffered": plane._buffered,
        "buffered_high_water": plane.buffered_high_water,
        "valves": [
            None if valve is None else (valve.credits, valve.granted)
            for _node, valve, _side in inputs
        ],
    }


_op_chain = st.lists(st.sampled_from(OPS), max_size=3)

_batch = st.fixed_dictionaries(
    {
        "input": st.integers(min_value=0, max_value=1),
        # Jump next_index ahead first (windows closed meanwhile), so the
        # batch's older elements arrive late, like spilled re-admits.
        "advance": st.integers(min_value=0, max_value=3),
        "elements": st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0, 2.2]),
                st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=24,
        ),
    }
)


@settings(max_examples=300, deadline=None)
@example(
    # Every element filtered out: all credits return at once.
    mode="plain",
    op_specs=([("filter", "none")], []),
    window_s=1.0,
    origin=0.0,
    valved=True,
    batches=[{"input": 0, "advance": 0, "elements": [(0.3, 1.0)] * 5}],
)
@given(
    mode=st.sampled_from(["plain", "keyed", "join"]),
    op_specs=st.tuples(_op_chain, _op_chain),
    window_s=st.sampled_from([0.5, 1.0, 2.5]),
    origin=st.sampled_from([0.0, 1.25]),
    valved=st.booleans(),
    batches=st.lists(_batch, min_size=1, max_size=8),
)
def test_batch_kernel_matches_per_element_reference(
    mode, op_specs, window_s, origin, valved, batches
):
    kernel = _build(mode, op_specs, window_s, origin, valved)
    reference = _build(mode, op_specs, window_s, origin, valved)
    kernel_ingest = _ingests(*kernel, DataflowPlane._make_ingest)
    reference_ingests = _ingests(*reference, reference_ingest)
    timestamp = origin
    for spec in batches:
        batch = []
        for gap, value in spec["elements"]:
            timestamp += gap
            batch.append(StreamElement(timestamp, value))
        for _plane, runtime, _inputs in (kernel, reference):
            runtime.next_index += spec["advance"]
        kernel_ingest[spec["input"]](batch)
        reference_ingests[spec["input"]](batch)
        assert _state(*kernel) == _state(*reference)


def test_crossing_batch_splits_into_windows_and_counts_late():
    plane, runtime, inputs = _build("plain", ([], []), 1.0, 0.0, valved=True)
    ingest, _other = _ingests(plane, runtime, inputs, DataflowPlane._make_ingest)
    runtime.next_index = 2
    ingest([StreamElement(t, t) for t in (0.5, 1.5, 2.0, 2.5, 3.0, 4.9)])
    assert runtime.buffers == {2: [0.5, 1.5, 2.0, 2.5], 3: [3.0], 4: [4.9]}
    assert runtime.counts == {2: 4, 3: 1, 4: 1}
    assert plane.late_elements == 2
    assert [list(per.values()) for per in runtime.credit_counts.values()] == [
        [4], [1], [1],
    ]


@pytest.mark.parametrize(
    "factory",
    [DataflowPlane._make_ingest, reference_ingest],
    ids=["kernel", "reference"],
)
def test_nan_timestamp_inside_one_window_batch_raises(factory):
    # publish_batch admits NaN timestamps; the plane has no window for one,
    # even between two neighbours that share a window.
    plane, runtime, inputs = _build("plain", ([], []), 10.0, 0.0, valved=False)
    ingest, _other = _ingests(plane, runtime, inputs, factory)
    with pytest.raises(ValueError, match="NaN"):
        ingest([StreamElement(t, t) for t in (1.0, float("nan"), 2.0)])


def test_hybrid_campaign_identical_under_reference_ingest(monkeypatch):
    cfg = HybridStreamConfig(
        zones=2, sensors_per_zone=3, rate_hz=20.0, batch=16, window_s=2.0,
        duration_s=30.0, credits=24, overflow="spill",
    )
    kernel, _ = run_hybrid_stream(cfg)
    monkeypatch.setattr(DataflowPlane, "_make_ingest", reference_ingest)
    reference, _ = run_hybrid_stream(cfg)
    assert kernel["per_zone"] == reference["per_zone"]
    # The starved spill valves must have re-admitted late elements, or the
    # campaign did not exercise the split path.
    assert sum(z["spilled"] for z in kernel["per_zone"].values()) > 0


def _backlog_run(batch, attach_after_emission):
    """A map/filter/window pipeline whose sensor may publish before the
    plane attaches; returns (window records, plane)."""
    engine = SimulationEngine()
    executor = SimulatedExecutor(
        TaskGraph(),
        make_fog_platform(num_edge=0, num_fog=1, num_cloud=1),
        policy=LoadBalancingPolicy(),
        engine=engine,
        locations=DataLocationService(),
    )
    operators = OperatorGraph("flow")
    source = operators.source("sensor")
    chain = source.map("scale", lambda v: v * 10.0).filter(
        "qc", lambda v: v >= 9.8
    )
    operators.tumbling_window(
        "agg", [chain], 2.0, compute_fn=sum, duration_fn=lambda n: 0.001 * n
    )
    SensorSource(
        engine, source.stream, period_s=0.25, jitter=0.2, until=20.0,
        seed=7, batch=batch,
    ).start()
    plane = DataflowPlane(operators, executor, ingest_node="fog-0")
    if attach_after_emission:
        # The t=0 emission publishes the whole batch (timestamps spanning
        # several windows) before the plane exists.
        engine.run(until=0.0)
        assert len(source.stream) == batch
    plane.start()
    plane.close_sources_at(20.0 + 2.0)
    engine.run()
    records = [
        (r.window_start, r.window_end, r.completed_at, r.value, r.element_count,
         r.latency)
        for r in plane.results_of("agg")
    ]
    return records, plane


@pytest.mark.parametrize("batch", [40, 81])
def test_backlog_seeded_as_one_batch_matches_plane_attached_at_zero(batch):
    seeded, seeded_plane = _backlog_run(batch, attach_after_emission=True)
    attached, attached_plane = _backlog_run(batch, attach_after_emission=False)
    per_element, _ = _backlog_run(1, attach_after_emission=False)
    assert seeded == attached == per_element
    # The backlog spanned several 2 s windows (0.25 s period).
    assert batch * 0.25 > 4 * 2.0
    assert seeded_plane.stats() == attached_plane.stats()
