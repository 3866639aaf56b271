"""Per-element windowed processor: the E14 / E14b "before" baseline.

The single-operator form the :class:`~repro.streams.dataflow.DataflowPlane`
replaced: it subscribes to one stream element by element, closes tumbling
windows on engine events and runs one processing task per window on a
platform node.  ``benchmarks/bench_streaming.py`` measures it as the
recorded per-element before point, and the stream tests and property
suites run it as the reference windowing semantics.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.infrastructure.platform import Platform
from repro.simulation.engine import SimulationEngine
from repro.streams.processing import WindowResult
from repro.streams.stream import DataStream, StreamElement


class WindowedProcessor:
    """Tumbling windows, one processing task per window.

    Processing occupies a core on ``node_name`` for
    ``compute_time_fn(elements)`` of virtual time (sequentialized per
    processor, like a dedicated stream worker), then publishes the result.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        platform: Platform,
        source: DataStream,
        output: DataStream,
        node_name: str,
        window_s: float,
        compute_fn: Callable[[List[StreamElement]], Any],
        compute_time_fn: Optional[Callable[[List[StreamElement]], float]] = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.engine = engine
        self.platform = platform
        self.source = source
        self.output = output
        self.node_name = node_name
        self.window_s = window_s
        self.compute_fn = compute_fn
        self.compute_time_fn = compute_time_fn or (
            lambda elements: 0.05 * max(1, len(elements))
        )
        self.results: List[WindowResult] = []
        self._pending: List[StreamElement] = []
        self._window_start = 0.0
        self._worker_free_at = 0.0
        self._started = False

    def start(self, at: float = 0.0) -> None:
        if self._started:
            raise RuntimeError("processor already started")
        self._started = True
        self._window_start = at
        self.source.subscribe(self._on_element)
        self.engine.at(
            at + self.window_s, self._close_window, label="window-close"
        )

    def _on_element(self, element: StreamElement) -> None:
        self._pending.append(element)

    def _close_window(self) -> None:
        window_start = self._window_start
        window_end = self.engine.now
        elements = self._pending
        self._pending = []
        self._window_start = window_end
        if elements:
            self._schedule_processing(elements, window_start, window_end)
        if not self.source.closed:
            self.engine.after(self.window_s, self._close_window, label="window-close")
        elif self.source.since(window_end):
            # Late elements after close: flush them as a final window.
            self.engine.after(self.window_s, self._close_window, label="window-close")

    def _schedule_processing(
        self, elements: List[StreamElement], window_start: float, window_end: float
    ) -> None:
        node = self.platform.node(self.node_name)
        duration = self.compute_time_fn(elements) / node.speed_factor
        start_at = max(self.engine.now, self._worker_free_at)
        finish_at = start_at + duration
        self._worker_free_at = finish_at
        self.platform.energy.record_busy(self.node_name, start_at, finish_at, cores=1)

        def complete() -> None:
            value = self.compute_fn(elements)
            result = WindowResult(
                window_start=window_start,
                window_end=window_end,
                completed_at=self.engine.now,
                value=value,
                element_count=len(elements),
            )
            self.results.append(result)
            self.output.publish(
                StreamElement(
                    timestamp=self.engine.now, value=result, source="windowed"
                )
            )

        self.engine.at(finish_at, complete, label="window-process")

    # ------------------------------------------------------------- metrics

    @property
    def mean_latency(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.latency for r in self.results) / len(self.results)

    @property
    def max_latency(self) -> float:
        return max((r.latency for r in self.results), default=0.0)
