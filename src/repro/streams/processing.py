"""Stream processing results and the end-of-run batch baseline.

:class:`WindowResult` is what every window task produces.
:class:`BatchCollector` is the fragmented status quo — collect first,
compute after the campaign — whose result latency is the whole campaign
length.  Experiments E14 and E14b compare it with per-window results
streamed out while data keeps arriving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.infrastructure.platform import Platform
from repro.simulation.engine import SimulationEngine
from repro.streams.stream import DataStream, StreamElement


@dataclass(frozen=True)
class WindowResult:
    """Output of processing one window."""

    window_start: float
    window_end: float
    completed_at: float
    value: Any
    element_count: int

    @property
    def latency(self) -> float:
        """Freshness: produced-result age relative to the window close."""
        return self.completed_at - self.window_end

    @property
    def worst_element_latency(self) -> float:
        """Age of the *oldest* element when its result became available."""
        return self.completed_at - self.window_start


class BatchCollector:
    """The fragmented baseline: store everything, process once at the end."""

    def __init__(
        self,
        engine: SimulationEngine,
        platform: Platform,
        source: DataStream,
        node_name: str,
        compute_fn: Callable[[List[StreamElement]], Any],
        compute_time_fn: Optional[Callable[[List[StreamElement]], float]] = None,
    ) -> None:
        self.engine = engine
        self.platform = platform
        self.source = source
        self.node_name = node_name
        self.compute_fn = compute_fn
        self.compute_time_fn = compute_time_fn or (
            lambda elements: 0.05 * max(1, len(elements))
        )
        self.result: Optional[WindowResult] = None

    def process_at(self, at: float) -> None:
        """Schedule the single end-of-campaign batch job."""
        self.engine.at(at, self._run, label="batch-process")

    def _run(self) -> None:
        elements = self.source.elements
        node = self.platform.node(self.node_name)
        duration = self.compute_time_fn(elements) / node.speed_factor
        start = self.engine.now
        self.platform.energy.record_busy(self.node_name, start, start + duration, cores=1)

        def complete() -> None:
            value = self.compute_fn(elements)
            first = elements[0].timestamp if elements else start
            last = elements[-1].timestamp if elements else start
            self.result = WindowResult(
                window_start=first,
                window_end=last,
                completed_at=self.engine.now,
                value=value,
                element_count=len(elements),
            )

        self.engine.after(duration, complete, label="batch-complete")

    @property
    def result_latency(self) -> float:
        """Age of the earliest element when the batch result appeared."""
        if self.result is None:
            return float("inf")
        return self.result.worst_element_latency
