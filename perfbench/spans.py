"""Outside-in span tracer for the workflow benchmark.

The tracer times calls into the program's layers without touching the
program: :meth:`Tracer.wrap` swaps a class attribute for a timing wrapper
and :meth:`Tracer.remove` puts every original back.  Spans live in memory
on per-thread stacks (the thread-pool runtime completes tasks on worker
threads), and each finished span adds its duration to its layer's total
and its duration minus its children's to the layer's self time, so self
times on one thread partition that thread's traced wall time exactly.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class LayerStats:
    """Totals of one layer on one thread."""

    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Work units reported by the wrapper's ``items`` callback (elements
        #: per batch, successful placements, ...).
        self.items = 0


class _ThreadState:
    __slots__ = ("name", "stack", "layers")

    def __init__(self, name: str) -> None:
        self.name = name
        # One mutable [child seconds] cell per open span.
        self.stack: List[List[float]] = []
        self.layers: Dict[str, LayerStats] = {}


class Tracer:
    """Per-layer call counts, total and self time, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self.patches = Patches()

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _record(
        self, state: _ThreadState, layer: str, cell: List[float], start: float, items: int
    ) -> None:
        duration = _clock() - start
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][0] += duration
        stats = state.layers.get(layer)
        if stats is None:
            stats = state.layers[layer] = LayerStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - cell[0]
        stats.items += items

    def call(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span of ``layer`` (explicit root spans)."""
        state = self._state()
        cell = [0.0]
        state.stack.append(cell)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(state, layer, cell, start, 0)

    def traced(
        self,
        fn: Callable,
        layer: str,
        items: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording one ``layer`` span per call.

        ``items(args, result)`` may report work units done by the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = tracer._state()
            cell = [0.0]
            state.stack.append(cell)
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = items(args, result) if items is not None else 0
                tracer._record(state, layer, cell, start, count)

        return wrapper

    def traced_generator(self, fn: Callable, layer: str) -> Callable:
        """Like :meth:`traced` for a generator function: one span per step."""
        tracer = self

        def steps(iterator):
            while True:
                state = tracer._state()
                cell = [0.0]
                state.stack.append(cell)
                start = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._record(state, layer, cell, start, 0)
                yield item

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            return steps(fn(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------- patching

    def wrap(
        self,
        owner: type,
        name: str,
        layer: str,
        items: Optional[Callable[[tuple, Any], int]] = None,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.name`` with a traced wrapper until :meth:`remove`."""
        original = owner.__dict__[name]
        if generator:
            wrapped = self.traced_generator(original, layer)
        else:
            wrapped = self.traced(original, layer, items)
        self.patches.swap(owner, name, wrapped)

    def remove(self) -> None:
        """Restore every wrapped method."""
        self.patches.restore()

    # ------------------------------------------------------------- reading

    def threads(self) -> List[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def layer_totals(
        self, thread: Optional[Callable[[str], bool]] = None
    ) -> Dict[str, LayerStats]:
        """Every layer summed across threads (those whose name ``thread``
        accepts, when given)."""
        merged: Dict[str, LayerStats] = {}
        for state in self.threads():
            if thread is not None and not thread(state.name):
                continue
            for layer, stats in state.layers.items():
                total = merged.get(layer)
                if total is None:
                    total = merged[layer] = LayerStats()
                total.calls += stats.calls
                total.total_s += stats.total_s
                total.self_s += stats.self_s
                total.items += stats.items
        return merged


class Patches:
    """Attribute swaps undone together, last swap first."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def swap(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
