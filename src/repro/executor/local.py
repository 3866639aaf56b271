"""Real execution backend: runtime-owned workers with capacity-aware dispatch.

This is the COMPSs worker layer collapsed into one process: logical nodes
still exist (the scheduler enforces their core/memory limits), but task
functions execute on threads sharing the interpreter, which is also how the
"single shared memory space" illusion of the paper trivially holds.

Threading model: the runtime's lock guards graph, ledger and the deque of
placed tasks that ``kick_locked`` (the only dispatch path) fills.  Idle
workers wait on their own condition of that lock, not on the clients'.
"""

from __future__ import annotations

import atexit
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.core.graph import TaskInstance
from repro.core.runtime import Runtime, mark_in_task
from repro.scheduling.scheduler import BlockedDemandFrontier

#: Started executors, shut down at interpreter exit: a program that ends
#: without ``Runtime.stop()`` still finishes its placed tasks.  Workers are
#: daemon threads because exit joins non-daemon threads before this hook.
_live: "set[LocalExecutor]" = set()


@atexit.register
def _shutdown_at_exit() -> None:
    for executor in list(_live):
        executor.shutdown()


class LocalExecutor:
    """Runs placed tasks on up to ``pool_size`` runtime-owned worker threads."""

    def __init__(
        self,
        runtime: Runtime,
        pool_size: Optional[int] = None,
        dispatch_window: int = 64,
    ) -> None:
        self.runtime = runtime
        if pool_size is None:
            pool_size = min(128, max(2, runtime.platform.total_cores))
        self.pool_size = pool_size
        # Stop scanning the ready queue after this many consecutive failed
        # placements: bounds each kick at O(placed + window) instead of
        # O(ready), which is what keeps a million-task submission loop from
        # re-walking the whole backlog on every submit.
        self.dispatch_window = dispatch_window
        # Workers wait on their own condition of the runtime's lock, so a
        # placement wakes a worker and never a client blocked in wait_on.
        self._wake = threading.Condition(runtime._lock)
        self._placed: Deque[TaskInstance] = deque()
        self._threads: List[threading.Thread] = []
        self._idle = 0  # workers waiting on _wake
        self._shutdown = True

    def start(self) -> None:
        self._shutdown = False
        _live.add(self)

    def shutdown(self) -> None:
        """Stop placing; the workers finish every placed task, then exit."""
        with self._wake:
            self._shutdown = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        _live.discard(self)

    def kick_locked(self) -> None:
        """Place ready tasks under capacity and queue them for the workers.

        Must be called with the runtime lock held.
        """
        if self._shutdown:
            return
        graph = self.runtime.graph
        scheduler = self.runtime.scheduler
        ledger = scheduler.ledger
        window = self.dispatch_window
        consecutive_failures = 0
        # Demands that failed for lack of capacity this pass.  The lock is
        # held, so capacity only shrinks while this pass allocates — any
        # demand needing at least as much as one that already failed cannot
        # become placeable before the pass ends, and skipping it collapses
        # blocked backlogs (even heterogeneous ones, e.g. per-task dynamic
        # memory) to one frontier comparison per task.
        blocked = BlockedDemandFrontier()
        for instance in graph.iter_ready():
            if ledger.total_free_cores <= 0:
                break
            req = instance.requirements
            if blocked.covers(req):
                consecutive_failures += 1
                if consecutive_failures >= window:
                    break
                continue
            nodes = scheduler.try_place(instance)
            if nodes is None:
                if scheduler.last_failure_was_capacity:
                    blocked.add(req)
                consecutive_failures += 1
                if consecutive_failures >= window:
                    break
                continue
            consecutive_failures = 0
            graph.mark_running(instance.task_id, nodes[0], now=self.runtime.now)
            instance.assigned_nodes = nodes
            self._placed.append(instance)
            # Like ThreadPoolExecutor, start a worker only when no idle
            # one is left to take the task, up to pool_size.
            if len(self._placed) > self._idle and len(self._threads) < self.pool_size:
                self._spawn_worker()
            self._wake.notify()

    # ------------------------------------------------------------ execution

    def _spawn_worker(self) -> None:
        name = f"repro-worker_{len(self._threads)}"
        thread = threading.Thread(target=self._work, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def _work(self) -> None:
        # A worker only ever runs tasks: a @task called from one runs inline.
        mark_in_task(True)
        placed = self._placed
        while True:
            try:
                instance = placed.popleft()
            except IndexError:
                with self._wake:
                    self._idle += 1
                    self._wake.wait_for(lambda: placed or self._shutdown)
                    self._idle -= 1
                    if not placed:
                        return
                continue
            self._run(instance)

    def _run(self, instance: TaskInstance) -> None:
        try:
            kwargs = self._materialize_arguments(instance)
            result = instance.fn(**kwargs)
        except BaseException as error:  # noqa: BLE001 - task code may raise anything
            self.runtime.on_task_failed(instance, error)
            return
        self.runtime.on_task_done(instance, result)

    @staticmethod
    def _materialize_arguments(instance: TaskInstance) -> Dict[str, Any]:
        """Substitute resolved futures into the task's keyword arguments."""
        kwargs = dict(instance.kwargs)
        copied_lists = set()
        for key, future in instance.future_args.items():
            value = future.value()  # producer finished: resolution is certain
            if isinstance(key, tuple):
                pname, index = key
                if pname not in copied_lists:
                    kwargs[pname] = list(kwargs[pname])
                    copied_lists.add(pname)
                kwargs[pname][index] = value
            else:
                kwargs[key] = value
        for pname in copied_lists:
            original = instance.kwargs[pname]
            if isinstance(original, tuple):
                # Tuples (and tuple-backed records: StreamElement,
                # namedtuples) keep their type, fields taken positionally.
                kwargs[pname] = tuple.__new__(type(original), kwargs[pname])
        return kwargs
