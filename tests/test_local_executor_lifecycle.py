"""Lifecycle of the local executor's runtime-owned worker threads.

Every case is bounded by a wall-clock timeout, so a lost wake-up or a
worker that never exits fails the test instead of hanging the suite.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

from repro import Runtime, compss_wait_on, task

TIMEOUT_S = 30
SRC = Path(__file__).resolve().parent.parent / "src"


def workers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("repro-worker")]


def bounded(fn, *args):
    """Run ``fn`` on a helper thread; fail if it does not return in time."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn(*args)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(TIMEOUT_S)
    assert not helper.is_alive(), f"{fn.__name__} did not return within {TIMEOUT_S}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


@task(returns=1)
def increment(x):
    return x + 1


class TestWorkerLifecycle:
    def test_stop_leaves_no_worker_thread(self):
        runtime = Runtime(workers=4).start()
        futures = [increment(i) for i in range(50)]
        assert bounded(compss_wait_on, futures) == list(range(1, 51))
        assert 1 <= len(workers_alive()) <= runtime.executor.pool_size
        bounded(runtime.stop)
        assert workers_alive() == []

    def test_workers_start_on_demand(self):
        # One task at a time needs one worker, however wide the pool.  A
        # second may start if a task is placed while the worker that ran
        # the previous one has not yet gone idle.
        with Runtime(workers=64, pool_size=64):
            for i in range(20):
                assert bounded(compss_wait_on, increment(i)) == i + 1
            assert 1 <= len(workers_alive()) <= 4
        assert workers_alive() == []

    def test_restart_spawns_fresh_workers(self):
        runtime = Runtime(workers=2)
        for _ in range(2):
            runtime.start()
            assert bounded(compss_wait_on, increment(1)) == 2
            bounded(runtime.stop)
            assert workers_alive() == []

    def test_concurrency_bounded_by_pool_and_cores(self):
        lock = threading.Lock()
        state = {"running": 0, "peak": 0}

        @task(returns=1)
        def tracked(x):
            with lock:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
            threading.Event().wait(0.002)
            with lock:
                state["running"] -= 1
            return x

        for workers, pool_size in ((4, 2), (2, 4)):
            state["peak"] = 0
            with Runtime(workers=workers, pool_size=pool_size):
                futures = [tracked(i) for i in range(60)]
                assert bounded(compss_wait_on, futures) == list(range(60))
            assert 1 <= state["peak"] <= min(workers, pool_size)

    def test_stop_without_wait_runs_placed_tasks(self):
        release = threading.Event()
        first_started = threading.Event()
        ran = []

        @task()
        def blocker():
            first_started.set()
            release.wait(TIMEOUT_S)
            ran.append("blocker")

        @task()
        def quick(i):
            ran.append(i)

        # Four cores, one worker: every task is placed, three wait unstarted.
        runtime = Runtime(workers=4, pool_size=1).start()
        blocker()
        assert first_started.wait(TIMEOUT_S)
        for i in range(3):
            quick(i)
        assert runtime.statistics()["tasks_running"] == 4
        assert ran == []
        stopper = threading.Thread(target=runtime.stop, kwargs={"wait": False})
        stopper.start()
        release.set()
        stopper.join(TIMEOUT_S)
        assert not stopper.is_alive()
        assert sorted(map(str, ran)) == ["0", "1", "2", "blocker"]
        assert workers_alive() == []

    def test_program_exiting_without_stop_terminates(self):
        script = textwrap.dedent(
            """
            import time
            from repro import Runtime, task

            @task()
            def slow():
                time.sleep(0.2)
                print("task finished", flush=True)

            Runtime(workers=2).start()
            slow()
            print("submitted", flush=True)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
        assert completed.returncode == 0, completed.stderr
        # The placed task still ran to completion at interpreter exit.
        assert completed.stdout.split() == ["submitted", "task", "finished"]
