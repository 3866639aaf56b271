"""Execution backends (DESIGN.md S5/S6-facing).

Two backends share the scheduler and graph machinery:

* :class:`LocalExecutor` really runs Python callables on worker threads the
  runtime owns, with per-node core/memory accounting — the backend behind
  the public API;
* :class:`SimulatedExecutor` advances a discrete-event clock over task
  profiles — the substitute for the paper's physical testbeds.
"""

from repro.executor.local import LocalExecutor
from repro.executor.simulated import SimulatedExecutor, SimulationReport
from repro.executor.workflow_builder import SimWorkflowBuilder

__all__ = [
    "LocalExecutor",
    "SimulatedExecutor",
    "SimulationReport",
    "SimWorkflowBuilder",
]
