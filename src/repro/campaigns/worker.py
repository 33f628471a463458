"""Campaign worker processes: lease, simulate, report, heartbeat.

A worker is a plain ``multiprocessing.Process`` running
:func:`worker_loop`: it pulls ``(PointTask, attempt)`` items from its inbox,
runs each through :func:`run_task` and reports ``claim`` / ``done`` messages
on the shared outbox.  The ``claim`` message doubles as the heartbeat: the
scheduler stamps the lease deadline from it.

Workers receive only picklable plain data (frozen specs, integer seeds) and
never open the journal or the record store — all durable writes go through
the scheduler process, which keeps the on-disk state single-writer and
crash-consistent.

**Graceful shutdown.**  SIGTERM and SIGINT set a stop flag instead of
killing the process mid-task: the replication in flight runs to completion
and is reported, then the worker says ``bye`` and exits cleanly.  The
scheduler releases any leases a departed worker still held, so a Ctrl-C'd
campaign resumes without losing (or double-counting) work.

**Task lifecycle and fault injection.**  :func:`run_task` is the one task
lifecycle, shared by :func:`worker_loop` and the scheduler's inline
(``workers=1``) driver.  Three hook sites bracket it — ``worker.claim``
(after dequeue, before the claim), ``worker.task`` (before the simulation)
and ``worker.done`` (after the simulation, before the completion report).
Hook keys are attempt-stamped (``"<task_id>#<attempt>"``), so a chaos plan
can kill the first attempt of a task deterministically while letting its
retry through — fault budgets (``times=``) live in per-process memory and
do not survive the respawn.

**Backend degradation.**  :func:`~repro.ensemble.grid.execute_task` runs
the replication through :func:`repro.ensemble.runner.execute_replication`,
which walks the backend fallback chain; a degraded record carries
``backend`` and ``degraded_from`` so the JSONL store preserves what
actually ran.
"""

from __future__ import annotations

import queue as queue_module
import signal
from typing import Any, Callable, Dict, Optional

from repro.ensemble.grid import PointTask, execute_task
from repro.faults import installed_from_env, maybe_fire

__all__ = ["execute_task", "run_task", "worker_loop"]

#: Outbox message kinds (tuples keep the queue payloads picklable and tiny).
MSG_CLAIM = "claim"
MSG_DONE = "done"
MSG_BYE = "bye"


def run_task(
    task: PointTask,
    attempt: int,
    execute: Callable[[PointTask], Dict[str, Any]] = execute_task,
    claim: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """One task's lifecycle: claim, execute, return the record to report.

    ``claim`` announces the task (a worker posts its claim message; the
    inline driver has already leased it and passes nothing).  ``execute``
    is the replication executor the caller resolves, so a wrapper patched
    onto the caller's module sees every task.
    """
    fault_key = f"{task.task_id}#{attempt}"
    maybe_fire("worker.claim", key=fault_key)
    if claim is not None:
        claim()
    maybe_fire("worker.task", key=fault_key)
    record = execute(task)
    maybe_fire("worker.done", key=fault_key)
    return record


def worker_loop(worker_id: str, inbox, outbox) -> None:
    """Process tasks until a ``None`` sentinel (or a termination signal).

    Parameters
    ----------
    worker_id : str
        Stable name used in lease journal entries and outbox messages.
    inbox : multiprocessing.Queue
        This worker's private task queue (``(PointTask, attempt)`` pairs or
        ``None``).
    outbox : multiprocessing.Queue
        Shared result queue back to the scheduler.
    """
    # Re-resolve REPRO_FAULT_PLAN: under a spawn start method the parent's
    # installed plan is not inherited, and chaos must reach workers too.
    installed_from_env()

    stopping = []

    def request_stop(signum, frame):  # noqa: ARG001 - signal handler shape
        stopping.append(signum)

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)

    while True:
        if stopping:
            # Graceful exit: the task in flight (if any) already completed
            # and was reported; leases we still hold are released by the
            # scheduler when it sees the bye (or reaps the dead process).
            outbox.put((MSG_BYE, worker_id))
            return
        try:
            item = inbox.get(timeout=0.2)
        except queue_module.Empty:
            continue
        if item is None:
            outbox.put((MSG_BYE, worker_id))
            return
        task, attempt = item
        record = run_task(
            task, attempt, claim=lambda: outbox.put((MSG_CLAIM, worker_id, task.task_id))
        )
        outbox.put((MSG_DONE, worker_id, task.task_id, record))
