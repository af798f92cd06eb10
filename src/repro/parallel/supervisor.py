"""The supervising dispatcher behind :meth:`SweepExecutor.map`.

The old executor pushed cells through ``ProcessPoolExecutor.map`` and
treated every process-level failure as fatal: one worker death
(``BrokenProcessPool``) discarded all parallel progress, a task
exception aborted the sweep, and a hung worker stalled it forever.
This module replaces that with a small supervised pool built directly
on ``multiprocessing``:

- each worker is a fork-spawned process with its own duplex pipe, so
  the supervisor always knows *which* cell a worker is running and can
  kill exactly that worker;
- cells are dispatched one at a time to idle workers (no queued
  batches), which makes a wall-clock deadline per cell meaningful: a
  cell that outlives ``cell_timeout`` gets its worker killed by the
  watchdog and is retried;
- a worker death costs one attempt for the cell it was running and one
  respawn from a bounded budget; when the budget is gone the remaining
  cells finish serially in the parent (determinism makes that safe);
- a cell that keeps failing is **quarantined** into a structured
  :class:`CellFailure` instead of aborting the sweep -- an attempt that
  repeats the previous attempt's exception verbatim is treated as
  deterministic and quarantined early, without burning the rest of its
  retry budget;
- ``SIGINT``/``SIGTERM`` trigger a graceful drain: no new cells are
  dispatched, in-flight cells finish and flush their checkpoints, and
  :class:`SweepInterrupted` carries the partial results out (a second
  signal aborts immediately).

Exactly-once delivery: results are delivered (``on_result`` fired) in
input order, each cell at most once, across every recovery path --
pool restarts, the serial tail after restart-budget exhaustion, and
interrupt drains all consult the same per-cell ``done``/``delivered``
state, so a checkpoint can never be written twice for one cell.
"""

import logging
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection

from repro.obs import MetricsSink, use_sink
from repro.obs import metrics as _obs

logger = logging.getLogger(__name__)

#: Upper bound on one supervisor wait (seconds): how stale a pending
#: drain signal or an expired cell deadline can go unnoticed.  Only the
#: idle parent polls at this rate; workers never see it.
_TICK = 0.25

#: Default retry budget per cell beyond its first attempt.
DEFAULT_MAX_CELL_RETRIES = 2

_DRAIN_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@dataclass(frozen=True)
class CellFailure:
    """A quarantined sweep cell: what failed, how, and how hard we tried.

    Sweeps return these inline (at the failed cell's position in the
    results list) instead of aborting, unless ``strict`` asked
    otherwise.  ``key`` is the cell's experiment-store cache key when
    the sweep was store-backed, so a resumed run can recompute exactly
    the quarantined cells.
    """

    index: int
    item: str
    error: str
    kind: str  # "exception" | "timeout" | "worker_death"
    attempts: int
    elapsed: float
    key: str = None

    def as_dict(self):
        """Plain-JSON form (ledger entries, ``--json`` failure records)."""
        return {
            "status": "failed",
            "index": self.index,
            "item": self.item,
            "error": self.error,
            "kind": self.kind,
            "attempts": self.attempts,
            "elapsed": round(self.elapsed, 6),
            "key": self.key,
        }


class SweepCellError(Exception):
    """Raised under ``strict=True`` when a cell is quarantined."""

    def __init__(self, failure):
        self.failure = failure
        super().__init__(
            f"sweep cell {failure.index} failed after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )


class SweepInterrupted(Exception):
    """A drain signal ended the sweep; partial results ride along.

    ``results`` is full-length, with ``None`` at never-completed cells;
    ``failures`` lists the cells quarantined before the interrupt;
    ``completed`` is the number of finished cells (successes plus
    quarantines).  Everything completed was already delivered --
    checkpoints for in-flight cells flushed before this was raised.
    """

    def __init__(self, results, failures, completed):
        self.results = results
        self.failures = failures
        self.completed = completed
        super().__init__(
            f"sweep interrupted: {completed}/{len(results)} cells completed"
        )


def _describe(exc):
    """Stable one-line description of an exception, for retry matching."""
    return f"{type(exc).__name__}: {exc}"


def _call_on_result(on_result, index, item, result):
    """Fire a result callback without letting it kill the sweep.

    Observers must not be able to abort the computation they observe:
    a raising callback is logged and skipped.
    """
    try:
        on_result(index, item, result)
    except Exception:
        logger.exception(
            "on_result callback raised for sweep item %d; continuing", index
        )


def _worker_main(conn, task, metered, chaos):
    """One pool worker: recv (index, item, attempt), send the outcome.

    The parent owns interrupt handling -- a drain must let workers
    finish their in-flight cell -- so workers ignore ``SIGINT`` and
    leave ``SIGTERM`` at the default (the supervisor only ever uses
    ``SIGKILL``, which cannot be masked).

    Outcome messages (always a 4-tuple, first element the kind):

    - ``("ok", index, result, snapshot)`` -- success;
    - ``("error", index, description, snapshot)`` -- the task (or a
      chaos injector) raised;
    - ``("unpicklable", index, description, snapshot)`` -- the result
      would not cross the process boundary (pickling happens before any
      bytes hit the pipe, so the channel stays intact).

    Workers pin ``REPRO_JOBS=1``, so a verdict inside a cell replays
    serially and never forks a child of its own.
    """
    os.environ["REPRO_JOBS"] = "1"
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, item, attempt = message
        snapshot = None
        try:
            if chaos is not None:
                chaos.inject(index, attempt)
            if metered:
                with use_sink(MetricsSink()) as sink:
                    result = task(item)
                snapshot = sink.snapshot()
            else:
                result = task(item)
        except Exception as exc:
            outcome = ("error", index, _describe(exc), snapshot)
        else:
            outcome = ("ok", index, result, snapshot)
        try:
            conn.send(outcome)
        except Exception as exc:
            # Only the result itself can fail to pickle; the fallback
            # message is plain strings and must go through.
            conn.send(("unpicklable", index, _describe(exc), snapshot))


class _Worker:
    """Supervisor-side handle: the process, its pipe, and its cell."""

    __slots__ = ("process", "conn", "index", "started")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.index = None  # cell currently running, or None when idle
        self.started = None  # time.monotonic() at dispatch

    def kill(self):
        try:
            self.process.kill()
        except Exception:  # pragma: no cover - already reaped
            pass
        self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class Supervision:
    """One supervised sweep: state machine over cells and workers.

    Single-use: construct, call :meth:`run`, discard.  The caller (the
    executor) decides whether the pool path applies at all; with
    ``workers <= 1`` everything runs serially in-parent, with the same
    quarantine, drain, and exactly-once semantics (but no chaos and no
    watchdog -- both need process isolation).
    """

    def __init__(
        self,
        task,
        items,
        *,
        workers,
        on_result=None,
        cell_timeout=None,
        max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
        strict=False,
        chaos=None,
        max_worker_restarts=None,
    ):
        self.task = task
        self.items = items
        self.workers = workers
        self.on_result = on_result
        self.cell_timeout = cell_timeout
        self.max_cell_retries = max(0, int(max_cell_retries))
        self.strict = strict
        self.chaos = chaos
        if max_worker_restarts is None:
            max_worker_restarts = max(8, 2 * workers)
        self.max_worker_restarts = max_worker_restarts

        n = len(items)
        self.results = [None] * n
        self.done = [False] * n
        self.delivered = [False] * n
        self.attempts = [0] * n
        self.spent = [0.0] * n  # cumulative wall-clock across attempts
        self.last_error = [None] * n
        self.pending = deque(range(n))
        self.prefix = 0  # next index due for in-order delivery
        self.failures = []
        self.restarts_used = 0
        self.serial_rest = False  # pool gave up; parent finishes the tail
        self.interrupted = False
        self._old_handlers = {}
        self._publish_restart_budget()

    def _publish_restart_budget(self):
        """Remaining worker-restart budget as a gauge -- an operator
        watching a long sweep sees the budget drain before it runs out."""
        if _obs.ENABLED:
            _obs.SINK.set_gauge(
                "parallel.restart_budget_remaining",
                max(self.max_worker_restarts - self.restarts_used, 0),
            )

    # -- signal plumbing ------------------------------------------------

    def _install_signals(self):
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in _DRAIN_SIGNALS:
            try:
                self._old_handlers[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _restore_signals(self):
        for signum, handler in self._old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._old_handlers = {}

    def _on_signal(self, signum, frame):
        if self.interrupted:
            # Second signal: the operator means it.  Die loudly.
            raise KeyboardInterrupt
        self.interrupted = True
        logger.warning(
            "signal %d: draining sweep (in-flight cells will finish; "
            "signal again to abort immediately)", signum,
        )

    # -- shared bookkeeping ---------------------------------------------

    def _inc(self, name):
        if _obs.ENABLED:
            _obs.SINK.inc(name)

    def _quarantine(self, index, error, kind):
        failure = CellFailure(
            index=index,
            item=repr(self.items[index])[:200],
            error=error,
            kind=kind,
            attempts=self.attempts[index],
            elapsed=self.spent[index],
        )
        self._inc("parallel.cells_quarantined")
        if self.strict:
            raise SweepCellError(failure)
        logger.warning(
            "quarantined sweep cell %d after %d attempt(s): %s",
            index, failure.attempts, error,
        )
        self.results[index] = failure
        self.done[index] = True
        self.failures.append(failure)

    def _attempt_failed(self, index, error, kind):
        """One attempt went bad: retry the cell or quarantine it."""
        self.attempts[index] += 1
        deterministic = kind == "exception" and self.last_error[index] == error
        self.last_error[index] = error
        if deterministic or self.attempts[index] > self.max_cell_retries:
            self._quarantine(index, error, kind)
            return
        self._inc("parallel.cell_retries")
        logger.info(
            "retrying sweep cell %d (attempt %d failed: %s)",
            index, self.attempts[index], error,
        )
        # Retry ahead of fresh cells: in-order delivery stalls on the
        # earliest unfinished index, so clearing it first keeps the
        # checkpoint stream moving.
        self.pending.appendleft(index)

    def _deliver(self):
        """Fire callbacks for the contiguous done-prefix, exactly once."""
        n = len(self.items)
        while self.prefix < n and self.done[self.prefix]:
            self._fire(self.prefix)
            self.prefix += 1

    def _fire(self, index):
        if self.delivered[index]:
            return
        self.delivered[index] = True
        result = self.results[index]
        if self.on_result is not None and not isinstance(result, CellFailure):
            _call_on_result(self.on_result, index, self.items[index], result)

    def _flush_completed(self):
        """Drain epilogue: deliver every finished cell, prefix or not.

        An interrupt can leave completed cells stranded behind a gap
        (an unfinished earlier index); their checkpoints must still
        flush before the partial results go back to the caller.
        """
        for index in range(len(self.items)):
            if self.done[index]:
                self._fire(index)

    # -- the pool -------------------------------------------------------

    def _spawn(self, ctx):
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.task, self._metered, self.chaos),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _worker_died(self, worker, pool, now):
        """EOF / send failure on a worker's pipe: account and respawn."""
        self._inc("parallel.worker_deaths")
        worker.process.join(timeout=5)
        exitcode = worker.process.exitcode
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        index = worker.index
        if index is not None:
            self.spent[index] += now - worker.started
            self._attempt_failed(
                index, f"worker died (exit code {exitcode})", "worker_death"
            )
        pool.remove(worker)
        self.restarts_used += 1
        self._publish_restart_budget()
        if self.restarts_used <= self.max_worker_restarts:
            logger.warning(
                "sweep worker died (exit code %s); respawning (%d/%d restarts)",
                exitcode, self.restarts_used, self.max_worker_restarts,
            )
            pool.append(self._spawn(self._ctx))
        elif not pool:
            logger.error(
                "sweep worker restart budget exhausted; finishing the "
                "remaining cells serially in the parent"
            )
            self.serial_rest = True

    def _dispatch(self, pool):
        if self.interrupted or self.serial_rest:
            return
        for worker in list(pool):
            if worker.index is not None or not self.pending:
                continue
            index = self.pending.popleft()
            try:
                worker.conn.send((index, self.items[index], self.attempts[index]))
            except (BrokenPipeError, OSError):
                # Died while idle; the cell was never attempted, so it
                # goes back unpunished.
                self.pending.appendleft(index)
                self._worker_died(worker, pool, time.monotonic())
                continue
            worker.index = index
            worker.started = time.monotonic()

    def _handle_message(self, worker, pool):
        now = time.monotonic()
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker, pool, now)
            return
        kind, index, payload, snapshot = message
        if worker.index != index:  # pragma: no cover - defensive
            logger.error("worker answered for cell %s while running %s",
                         index, worker.index)
        self.spent[index] += now - worker.started
        worker.index = None
        worker.started = None
        if snapshot is not None:
            # Null-safe when metrics were disabled mid-sweep.
            _obs.SINK.merge(snapshot)
        if kind == "ok":
            self.results[index] = payload
            self.done[index] = True
        elif kind == "error":
            self._attempt_failed(index, payload, "exception")
        else:  # "unpicklable"
            logger.warning(
                "sweep result for cell %d would not cross the process "
                "boundary (%s); finishing the remaining cells serially",
                index, payload,
            )
            self.pending.appendleft(index)
            self.serial_rest = True

    def _check_timeouts(self, pool, now):
        if self.cell_timeout is None:
            return
        for worker in list(pool):
            if worker.index is None or now - worker.started < self.cell_timeout:
                continue
            index = worker.index
            self._inc("parallel.cell_timeouts")
            logger.warning(
                "sweep cell %d exceeded its %.3gs wall-clock timeout; "
                "killing its worker", index, self.cell_timeout,
            )
            self.spent[index] += now - worker.started
            worker.kill()
            pool.remove(worker)
            # A watchdog kill is the supervisor's own doing: it charges
            # the cell an attempt but not the worker-restart budget
            # (timeouts are already bounded by per-cell retries, and a
            # sweep of slow cells must not degrade to the serial path,
            # where no watchdog can save it).
            self._attempt_failed(
                index,
                f"TimeoutError: cell exceeded {self.cell_timeout}s wall clock",
                "timeout",
            )
            pool.append(self._spawn(self._ctx))

    def _wait_timeout(self, busy, now):
        timeout = _TICK
        if self.cell_timeout is not None:
            for worker in busy:
                remaining = worker.started + self.cell_timeout - now
                timeout = min(timeout, max(remaining, 0.0))
        return timeout

    def _run_pool(self):
        self._ctx = multiprocessing.get_context("fork")
        self._metered = _obs.ENABLED
        pool = [self._spawn(self._ctx) for _ in range(self.workers)]
        try:
            while not self.serial_rest:
                self._dispatch(pool)
                busy = [w for w in pool if w.index is not None]
                if not busy:
                    if self.pending and not self.interrupted:
                        # Workers all gone and none respawnable.
                        self.serial_rest = True
                    break
                now = time.monotonic()
                ready = connection.wait(
                    [w.conn for w in busy], self._wait_timeout(busy, now)
                )
                ready = set(ready)
                for worker in busy:
                    if worker.conn in ready:
                        self._handle_message(worker, pool)
                self._check_timeouts(pool, time.monotonic())
                self._deliver()
        finally:
            self._shutdown(pool)

    def _shutdown(self, pool):
        for worker in pool:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in pool:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover
                    pass

    # -- the serial path -------------------------------------------------

    def _finish_serial(self):
        """Run every unfinished cell in-parent, honouring drain signals.

        Used for ``jobs=1``, platforms without fork, unpicklable
        tasks/items/results, and the tail after the restart budget is
        gone.  No watchdog (a hung cell would hang a thread-less parent
        regardless) and no chaos (killing the parent is not a recovery
        scenario); exceptions still quarantine -- or propagate under
        ``strict``, preserving the historical serial behaviour of
        raising the original exception.
        """
        for index in range(len(self.items)):
            if self.interrupted:
                break
            if self.done[index]:
                continue
            started = time.monotonic()
            try:
                result = self.task(self.items[index])
            except Exception as exc:
                self.spent[index] += time.monotonic() - started
                if self.strict:
                    raise
                self.attempts[index] += 1
                self._quarantine(index, _describe(exc), "exception")
            else:
                self.spent[index] += time.monotonic() - started
                self.attempts[index] += 1
                self.results[index] = result
                self.done[index] = True
            self._deliver()

    # -- entry point -----------------------------------------------------

    def run(self, use_pool):
        self._install_signals()
        try:
            if use_pool:
                self._run_pool()
            if not self.interrupted:
                self._finish_serial()
            self._deliver()
            if self.interrupted:
                self._flush_completed()
                raise SweepInterrupted(
                    self.results, self.failures, sum(self.done)
                )
            return self.results
        finally:
            self._restore_signals()
