"""Persistent worker-pool campaign execution: warm workers, batched dispatch.

A per-call process pool (a fresh ``ProcessPoolExecutor`` inside each
``execute()``) pays its start-up cost per call, so a service-style chunked
campaign launch (small ``run_campaign`` slices between cooperative-cancel
checks, see :mod:`repro.service.jobs`) would re-pay process spawn,
interpreter start and the numpy/repro import for **every chunk**.  This
module removes that tax:

* a :class:`WorkerPool` owns **long-lived worker processes** that import
  repro once and stay warm across ``execute()`` calls, chunks, campaigns
  and (via :func:`shared_pool`) across every executor instance in the
  process — the service's job manager and the CLI lease the same pool;
* dispatch is **batched**: one pipe message carries a whole batch of run
  payloads (plus the worker callable, pickled once per batch), so IPC and
  pickling are amortised instead of paid per run;
* workers send **heartbeats** from a background thread; a worker silent
  past the liveness deadline (or whose process died) is terminated,
  respawned warm, and its in-flight runs are **requeued** — safe because
  run records are idempotent (the store keeps the last record per run id
  and :class:`repro.campaign.cache.ResultCache` writes are atomic);
* each worker has a bounded **capacity** of in-flight batches, so the next
  batch's IPC overlaps the current batch's compute without flooding a
  slow worker;
* when only a tail of runs remains, idle workers get **straggler
  re-dispatches** of the oldest in-flight runs; results are deduplicated
  per dispatch ticket — first completion wins, later duplicates are
  dropped.

The executor side, :class:`WorkerPoolExecutor`, registers as ``workers``
in the executor registry, so it is reachable from ``--executor workers``,
the service's ``executor`` option and
:func:`repro.campaign.scheduler.get_executor`.  Only one ``execute()``
drains a pool at a time; concurrent leases (e.g. several service jobs)
queue on the pool lock and run back to back.

Everything here is stdlib: ``multiprocessing`` pipes and processes, no
new dependencies.  The default start method is ``spawn`` — workers pay
one clean interpreter + import start-up when the pool first spins up
(that is the cost the pool exists to amortise) and never inherit the
parent's threads or locks, which matters because the campaign service
runs executors from background threads.  Fork-based pools are available
via ``start_method="fork"`` where supported.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.scheduler import (CampaignExecutor, RecordCallback,
                                      RunWorker, _attempt_run,
                                      default_pool_workers, register_executor)
from repro.campaign.store import RunRecord, STATUS_FAILED
from repro.telemetry import REGISTRY
from repro.utils.logging import get_logger

logger = get_logger(__name__)

_POOL_EVENTS = REGISTRY.counter(
    "repro_worker_pool_events_total",
    "Worker-pool lifecycle events (dispatches, results, requeues, "
    "stragglers, respawns), by event")

#: Default start method of worker processes.  ``spawn`` gives workers a
#: clean interpreter (no inherited threads/locks — safe under the threaded
#: campaign service) at the cost of one import pass per worker, paid once
#: per pool lifetime.  Overridable per pool/executor (tests use ``fork``).
DEFAULT_START_METHOD = "spawn"

#: Default per-worker capacity: batches a worker may hold at once.  Two
#: keeps one batch computing while the next waits in the pipe.
DEFAULT_CAPACITY = 2

#: Default straggler deadline (seconds): once the queue is drained, an
#: in-flight run older than this is re-dispatched to an idle worker.
DEFAULT_STRAGGLER_AFTER_S = 30.0

#: Default crash-requeue bound: how often one run may be requeued after
#: worker deaths before it is recorded as failed (guards against a run
#: that reliably kills its worker taking the pool down forever).
DEFAULT_MAX_REQUEUES = 2

#: Default worker heartbeat interval (seconds).
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

#: Default liveness deadline (seconds): a worker silent this long is
#: declared dead even if its process object still looks alive (wedged in
#: non-Python code).  Generous by default — workers heartbeat from a
#: dedicated thread, so ordinary long runs keep beating.
DEFAULT_LIVENESS_TIMEOUT_S = 30.0

#: Upper bound on concurrent dispatches of one ticket (the original plus
#: straggler duplicates).
_MAX_HOLDERS = 2


def default_batch_size(n_payloads: int, n_workers: int) -> int:
    """The auto-chosen dispatch batch size for one ``execute()`` call.

    Splits the payloads so every worker gets about two batches (capacity
    pipelining still has work to prefetch), clamped to ``[1, 16]`` so
    batches stay small enough for straggler re-dispatch and crash-requeue
    to matter.

    Args:
        n_payloads: number of runs in this lease.
        n_workers: workers in the pool.

    Returns:
        The batch size (``>= 1``).
    """
    if n_payloads <= 0:
        return 1
    per_worker = -(-n_payloads // max(1, n_workers) // 2) or 1
    return max(1, min(per_worker, 16))


# --------------------------------------------------------------------------- #
# the worker process
# --------------------------------------------------------------------------- #
def _worker_main(conn, heartbeat_interval: float) -> None:
    """Worker process entry point: heartbeat thread + batch loop.

    Receives ``("batch", lease, [(ticket, payload), ...], worker, retries,
    timeout)`` messages and answers one ``("result", lease, ticket,
    record)`` per payload as each run finishes, so the parent can account
    runs (and re-dispatch stragglers) at run granularity even though
    dispatch is batched.  All run-level failure capture lives in
    :func:`repro.campaign.scheduler._attempt_run` — a worker only dies on
    ``KeyboardInterrupt``/``SystemExit`` (which ``_attempt_run`` re-raises
    by contract) or on losing its pipe.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                with send_lock:
                    conn.send(("heartbeat", os.getpid()))
            except (OSError, ValueError, BrokenPipeError):
                return

    heartbeat = threading.Thread(target=beat, name="pool-heartbeat",
                                 daemon=True)
    heartbeat.start()
    try:
        with send_lock:
            conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, lease, batch, worker, retries, timeout = message
            for ticket, payload in batch:
                record = _attempt_run(payload, worker, retries, timeout)
                with send_lock:
                    conn.send(("result", lease, ticket, record))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """Parent-side bookkeeping of one worker process."""

    __slots__ = ("slot", "process", "conn", "last_seen", "ready", "dead",
                 "batches")

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.last_seen = time.monotonic()
        self.ready = False
        self.dead = False
        #: outstanding ticket-id sets, one per in-flight batch
        self.batches: List[Set[int]] = []

    def outstanding(self) -> Set[int]:
        """Every ticket currently dispatched to (and unanswered by) this worker."""
        tickets: Set[int] = set()
        for batch in self.batches:
            tickets |= batch
        return tickets

    def resolve(self, ticket: int) -> None:
        """Mark one ticket answered, freeing batch capacity when drained."""
        for batch in self.batches:
            batch.discard(ticket)
        self.batches = [batch for batch in self.batches if batch]

    @property
    def idle(self) -> bool:
        """Whether the worker has no batch in flight."""
        return not self.batches


class WorkerPool:
    """A pool of long-lived worker processes shared across campaign launches.

    The pool spawns lazily on the first :meth:`run` (so building an
    executor for validation never forks), keeps its workers warm until
    :meth:`shutdown`, and recovers from worker death by requeueing the
    dead worker's in-flight runs and respawning the worker.

    Thread safety: :meth:`run` holds an internal lock for its whole drain,
    so concurrent leases (several campaign jobs) are
    serialised — correctness over parallel drains; the workers themselves
    are the parallelism.

    Args:
        n_workers: number of worker processes (``>= 1``).
        start_method: multiprocessing start method (default
            :data:`DEFAULT_START_METHOD`).
        heartbeat_interval: seconds between worker heartbeats.
        liveness_timeout: seconds of silence after which a worker is
            declared dead and respawned.

    Raises:
        ValueError: on a non-positive ``n_workers`` or an unknown start
            method.
    """

    def __init__(self, n_workers: int,
                 start_method: Optional[str] = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_S,
                 liveness_timeout: float = DEFAULT_LIVENESS_TIMEOUT_S) -> None:
        if not isinstance(n_workers, int) or isinstance(n_workers, bool) \
                or n_workers < 1:
            raise ValueError(f"n_workers must be an integer >= 1, "
                             f"got {n_workers!r}")
        if heartbeat_interval <= 0 or liveness_timeout <= 0:
            raise ValueError("heartbeat_interval and liveness_timeout must "
                             "be positive")
        self.n_workers = n_workers
        self.start_method = start_method or DEFAULT_START_METHOD
        self.heartbeat_interval = float(heartbeat_interval)
        self.liveness_timeout = float(liveness_timeout)
        self._context = multiprocessing.get_context(self.start_method)
        self._lock = threading.RLock()
        self._workers: List[Optional[_Worker]] = [None] * n_workers
        self._started = False
        self._closed = False
        self._ticket_ids = itertools.count()
        self._lease_ids = itertools.count()
        self.counters: Dict[str, int] = {
            "dispatched_batches": 0, "dispatched_runs": 0, "results": 0,
            "duplicate_results_dropped": 0, "stale_results_dropped": 0,
            "requeued_runs": 0, "straggler_redispatches": 0, "respawns": 0,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a lifetime counter, mirroring it into the metrics registry."""
        self.counters[name] += amount
        _POOL_EVENTS.inc(amount, event=name)

    # -- lifecycle ---------------------------------------------------------- #
    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main, args=(child_conn, self.heartbeat_interval),
            name=f"campaign-worker-{slot}", daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(slot, process, parent_conn)
        self._workers[slot] = worker
        return worker

    def start(self) -> None:
        """Spawn any missing workers (idempotent; called by :meth:`run`).

        Raises:
            RuntimeError: if the pool was already shut down.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            for slot in range(self.n_workers):
                if self._workers[slot] is None:
                    self._spawn(slot)
            self._started = True

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Start the pool and wait until every worker reported ready.

        Used to warm the pool outside a timed section (benchmarks) — a
        campaign run does not need it, batches queue in the pipes.

        Args:
            timeout: seconds to wait before giving up.

        Returns:
            ``True`` if every worker is ready, ``False`` on timeout.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            self.start()
            while time.monotonic() < deadline:
                self._pump(block=0.05)
                self._reap_dead()
                if all(worker is not None and worker.ready
                       for worker in self._workers):
                    return True
            return False

    def worker_pids(self) -> List[Optional[int]]:
        """The workers' process ids, by slot (``None`` for unspawned slots)."""
        with self._lock:
            return [None if worker is None else worker.process.pid
                    for worker in self._workers]

    def stats(self) -> Dict[str, object]:
        """A JSON-able snapshot of the pool's lifetime counters."""
        with self._lock:
            return dict(self.counters, n_workers=self.n_workers,
                        start_method=self.start_method,
                        pids=[pid for pid in self.worker_pids()
                              if pid is not None])

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker (politely, then forcefully) and close the pipes.

        Args:
            timeout: seconds to wait for a worker to exit after the stop
                message before terminating it.
        """
        with self._lock:
            self._closed = True
            workers = [worker for worker in self._workers
                       if worker is not None]
            self._workers = [None] * self.n_workers
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- message pump ------------------------------------------------------- #
    def _pump(self, block: float = 0.0,
              lease: Optional["_Lease"] = None) -> None:
        """Drain every readable worker pipe, updating liveness + accounting."""
        workers = [worker for worker in self._workers if worker is not None]
        conns = [worker.conn for worker in workers if not worker.dead]
        if not conns:
            return
        try:
            readable = connection.wait(conns, timeout=block)
        except OSError:
            readable = []
        by_conn = {worker.conn: worker for worker in workers}
        for ready_conn in readable:
            worker = by_conn[ready_conn]
            while True:
                try:
                    if not ready_conn.poll():
                        break
                    message = ready_conn.recv()
                except (EOFError, OSError):
                    worker.dead = True
                    break
                # outside the try: an OSError raised by the record observer
                # (a failed store write) aborts the drain; it is not a
                # dead pipe
                self._handle(worker, message, lease)

    def _handle(self, worker: _Worker, message, lease: Optional["_Lease"]):
        worker.last_seen = time.monotonic()
        kind = message[0]
        if kind == "ready":
            worker.ready = True
        elif kind == "heartbeat":
            pass
        elif kind == "result":
            _, _, ticket, record = message
            worker.resolve(ticket)
            self._count("results")
            if lease is None or not lease.owns(ticket):
                self._count("stale_results_dropped")
                return
            lease.holders[ticket].discard(worker)
            if lease.is_done(ticket):
                # a straggler duplicate already answered this ticket
                self._count("duplicate_results_dropped")
                return
            lease.settle(ticket, record)
        else:  # pragma: no cover - future-proofing against protocol drift
            logger.warning("worker pool: unknown message kind %r", kind)

    def _reap_dead(self, lease: Optional["_Lease"] = None) -> None:
        """Respawn dead/hung workers, requeueing their in-flight runs."""
        now = time.monotonic()
        for slot in range(self.n_workers):
            worker = self._workers[slot]
            if worker is None:
                if self._started and not self._closed:
                    self._spawn(slot)
                continue
            hung = now - worker.last_seen > self.liveness_timeout
            if not (worker.dead or hung or not worker.process.is_alive()):
                continue
            orphans = worker.outstanding()
            logger.warning(
                "worker pool: worker %d (pid %s) %s with %d run(s) in "
                "flight; respawning", slot, worker.process.pid,
                "went silent" if hung and worker.process.is_alive()
                else "died", len(orphans))
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            self._workers[slot] = None
            if not self._closed:
                self._spawn(slot)
            self._count("respawns")
            if lease is not None:
                lease.drop_holder(worker, orphans)

    # -- the drain loop ----------------------------------------------------- #
    def run(self, payloads: Sequence[Dict[str, object]], worker: RunWorker,
            retries: int = 0, timeout: Optional[float] = None,
            on_record: Optional[RecordCallback] = None,
            batch_size: Optional[int] = None,
            capacity: int = DEFAULT_CAPACITY,
            straggler_after: Optional[float] = DEFAULT_STRAGGLER_AFTER_S,
            max_requeues: int = DEFAULT_MAX_REQUEUES) -> List[RunRecord]:
        """Execute the payloads on the warm pool; records in submission order.

        Implements the :class:`repro.campaign.scheduler.CampaignExecutor`
        contract (one record per payload, worker exceptions captured by
        :func:`repro.campaign.scheduler._attempt_run` inside the worker
        process, ``on_record`` fired once per finished record from this
        single coordinating thread) on top of batched pipe dispatch.

        Args:
            payloads: resolved run payloads (``RunSpec.payload()`` dicts).
            worker: picklable callable executing one payload.
            retries: per-run retries (applied inside the worker process).
            timeout: per-run cooperative wall-clock budget (seconds).
            on_record: observer invoked once per finished record.
            batch_size: payloads per dispatch message (default:
                :func:`default_batch_size`).
            capacity: in-flight batch limit per worker (``>= 1``).
            straggler_after: seconds after which a tail run is duplicated
                onto an idle worker (``None`` disables re-dispatch).
            max_requeues: crash-requeues per run before it is recorded
                failed.

        Returns:
            One :class:`repro.campaign.store.RunRecord` per payload, in
            submission order.

        Raises:
            RuntimeError: if the pool was shut down.
            ValueError: on invalid ``capacity``/``max_requeues``.
        """
        payloads = list(payloads)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        if not payloads:
            return []
        with self._lock:
            self.start()
            lease = _Lease(self, payloads, worker, retries, timeout,
                           on_record,
                           batch_size or default_batch_size(len(payloads),
                                                            self.n_workers),
                           capacity, straggler_after, max_requeues)
            return lease.drain()


class _Lease:
    """One ``run()``'s worth of drain state over a :class:`WorkerPool`.

    Tickets are pool-unique integers, one per submitted payload, so a
    duplicate ``run_id`` in the payload list still gets its own record and
    results arriving late from an earlier (aborted) lease can never be
    mistaken for this lease's runs.
    """

    def __init__(self, pool: WorkerPool, payloads, worker, retries, timeout,
                 on_record, batch_size, capacity, straggler_after,
                 max_requeues) -> None:
        self.pool = pool
        self.worker_fn = worker
        self.retries = retries
        self.timeout = timeout
        self.on_record = on_record
        self.batch_size = batch_size
        self.capacity = capacity
        self.straggler_after = straggler_after
        self.max_requeues = max_requeues
        self.id = next(pool._lease_ids)
        self.position_of: Dict[int, int] = {}
        self.payload_of: Dict[int, Dict[str, object]] = {}
        self.queue: deque = deque()
        for position, payload in enumerate(payloads):
            ticket = next(pool._ticket_ids)
            self.position_of[ticket] = position
            self.payload_of[ticket] = payload
            self.queue.append(ticket)
        self.records: Dict[int, RunRecord] = {}
        self.done: Set[int] = set()
        self.holders: Dict[int, Set[_Worker]] = {
            ticket: set() for ticket in self.position_of}
        self.first_dispatch: Dict[int, float] = {}
        self.requeues: Dict[int, int] = {}
        self.n_payloads = len(payloads)

    # -- accounting --------------------------------------------------------- #
    def owns(self, ticket: int) -> bool:
        """Whether a ticket belongs to this lease."""
        return ticket in self.position_of

    def is_done(self, ticket: int) -> bool:
        """Whether a ticket already has its record."""
        return ticket in self.done

    def settle(self, ticket: int, record: RunRecord) -> None:
        """Record a ticket's result and notify the observer exactly once."""
        self.done.add(ticket)
        self.records[self.position_of[ticket]] = record
        if self.on_record is not None:
            self.on_record(record)

    def drop_holder(self, worker: _Worker, orphans: Set[int]) -> None:
        """A worker died: requeue (or fail) its unanswered lease tickets."""
        for ticket in orphans:
            if not self.owns(ticket) or self.is_done(ticket):
                continue
            self.holders[ticket].discard(worker)
            if self.holders[ticket]:
                continue   # a straggler duplicate is still computing it
            self.requeues[ticket] = self.requeues.get(ticket, 0) + 1
            if self.requeues[ticket] > self.max_requeues:
                payload = self.payload_of[ticket]
                self.settle(ticket, RunRecord(
                    run_id=payload["run_id"], index=payload["index"],
                    params=dict(payload["params"]),
                    driver=payload["driver"],
                    n_steps=int(payload["n_steps"]), status=STATUS_FAILED,
                    attempts=self.requeues[ticket],
                    error=f"WorkerCrashError: worker died executing this "
                          f"run {self.requeues[ticket]} time(s); giving up"))
            else:
                self.pool._count("requeued_runs")
                self.queue.appendleft(ticket)

    # -- dispatch ----------------------------------------------------------- #
    def _send(self, worker: _Worker, tickets: List[int]) -> bool:
        """Ship one batch to one worker; False if the worker's pipe is gone."""
        batch = [(ticket, self.payload_of[ticket]) for ticket in tickets]
        try:
            worker.conn.send(("batch", self.id, batch, self.worker_fn,
                              self.retries, self.timeout))
        except (OSError, ValueError):
            worker.dead = True
            return False
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # the worker callable (or a payload) cannot cross the pipe —
            # an infrastructure failure, captured per record
            for ticket in tickets:
                if not self.is_done(ticket):
                    payload = self.payload_of[ticket]
                    self.settle(ticket, RunRecord(
                        run_id=payload["run_id"], index=payload["index"],
                        params=dict(payload["params"]),
                        driver=payload["driver"],
                        n_steps=int(payload["n_steps"]),
                        status=STATUS_FAILED, attempts=1,
                        error=f"DispatchError: {type(exc).__name__}: {exc}"))
            return True
        now = time.monotonic()
        worker.batches.append(set(tickets))
        for ticket in tickets:
            self.holders[ticket].add(worker)
            self.first_dispatch.setdefault(ticket, now)
        self.pool._count("dispatched_batches")
        self.pool._count("dispatched_runs", len(tickets))
        return True

    def _dispatch(self) -> None:
        """Fill idle worker capacity from the queue, batch by batch."""
        for worker in self.pool._workers:
            if worker is None or worker.dead:
                continue
            while self.queue and len(worker.batches) < self.capacity:
                tickets = []
                while self.queue and len(tickets) < self.batch_size:
                    ticket = self.queue.popleft()
                    if not self.is_done(ticket):
                        tickets.append(ticket)
                if not tickets:
                    break
                if not self._send(worker, tickets):
                    # pipe gone: put the batch back for the respawned worker
                    for ticket in reversed(tickets):
                        self.queue.appendleft(ticket)
                    break
            if not self.queue:
                break

    def _rescue_stragglers(self) -> None:
        """Duplicate the oldest tail runs onto idle workers (dedup by ticket)."""
        if self.straggler_after is None or self.queue:
            return
        idle = [worker for worker in self.pool._workers
                if worker is not None and not worker.dead and worker.idle]
        if not idle:
            return
        now = time.monotonic()
        candidates = sorted(
            (ticket for ticket in self.position_of
             if not self.is_done(ticket) and ticket in self.first_dispatch
             and now - self.first_dispatch[ticket] >= self.straggler_after
             and len(self.holders[ticket]) < _MAX_HOLDERS),
            key=lambda ticket: self.first_dispatch[ticket])
        for worker in idle:
            for ticket in candidates:
                if self.is_done(ticket) or worker in self.holders[ticket]:
                    continue
                if self._send(worker, [ticket]):
                    self.pool._count("straggler_redispatches")
                break

    def drain(self) -> List[RunRecord]:
        """Run the dispatch/pump/reap loop until every payload has a record."""
        tick = max(0.005, min(0.1, self.pool.heartbeat_interval / 2.0))
        while len(self.records) < self.n_payloads:
            self.pool._reap_dead(self)
            self._dispatch()
            self._rescue_stragglers()
            self.pool._pump(block=tick, lease=self)
        return [self.records[position] for position in range(self.n_payloads)]


# --------------------------------------------------------------------------- #
# shared pools
# --------------------------------------------------------------------------- #
_SHARED_POOLS: Dict[Tuple[int, str], WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(n_workers: Optional[int] = None,
                start_method: Optional[str] = None) -> WorkerPool:
    """The process-wide warm pool for a worker count (created on first use).

    Every :class:`WorkerPoolExecutor` that is not given an explicit pool
    leases from here, which is what keeps workers warm *across* executor
    instances: the service's job manager builds a fresh executor per
    campaign launch, the CLI builds one per invocation of ``campaign
    run`` — all of them reuse the same processes.

    Args:
        n_workers: pool size (default
            :func:`repro.campaign.scheduler.default_pool_workers`).
        start_method: multiprocessing start method (default
            :data:`DEFAULT_START_METHOD`).

    Returns:
        The shared :class:`WorkerPool` for ``(n_workers, start_method)``.
    """
    n_workers = n_workers or default_pool_workers()
    method = start_method or DEFAULT_START_METHOD
    with _SHARED_LOCK:
        pool = _SHARED_POOLS.get((n_workers, method))
        if pool is None or pool._closed:
            pool = WorkerPool(n_workers, start_method=method)
            _SHARED_POOLS[(n_workers, method)] = pool
        return pool


def shutdown_shared_pools(timeout: float = 5.0) -> None:
    """Shut down every shared pool (idempotent; registered via ``atexit``)."""
    with _SHARED_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown(timeout=timeout)


atexit.register(shutdown_shared_pools)


# --------------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------------- #
class WorkerPoolExecutor(CampaignExecutor):
    """Campaign executor backed by a persistent warm worker pool.

    Registered as ``workers``: ``get_executor("workers", max_workers=4)``,
    ``--executor workers`` on the CLI and the service's executor options
    all reach it.  Unless an explicit ``pool`` is passed, instances lease the
    process-wide :func:`shared_pool` of their worker count, so repeated
    ``execute()`` calls — and chunked service launches — reuse warm
    workers instead of re-spawning and re-importing per call.

    Args:
        max_workers: pool size (default
            :func:`repro.campaign.scheduler.default_pool_workers`).
        timeout: per-run cooperative wall-clock budget (seconds).
        retries: retries per failing run (inside the worker process).
        pool: explicit :class:`WorkerPool` to lease (tests, embedders);
            the caller owns its lifecycle.
        batch_size: payloads per dispatch message (default: auto).
        capacity: in-flight batch limit per worker.
        straggler_after: seconds before tail runs are duplicated onto
            idle workers (``None`` disables).
        max_requeues: crash-requeues per run before it is failed.
        start_method: start method of a lazily-leased shared pool.

    Attributes:
        last_stats: after :meth:`execute`, the pool counters this call
            added (dispatch/result/requeue/straggler/respawn counts).
    """

    name = "workers"

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 0,
                 pool: Optional[WorkerPool] = None,
                 batch_size: Optional[int] = None,
                 capacity: int = DEFAULT_CAPACITY,
                 straggler_after: Optional[float] = DEFAULT_STRAGGLER_AFTER_S,
                 max_requeues: int = DEFAULT_MAX_REQUEUES,
                 start_method: Optional[str] = None) -> None:
        super().__init__(max_workers=max_workers, timeout=timeout,
                         retries=retries)
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        if straggler_after is not None and straggler_after <= 0:
            raise ValueError("straggler_after must be positive (or None)")
        self._pool = pool
        self.batch_size = batch_size
        self.capacity = capacity
        self.straggler_after = straggler_after
        self.max_requeues = max_requeues
        self.start_method = start_method
        self.last_stats: Dict[str, object] = {}

    def pool(self) -> WorkerPool:
        """The pool this executor leases (shared unless one was injected)."""
        if self._pool is not None:
            return self._pool
        return shared_pool(self.max_workers, start_method=self.start_method)

    def execute(self, payloads, worker, on_record=None):
        """Execute the payloads on the warm pool (see the base contract)."""
        payloads = list(payloads)
        self.last_stats = {}
        if not payloads:
            return []
        pool = self.pool()
        before = {key: value for key, value in pool.stats().items()
                  if isinstance(value, int)}
        records = pool.run(payloads, worker, retries=self.retries,
                           timeout=self.timeout, on_record=on_record,
                           batch_size=self.batch_size, capacity=self.capacity,
                           straggler_after=self.straggler_after,
                           max_requeues=self.max_requeues)
        after = pool.stats()
        self.last_stats = {key: after[key] - before.get(key, 0)
                           for key in before}
        self.last_stats["n_workers"] = pool.n_workers
        return records


register_executor(WorkerPoolExecutor.name, WorkerPoolExecutor)
