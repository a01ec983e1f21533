"""Tests of the persistent worker-pool executor (``repro.campaign.workers``).

Every pool here uses ``start_method="fork"``: the test module is not an
importable package, so spawn-started workers could not unpickle the worker
functions defined below — and fork keeps the suite fast.  The production
default (``spawn``) is exercised structurally (clean-interpreter start) by
the benchmark harness and CI's worker-smoke job.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, WorkerPool,
                            WorkerPoolExecutor, aggregate,
                            get_campaign_preset, get_executor, run_campaign,
                            shared_pool, shutdown_shared_pools)
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED
from repro.campaign.workers import default_batch_size


def smoke_spec(**kwargs) -> CampaignSpec:
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


def smoke_payloads(**kwargs):
    return [run.payload() for run in smoke_spec(**kwargs).resolve()]


def fake_worker(payload):
    """Deterministic stand-in for a coupled run (fast, summary from payload)."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def exploding_worker(payload):
    raise RuntimeError("kaboom " + payload["run_id"])


def crash_once_worker(payload):
    """Kills its host worker process the FIRST time each run executes.

    Cross-process state lives in marker files under the directory named by
    the payload's ``config["marker_dir"]`` override, so the re-dispatched
    attempt (on a respawned worker) sees the marker and completes.
    """
    marker = os.path.join(payload["config"]["marker_dir"],
                          payload["run_id"])
    if payload["config"].get("crash_ids", "all") != "all" and \
            payload["run_id"] not in payload["config"]["crash_ids"]:
        return fake_worker(payload)
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return fake_worker(payload)
    os.close(handle)
    os._exit(17)


def poison_worker(payload):
    """Kills its host worker process every time the config marks the run."""
    if payload["config"].get("poison"):
        os._exit(23)
    return fake_worker(payload)


def slow_worker(payload):
    time.sleep(float(payload["config"].get("sleep_s", 0.3)))
    return fake_worker(payload)


def stall_once_worker(payload):
    """Stalls for seconds — but only the FIRST execution of the marked run,
    so the straggler duplicate (and any requeue) completes fast."""
    marker = os.path.join(payload["config"]["marker_dir"], payload["run_id"])
    if payload["config"].get("stall_id") == payload["run_id"]:
        try:
            handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(handle)
            time.sleep(3.0)
        except FileExistsError:
            pass
    return fake_worker(payload)


def with_config(payloads, **extra):
    """Copies of the payloads with extra keys merged into their configs."""
    return [dict(p, config=dict(p["config"], **extra)) for p in payloads]


@pytest.fixture
def pool():
    pool = WorkerPool(2, start_method="fork", heartbeat_interval=0.05,
                      liveness_timeout=5.0)
    yield pool
    pool.shutdown()


class TestWorkerPoolBasics:
    def test_records_in_submission_order_with_serialized_observer(self, pool):
        payloads = smoke_payloads()
        seen = []
        records = pool.run(payloads, fake_worker, on_record=seen.append)
        assert [r.run_id for r in records] == [p["run_id"] for p in payloads]
        assert all(r.completed and r.attempts == 1 for r in records)
        assert sorted(r.run_id for r in seen) == \
            sorted(r.run_id for r in records)

    def test_workers_stay_warm_across_runs(self, pool):
        payloads = smoke_payloads()
        pool.run(payloads, fake_worker)
        pids = pool.worker_pids()
        pool.run(payloads, fake_worker)
        assert pool.worker_pids() == pids
        assert all(pid is not None for pid in pids)

    def test_exceptions_are_captured_not_raised(self, pool):
        records = pool.run(smoke_payloads(repetitions=1), exploding_worker)
        assert all(r.status == STATUS_FAILED for r in records)
        assert all("kaboom" in r.error for r in records)

    def test_duplicate_run_ids_keep_their_own_records(self, pool):
        payload = smoke_payloads(repetitions=1)[0]
        twin = dict(payload, index=1)
        records = pool.run([payload, twin], fake_worker)
        assert len(records) == 2
        assert [r.index for r in records] == [payload["index"], 1]

    def test_empty_payloads(self, pool):
        assert pool.run([], fake_worker) == []

    def test_timeout_is_applied_inside_the_worker(self, pool):
        payloads = with_config(smoke_payloads(repetitions=1)[:1], sleep_s=0.1)
        record = pool.run(payloads, slow_worker, timeout=0.01)[0]
        assert record.completed
        assert "TimeoutWarning" in record.error

    def test_unpicklable_worker_becomes_failed_records(self, pool):
        records = pool.run(smoke_payloads(repetitions=1),
                           lambda payload: {"ok": True})
        assert all(r.status == STATUS_FAILED for r in records)
        assert all("DispatchError" in r.error for r in records)
        # the pool survives a dispatch failure and keeps serving
        assert all(r.completed for r in pool.run(smoke_payloads(repetitions=1),
                                                 fake_worker))

    def test_invalid_arguments(self, pool):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(2, heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            pool.run(smoke_payloads(), fake_worker, capacity=0)
        with pytest.raises(ValueError):
            pool.run(smoke_payloads(), fake_worker, max_requeues=-1)

    def test_shutdown_pool_refuses_new_work(self):
        pool = WorkerPool(1, start_method="fork")
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run(smoke_payloads(repetitions=1), fake_worker)

    def test_default_batch_size_bounds(self):
        assert default_batch_size(0, 4) == 1
        assert default_batch_size(2, 2) == 1
        assert default_batch_size(8, 2) == 2
        assert default_batch_size(1000, 2) == 16
        assert all(default_batch_size(n, w) >= 1
                   for n in range(0, 40) for w in range(1, 5))


class TestCrashRequeue:
    def test_killed_worker_mid_campaign_matches_serial(self, pool, tmp_path):
        """The satellite acceptance test: a worker dying mid-campaign is
        respawned, its in-flight runs are requeued, and the completed
        campaign's records equal a serial launch's (modulo timing and
        attempt counts)."""
        payloads = with_config(smoke_payloads(), marker_dir=str(tmp_path),
                               crash_ids="all")
        records = pool.run(payloads, crash_once_worker, batch_size=1)
        serial = get_executor("serial").execute(payloads, crash_once_worker)
        assert [r.run_id for r in records] == [r.run_id for r in serial]
        assert all(r.completed for r in records)
        assert pool.counters["respawns"] >= 1
        assert pool.counters["requeued_runs"] >= 1
        assert aggregate(records).deterministic_dict() == \
            aggregate(serial).deterministic_dict()

    def test_poison_run_fails_after_bounded_requeues(self, pool, tmp_path):
        """A run that reliably kills its worker must not requeue forever:
        after max_requeues worker deaths it gets a failed record, and the
        rest of the campaign still completes."""
        payloads = smoke_payloads()
        poison_id = payloads[3]["run_id"]
        payloads[3] = dict(payloads[3],
                           config=dict(payloads[3]["config"], poison=True))

        records = pool.run(payloads, poison_worker, batch_size=1,
                           max_requeues=1)
        by_id = {r.run_id: r for r in records}
        assert by_id[poison_id].status == STATUS_FAILED
        assert "WorkerCrashError" in by_id[poison_id].error
        others = [r for r in records if r.run_id != poison_id]
        assert all(r.completed for r in others)

    def test_externally_killed_worker_is_detected_and_replaced(self, pool):
        """SIGKILL from outside (OOM killer, operator) while runs are in
        flight: liveness detection requeues and the campaign completes."""
        assert pool.wait_ready(timeout=30)
        # pick the victim before launching: run() holds the pool lock for
        # its whole drain, so worker_pids() would block until completion
        victim = next(pid for pid in pool.worker_pids() if pid is not None)
        payloads = with_config(smoke_payloads(), sleep_s=0.2)
        result = {}

        def launch():
            result["records"] = pool.run(payloads, slow_worker, batch_size=1)

        thread = threading.Thread(target=launch)
        thread.start()
        time.sleep(0.3)   # let both workers start computing
        os.kill(victim, signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert all(r.completed for r in result["records"])
        assert pool.counters["respawns"] >= 1
        assert victim not in pool.worker_pids()


class TestStragglerRedispatch:
    def test_tail_runs_are_duplicated_and_deduplicated(self, pool, tmp_path):
        """One run stalls on its first execution; an idle worker gets a
        duplicate dispatch, the first completion wins, and exactly one
        record per run id comes back."""
        payloads = with_config(smoke_payloads(), marker_dir=str(tmp_path))
        stall_id = payloads[0]["run_id"]
        payloads = with_config(payloads, stall_id=stall_id)
        seen = []
        records = pool.run(payloads, stall_once_worker, batch_size=1,
                           straggler_after=0.2, on_record=seen.append)
        assert [r.run_id for r in records] == [p["run_id"] for p in payloads]
        assert all(r.completed for r in records)
        assert pool.counters["straggler_redispatches"] >= 1
        # first completion wins, exactly once per run — the observer never
        # fires twice for the straggler
        assert sorted(r.run_id for r in seen) == \
            sorted(p["run_id"] for p in payloads)

    def test_late_duplicate_results_are_dropped_not_misattributed(self, pool):
        """The losing holder's result lands after the lease finished; the
        next interaction with the pool discards it instead of crediting it
        to an unrelated run."""
        payloads = with_config(smoke_payloads(repetitions=2), sleep_s=0.4)
        records = pool.run(payloads, slow_worker, batch_size=1,
                           straggler_after=0.05)
        assert all(r.completed for r in records)
        if pool.counters["straggler_redispatches"] == 0:
            pytest.skip("no straggler fired on this machine")
        # give the losing duplicates time to finish, then pump via a run
        time.sleep(0.6)
        again = pool.run(with_config(smoke_payloads(repetitions=1)),
                         fake_worker)
        assert all(r.completed for r in again)
        dropped = (pool.counters["duplicate_results_dropped"]
                   + pool.counters["stale_results_dropped"])
        assert dropped >= 1


class TestWorkerPoolExecutor:
    def test_registered_and_validated(self):
        executor = get_executor("workers", max_workers=3, retries=1,
                                timeout=5.0)
        assert isinstance(executor, WorkerPoolExecutor)
        assert executor.max_workers == 3
        with pytest.raises(ValueError):
            WorkerPoolExecutor(batch_size=0)
        with pytest.raises(ValueError):
            WorkerPoolExecutor(capacity=0)
        with pytest.raises(ValueError):
            WorkerPoolExecutor(straggler_after=0.0)
        with pytest.raises(ValueError):
            WorkerPoolExecutor(max_requeues=-1)

    def test_executor_reports_per_call_stats(self, pool):
        executor = WorkerPoolExecutor(max_workers=2, pool=pool, batch_size=2)
        payloads = smoke_payloads()
        executor.execute(payloads, fake_worker)
        first = dict(executor.last_stats)
        assert first["dispatched_runs"] == len(payloads)
        assert first["dispatched_batches"] == len(payloads) // 2
        assert first["results"] == len(payloads)
        # stats are per execute() call, not cumulative
        executor.execute(payloads[:2], fake_worker)
        assert executor.last_stats["dispatched_runs"] == 2

    def test_run_campaign_with_real_workflow_runs(self, pool, tmp_path):
        """End-to-end: the workers executor drives the real coupled
        workflow worker through run_campaign, store and all."""
        spec = smoke_spec(repetitions=1)
        store = CampaignStore(str(tmp_path / "workers.jsonl"))
        executor = WorkerPoolExecutor(max_workers=2, pool=pool)
        outcome = run_campaign(spec, store, executor)
        assert outcome.completed == 2, [r.error for r in outcome.records]
        assert all(r.summary["ok"] for r in store.records())

    def test_chunked_launches_reuse_the_same_workers(self, pool):
        """The service launch shape: many small execute() calls must land
        on the same warm worker processes, not respawned ones."""
        executor = WorkerPoolExecutor(max_workers=2, pool=pool)
        payloads = smoke_payloads()
        for position in range(0, len(payloads), 2):
            executor.execute(payloads[position:position + 2], fake_worker)
            if position == 0:
                pids = pool.worker_pids()
        assert pool.worker_pids() == pids
        assert pool.counters["respawns"] == 0

    def test_shared_pool_is_shared_across_executors(self, monkeypatch):
        monkeypatch.setattr("repro.campaign.workers.DEFAULT_START_METHOD",
                            "fork")
        shutdown_shared_pools()
        try:
            first = WorkerPoolExecutor(max_workers=2)
            second = WorkerPoolExecutor(max_workers=2)
            assert first.pool() is second.pool()
            assert first.pool() is shared_pool(2)
            first.execute(smoke_payloads(repetitions=1), fake_worker)
            pids = first.pool().worker_pids()
            second.execute(smoke_payloads(repetitions=1), fake_worker)
            assert second.pool().worker_pids() == pids
            # a different width is a different pool
            assert shared_pool(3) is not first.pool()
        finally:
            shutdown_shared_pools()
        # after shutdown, leasing again builds a fresh (open) pool
        fresh = shared_pool(2)
        assert not fresh._closed
        shutdown_shared_pools()
