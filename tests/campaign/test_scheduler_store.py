"""Tests of the campaign executors, the JSONL store and resumability."""

from __future__ import annotations

import itertools
import os
import threading
import time

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, RunRecord,
                            WorkerPool, WorkerPoolExecutor, aggregate,
                            available_executors, execute_run,
                            get_campaign_preset, get_executor, run_campaign,
                            shutdown_shared_pools)
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED


def fake_worker(payload):
    """Deterministic stand-in for a coupled run (fast, summary from payload)."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def smoke_spec(**kwargs) -> CampaignSpec:
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


def twin_fails_worker(payload):
    """Fails the payload at index 1 (the twin of a duplicated run id)."""
    if payload["index"] == 1:
        raise RuntimeError("twin failed")
    return {"final_total_loss": 1.0}


def slow_worker(payload):
    time.sleep(0.05)
    return {"final_total_loss": 1.0}


def slow_failing_worker(payload):
    time.sleep(0.05)
    raise RuntimeError("still failing")


def marking_worker(payload):
    """Leaves a marker file per executed run (visible across processes)."""
    marker = os.path.join(payload["config"]["marker_dir"],
                          str(payload["index"]))
    open(marker, "w").close()
    return {"final_total_loss": 1.0}


@pytest.fixture
def executor_of(monkeypatch):
    """``get_executor`` with ``workers`` on fork-started shared pools.

    The module-level workers above live in a test module that spawned
    workers cannot import, so the pools fork; they are shut down after
    the test.
    """
    monkeypatch.setattr("repro.campaign.workers.DEFAULT_START_METHOD",
                        "fork")
    yield get_executor
    shutdown_shared_pools()


class TestStore:
    def test_append_and_read_back(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        assert store.records() == []
        assert store.completed_run_ids() == set()
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED,
                               summary={"final_total_loss": 1.0}))
        store.append(RunRecord(run_id="b", index=1, params={}, driver="serial",
                               n_steps=2, status=STATUS_FAILED, error="boom"))
        assert len(store) == 2
        assert store.completed_run_ids() == {"a"}
        assert store.counts() == {"completed": 1, "failed": 1}

    def test_last_record_per_run_id_wins(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_FAILED, error="boom"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        assert len(store) == 1
        assert store.completed_run_ids() == {"a"}

    def test_round_trips_record_fields(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        record = RunRecord(run_id="a", index=3, params={"khi.seed": 5},
                           driver="threaded", n_steps=4,
                           status=STATUS_COMPLETED, attempts=2, elapsed_s=1.25,
                           summary={"final_total_loss": 2.5})
        store.append(record)
        assert store.records() == [record]

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        """A process killed mid-append leaves a partial last line; the store
        must still resume, losing only that in-progress run."""
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "b", "index": 1, "par')
        with pytest.warns(RuntimeWarning, match="unparseable line 2"):
            assert store.completed_run_ids() == {"a"}

    def test_append_after_truncation_starts_a_fresh_line(self, tmp_path):
        """Records appended after a kill mid-write must not be glued to the
        truncated line — the store keeps working across resumes."""
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "b", "index": 1, "par')
        store.append(RunRecord(run_id="c", index=2, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED))
        with pytest.warns(RuntimeWarning, match="unparseable line 2"):
            assert store.completed_run_ids() == {"a", "c"}

    def test_nan_losses_are_stored_as_strict_json(self, tmp_path):
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        store.append(RunRecord(run_id="a", index=0, params={}, driver="serial",
                               n_steps=2, status=STATUS_COMPLETED,
                               summary={"final_total_loss": float("nan")}))
        raw = open(store.path, encoding="utf-8").read()
        assert "NaN" not in raw
        assert store.records()[0].summary["final_total_loss"] is None

    def test_non_record_rows_fail_loudly(self, tmp_path):
        """Valid JSON that is not a run record means the file is not a
        campaign store — a clear ValueError, not a TypeError traceback."""
        path = tmp_path / "other.jsonl"
        path.write_text('{"foo": 1}\n')
        with pytest.raises(ValueError, match="not a campaign store"):
            CampaignStore(str(path)).records()
        path.write_text("42\n")
        with pytest.raises(ValueError, match="not a campaign store"):
            CampaignStore(str(path)).records()
        path.write_text('"just a string"\n')
        with pytest.raises(ValueError, match="not a campaign store"):
            CampaignStore(str(path)).records()


class TestExecutors:
    def test_registry_names(self):
        assert available_executors() == ("serial", "workers")
        with pytest.raises(ValueError, match="valid executors"):
            get_executor("quantum")

    def test_default_pool_workers_is_machine_derived_and_bounded(self):
        from repro.campaign import default_pool_workers
        from repro.campaign.scheduler import DEFAULT_MAX_POOL_WORKERS

        value = default_pool_workers()
        assert 2 <= value <= DEFAULT_MAX_POOL_WORKERS
        assert value <= max(2, os.cpu_count() or 1)
        assert default_pool_workers(maximum=3) <= 3

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_executor_runs_every_payload(self, name, executor_of):
        spec = smoke_spec(repetitions=2)
        payloads = [run.payload() for run in spec.resolve()]
        seen = []
        records = executor_of(name, max_workers=2).execute(
            payloads, fake_worker, on_record=seen.append)
        assert [r.run_id for r in records] == [p["run_id"] for p in payloads]
        assert all(r.completed and r.attempts == 1 for r in records)
        assert sorted(r.run_id for r in seen) == sorted(r.run_id for r in records)

    def test_exceptions_are_captured_not_raised(self):
        def exploding(payload):
            raise RuntimeError("kaboom " + payload["run_id"])

        payloads = [run.payload() for run in smoke_spec(repetitions=2).resolve()]
        records = get_executor("serial").execute(payloads, exploding)
        assert all(r.status == STATUS_FAILED for r in records)
        assert all("kaboom" in r.error for r in records)

    def test_retries_until_success(self):
        calls = itertools.count()
        lock = threading.Lock()

        def flaky(payload):
            with lock:
                attempt = next(calls)
            if attempt < 2:
                raise RuntimeError("transient")
            return {"final_total_loss": 1.0}

        payload = smoke_spec(repetitions=1).resolve()[0].payload()
        record = get_executor("serial", retries=3).execute([payload], flaky)[0]
        assert record.completed
        assert record.attempts == 3

    def test_retries_exhausted_keeps_last_error(self):
        def always_bad(payload):
            raise ValueError("still broken")

        payload = smoke_spec(repetitions=1).resolve()[0].payload()
        record = get_executor("serial", retries=2).execute([payload], always_bad)[0]
        assert record.status == STATUS_FAILED
        assert record.attempts == 3
        assert "still broken" in record.error

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_cooperative_timeout_keeps_a_successful_overrun(self, name,
                                                            executor_of):
        """A run that succeeds over budget keeps its result (discarding it
        would re-execute the run on every resume, forever) with a warning."""
        payload = smoke_spec(repetitions=1).resolve()[0].payload()
        record = executor_of(name, timeout=0.01).execute([payload],
                                                         slow_worker)[0]
        assert record.completed
        assert record.summary == {"final_total_loss": 1.0}
        assert "TimeoutWarning" in record.error and "budget" in record.error

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_timeout_budgets_the_whole_run_including_retries(self, name,
                                                             executor_of):
        """--timeout is a per-run budget: a failing run is not re-executed
        retries+1 times for (retries+1) x timeout total."""
        payload = smoke_spec(repetitions=1).resolve()[0].payload()
        executor = executor_of(name, timeout=0.01, retries=5)
        record = executor.execute([payload], slow_failing_worker)[0]
        assert record.status == STATUS_FAILED
        assert record.attempts == 1
        assert "still failing" in record.error

    @pytest.mark.parametrize("name", ("serial", "workers"))
    def test_duplicate_run_ids_keep_their_own_records(self, name,
                                                      executor_of):
        """The executor contract takes arbitrary payloads: two payloads
        sharing a run id must each come back with their own record."""
        payload = smoke_spec(repetitions=1).resolve()[0].payload()
        twin = dict(payload, index=1)
        records = executor_of(name, max_workers=1).execute(
            [payload, twin], twin_fails_worker)
        assert [r.run_id for r in records] == [payload["run_id"]] * 2
        assert [r.status for r in records] == [STATUS_COMPLETED,
                                               STATUS_FAILED]

    def test_abort_cancels_queued_runs(self, tmp_path):
        """A store write failure (the record observer raising) must not
        silently execute — and discard — every queued run on the pool
        before the abort surfaces."""
        payloads = [dict(run.payload(), config={"marker_dir": str(tmp_path)})
                    for run in smoke_spec().resolve()]
        assert len(payloads) == 8

        def failing_append(record):
            raise OSError("disk full")

        pool = WorkerPool(1, start_method="fork")
        executor = WorkerPoolExecutor(pool=pool, batch_size=1, capacity=1)
        try:
            with pytest.raises(OSError, match="disk full"):
                executor.execute(payloads, marking_worker,
                                 on_record=failing_append)
        finally:
            pool.shutdown()
        # one batch of one run was in flight; the other seven never left
        # the queue
        assert os.listdir(tmp_path) == ["0"]

    def test_invalid_executor_options(self):
        with pytest.raises(ValueError):
            get_executor("workers", max_workers=0)
        with pytest.raises(ValueError):
            get_executor("serial", retries=-1)
        with pytest.raises(ValueError):
            get_executor("serial", timeout=0.0)

    def test_workers_executor_matches_serial_on_real_workflows(self,
                                                               tmp_path):
        """Determinism across executors: campaign-smoke on the warm worker
        pool (spawned workers, the real coupled run) reproduces the serial
        launch's deterministic aggregate report."""
        spec = smoke_spec()
        serial = run_campaign(spec,
                              CampaignStore(str(tmp_path / "serial.jsonl")))
        try:
            pooled = run_campaign(
                spec, CampaignStore(str(tmp_path / "workers.jsonl")),
                get_executor("workers", max_workers=2))
        finally:
            shutdown_shared_pools()
        assert pooled.completed == 8, [r.error for r in pooled.records]
        assert all(r.summary["ok"] for r in pooled.records)
        assert aggregate(pooled.records).deterministic_dict() == \
            aggregate(serial.records).deterministic_dict()


class TestRunCampaign:
    def test_records_are_persisted_as_they_finish(self, tmp_path):
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        depths = []
        outcome = run_campaign(spec, store, worker=fake_worker,
                               on_record=lambda r: depths.append(len(store)))
        assert outcome.completed == 8 and outcome.done
        # the store grew by one row per finished run, not in one batch
        assert depths == list(range(1, 9))

    def test_failed_runs_retry_on_relaunch(self, tmp_path):
        spec = smoke_spec(repetitions=1)
        store = CampaignStore(str(tmp_path / "log.jsonl"))

        def bad(payload):
            raise RuntimeError("first launch fails")

        first = run_campaign(spec, store, worker=bad)
        assert first.failed == 2 and not first.done
        second = run_campaign(spec, store, worker=fake_worker)
        assert second.executed == 2 and second.completed == 2 and second.done
        assert store.counts() == {"completed": 2, "failed": 0}

    def test_raising_observer_is_detached_not_fatal(self, tmp_path, caplog):
        """The service guarantee: a buggy ``on_record`` observer must not
        kill the launch — it is logged and detached, and every run still
        executes and lands in the store."""
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        calls = []

        def bad_observer(record):
            calls.append(record.run_id)
            raise RuntimeError("subscriber bug")

        with caplog.at_level("ERROR", logger="repro.campaign.scheduler"):
            outcome = run_campaign(spec, store, worker=fake_worker,
                                   on_record=bad_observer)
        assert outcome.completed == 8 and outcome.done
        assert store.counts() == {"completed": 8, "failed": 0}
        # the observer raised on its first record and was detached for the
        # rest of the launch — not retried per record
        assert calls == [store.records()[0].run_id]
        assert any("detaching" in message for message in caplog.messages)

    def test_max_runs_bounds_a_launch(self, tmp_path):
        spec = smoke_spec()
        store = CampaignStore(str(tmp_path / "log.jsonl"))
        outcome = run_campaign(spec, store, worker=fake_worker, max_runs=3)
        assert outcome.summary() == {
            "campaign": "campaign-smoke", "total_runs": 8, "skipped": 0,
            "cache_hits": 0, "executed": 3, "completed": 3, "failed": 0,
            "deferred": 5, "done": False}
        with pytest.raises(ValueError):
            run_campaign(spec, store, worker=fake_worker, max_runs=-1)


class TestResumability:
    """The acceptance property: an interrupted campaign, resumed, reports
    exactly what an uninterrupted one would."""

    def six_run_spec(self) -> CampaignSpec:
        return smoke_spec(name="resume-proof",
                          parameters={"ml.base_learning_rate":
                                      [1e-3, 5e-4, 1e-4]},
                          repetitions=2, n_steps=2)

    def test_interrupted_campaign_resumes_exactly(self, tmp_path):
        spec = self.six_run_spec()
        assert len(spec.resolve()) == 6

        # interrupt after 3 of 6 runs (real coupled workflow runs)
        interrupted = CampaignStore(str(tmp_path / "interrupted.jsonl"))
        first = run_campaign(spec, interrupted, worker=execute_run, max_runs=3)
        assert first.executed == 3 and not first.done

        # re-launch with the same spec: exactly the 3 missing runs execute
        resumed = run_campaign(spec, interrupted, worker=execute_run)
        assert resumed.skipped == 3
        assert resumed.executed == 3
        assert resumed.completed == 3 and resumed.done

        # an uninterrupted campaign over the same spec
        uninterrupted = CampaignStore(str(tmp_path / "uninterrupted.jsonl"))
        full = run_campaign(spec, uninterrupted, worker=execute_run)
        assert full.executed == 6 and full.done

        # same run-id hashes...
        assert {r.run_id for r in interrupted.records()} == \
            {r.run_id for r in uninterrupted.records()}
        # ...and an identical aggregated report (timing excluded, losses and
        # all deterministic counters included)
        report_resumed = aggregate(interrupted.records(), campaign=spec.name)
        report_full = aggregate(uninterrupted.records(), campaign=spec.name)
        assert report_resumed.deterministic_dict() == \
            report_full.deterministic_dict()
