"""End-to-end tracing + metrics across the campaign layer.

Worker pools use ``start_method="fork"`` for the same reason the
``tests/campaign/test_workers.py`` suite does: the test module is not an
importable package, so spawn-started children could not unpickle the
worker functions below — and fork keeps the suite fast.  Cross-process
span propagation is identical either way: the context rides the payload,
the finished spans ride the pickled record.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, ResultCache,
                            WorkerPool, WorkerPoolExecutor,
                            get_campaign_preset, run_campaign)
from repro.telemetry import REGISTRY, disabled, read_spans, trace_path_for


def smoke_spec(**kwargs) -> CampaignSpec:
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


def fake_worker(payload):
    """Deterministic stand-in for a coupled run."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def crash_once_worker(payload):
    """Kills its host worker the FIRST time each run executes (marker files)."""
    marker = os.path.join(payload["config"]["marker_dir"], payload["run_id"])
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return fake_worker(payload)
    os.close(handle)
    os._exit(17)


def stall_once_worker(payload):
    """Stalls the FIRST execution of the marked run (straggler bait)."""
    marker = os.path.join(payload["config"]["marker_dir"], payload["run_id"])
    if payload["config"].get("stall_id") == payload["run_id"]:
        try:
            handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(handle)
            import time
            time.sleep(3.0)
        except FileExistsError:
            pass
    return fake_worker(payload)


def runs_with_config(spec, **extra):
    """The spec's resolved runs with extra keys merged into their configs."""
    return [replace(run, config=dict(run.config, **extra))
            for run in spec.resolve()]


def spans_of(store):
    return read_spans(trace_path_for(store.path))


def by_name(spans, name):
    return [s for s in spans if s.name == name]


def assert_complete_trees(spans, records):
    """Every record has dispatch -> execute -> settle with matching run ids."""
    (root,) = by_name(spans, "campaign")
    assert root.parent_id is None
    assert all(s.trace_id == root.trace_id for s in spans)
    (resolve,) = by_name(spans, "resolve")
    assert resolve.parent_id == root.span_id
    dispatches = {s.attrs["run_id"]: s for s in by_name(spans, "dispatch")}
    executes = {s.attrs["run_id"]: s for s in by_name(spans, "execute")}
    settles = {s.attrs["run_id"]: s for s in by_name(spans, "settle")}
    for record in records:
        dispatch = dispatches[record.run_id]
        assert dispatch.parent_id == root.span_id
        assert executes[record.run_id].parent_id == dispatch.span_id
        assert settles[record.run_id].parent_id == dispatch.span_id
        assert settles[record.run_id].attrs["status"] == record.status
    assert all(s.end_s is not None for s in spans)


class TestSerialTracing:
    def test_launch_writes_one_complete_tree_per_run(self, tmp_path):
        spec = smoke_spec(name="trace-serial")
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        outcome = run_campaign(spec, store, worker=fake_worker)
        assert outcome.completed == outcome.total_runs == 8
        spans = spans_of(store)
        assert_complete_trees(spans, list(store.records()))
        assert len(by_name(spans, "settle")) == 8
        # the root carries the launch summary
        (root,) = by_name(spans, "campaign")
        assert root.attrs["completed"] == 8
        assert root.attrs["executor"] == "serial"

    def test_spans_never_leak_into_the_store(self, tmp_path):
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        run_campaign(smoke_spec(name="trace-clean"), store,
                     worker=fake_worker)
        for record in store.records():
            assert "_spans" not in record.__dict__
        # the store file itself contains no span rows either
        with open(store.path, encoding="utf-8") as handle:
            assert "trace_id" not in handle.read()

    def test_disabled_leaves_no_trace_and_counts_nothing(self, tmp_path):
        spec = smoke_spec(name="trace-disabled-unique")
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        with disabled():
            outcome = run_campaign(spec, store, worker=fake_worker)
        assert outcome.completed == 8
        assert not os.path.exists(trace_path_for(store.path))
        runs_total = REGISTRY.counter("repro_campaign_runs_total")
        assert runs_total.value(campaign=spec.name, status="completed",
                                cached="false") == 0

    def test_cache_hits_settle_directly_under_the_root(self, tmp_path):
        spec = smoke_spec(name="trace-cache")
        cache = ResultCache(tmp_path / "cache")
        first = CampaignStore(tmp_path / "a.campaign.jsonl")
        run_campaign(spec, first, worker=fake_worker, cache=cache)
        second = CampaignStore(tmp_path / "b.campaign.jsonl")
        outcome = run_campaign(spec, second, worker=fake_worker, cache=cache)
        assert outcome.cache_hits == 8 and outcome.executed == 0
        spans = spans_of(second)
        (root,) = by_name(spans, "campaign")
        settles = by_name(spans, "settle")
        assert len(settles) == 8
        assert all(s.parent_id == root.span_id for s in settles)
        assert all(s.attrs["cached"] for s in settles)
        assert by_name(spans, "dispatch") == []


class TestWorkerPoolTracing:
    def test_execute_spans_come_back_from_worker_processes(self, tmp_path):
        spec = smoke_spec(name="trace-pool")
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        pool = WorkerPool(2, start_method="fork", heartbeat_interval=0.05)
        try:
            executor = WorkerPoolExecutor(max_workers=2, pool=pool)
            outcome = run_campaign(spec, store, executor, worker=fake_worker)
        finally:
            pool.shutdown()
        assert outcome.completed == 8
        spans = spans_of(store)
        assert_complete_trees(spans, list(store.records()))
        parent_pid = os.getpid()
        executes = by_name(spans, "execute")
        assert len(executes) == 8
        assert all(s.attrs["pid"] != parent_pid for s in executes)

    def test_crash_requeue_settles_each_run_exactly_once(self, tmp_path):
        spec = smoke_spec(name="trace-crash")
        runs = runs_with_config(spec, marker_dir=str(tmp_path))
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        pool = WorkerPool(2, start_method="fork", heartbeat_interval=0.05,
                          liveness_timeout=5.0)
        try:
            executor = WorkerPoolExecutor(max_workers=2, pool=pool,
                                          batch_size=1)
            outcome = run_campaign(spec, store, executor,
                                   worker=crash_once_worker, runs=runs)
        finally:
            pool.shutdown()
        assert outcome.completed == 8
        spans = spans_of(store)
        settles = by_name(spans, "settle")
        assert sorted(s.attrs["run_id"] for s in settles) == \
            sorted(r.run_id for r in runs)
        assert_complete_trees(spans, list(store.records()))
        events = REGISTRY.counter("repro_worker_pool_events_total")
        assert events.value(event="requeued_runs") >= 8

    def test_straggler_redispatch_settles_each_run_exactly_once(self, tmp_path):
        spec = smoke_spec(name="trace-straggler")
        runs = runs_with_config(spec, marker_dir=str(tmp_path))
        stall_id = runs[0].run_id
        runs = [replace(run, config=dict(run.config, stall_id=stall_id))
                for run in runs]
        store = CampaignStore(tmp_path / "t.campaign.jsonl")
        pool = WorkerPool(2, start_method="fork", heartbeat_interval=0.05)
        try:
            executor = WorkerPoolExecutor(max_workers=2, pool=pool,
                                          batch_size=1, straggler_after=0.3)
            outcome = run_campaign(spec, store, executor,
                                   worker=stall_once_worker, runs=runs)
        finally:
            pool.shutdown()
        assert outcome.completed == 8
        settles = by_name(spans_of(store), "settle")
        assert sorted(s.attrs["run_id"] for s in settles) == \
            sorted(r.run_id for r in runs)


class TestMetricsUnderConcurrency:
    def test_two_thread_executor_launches_count_independently(self, tmp_path):
        specs = [smoke_spec(name=f"trace-conc-{index}") for index in (0, 1)]
        stores = [CampaignStore(tmp_path / f"{index}.campaign.jsonl")
                  for index in (0, 1)]
        errors = []

        def launch(spec, store):
            try:
                run_campaign(spec, store, worker=fake_worker)
            except BaseException as exc:  # noqa: BLE001 - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=launch, args=(spec, store))
                   for spec, store in zip(specs, stores)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        runs_total = REGISTRY.counter("repro_campaign_runs_total")
        for spec in specs:
            assert runs_total.value(campaign=spec.name, status="completed",
                                    cached="false") == 8
        seconds = REGISTRY.histogram("repro_campaign_run_seconds")
        for spec in specs:
            assert seconds.value(campaign=spec.name) == 8
        # each launch wrote its own complete trace despite sharing threads
        for spec, store in zip(specs, stores):
            spans = spans_of(store)
            assert_complete_trees(spans, list(store.records()))
