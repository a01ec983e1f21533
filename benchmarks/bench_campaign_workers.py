"""The warm worker pool on the campaign launch path.

The service launches campaigns in small chunks (cooperative cancel lands
on chunk boundaries), so an executor's *per-``execute()``* start-up cost
is paid once per chunk.  The ``workers`` executor leases a process-wide
pool of long-lived workers that stays warm across calls.  This benchmark
drives a service-style chunked launch through it and checks:

* **warmth** — chunked launches and bare ``execute()`` calls land on the
  same worker processes, with no respawn,
* **determinism** — the workers backend reproduces the serial executor's
  deterministic campaign report, crash-requeue and straggler machinery
  notwithstanding.

The standalone harness with the equivalence *gate* (non-zero exit) and
the persisted ``BENCH_campaign_throughput.json`` trajectory is
``python -m repro.cli bench-campaign`` (:mod:`repro.campaign.hotpath`);
this file is the pytest-benchmark view of the same comparison.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_workers.py --benchmark-only
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.campaign import (CampaignStore, WorkerPool, WorkerPoolExecutor,
                            aggregate, execute_run, get_campaign_preset,
                            get_executor, run_campaign)
from repro.campaign.hotpath import service_chunk_size

N_RUNS = 8
MAX_WORKERS = 2
START_METHOD = "fork"  # fast start-up; the shipped default is "spawn"

_store_counter = itertools.count()


@pytest.fixture(scope="module")
def warm_pool():
    """One private pool shared by every round, warmed before timing."""
    pool = WorkerPool(MAX_WORKERS, start_method=START_METHOD)
    pool.start()
    pool.wait_ready(timeout=60)
    yield pool
    pool.shutdown()


def _chunked_launch(executor, tmp_path):
    """A service-style launch: the spec's runs executed chunk by chunk."""
    spec = get_campaign_preset("campaign-smoke")
    store = CampaignStore(
        str(tmp_path / f"chunked-{next(_store_counter)}.jsonl"))
    chunk = service_chunk_size(executor.name, MAX_WORKERS)
    runs = spec.resolve()
    start = time.perf_counter()
    for lo in range(0, len(runs), chunk):
        run_campaign(spec, store, executor, runs=runs[lo:lo + chunk])
    wall = time.perf_counter() - start
    records = store.records()
    assert len(records) == N_RUNS
    assert all(record.completed for record in records), \
        [record.error for record in records]
    return store, wall


def test_warm_pool_chunked_throughput(benchmark, warm_pool, tmp_path):
    executor = WorkerPoolExecutor(max_workers=MAX_WORKERS, pool=warm_pool)
    store, _ = benchmark.pedantic(
        lambda: _chunked_launch(executor, tmp_path),
        iterations=1, rounds=3)

    benchmark.extra_info["executor"] = "workers"
    benchmark.extra_info["chunk_size"] = service_chunk_size(
        "workers", MAX_WORKERS)
    benchmark.extra_info["pool_respawns"] = warm_pool.stats()["respawns"]

    # the pool must have survived the whole benchmark without a respawn
    assert warm_pool.stats()["respawns"] == 0

    # determinism: same report as a serial sweep of the same spec
    reference_store = CampaignStore(
        str(tmp_path / f"serial-ref-{next(_store_counter)}.jsonl"))
    run_campaign(get_campaign_preset("campaign-smoke"), reference_store,
                 get_executor("serial"))
    assert aggregate(store.records()).deterministic_dict() == \
        aggregate(reference_store.records()).deterministic_dict()


def test_direct_execute_reuses_the_same_workers(warm_pool):
    """Two bare ``execute()`` calls land on the same worker pids — the
    whole point of the backend."""
    payloads = [run.payload()
                for run in get_campaign_preset("campaign-smoke").resolve()[:2]]
    executor = WorkerPoolExecutor(max_workers=MAX_WORKERS, pool=warm_pool)
    before = set(warm_pool.worker_pids())
    for _ in range(2):
        records = executor.execute(payloads, execute_run)
        assert all(record.completed for record in records)
    assert set(warm_pool.worker_pids()) == before
