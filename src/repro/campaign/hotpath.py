"""The campaign-throughput benchmark: serial vs workers, persisted.

The campaign-layer sibling of :mod:`repro.pic.hotpath`: where that harness
tracks steps/second of the PIC kernels, this one tracks **runs/second of
the campaign executors** on a service-style *chunked* launch of the smoke
preset — the launch shape :mod:`repro.service.jobs` actually uses, where
per-``execute()`` overhead (dispatch, per-run pickling, IPC) multiplies
by the number of chunks.  Results append to
``BENCH_campaign_throughput.json`` at the repository root via
:mod:`repro.utils.benchjson`, so the perf trajectory finally covers the
orchestration layer, not just the kernels (see ``docs/performance.md``).

The harness is also a correctness gate: the ``workers`` executor must
produce records equivalent to ``serial`` (same run ids in the same
submission order, all completed, identical deterministic aggregate
report).  Run it with ``python -m repro.campaign.hotpath`` or ``python -m
repro.cli bench-campaign``; the exit status is non-zero when the
equivalence gate fails, which lets CI use the benchmark as a gate.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.aggregate import aggregate
from repro.campaign.presets import get_campaign_preset
from repro.campaign.scheduler import (default_pool_workers, execute_run,
                                      get_executor)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import RunRecord
from repro.campaign.workers import WorkerPool, WorkerPoolExecutor
from repro.telemetry import disabled as telemetry_disabled

#: The executors the benchmark compares, in measurement order.
BENCH_EXECUTORS = ("serial", "workers")

#: The default campaign preset driven through the executors.
DEFAULT_PRESET = "campaign-smoke"


def service_chunk_size(executor_name: str, max_workers: int) -> int:
    """The service-style launch chunk for an executor (see ``service.jobs``).

    Mirrors ``CampaignJob._chunk_size``: the service launches campaigns in
    small chunks so cancellation stays cooperative — one run at a time on
    the serial executor, ``max_workers`` runs per chunk on the pool.
    """
    return 1 if executor_name == "serial" else max(1, int(max_workers))


@dataclass
class CampaignThroughputResult:
    """One campaign-throughput measurement plus the equivalence verdict."""

    #: best observed executor throughput, runs/second, per executor name
    runs_per_sec: Dict[str, float]
    #: launch chunk used per executor (service-style)
    chunk_sizes: Dict[str, int]
    preset: str
    n_runs: int
    max_workers: int
    start_method: str
    #: lifetime worker-pool counters over the whole benchmark (warmup and
    #: every measured block included)
    pool_stats: Dict[str, object] = field(default_factory=dict)
    #: whether workers' records match serial's (the correctness gate)
    equivalent: bool = False
    #: empty when equivalent, else a one-line description of the mismatch
    equivalence_detail: str = ""

    def speedup(self, executor: str, baseline: str) -> float:
        """The throughput ratio of one executor over a baseline executor."""
        return self.runs_per_sec[executor] / self.runs_per_sec[baseline]

    def params(self) -> Dict[str, object]:
        """The benchmark's identity knobs (the benchjson ``params`` block)."""
        return {"preset": self.preset, "n_runs": self.n_runs,
                "max_workers": self.max_workers,
                "start_method": self.start_method,
                "chunk_sizes": dict(self.chunk_sizes),
                "executors": list(BENCH_EXECUTORS)}

    def metrics(self) -> Dict[str, object]:
        """The measured figures (the benchjson ``metrics`` block)."""
        return {"runs_per_sec": dict(self.runs_per_sec),
                "speedup_workers_vs_serial": self.speedup("workers",
                                                          "serial"),
                "pool_stats": dict(self.pool_stats),
                "equivalent": self.equivalent,
                "equivalence_detail": self.equivalence_detail}


def _resolve_payloads(spec: CampaignSpec) -> List[Dict[str, object]]:
    return [run.payload() for run in spec.resolve()]


def _time_chunked(executor, payloads: Sequence[Dict[str, object]],
                  chunk: int) -> Tuple[float, List[RunRecord]]:
    """Runs/second + records of one chunked (service-style) launch."""
    records: List[RunRecord] = []
    start = time.perf_counter()
    for position in range(0, len(payloads), chunk):
        records.extend(executor.execute(payloads[position:position + chunk],
                                        execute_run))
    wall = time.perf_counter() - start
    return len(payloads) / wall, records


def check_equivalence(serial: Sequence[RunRecord],
                      workers: Sequence[RunRecord]) -> Tuple[bool, str]:
    """Whether a workers launch reproduced the serial launch's records.

    Checks, in order: same run ids in the same submission order, every
    workers run completed, and an identical deterministic aggregate
    report (losses, counters, best run — everything that must survive a
    change of executor; timing and cache provenance excluded).

    Returns:
        ``(equivalent, detail)`` — ``detail`` is empty on success and a
        one-line mismatch description otherwise.
    """
    serial_ids = [record.run_id for record in serial]
    workers_ids = [record.run_id for record in workers]
    if serial_ids != workers_ids:
        return False, (f"run id order differs: serial {serial_ids} "
                       f"vs workers {workers_ids}")
    failed = [record.run_id for record in workers if not record.completed]
    if failed:
        return False, f"workers runs failed: {failed}"
    serial_report = aggregate(serial).deterministic_dict()
    workers_report = aggregate(workers).deterministic_dict()
    if serial_report != workers_report:
        keys = [key for key in serial_report
                if serial_report[key] != workers_report.get(key)]
        return False, f"deterministic aggregate differs in {keys}"
    return True, ""


def run_campaign_benchmark(preset: str = DEFAULT_PRESET,
                           repeats: int = 3,
                           max_workers: Optional[int] = None,
                           start_method: Optional[str] = None,
                           repetitions: Optional[int] = None
                           ) -> CampaignThroughputResult:
    """Measure executor throughput on a chunked launch of a campaign preset.

    Each executor runs the preset's resolved payloads in service-style
    chunks (:func:`service_chunk_size`), ``repeats`` times interleaved;
    the best block per executor is kept, so background load hits every
    executor alike.  The workers executor drives a dedicated
    :class:`repro.campaign.workers.WorkerPool` that is warmed once before
    timing (that one-off spawn+import cost is exactly what the pool
    amortises away in steady state) and shut down afterwards.

    Args:
        preset: campaign preset name (default ``campaign-smoke``).
        repeats: interleaved measurement blocks per executor.
        max_workers: pool width (default
            :func:`repro.campaign.scheduler.default_pool_workers`).
        start_method: worker start method (default: the workers module
            default, ``spawn``).
        repetitions: override the preset's ensemble repetitions (scales
            the run count without changing per-run work).

    Returns:
        The measured :class:`CampaignThroughputResult`.

    Raises:
        ValueError: on a bad ``repeats``/``repetitions`` or preset name.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    spec = get_campaign_preset(preset)
    if repetitions is not None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        document = spec.to_dict()
        document["repetitions"] = repetitions
        spec = CampaignSpec.from_dict(document)
    payloads = _resolve_payloads(spec)
    workers_n = max_workers or default_pool_workers()
    chunks = {name: service_chunk_size(name, workers_n)
              for name in BENCH_EXECUTORS}

    pool = WorkerPool(workers_n, start_method=start_method)
    rates: Dict[str, float] = {}
    last_records: Dict[str, List[RunRecord]] = {}
    executors = {"serial": get_executor("serial"),
                 "workers": WorkerPoolExecutor(max_workers=workers_n,
                                               pool=pool)}
    try:
        # telemetry off for the whole measured region: the persisted perf
        # trajectory is the guard that instrumentation costs nothing when
        # disabled, so the timed sections must never include it
        with telemetry_disabled():
            pool.wait_ready()
            # one untimed warmup chunk per executor (page caches, imports)
            for name in BENCH_EXECUTORS:
                executors[name].execute(payloads[:chunks[name]], execute_run)
            for _ in range(repeats):
                for name in BENCH_EXECUTORS:
                    rate, records = _time_chunked(executors[name], payloads,
                                                  chunks[name])
                    if rate > rates.get(name, 0.0):
                        rates[name] = rate
                    last_records[name] = records
            pool_stats = {key: value for key, value in pool.stats().items()
                          if key != "pids"}
    finally:
        pool.shutdown()

    equivalent, detail = check_equivalence(last_records["serial"],
                                           last_records["workers"])
    return CampaignThroughputResult(
        runs_per_sec=rates, chunk_sizes=chunks, preset=spec.name,
        n_runs=len(payloads), max_workers=workers_n,
        start_method=pool.start_method, pool_stats=pool_stats,
        equivalent=equivalent, equivalence_detail=detail)


def persist_result(result: CampaignThroughputResult,
                   directory: str = ".") -> str:
    """Append ``result`` to ``BENCH_campaign_throughput.json``; the path."""
    from repro.utils.benchjson import append_run

    return append_run("campaign_throughput", result.params(),
                      result.metrics(), directory)


def format_result(result: CampaignThroughputResult) -> str:
    """Human-readable multi-line summary of one benchmark result."""
    lines = [
        f"campaign throughput, preset {result.preset!r}, {result.n_runs} "
        f"runs, {result.max_workers} workers ({result.start_method}), "
        f"service-style chunked launch:",
    ]
    for name in BENCH_EXECUTORS:
        lines.append(f"  {name:>8}: {result.runs_per_sec[name]:7.2f} runs/s"
                     f"  (chunk {result.chunk_sizes[name]})")
    lines.append(f"  workers vs serial: "
                 f"{result.speedup('workers', 'serial'):.2f}x")
    status = "OK" if result.equivalent else "FAILED"
    lines.append(f"  workers == serial records: {status}"
                 + (f" ({result.equivalence_detail})"
                    if result.equivalence_detail else ""))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; exit 1 on equivalence failure, 2 on bad arguments."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign.hotpath",
        description="benchmark campaign executors (serial/workers) "
                    "on a chunked service-style launch of the smoke preset "
                    "and append to BENCH_campaign_throughput.json")
    parser.add_argument("--preset", type=str, default=DEFAULT_PRESET,
                        help=f"campaign preset to drive "
                             f"(default {DEFAULT_PRESET})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved measurement blocks per executor; "
                             "the best block is recorded (default 3)")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="override the preset's ensemble repetitions "
                             "(scales the run count)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="pool width (default: machine-derived)")
    parser.add_argument("--start-method", type=str, default=None,
                        choices=("spawn", "fork", "forkserver"),
                        help="worker start method (default spawn)")
    parser.add_argument("--output-dir", type=str, default=".",
                        help="directory of BENCH_campaign_throughput.json "
                             "(default .)")
    parser.add_argument("--no-persist", action="store_true",
                        help="measure and print only; do not touch the "
                             "BENCH_*.json history")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    if args.repetitions is not None and args.repetitions < 1:
        print("error: --repetitions must be >= 1", file=sys.stderr)
        return 2
    if args.max_workers is not None and args.max_workers < 1:
        print("error: --max-workers must be >= 1", file=sys.stderr)
        return 2
    result = run_campaign_benchmark(preset=args.preset, repeats=args.repeats,
                                    max_workers=args.max_workers,
                                    start_method=args.start_method,
                                    repetitions=args.repetitions)
    print(format_result(result))
    if not args.no_persist:
        path = persist_result(result, args.output_dir)
        print(f"  recorded in {path}")
    if not result.equivalent:
        print("error: workers and serial executors disagree: "
              f"{result.equivalence_detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
