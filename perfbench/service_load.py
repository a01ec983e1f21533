"""The ``campaign-service`` workload: one closed-loop client over HTTP.

The service runs in its own process (``service_main.py``).  A single
client thread submits one ``campaign-smoke``-shaped campaign at a time
with ``executor=workers`` and no cache, watches its SSE stream until the
``done`` frame, and only then submits the next one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, List, Optional

from repro.campaign.scheduler import get_executor, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, RunRecord
from repro.service.client import ServiceClient, ServiceError

import checks
import layers
from benchenv import BENCH_DIR, OUT_DIR, Outcome, median, percentile
from tracer import (Aggregate, Tracer, read_jsonl, span_from_record,
                    span_record)
from workloads import campaign_spec

#: Service starts per benchmark run (the median set-up time is reported;
#: the last one serves the measurement).
SETUP_REPEATS = 5
#: The service keeps every campaign it ran in memory, so its resident set
#: grows with the number of campaigns; it is read after this many measured
#: campaigns, which keeps the figure independent of throughput.
RSS_AFTER_CAMPAIGNS = 40
REPLY_TIMEOUT_S = 60.0


class ServiceProcess:
    """The service child process and its stdin/stdout command channel."""

    def __init__(self, store_dir: str, trace_out: Optional[str]) -> None:
        self.store_dir = store_dir
        args = [sys.executable, os.path.join(BENCH_DIR, "service_main.py"),
                store_dir] + ([trace_out] if trace_out else [])
        start = time.perf_counter()
        self.process = subprocess.Popen(args, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        try:
            ready = self._reply("ready")
            self.client = ServiceClient(ready["url"])
            self.client.wait_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _reply(self, event: str) -> Dict[str, object]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"service exited before {event!r}")
        document = json.loads(line)
        if document.get("event") != event:
            raise RuntimeError(f"service said {document}, expected {event!r}")
        return document

    def _command(self, command: str, event: str) -> Dict[str, object]:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._reply(event)

    def set_trace(self, on: bool) -> None:
        self._command("trace on" if on else "trace off", "trace")

    def peak_rss_mb(self) -> float:
        """Peak resident set so far of the service plus its workers, MB."""
        return float(self._command("rss", "rss")["peak_rss_mb"])

    def stop(self) -> None:
        try:
            self._command("stop", "stopped")
            self.process.stdin.close()
            self.process.wait(timeout=REPLY_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream and not stream.closed:
                stream.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def serial_launch(spec_document: Dict[str, object],
                  store_path: str) -> List[Dict[str, object]]:
    """Records of an in-process ``serial``-executor launch of one spec."""
    spec = CampaignSpec.from_dict(spec_document)
    outcome = run_campaign(spec, CampaignStore(store_path),
                           get_executor("serial"))
    return [record.to_dict() for record in outcome.records]


@dataclass
class CampaignRun:
    """One submitted campaign as the client saw it."""

    campaign_id: Optional[str]
    spec: object
    latency: float
    first_run: Optional[float]
    frames: int
    traced: bool
    error: Optional[str] = None


def watch_campaign(client: ServiceClient, spec, traced: bool) -> CampaignRun:
    """Submit one campaign and follow its SSE stream to ``done``."""
    start = time.perf_counter()
    first_run = None
    frames = 0
    campaign_id = None
    try:
        campaign_id = client.submit(spec=spec.to_dict(),
                                    executor="workers")["campaign_id"]
        done = False
        for event in client.watch(campaign_id):
            frames += 1
            if first_run is None and event.event in ("snapshot", "run"):
                first_run = time.perf_counter() - start
            done = event.event == "done"
        error = None if done else "stream ended without a done frame"
    except (OSError, ServiceError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return CampaignRun(campaign_id, spec, time.perf_counter() - start,
                       first_run, frames, traced, error)


def run_campaign_service(seed: int, seconds: float, trace: bool) -> Outcome:
    """Measure the campaign service; check every record afterwards."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"service-{os.getpid()}"
    setups = []
    for attempt in range(SETUP_REPEATS - 1):
        service = ServiceProcess(os.path.join(OUT_DIR, f"{tag}-{attempt}"),
                                 None)
        setups.append(service.setup_s)
        service.stop()
    trace_out = os.path.join(OUT_DIR, f"{tag}.spans.jsonl") if trace else None
    service = ServiceProcess(os.path.join(OUT_DIR, tag), trace_out)
    setups.append(service.setup_s)

    tracer = Tracer("campaign-service") if trace else None
    runs: List[CampaignRun] = []
    statuses: Dict[str, Dict[str, object]] = {}
    rss = None
    try:
        # one untimed campaign: the workers' first runs import lazily
        warmup = watch_campaign(service.client, campaign_spec(seed, 0), False)
        if warmup.error:
            raise RuntimeError(f"warm-up campaign failed: {warmup.error}")
        measured = 0.0
        while measured < seconds or (trace and len(runs) < 4):
            traced = trace and len(runs) % 2 == 1
            spec = campaign_spec(seed, len(runs) + 1)
            if traced:
                service.set_trace(True)
                tracer.run_id = f"campaign{len(runs) + 1}"
                tracer.install(layers.client_entry_points())
                try:
                    with tracer.span("bench.campaign"):
                        run = watch_campaign(service.client, spec, True)
                finally:
                    tracer.restore()
                    service.set_trace(False)
            else:
                run = watch_campaign(service.client, spec, False)
            runs.append(run)
            measured += run.latency
            if run.error:
                break
            if len(runs) == RSS_AFTER_CAMPAIGNS:
                rss = service.peak_rss_mb()
        if rss is None:
            rss = service.peak_rss_mb()
        for run in runs:
            if run.campaign_id and not run.error:
                statuses[run.campaign_id] = service.client.status(
                    run.campaign_id)
    finally:
        service.stop()

    # -- output checks (outside the timed region) -----------------------------
    n_runs = len(campaign_spec(seed, 0).resolve())
    problems = [f"campaign {r.campaign_id or r.spec.name}: {r.error}"
                for r in runs if r.error]
    records = {cid: [RunRecord.from_dict(row) for row in status["records"]]
               for cid, status in statuses.items()}
    reference_dir = os.path.join(OUT_DIR, f"{tag}-serial")
    checked = [run for run in runs if run.campaign_id in records]
    try:
        # the serial launches are independent: spread them over two cores
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=get_context("spawn")) as pool:
            launches = pool.map(
                serial_launch, [r.spec.to_dict() for r in checked],
                [os.path.join(reference_dir, f"{r.campaign_id}.jsonl")
                 for r in checked])
            serial = {run.campaign_id: [RunRecord.from_dict(row) for row in out]
                      for run, out in zip(checked, launches)}
    finally:
        shutil.rmtree(reference_dir, ignore_errors=True)
    problems += checks.check_campaigns(records, serial,
                                       {cid: n_runs for cid in records})
    failed_records = sum(1 for rows in records.values()
                         for r in rows if not r.completed)
    attempted = n_runs * len(runs)
    failed = failed_records + n_runs * sum(1 for r in runs if r.error)

    plain = [run for run in runs if not run.traced and not run.error]
    notes = [f"{len(runs)} campaigns of {n_runs} runs, "
             f"{len(plain)} latency samples"]
    if not trace:
        steps = campaign_spec(seed, 0).n_steps
        rates = [n_runs / run.latency for run in plain]
        latencies = [run.latency for run in plain]
        metrics = {
            "steps_per_s": median([rate * steps for rate in rates]),
            "step_latency_p50_ms": 1e3 * percentile(latencies, 50),
            "step_latency_p90_ms": 1e3 * percentile(latencies, 90),
            "runs_per_s": median(rates),
            "first_run_ms": 1e3 * median([run.first_run for run in plain
                                          if run.first_run is not None]),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "success_frac": 1.0 - failed / attempted,
        }
        spans = []
    else:
        traced_runs = [run for run in runs if run.traced and not run.error]
        overhead = median([r.latency for r in traced_runs]) \
            / median([r.latency for r in plain]) - 1.0
        _, service_rows = read_jsonl(trace_out)
        os.remove(trace_out)
        merged = [span_from_record(row, "client:") for row in tracer.records()]
        merged += [span_from_record(row, "service:") for row in service_rows]
        spans = [span_record(span, "campaign-service") for span in merged]
        metrics = layers.campaign_layer_metrics(
            Aggregate(merged),
            [statuses[r.campaign_id] for r in traced_runs],
            [r.frames for r in traced_runs])
        metrics["bench.trace_overhead_frac"] = overhead
    return Outcome(metrics=metrics, attempted=attempted, failed=failed,
                   problems=problems, notes=notes, spans=spans)
