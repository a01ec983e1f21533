"""The in-transit workloads: one coupled run at a time through WorkflowBuilder.

A measurement is a sequence of fresh sessions of the same configuration,
each run for ``STEPS_PER_RUN`` steps on the ``threaded`` driver, until the
measured ``session.run`` time reaches the requested seconds.  Lifecycle
hooks timestamp every streamed step when it enters the stream
(``on_step``) and when the trainer has finished it
(``on_iteration_consumed``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.workflow import WorkflowBuilder

import checks
import layers
from benchenv import BENCH_DIR, Outcome, median, peak_rss_mb, percentile
from tracer import Aggregate, Tracer
from workloads import (PIC_PREFIX_STEPS, STEPS_PER_RUN, WARMUP_STEPS,
                       insitu_config)

#: Fresh-interpreter set-ups per benchmark run (the median is reported).
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0


@dataclass
class SessionRun:
    """One measured session run and what its hooks saw."""

    result: object
    wall: float
    first_result: Optional[float]
    latencies: List[float]
    consumed: List[int]
    traced: bool = False
    n_macro_particles: int = 0


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from process start to a built session."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return median(times)


def run_session(config, n_steps: int, driver: str = "threaded") -> SessionRun:
    """Build a session with timing hooks and run it once."""
    entered: Dict[int, float] = {}
    done: Dict[int, float] = {}
    consumed: List[int] = []

    def on_step(session, index: int) -> None:
        entered[session.simulation.step_index] = time.perf_counter()

    def on_consumed(session, name: str, iteration: int, n_samples: int) -> None:
        if name == session.primary_name:
            done[iteration] = time.perf_counter()
            consumed.append(iteration)

    session = (WorkflowBuilder().config(config).driver(driver)
               .on_step(on_step).on_iteration_consumed(on_consumed).build())
    start = time.perf_counter()
    result = session.run(n_steps)
    wall = time.perf_counter() - start
    latencies = [done[i] - entered[i] for i in done if i in entered]
    return SessionRun(result=result, wall=wall,
                      first_result=min(done.values()) - start if done else None,
                      latencies=latencies, consumed=consumed,
                      n_macro_particles=session.simulation.n_macro_particles)


def run_insitu(workload: str, seed: int, seconds: float,
               trace: bool) -> Outcome:
    """Measure one in-transit workload; check its outputs afterwards."""
    config = insitu_config(workload, seed)
    n_steps = STEPS_PER_RUN[workload]
    setup_s = measure_setup(workload, seed)
    run_session(config, WARMUP_STEPS)          # first run in a process is slow

    tracer = Tracer(workload) if trace else None
    runs: List[SessionRun] = []
    measured = 0.0
    # the traced run alternates untraced and traced sessions, so drift in
    # machine load hits both halves of the overhead comparison alike
    while measured < seconds or (trace and len(runs) < 4):
        traced = trace and len(runs) % 2 == 1
        if traced:
            tracer.run_id = f"run{len(runs)}"
            tracer.install(layers.insitu_entry_points())
        try:
            run = run_session(config, n_steps)
        finally:
            if traced:
                tracer.restore()
        run.traced = traced
        runs.append(run)
        measured += run.wall
    rss = peak_rss_mb()

    # -- output checks (outside the timed region) -----------------------------
    reference = run_session(config, n_steps, driver="serial")
    reference_losses = reference.result.report.loss_history_total
    problems = checks.check_insitu_run(reference.result, reference.consumed,
                                       config.ml.n_rep, reference_losses)
    failed = 0
    for index, run in enumerate(runs):
        found = checks.check_insitu_run(run.result, run.consumed,
                                        config.ml.n_rep, reference_losses)
        failed += bool(found)
        problems += [f"run {index}: {p}" for p in found]
    if workload == "insitu-produce":
        states = {}
        for kernel in ("fused", "reference"):
            kernel_config = replace(config, khi=replace(config.khi,
                                                        kernel=kernel))
            session = WorkflowBuilder().config(kernel_config) \
                .driver("serial").build()
            session.run(PIC_PREFIX_STEPS)
            states[kernel] = session.simulation
        problems += checks.check_pic_state(states["fused"],
                                           states["reference"])

    plain = [run for run in runs if not run.traced]
    latencies = [value for run in plain for value in run.latencies]
    notes = [f"{len(runs)} session runs of {n_steps} steps, "
             f"{len(latencies)} step-latency samples"]
    if not trace:
        metrics = {
            "steps_per_s": median([run.result.report.n_steps / run.wall
                                   for run in plain]),
            "step_latency_p50_ms": 1e3 * percentile(latencies, 50),
            "step_latency_p90_ms": 1e3 * percentile(latencies, 90),
            "runs_per_s": median([1.0 / run.wall for run in plain]),
            "first_run_ms": 1e3 * median([run.first_result for run in plain
                                          if run.first_result is not None]),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "success_frac": 1.0 - failed / len(runs),
        }
    else:
        traced_runs = [run for run in runs if run.traced]
        overhead = median([r.wall for r in traced_runs]) \
            / median([r.wall for r in plain]) - 1.0
        metrics = layers.insitu_layer_metrics(
            Aggregate(tracer.spans), [r.result for r in traced_runs],
            traced_runs[0].n_macro_particles)
        metrics["bench.trace_overhead_frac"] = overhead
    return Outcome(metrics=metrics, attempted=len(runs), failed=failed,
                   problems=problems, notes=notes,
                   spans=tracer.records() if trace else [])
