"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/selftest.py -q`` (about two
minutes; the file name keeps it out of the repository's tier-1 run).  The
quick mode runs every workload for one second, traced and untraced, and
checks what it prints and the spans it writes; the other tests show that
a run leaves no process behind, that the output checks catch corrupted
results and that the tracer nests, restores and adds up.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

import benchenv

benchenv.pin_threads()
benchenv.use_source_tree()

import checks  # noqa: E402
from run import declared_units  # noqa: E402
from tracer import (Aggregate, Tracer, nesting_errors, read_jsonl,  # noqa: E402
                    span_from_record)

WORKLOADS = ("insitu-train", "insitu-produce", "campaign-service")


def _run(workload, trace, seconds="1", cwd=benchenv.ROOT, seed="3"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", seed, "--seconds", seconds,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


# -- quick mode ---------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced_prints_every_end_to_end_metric(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = declared_units(trace=False)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in done.stdout.splitlines()), name
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_reports_layers_and_spans_add_up(workload):
    done = _run(workload, 1)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = declared_units(trace=True)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["bench.self_coverage_min"]["value"] >= 0.95

    header, rows = read_jsonl(os.path.join(
        benchenv.OUT_DIR, f"{workload}-seed3.trace.jsonl"))
    assert header["workload"] == workload
    assert rows and all(row["workload"] == workload and row["run"]
                        for row in rows)
    spans = [span_from_record(row) for row in rows]
    assert nesting_errors(spans) == []
    agg = Aggregate(spans)
    root = "pic.step" if workload.startswith("insitu") else "campaign.launch"
    threads = agg.threads_with(root)
    if workload.startswith("insitu"):
        threads += agg.threads_with("core.consume")
    assert threads
    for thread in threads:
        assert thread["self"] == pytest.approx(thread["covered"], rel=1e-9)
        assert thread["self"] >= 0.95 * thread["wall"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(benchenv.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(benchenv.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("insitu-train", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _session_members(sid):
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append((int(entry), fields[0]))
    return members


@pytest.mark.parametrize("trace", (0, 1))
def test_service_run_leaves_no_process_behind(trace):
    # the service, its pool workers and every resource tracker have ended
    # (and been reaped) by the time the command exits
    with subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", "campaign-service", "--seed", "3", "--seconds",
             "1", "--trace", str(trace)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            cwd=benchenv.ROOT, start_new_session=True) as child:
        assert child.wait(timeout=300) == 0
    assert _session_members(child.pid) == []


# -- the output checks catch corrupted results ----------------------------------
@pytest.fixture(scope="module")
def tiny_runs():
    from insitu import run_session
    from repro.workflow.presets import get_preset

    config = get_preset("bench-tiny")
    return (config, run_session(config, 4),
            run_session(config, 4, driver="serial"))


def test_insitu_check_passes_clean_run(tiny_runs):
    config, run, reference = tiny_runs
    losses = reference.result.report.loss_history_total
    assert checks.check_insitu_run(run.result, run.consumed, config.ml.n_rep,
                                   losses) == []


def test_insitu_check_catches_dropped_step(tiny_runs):
    config, run, reference = tiny_runs
    losses = reference.result.report.loss_history_total
    problems = checks.check_insitu_run(run.result, run.consumed[:-1],
                                       config.ml.n_rep, losses)
    assert any("trained on" in p for p in problems)


def test_insitu_check_catches_perturbed_loss(tiny_runs):
    config, run, reference = tiny_runs
    losses = list(reference.result.report.loss_history_total)
    losses[3] *= 1.0 + 1e-6
    problems = checks.check_insitu_run(run.result, run.consumed,
                                       config.ml.n_rep, losses)
    assert any("loss trajectory" in p for p in problems)


def test_insitu_check_catches_untrained_iterations(tiny_runs):
    config, run, reference = tiny_runs
    report = replace(run.result.report,
                     training_iterations=run.result.report.training_iterations - 1)
    result = replace(run.result, report=report)
    problems = checks.check_insitu_run(
        result, run.consumed, config.ml.n_rep,
        reference.result.report.loss_history_total)
    assert any("training_iterations" in p for p in problems)


def test_pic_check_compares_with_reference_kernel():
    from repro.pic.khi import KHIConfig, make_khi_simulation

    sims = {kernel: make_khi_simulation(KHIConfig(grid_shape=(8, 16, 2),
                                                  particles_per_cell=2,
                                                  seed=5, kernel=kernel))
            for kernel in ("fused", "reference")}
    for simulation in sims.values():
        for _ in range(2):
            simulation.step()
    assert checks.check_pic_state(sims["fused"], sims["reference"]) == []
    sims["fused"].species[0].positions[0, 0] *= 1.0 + 1e-6
    assert checks.check_pic_state(sims["fused"], sims["reference"])


def test_campaign_check_catches_corrupted_record(tmp_path):
    from repro.campaign.scheduler import get_executor, run_campaign
    from repro.campaign.store import CampaignStore

    from workloads import campaign_spec

    spec = campaign_spec(3, 1)
    runs = {name: run_campaign(spec, CampaignStore(str(tmp_path / name)),
                               get_executor("serial")).records
            for name in ("a", "b")}
    expected = {"c": len(runs["a"])}
    assert checks.check_campaigns({"c": runs["b"]}, {"c": runs["a"]},
                                  expected) == []
    perturbed = list(runs["b"])
    summary = dict(perturbed[2].summary)
    summary["final_total_loss"] *= 1.0 + 1e-6
    perturbed[2] = replace(perturbed[2], summary=summary)
    assert checks.check_campaigns({"c": perturbed}, {"c": runs["a"]},
                                  expected)
    failed = list(runs["b"])
    failed[0] = replace(failed[0], status="failed")
    assert checks.check_campaigns({"c": failed}, {"c": runs["a"]}, expected)
    assert checks.check_campaigns({"c": runs["b"][1:]}, {"c": runs["a"]},
                                  expected)


# -- the tracer ----------------------------------------------------------------------
class _Base:
    def inherited(self, x):
        return x + 1


class _Owner(_Base):
    @staticmethod
    def static(x):
        return x * 2

    def method(self, x):
        return self.inherited(x) + self.static(x)


def test_tracer_wraps_and_restores_every_kind():
    module = types.ModuleType("fake")
    module.function = lambda x: _Owner().method(x)
    original_static = vars(_Owner)["static"]
    tracer = Tracer("unit")
    tracer.install([(module, "function", "f"), (_Owner, "method", "m"),
                    (_Owner, "static", "s"), (_Owner, "inherited", "i")])
    assert module.function(3) == 10
    assert [span[0] for span in tracer.spans] == ["i", "s", "m", "f"]
    assert nesting_errors(tracer.spans) == []
    tracer.restore()
    assert "inherited" not in vars(_Owner)
    assert vars(_Owner)["static"] is original_static
    assert module.function(3) == 10
    assert len(tracer.spans) == 4


def test_aggregate_self_time_and_thread_coverage():
    spans = [("root", 1, None, "t", "r", 0.0, 10.0),
             ("child", 2, 1, "t", "r", 1.0, 4.0),
             ("grandchild", 3, 2, "t", "r", 2.0, 3.0),
             ("child", 4, 1, "t", "r", 5.0, 9.0),
             ("root", 5, None, "t", "r", 12.0, 13.0)]
    agg = Aggregate(spans)
    assert agg.self_time["root"] == pytest.approx(4.0)
    assert agg.self_time["child"] == pytest.approx(6.0)
    assert agg.calls["child"] == 2
    thread = agg.threads[("r", "t")]
    assert thread["wall"] == pytest.approx(13.0)
    assert thread["covered"] == pytest.approx(11.0)
    assert thread["self"] == pytest.approx(11.0)
    assert nesting_errors(spans) == []
    assert nesting_errors([("a", 1, None, "t", "r", 0.0, 1.0),
                           ("b", 2, 1, "t", "r", 0.5, 2.0)])
