"""Tests of the campaign-throughput harness (``repro.campaign.hotpath``)."""

from __future__ import annotations

import pytest

from repro.campaign.hotpath import (CampaignThroughputResult,
                                    check_equivalence, format_result, main,
                                    persist_result, run_campaign_benchmark,
                                    service_chunk_size)
from repro.campaign.store import RunRecord, STATUS_COMPLETED, STATUS_FAILED
from repro.utils.benchjson import latest_run


def record(run_id, loss=1.0, status=STATUS_COMPLETED):
    return RunRecord(run_id=run_id, index=0, params={"p": 1},
                     driver="serial", n_steps=2, status=status,
                     summary={"final_total_loss": loss}
                     if status == STATUS_COMPLETED else {})


def stub_result(**overrides):
    kwargs = dict(runs_per_sec={"serial": 40.0, "workers": 50.0},
                  chunk_sizes={"serial": 1, "workers": 2},
                  preset="campaign-smoke", n_runs=8, max_workers=2,
                  start_method="spawn", pool_stats={"dispatched_runs": 8},
                  equivalent=True, equivalence_detail="")
    kwargs.update(overrides)
    return CampaignThroughputResult(**kwargs)


class TestServiceChunkSize:
    def test_mirrors_the_service_launch_shape(self):
        assert service_chunk_size("serial", 4) == 1
        assert service_chunk_size("workers", 4) == 4
        assert service_chunk_size("workers", 2) == 2
        assert service_chunk_size("workers", 0) == 1


class TestCheckEquivalence:
    def test_identical_records_pass(self):
        serial = [record("a"), record("b")]
        workers = [record("a"), record("b")]
        ok, detail = check_equivalence(serial, workers)
        assert ok and detail == ""

    def test_reordered_run_ids_fail(self):
        ok, detail = check_equivalence([record("a"), record("b")],
                                       [record("b"), record("a")])
        assert not ok and "order" in detail

    def test_failed_workers_runs_fail(self):
        ok, detail = check_equivalence(
            [record("a")], [record("a", status=STATUS_FAILED)])
        assert not ok and "failed" in detail

    def test_diverged_summaries_fail(self):
        ok, detail = check_equivalence([record("a", loss=1.0)],
                                       [record("a", loss=2.0)])
        assert not ok and "aggregate" in detail


class TestRunCampaignBenchmark:
    def test_measures_all_executors_and_gates(self):
        result = run_campaign_benchmark(repeats=1, max_workers=2,
                                        start_method="fork")
        assert set(result.runs_per_sec) == {"serial", "workers"}
        assert all(rate > 0 for rate in result.runs_per_sec.values())
        assert result.n_runs == 8
        assert result.chunk_sizes["serial"] == 1
        assert result.equivalent, result.equivalence_detail
        # warmup chunk + measured blocks all ran on the one warm pool
        assert result.pool_stats["dispatched_runs"] >= 8
        assert result.pool_stats["respawns"] == 0
        assert result.speedup("workers", "serial") > 0

    def test_repetitions_scale_the_run_count(self):
        result = run_campaign_benchmark(repeats=1, max_workers=2,
                                        start_method="fork", repetitions=1)
        assert result.n_runs == 2

    @pytest.mark.parametrize("kwargs", [{"repeats": 0}, {"repetitions": 0},
                                        {"preset": "no-such-preset"}])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            run_campaign_benchmark(**kwargs)


class TestPersistAndFormat:
    def test_persist_appends_bench_record(self, tmp_path):
        result = stub_result()
        path = persist_result(result, str(tmp_path))
        assert path.endswith("BENCH_campaign_throughput.json")
        saved = latest_run("campaign_throughput", str(tmp_path))
        assert saved["metrics"]["speedup_workers_vs_serial"] == 1.25
        assert saved["params"]["executors"] == ["serial", "workers"]
        assert saved["metrics"]["equivalent"] is True
        assert saved["params"]["preset"] == "campaign-smoke"

    def test_format_mentions_every_executor_and_the_gate(self):
        text = format_result(stub_result())
        assert "serial" in text and "workers" in text
        assert "process" not in text
        assert "1.25x" in text
        assert "OK" in text
        failed = format_result(stub_result(equivalent=False,
                                           equivalence_detail="diverged"))
        assert "FAILED" in failed and "diverged" in failed


class TestMain:
    def test_main_no_persist(self, capsys):
        assert main(["--repeats", "1", "--repetitions", "1",
                     "--max-workers", "2", "--start-method", "fork",
                     "--no-persist"]) == 0
        out = capsys.readouterr().out
        assert "workers vs serial" in out
        assert "recorded" not in out

    def test_main_persists_history(self, capsys, tmp_path):
        assert main(["--repeats", "1", "--repetitions", "1",
                     "--max-workers", "2", "--start-method", "fork",
                     "--output-dir", str(tmp_path)]) == 0
        assert latest_run("campaign_throughput", str(tmp_path)) is not None
        assert "recorded" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--repeats", "0"],
                                      ["--repetitions", "0"],
                                      ["--max-workers", "0"]])
    def test_main_rejects_bad_flags(self, argv, capsys):
        assert main(argv + ["--no-persist"]) == 2
        assert "error" in capsys.readouterr().err

    def test_equivalence_failure_exits_nonzero(self, capsys, monkeypatch):
        """The CI gate: a workers-vs-serial disagreement must fail the
        process, not just print a warning."""
        import repro.campaign.hotpath as hotpath_module

        monkeypatch.setattr(
            hotpath_module, "run_campaign_benchmark",
            lambda **kwargs: stub_result(equivalent=False,
                                         equivalence_detail="diverged"))
        assert main(["--no-persist"]) == 1
        assert "disagree" in capsys.readouterr().err
