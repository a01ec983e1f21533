"""Tests of CampaignSpec sampling, overrides, seeds and serialisation."""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignSpec, apply_override, run_id_of
from repro.core.config import WorkflowConfig
from repro.workflow import get_preset


def smoke_spec(**kwargs) -> CampaignSpec:
    from repro.campaign import get_campaign_preset

    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


class TestApplyOverride:
    def test_nested_and_top_level_paths(self):
        config = get_preset("cli-small").to_dict()
        apply_override(config, "khi.seed", 7)
        apply_override(config, "ml.base_learning_rate", 5e-4)
        apply_override(config, "ml.model.latent_dim", 32)
        apply_override(config, "seed", 99)
        rebuilt = WorkflowConfig.from_dict(config)
        assert rebuilt.khi.seed == 7
        assert rebuilt.ml.base_learning_rate == 5e-4
        assert rebuilt.ml.model.latent_dim == 32
        assert rebuilt.seed == 99

    def test_unknown_leaf_lists_valid_keys(self):
        config = get_preset("cli-small").to_dict()
        with pytest.raises(ValueError, match="valid keys"):
            apply_override(config, "khi.sneed", 7)

    def test_non_section_path_names_sections(self):
        config = get_preset("cli-small").to_dict()
        with pytest.raises(ValueError, match="not a config section"):
            apply_override(config, "seed.deeper", 7)


class TestSampling:
    def test_grid_is_cartesian_product(self):
        spec = smoke_spec(parameters={"ml.base_learning_rate": [1e-3, 1e-4],
                                      "ml.n_rep": [1, 2, 3]},
                          repetitions=1)
        runs = spec.resolve()
        assert len(runs) == 6
        combos = {(run.params["ml.base_learning_rate"], run.params["ml.n_rep"])
                  for run in runs}
        assert combos == {(lr, n) for lr in (1e-3, 1e-4) for n in (1, 2, 3)}

    def test_repetitions_expand_each_point_with_distinct_seeds(self):
        spec = smoke_spec(repetitions=3, parameters={})
        runs = spec.resolve()
        assert len(runs) == 3
        seeds = {run.config["seed"] for run in runs}
        assert len(seeds) == 3
        # the derived seed also drives the KHI particle loading
        assert all(run.config["khi"]["seed"] == run.config["seed"]
                   for run in runs)

    def test_explicit_seed_sweep_wins_over_derivation(self):
        spec = smoke_spec(parameters={"seed": [1, 2], "khi.seed": [5]},
                          repetitions=1)
        runs = spec.resolve()
        assert sorted(run.config["seed"] for run in runs) == [1, 2]
        assert all(run.config["khi"]["seed"] == 5 for run in runs)

    def test_run_level_parameters(self):
        spec = smoke_spec(parameters={"driver": ["serial", "threaded"],
                                      "n_steps": [2, 3]}, repetitions=1)
        runs = spec.resolve()
        assert {(run.driver, run.n_steps) for run in runs} == \
            {("serial", 2), ("serial", 3), ("threaded", 2), ("threaded", 3)}

    def test_random_sampler_draws_choices_and_ranges(self):
        spec = smoke_spec(sampler="random", n_samples=12, repetitions=1,
                          parameters={"ml.n_rep": [1, 2],
                                      "ml.base_learning_rate":
                                          {"low": 1e-5, "high": 1e-3, "log": True}})
        runs = spec.resolve()
        assert 0 < len(runs) <= 12
        for run in runs:
            assert run.params["ml.n_rep"] in (1, 2)
            assert 1e-5 <= run.params["ml.base_learning_rate"] <= 1e-3

    def test_explicit_sampler(self):
        spec = smoke_spec(sampler="explicit", parameters={}, repetitions=1,
                          explicit=[{"ml.n_rep": 1}, {"ml.n_rep": 2,
                                                      "n_steps": 4}])
        runs = spec.resolve()
        assert len(runs) == 2
        assert runs[1].n_steps == 4

    def test_resolution_is_deterministic(self):
        spec = smoke_spec(sampler="random", n_samples=6,
                          parameters={"ml.base_learning_rate":
                                      {"low": 1e-5, "high": 1e-3}})
        first = [(run.run_id, run.config["seed"]) for run in spec.resolve()]
        second = [(run.run_id, run.config["seed"]) for run in spec.resolve()]
        assert first == second

    def test_run_ids_hash_the_resolved_run(self):
        spec = smoke_spec(repetitions=2, parameters={})
        run = spec.resolve()[0]
        assert run.run_id == run_id_of(run.config, run.driver, run.n_steps)
        assert len({r.run_id for r in spec.resolve()}) == 2

    def test_bad_override_fails_at_resolve_time(self):
        spec = smoke_spec(parameters={"khi.warp_factor": [9]}, repetitions=1)
        with pytest.raises(ValueError, match="warp_factor"):
            spec.resolve()

    def test_swept_n_steps_is_validated_like_the_spec_field(self):
        with pytest.raises(ValueError, match="swept n_steps.*integer"):
            smoke_spec(parameters={"n_steps": [2.5]}, repetitions=1).resolve()
        with pytest.raises(ValueError, match="swept n_steps must be >= 1"):
            smoke_spec(parameters={"n_steps": [0]}, repetitions=1).resolve()
        runs = smoke_spec(parameters={"n_steps": [1, 3]},
                          repetitions=1).resolve()
        assert {run.n_steps for run in runs} == {1, 3}

    def test_bad_driver_fails_at_resolve_time(self):
        with pytest.raises(ValueError, match="valid drivers"):
            smoke_spec(driver="threded", repetitions=1).resolve()
        spec = smoke_spec(parameters={"driver": ["serial", "threded"]},
                          repetitions=1)
        with pytest.raises(ValueError, match="valid drivers"):
            spec.resolve()


class TestValidationAndRoundTrip:
    def test_rejects_unknown_sampler_and_bad_counts(self):
        with pytest.raises(ValueError, match="valid samplers"):
            CampaignSpec(sampler="bayesian")
        with pytest.raises(ValueError, match="repetitions"):
            CampaignSpec(repetitions=0)
        with pytest.raises(ValueError, match="n_steps"):
            CampaignSpec(n_steps=0)
        with pytest.raises(ValueError, match="explicit"):
            CampaignSpec(sampler="explicit")
        with pytest.raises(ValueError, match="sampler='explicit'"):
            CampaignSpec(explicit=[{"seed": 1}])

    def test_grid_requires_value_lists(self):
        spec = smoke_spec(parameters={"ml.n_rep": 3}, repetitions=1)
        with pytest.raises(ValueError, match="value list"):
            spec.resolve()

    def test_fully_pinned_repetitions_warn_about_dropped_duplicates(self):
        spec = smoke_spec(sampler="explicit", parameters={},
                          explicit=[{"seed": 1, "khi.seed": 1}],
                          repetitions=3)
        with pytest.warns(RuntimeWarning, match="dropped 2 duplicate"):
            runs = spec.resolve()
        assert len(runs) == 1

    def test_integer_fields_coerce_or_fail_clearly(self):
        assert CampaignSpec(repetitions="2").repetitions == 2
        assert CampaignSpec(seed=3.0).seed == 3
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            CampaignSpec(repetitions="lots")
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            CampaignSpec(n_steps=None)
        # a non-integral float must not silently truncate (2.5 -> 2)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            CampaignSpec(n_steps=2.5)

    def test_container_fields_fail_clearly(self):
        with pytest.raises(ValueError, match="parameters must be a mapping"):
            CampaignSpec(parameters=42)
        with pytest.raises(ValueError, match="list of override mappings"):
            CampaignSpec(sampler="explicit", explicit=[5])
        with pytest.raises(ValueError, match="base_config must be"):
            CampaignSpec(base_config=[1, 2])

    def test_log_range_requires_positive_low(self):
        spec = smoke_spec(
            sampler="random", repetitions=1, n_samples=2,
            parameters={"ml.base_learning_rate":
                        {"low": 0, "high": 1e-3, "log": True}})
        with pytest.raises(ValueError, match="base_learning_rate.*low > 0"):
            spec.resolve()

    def test_dict_and_file_round_trip(self, tmp_path):
        spec = smoke_spec(parameters={"ml.n_rep": [1, 2]}, repetitions=2,
                          name="round-trip")
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        path = str(tmp_path / "campaign.json")
        spec.to_file(path)
        loaded = CampaignSpec.from_file(path)
        assert loaded == spec
        assert [r.run_id for r in loaded.resolve()] == \
            [r.run_id for r in spec.resolve()]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec keys"):
            CampaignSpec.from_dict({"executor": "workers"})

    def test_empty_routing_of_old_spec_files_is_dropped(self, tmp_path):
        """Spec files written while sharded execution existed all carry
        ``"routing": {}``; they keep loading, to the same spec."""
        spec = smoke_spec()
        path = tmp_path / "old.spec.json"
        path.write_text(json.dumps(dict(spec.to_dict(), routing={})))
        assert CampaignSpec.from_file(str(path)) == spec

    def test_nonempty_routing_is_rejected(self):
        document = dict(smoke_spec().to_dict(), routing={"shards": 2})
        with pytest.raises(ValueError, match="sharded execution was removed"):
            CampaignSpec.from_dict(document)

    def test_campaign_smoke_run_ids_are_pinned(self):
        """Run ids key every existing store and cache entry: removing a
        spec field must not move them."""
        runs = smoke_spec().resolve()
        assert [run.run_id for run in runs] == [
            "be3d66dfdf7a2fec", "00b1d783632ad4de", "7318969decead6fd",
            "195f400d73bb8554", "b8980b8aec410fa4", "7a7dedcda99821a4",
            "3a0eb391490546ab", "c24d61ff61c8d04d"]
        assert all(run_id_of(run.config, run.driver, run.n_steps)
                   == run.run_id for run in runs)

    def test_base_preset_resolution(self):
        spec = CampaignSpec(base_preset="bench-tiny", parameters={},
                            repetitions=1)
        run = spec.resolve()[0]
        assert run.config["ml"]["model"]["n_input_points"] == 48

    def test_swept_parameters(self):
        assert smoke_spec().swept_parameters() == ["ml.base_learning_rate"]
        explicit = smoke_spec(sampler="explicit", parameters={},
                              explicit=[{"seed": 1}, {"ml.n_rep": 2}])
        assert explicit.swept_parameters() == ["ml.n_rep", "seed"]
