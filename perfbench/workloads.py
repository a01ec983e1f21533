"""The benchmark's workload generator: seed in, program inputs out.

The program only ever receives what these functions return — a
``WorkflowConfig`` for the in-transit workloads, a ``CampaignSpec`` per
submitted campaign for the service workload.  The same seed always gives
the same inputs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import MLConfig, StreamingConfig, WorkflowConfig
from repro.models.config import ModelConfig
from repro.pic.khi import KHIConfig
from repro.workflow.presets import get_preset

INSITU_WORKLOADS = ("insitu-train", "insitu-produce")
CAMPAIGN_WORKLOADS = ("campaign-service",)
WORKLOADS = INSITU_WORKLOADS + CAMPAIGN_WORKLOADS

#: Simulation steps per measured session run, per in-transit workload:
#: about two seconds of work each, so fill and drain of the two-deep
#: queue stay a small share of a run.
STEPS_PER_RUN = {"insitu-train": 40, "insitu-produce": 80}
#: Steps of the untimed warm-up run at the start of a process.
WARMUP_STEPS = 10
#: Steps of the fused-vs-reference PIC comparison on insitu-produce.
PIC_PREFIX_STEPS = 3


def insitu_config(workload: str, seed: int) -> WorkflowConfig:
    """The coupled-run configuration of an in-transit workload.

    ``insitu-train`` is the ``laptop`` preset (queue limit 2, 4 training
    iterations per streamed step): training is the slow side.
    ``insitu-produce`` is KHI on ``KHIConfig``'s default 16x32x4 grid at 8
    particles per cell, streamed as 2x8x1 sub-volumes with 64-point clouds
    and 8x16 spectra into a small VAE+INN trained once per step: the
    simulation is the slow side.
    """
    if workload == "insitu-train":
        return replace(get_preset("laptop"), seed=seed)
    if workload == "insitu-produce":
        model = ModelConfig(n_input_points=64, encoder_channels=(12, 24),
                            latent_dim=256, spectrum_dim=128, inn_blocks=2,
                            inn_hidden=(16,))
        return WorkflowConfig(
            khi=KHIConfig(grid_shape=(16, 32, 4), particles_per_cell=8,
                          seed=seed),
            ml=MLConfig(model=model, n_rep=1),
            streaming=StreamingConfig(queue_limit=2),
            region_counts=(2, 8, 1), n_detector_directions=8,
            n_detector_frequencies=16, seed=seed)
    raise ValueError(f"not an in-transit workload: {workload!r}")


def campaign_spec(seed: int, index: int):
    """The ``index``-th campaign the service client submits.

    ``campaign-smoke``-shaped (8 runs of a tiny 2-step coupled run), with
    a fresh name and seed per campaign so no run repeats an earlier one.
    Imported here, not at module level, so the in-transit set-up time
    does not include the campaign package.
    """
    from repro.campaign.presets import get_campaign_preset
    from repro.campaign.spec import CampaignSpec

    document = get_campaign_preset("campaign-smoke").to_dict()
    document.update(name=f"bench-{seed}-{index}",
                    seed=seed * 100_003 + index)
    return CampaignSpec.from_dict(document)
