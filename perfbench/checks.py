"""Output checks, run outside the timed region.  Each returns the problems
found as one line each; an empty list means the outputs are correct."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.campaign.hotpath import check_equivalence as campaign_equivalence
from repro.campaign.store import RunRecord
from repro.pic.hotpath import EQUIVALENCE_RTOL

#: Largest relative deviation of a loss trajectory from the serial-driver
#: trajectory; the drivers feed the trainer the same samples in the same
#: order, so float64 results agree far below this.
LOSS_RTOL = 1e-9


def check_insitu_run(result, consumed: Sequence[int], n_rep: int,
                     reference_losses: Sequence[float]) -> List[str]:
    """One measured in-transit session run.

    Args:
        result: the run's ``RunResult``.
        consumed: iteration indices the primary consumer reported trained.
        n_rep: training iterations per streamed step.
        reference_losses: total-loss trajectory of a ``serial``-driver run
            of the same configuration and length.
    """
    problems = []
    if result.producer_exception is not None:
        problems.append(f"producer raised {result.producer_exception!r}")
    for name, error in result.consumer_exceptions.items():
        problems.append(f"consumer {name} raised {error!r}")
    report = result.report
    streamed = report.iterations_streamed
    if len(consumed) != streamed or len(set(consumed)) != streamed:
        problems.append(f"{streamed} steps streamed but {len(consumed)} "
                        f"trained on")
    if report.training_iterations != streamed * n_rep:
        problems.append(f"training_iterations {report.training_iterations} "
                        f"!= {streamed} streamed x n_rep {n_rep}")
    losses = np.asarray(report.loss_history_total, dtype=np.float64)
    reference = np.asarray(reference_losses, dtype=np.float64)
    if losses.shape != reference.shape:
        problems.append(f"loss trajectory has {losses.size} entries, the "
                        f"serial run {reference.size}")
    elif losses.size:
        scale = np.maximum(np.abs(reference), 1e-300)
        worst = float(np.max(np.abs(losses - reference) / scale))
        if not worst <= LOSS_RTOL:
            problems.append(f"loss trajectory deviates from the serial run "
                            f"by {worst:.3e} (rtol {LOSS_RTOL:g})")
    return problems


def check_pic_state(simulation, reference) -> List[str]:
    """The fused-kernel PIC state against the ``reference`` kernels: the
    worst relative field/position deviation, measured the way
    ``repro.pic.hotpath.check_equivalence`` measures it."""
    worst = 0.0
    for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        a = simulation.grid.component(name)
        b = reference.grid.component(name)
        scale = np.max(np.abs(b)) + 1e-300
        worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    for s_a, s_b in zip(simulation.species, reference.species):
        scale = np.max(np.abs(s_b.positions)) + 1e-300
        worst = max(worst, float(np.max(np.abs(s_a.positions - s_b.positions))
                                 / scale))
    if not worst <= EQUIVALENCE_RTOL:
        return [f"PIC state deviates from kernel='reference' by {worst:.3e} "
                f"(rtol {EQUIVALENCE_RTOL:g})"]
    return []


def check_campaigns(records: Dict[str, List[RunRecord]],
                    serial: Dict[str, List[RunRecord]],
                    expected_runs: Dict[str, int]) -> List[str]:
    """Every service campaign against a ``serial``-executor launch.

    Args:
        records: per campaign id, the service's records.
        serial: per campaign id, the records of an in-process serial launch
            of the same spec.
        expected_runs: per campaign id, the number of resolved runs.
    """
    problems = []
    for campaign_id, expected in expected_runs.items():
        got = sorted(records.get(campaign_id, []), key=lambda r: r.index)
        if len(got) != expected:
            problems.append(f"{campaign_id}: {len(got)} records for "
                            f"{expected} runs")
            continue
        failed = [r.run_id for r in got if not r.completed]
        if failed:
            problems.append(f"{campaign_id}: runs not completed: {failed}")
            continue
        equivalent, detail = campaign_equivalence(serial[campaign_id], got)
        if not equivalent:
            problems.append(f"{campaign_id}: {detail}")
    return problems
