#!/usr/bin/env python
"""A parameter-sweep campaign: many coupled runs from one declarative spec.

The Artificial Scientist pays off when the simulation + in-transit-learning
loop runs across many physics scenarios.  This example declares a small
learning-rate sweep with a 2-member seed ensemble per point, executes it
on the warm worker pool, persists every run to an append-only JSONL
store — re-running the script skips completed runs — and prints the
aggregated campaign report with the best run.

Run with::

    python examples/campaign_sweep.py [store.jsonl]
"""

from __future__ import annotations

import sys

from repro.campaign import (CampaignSpec, CampaignStore, aggregate,
                            get_executor, run_campaign)


def main() -> None:
    store_path = sys.argv[1] if len(sys.argv) > 1 else "sweep.campaign.jsonl"
    spec = CampaignSpec(
        name="lr-sweep",
        base_preset="bench-tiny",
        parameters={"ml.base_learning_rate": [1e-3, 5e-4, 1e-4]},
        repetitions=2,        # 2 derived seeds per learning rate = 6 runs
        n_steps=3,
        seed=41,
    )
    store = CampaignStore(store_path)

    print(f"campaign {spec.name!r}: {len(spec.resolve())} runs "
          f"({len(store.completed_run_ids())} already in {store_path})")
    outcome = run_campaign(
        spec, store, get_executor("workers", max_workers=3),
        on_record=lambda r: print(f"  [{r.run_id}] {r.status} "
                                  f"in {r.elapsed_s:.2f} s"))
    print(f"skipped {outcome.skipped}, executed {outcome.executed}, "
          f"failed {outcome.failed}\n")
    print(aggregate(store.records(), campaign=spec.name).format_text())


if __name__ == "__main__":
    main()
