"""The traced entry points of each layer and the per-layer metrics.

Each entry point is ``(owner, attribute, span name)``: the module or class
attribute the caller resolves at call time, so rebinding it reaches every
call the layer receives on the workload's path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from tracer import Aggregate

EntryPoint = Tuple[object, str, str]


def insitu_entry_points() -> List[EntryPoint]:
    """The coupled run's layers, simulation side first."""
    import repro.core.producer as producer
    import repro.core.transforms as transforms
    import repro.pic.simulation as simulation
    from repro.continual.buffer import TrainingBuffer
    from repro.continual.trainer import InTransitTrainer
    from repro.core.mlapp import MLApp
    from repro.mlcore.optim import Adam
    from repro.mlcore.tensor import Tensor
    from repro.models.losses import CombinedLoss
    from repro.models.model import ArtificialScientistModel
    from repro.openpmd.series import Series
    from repro.pic.maxwell import YeeSolver
    from repro.streaming.broker import SSTBroker
    from repro.workflow.builder import WorkflowSession

    return [
        (WorkflowSession, "run", "workflow.run"),
        (simulation.PICSimulation, "step", "pic.step"),
        (simulation, "gather_fields", "pic.gather"),
        (simulation, "boris_push_fused", "pic.push"),
        (simulation, "advance_positions", "pic.advance"),
        (simulation, "deposit_current_esirkepov", "pic.deposit"),
        (YeeSolver, "step", "pic.fields"),
        (producer.StreamingProducerPlugin, "on_step", "core.producer"),
        (producer, "make_training_samples", "core.encode"),
        (transforms, "radiation_amplitude_step", "radiation.amplitude"),
        (Series, "close_iteration", "openpmd.close_iteration"),
        (SSTBroker, "put_step", "streaming.put"),
        (SSTBroker, "get_step", "streaming.get"),
        (MLApp, "consume", "core.consume"),
        (MLApp, "samples_from_iteration", "core.decode"),
        (TrainingBuffer, "add_many", "continual.ingest"),
        (InTransitTrainer, "train_iteration", "continual.iteration"),
        (TrainingBuffer, "batch_arrays", "continual.batch"),
        (ArtificialScientistModel, "__call__", "models.forward"),
        (CombinedLoss, "__call__", "models.loss"),
        (Tensor, "backward", "mlcore.backward"),
        (Adam, "zero_grad", "mlcore.zero_grad"),
        (Adam, "step", "mlcore.optimizer"),
    ]


def service_entry_points() -> List[EntryPoint]:
    """The campaign service's layers, inside the service process."""
    import repro.service.jobs as jobs
    from repro.campaign.store import CampaignStore
    from repro.campaign.workers import WorkerPoolExecutor
    from repro.service.bus import RunEventBus

    return [
        (jobs, "run_campaign", "campaign.launch"),
        (WorkerPoolExecutor, "execute", "campaign.chunk"),
        (CampaignStore, "append", "campaign.store_append"),
        (RunEventBus, "publish", "service.publish"),
    ]


def client_entry_points() -> List[EntryPoint]:
    """The service client's layer, in the benchmark process."""
    from repro.service.client import ServiceClient

    return [(ServiceClient, "submit", "service.submit")]


def _per(agg: Aggregate, names: Sequence[str], count: int,
         field: str = "total") -> float:
    """Milliseconds of the named spans per unit of work."""
    if not count:
        return 0.0
    table = agg.total if field == "total" else agg.self_time
    return 1e3 * sum(table.get(name, 0.0) for name in names) / count


def _mean_call(agg: Aggregate, name: str) -> float:
    calls = agg.calls.get(name, 0)
    return 1e3 * agg.total.get(name, 0.0) / calls if calls else 0.0


def self_coverage(agg: Aggregate, root_names: Sequence[str]) -> List[float]:
    """Summed self time over wall time, per thread that ran a root span."""
    return [thread["self"] / thread["wall"]
            for name in root_names for thread in agg.threads_with(name)
            if thread["wall"] > 0]


def insitu_layer_metrics(agg: Aggregate, results: Sequence,
                         n_macro_particles: int) -> Dict[str, float]:
    """Per-layer metrics of the traced in-transit session runs."""
    steps = agg.calls.get("pic.step", 0)
    streamed = agg.calls.get("openpmd.close_iteration", 0)
    iterations = agg.calls.get("continual.iteration", 0)
    consumed = agg.calls.get("core.decode", 0)
    producer_wall = sum(t["wall"] for t in agg.threads_with("pic.step"))
    consumer_wall = sum(t["wall"] for t in agg.threads_with("core.consume"))
    depths = [d for result in results for d in result.queue_depth_samples]
    samples = sum(r.report.samples_streamed for r in results)
    streamed_bytes = sum(r.report.bytes_streamed for r in results)
    streamed_runs = sum(r.report.iterations_streamed for r in results)
    return {
        "pic.gather_ms": _per(agg, ["pic.gather"], steps),
        "pic.push_ms": _per(agg, ["pic.push", "pic.advance"], steps),
        "pic.deposit_ms": _per(agg, ["pic.deposit"], steps),
        "pic.fields_ms": _per(agg, ["pic.fields"], steps),
        "pic.step_self_ms": _per(agg, ["pic.step"], steps, "self"),
        "pic.particles": float(n_macro_particles),
        "radiation.amplitude_ms": _per(agg, ["radiation.amplitude"], streamed),
        "radiation.calls": agg.calls.get("radiation.amplitude", 0) / streamed
        if streamed else 0.0,
        "core.encode_self_ms": _per(agg, ["core.encode"], streamed, "self"),
        "core.producer_self_ms": _per(agg, ["core.producer"], streamed, "self"),
        "core.samples": samples / streamed_runs if streamed_runs else 0.0,
        "core.decode_ms": _per(agg, ["core.decode"], consumed),
        "core.consume_self_ms": _per(agg, ["core.consume"], consumed, "self"),
        "streaming.put_ms": _per(agg, ["streaming.put"], streamed),
        "streaming.put_blocked_frac": agg.total.get("streaming.put", 0.0)
        / producer_wall if producer_wall else 0.0,
        "streaming.get_wait_ms": _per(agg, ["streaming.get"], consumed),
        "streaming.get_wait_frac": agg.total.get("streaming.get", 0.0)
        / consumer_wall if consumer_wall else 0.0,
        "streaming.bytes_per_step": streamed_bytes / streamed_runs
        if streamed_runs else 0.0,
        "openpmd.write_self_ms": _per(agg, ["openpmd.close_iteration"],
                                      streamed, "self"),
        "workflow.queue_depth_mean": sum(depths) / len(depths) if depths
        else 0.0,
        "workflow.queue_depth_max": float(max(depths, default=0)),
        "continual.iteration_ms": _per(agg, ["continual.iteration"], iterations),
        "continual.batch_ms": _per(agg, ["continual.batch"], iterations),
        "continual.ingest_ms": _per(agg, ["continual.ingest"], consumed),
        "continual.iterations": iterations / consumed if consumed else 0.0,
        "models.forward_ms": _per(agg, ["models.forward"], iterations),
        "models.loss_ms": _per(agg, ["models.loss"], iterations),
        "mlcore.backward_ms": _per(agg, ["mlcore.backward"], iterations),
        "mlcore.optimizer_ms": _per(agg, ["mlcore.optimizer",
                                          "mlcore.zero_grad"], iterations),
        "bench.self_coverage_min": min(
            self_coverage(agg, ["pic.step", "core.consume"]), default=0.0),
    }


def campaign_layer_metrics(agg: Aggregate, statuses: Sequence[Dict],
                           frames: Sequence[int]) -> Dict[str, float]:
    """Per-layer metrics of the traced service campaigns.

    Args:
        agg: spans of the service process and the client, merged.
        statuses: the traced campaigns' full status documents.
        frames: SSE frames received, per traced campaign.
    """
    records = [r for status in statuses for r in status.get("records", [])]
    executor = [status.get("telemetry", {}).get("executor", {})
                for status in statuses]
    n_workers = max((e.get("n_workers", 0) for e in executor), default=0)
    elapsed = sum(float(r.get("elapsed_s", 0.0)) for r in records)
    chunk_wall = agg.total.get("campaign.chunk", 0.0)
    chunks = agg.calls.get("campaign.chunk", 0)

    def executor_sum(key: str) -> float:
        return float(sum(e.get(key, 0) for e in executor))

    return {
        "campaign.chunk_ms": _mean_call(agg, "campaign.chunk"),
        "campaign.launch_self_ms": _per(agg, ["campaign.launch"], chunks,
                                        "self"),
        "campaign.run_elapsed_ms": 1e3 * elapsed / len(records)
        if records else 0.0,
        "campaign.overhead_ms_per_run":
            1e3 * (n_workers * chunk_wall - elapsed) / len(records)
            if records else 0.0,
        "campaign.store_append_ms": _mean_call(agg, "campaign.store_append"),
        "campaign.requeues": executor_sum("requeued_runs"),
        "campaign.straggler_redispatches": executor_sum(
            "straggler_redispatches"),
        "campaign.respawns": executor_sum("respawns"),
        "service.publish_ms": _mean_call(agg, "service.publish"),
        "service.submit_ms": _mean_call(agg, "service.submit"),
        "service.frames": sum(frames) / len(frames) if frames else 0.0,
        "service.sse_dropped": float(sum(
            status.get("telemetry", {}).get("bus", {}).get("dropped", 0)
            for status in statuses)),
        "bench.self_coverage_min": min(
            self_coverage(agg, ["campaign.launch"]), default=0.0),
    }
