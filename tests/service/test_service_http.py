"""End-to-end tests of the campaign service over real HTTP.

A :class:`CampaignServiceServer` runs on a live socket in a background
thread with a fake (fast, deterministic) worker; every assertion goes
through :class:`repro.service.client.ServiceClient` — the same
urllib+SSE path the CLI, the CI smoke job and real users take.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import threading
import time

import pytest

from sse_helpers import run_ids_of

from repro.campaign import CampaignSpec, get_campaign_preset
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import CampaignJobManager, campaign_id_of
from repro.service.server import (MAX_BODY_BYTES, create_server,
                                  parse_submission)


def fake_worker(payload):
    """Deterministic stand-in for a coupled run (same idiom as campaign tests)."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


class GatedWorker:
    """A worker whose runs after the first block until ``gate`` is set.

    Gating is keyed on ``n_steps`` so one server can host a gated campaign
    and a free-running one at the same time.
    """

    def __init__(self, gated_n_steps=None):
        self.gate = threading.Event()
        self.first_done = threading.Event()
        self.gated_n_steps = gated_n_steps
        self._count = itertools.count()

    def __call__(self, payload):
        gated = (self.gated_n_steps is None
                 or payload["n_steps"] == self.gated_n_steps)
        if gated and next(self._count) > 0:
            assert self.gate.wait(timeout=30), "test gate never released"
        result = fake_worker(payload)
        if gated:
            self.first_done.set()
        return result


def small_spec(name="svc-test", repetitions=1, n_steps=2):
    """A tiny campaign (2 × repetitions runs) riding the smoke preset."""
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(name=name, repetitions=repetitions, n_steps=n_steps)
    return CampaignSpec.from_dict(base)


@contextlib.contextmanager
def service(tmp_path, worker=fake_worker, subdir="svc", **kwargs):
    """A live service on a free port + a client pointed at it."""
    server = create_server(store_dir=str(tmp_path / subdir), worker=worker,
                           keepalive_s=0.2, **kwargs)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url, timeout=15), server
    finally:
        server.shutdown_service(timeout=10)
        thread.join(timeout=5)


def watch_in_thread(client, campaign_id):
    """Start collecting a campaign's SSE events on a background thread."""
    events = []
    def _watch():
        events.extend(client.watch(campaign_id))
    thread = threading.Thread(target=_watch, daemon=True)
    thread.start()
    return events, thread


def wait_for(predicate, timeout=15.0, message="condition"):
    """Poll a predicate until true (tests fail loudly instead of hanging)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.02)


def sse_run_ids(events):
    """Run ids over parsed SSEEvent objects (snapshot + run frames)."""
    return run_ids_of([{"event": e.event, "data": e.data} for e in events])


class TestSubmitAndStream:
    def test_submit_streams_every_run_and_completes(self, tmp_path):
        spec = small_spec()
        expected = sorted(run.run_id for run in spec.resolve())
        with service(tmp_path) as (client, _):
            assert client.wait_ready()["status"] == "ok"
            submitted = client.submit(spec=spec.to_dict())
            assert submitted["created"] and submitted["started"]
            assert submitted["total_runs"] == len(expected)
            events = list(client.watch(submitted["campaign_id"]))
            assert sorted(sse_run_ids(events)) == expected
            assert events[-1].event == "done"
            assert events[-1].data["state"] == "completed"
            status = client.status(submitted["campaign_id"])
            assert status["completed"] == len(expected)
            assert status["done"] is True
            assert len(status["records"]) == len(expected)
            report = client.report(submitted["campaign_id"])
            assert report["n_runs"] == len(expected)
            listed = client.list_campaigns()
            assert [doc["campaign_id"] for doc in listed] == \
                [submitted["campaign_id"]]

    def test_submit_by_preset_name(self, tmp_path):
        with service(tmp_path) as (client, _):
            submitted = client.submit(preset="campaign-smoke")
            done = [e for e in client.watch(submitted["campaign_id"])
                    if e.event == "done"][0]
            assert done.data["state"] == "completed"
            assert done.data["completed"] == submitted["total_runs"]

    def test_resubmit_is_idempotent(self, tmp_path):
        spec = small_spec()
        with service(tmp_path) as (client, _):
            first = client.submit(spec=spec.to_dict())
            list(client.watch(first["campaign_id"]))
            again = client.submit(spec=spec.to_dict())
            assert again["campaign_id"] == first["campaign_id"]
            assert again["created"] is False
            assert again["started"] is False      # nothing left to run
            # the replayed stream still tells the whole story
            events = list(client.watch(first["campaign_id"]))
            assert sorted(sse_run_ids(events)) == \
                sorted(run.run_id for run in spec.resolve())
            assert events[-1].event == "done"

    def test_cache_replay_on_a_renamed_copy(self, tmp_path):
        """The CI smoke invariant: a renamed copy of a finished sweep with
        the same cache dir completes entirely from cache."""
        cache_dir = str(tmp_path / "cache")
        with service(tmp_path) as (client, _):
            spec = small_spec(name="cache-original")
            first = client.submit(spec=spec.to_dict(), cache_dir=cache_dir)
            done = list(client.watch(first["campaign_id"]))[-1]
            assert done.data["state"] == "completed"
            renamed = small_spec(name="cache-replay")
            second = client.submit(spec=renamed.to_dict(), cache_dir=cache_dir)
            assert second["campaign_id"] != first["campaign_id"]
            done = list(client.watch(second["campaign_id"]))[-1]
            assert done.data["state"] == "completed"
            assert done.data["cached"] == done.data["total_runs"]


class TestConcurrentSubscribers:
    def test_two_subscribers_each_see_every_run_exactly_once(self, tmp_path):
        """The acceptance criterion: subscriber A (connected at submit
        time) and subscriber B (connected mid-campaign) both receive every
        RunRecord exactly once across snapshot + live frames."""
        worker = GatedWorker()
        spec = small_spec(name="two-subs", repetitions=2)   # 4 runs
        expected = sorted(run.run_id for run in spec.resolve())
        with service(tmp_path, worker=worker) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            campaign_id = submitted["campaign_id"]
            events_a, thread_a = watch_in_thread(client, campaign_id)
            assert worker.first_done.wait(timeout=15)
            # B connects only once at least one record definitely exists,
            # so part of its stream is snapshot replay by construction
            wait_for(lambda: client.status(campaign_id)["completed"] >= 1,
                     message="first completed record")
            events_b, thread_b = watch_in_thread(client, campaign_id)
            worker.gate.set()
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)
            assert not thread_a.is_alive() and not thread_b.is_alive()
            for events in (events_a, events_b):
                assert sorted(sse_run_ids(events)) == expected  # exactly once
                assert events[-1].event == "done"
                assert events[-1].data["state"] == "completed"
            assert any(e.event == "snapshot" for e in events_b)

    def test_campaign_submitted_while_another_runs_makes_progress(self, tmp_path):
        """The second acceptance criterion: a fresh submission is not
        starved by a running campaign."""
        worker = GatedWorker(gated_n_steps=3)
        blocked = small_spec(name="long-haul", n_steps=3)
        quick = small_spec(name="drive-by", n_steps=2)
        with service(tmp_path, worker=worker) as (client, _):
            first = client.submit(spec=blocked.to_dict())
            assert worker.first_done.wait(timeout=15)
            second = client.submit(spec=quick.to_dict())
            done = list(client.watch(second["campaign_id"]))[-1]
            assert done.data["state"] == "completed"
            assert client.status(first["campaign_id"])["state"] == "running"
            worker.gate.set()
            done = list(client.watch(first["campaign_id"]))[-1]
            assert done.data["state"] == "completed"


class TestCancelAndResume:
    def test_cancel_keeps_finished_runs_and_resubmit_resumes(self, tmp_path):
        worker = GatedWorker()
        spec = small_spec(name="cancel-me", repetitions=2)   # 4 runs
        with service(tmp_path, worker=worker) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            campaign_id = submitted["campaign_id"]
            assert worker.first_done.wait(timeout=15)
            cancelled = client.cancel(campaign_id)
            assert cancelled["state"] in ("cancelling", "cancelled")
            worker.gate.set()                 # let the in-flight run finish
            wait_for(lambda: client.status(campaign_id)["state"] == "cancelled",
                     message="cancelled state")
            status = client.status(campaign_id)
            assert 0 < status["completed"] < status["total_runs"]
            # resubmitting the same spec resumes exactly the pending part
            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False and again["started"] is True
            done = list(client.watch(campaign_id))[-1]
            assert done.data["state"] == "completed"
            assert done.data["completed"] == done.data["total_runs"]

    def test_cancel_unknown_campaign_is_404(self, tmp_path):
        with service(tmp_path) as (client, _):
            with pytest.raises(ServiceError) as excinfo:
                client.cancel("no-such-campaign")
            assert excinfo.value.status == 404


class TestRestartResume:
    def test_a_new_server_on_the_same_store_resumes_the_campaign(self, tmp_path):
        """The restart story: stores + spec files on disk are the whole
        service state, so a fresh server attaches and finishes the job."""
        worker = GatedWorker()
        spec = small_spec(name="restartable", repetitions=2)
        with service(tmp_path, worker=worker) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            campaign_id = submitted["campaign_id"]
            assert worker.first_done.wait(timeout=15)
            client.cancel(campaign_id)
            worker.gate.set()
            wait_for(lambda: client.status(campaign_id)["state"] == "cancelled",
                     message="cancelled state")
        # same store_dir, brand-new server/manager (ungated worker now)
        with service(tmp_path, worker=fake_worker) as (client, _):
            status = client.status(campaign_id)
            assert status["state"] == "interrupted"
            assert 0 < status["completed"] < status["total_runs"]
            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False and again["started"] is True
            events = list(client.watch(campaign_id))
            assert events[-1].data["state"] == "completed"
            # snapshot replay covers the pre-restart records too
            assert sorted(sse_run_ids(events)) == \
                sorted(run.run_id for run in spec.resolve())

    def test_a_completed_campaign_is_listed_after_restart(self, tmp_path):
        spec = small_spec(name="finished-then-restarted")
        with service(tmp_path) as (client, _):
            submitted = client.submit(spec=spec.to_dict())
            list(client.watch(submitted["campaign_id"]))
        with service(tmp_path) as (client, _):
            listed = client.list_campaigns()
            assert [doc["state"] for doc in listed] == ["completed"]
            again = client.submit(spec=spec.to_dict())
            assert again["created"] is False and again["started"] is False


class TestOldSpecFiles:
    def test_campaign_id_of_campaign_smoke_is_pinned(self):
        """Campaign ids name every store on disk: dropping the routing
        field must not move them."""
        spec = get_campaign_preset("campaign-smoke")
        assert campaign_id_of(spec) == "campaign-smoke-e4cc27704b"

    def test_manager_reattaches_a_spec_file_with_empty_routing(self,
                                                               tmp_path):
        """Every spec file a service wrote before sharded execution was
        removed carries ``"routing": {}``; a restarted manager still
        attaches those campaigns."""
        spec = small_spec(name="old-spec-file")
        campaign_id = campaign_id_of(spec)
        with open(tmp_path / f"{campaign_id}.spec.json", "w",
                  encoding="utf-8") as handle:
            json.dump(dict(spec.to_dict(), routing={}), handle)
        manager = CampaignJobManager(str(tmp_path), worker=fake_worker)
        try:
            job = manager.get(campaign_id)
            assert job is not None and job.spec == spec
            job, created, started = manager.submit(spec)
            assert created is False and started is True
            job.join(timeout=15)
            assert job.status()["state"] == "completed"
        finally:
            manager.shutdown()


def post_raw(server, content_length, body=b"{}"):
    """POST /v1/campaigns with a hand-set Content-Length; (status, json)."""
    connection = http.client.HTTPConnection(server.server_address[0],
                                            server.server_address[1],
                                            timeout=5)
    try:
        connection.putrequest("POST", "/v1/campaigns")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestErrorPaths:
    def test_negative_content_length_is_400(self, tmp_path):
        """``read(-1)`` would block the handler until the client hangs up."""
        with service(tmp_path) as (_, server):
            status, document = post_raw(server, "-1")
            assert status == 400
            assert "Content-Length" in document["error"]

    def test_non_integer_content_length_is_400(self, tmp_path):
        with service(tmp_path) as (_, server):
            assert post_raw(server, "two")[0] == 400

    def test_oversized_body_is_413_before_reading(self, tmp_path):
        with service(tmp_path) as (_, server):
            status, document = post_raw(server, str(MAX_BODY_BYTES + 1))
            assert status == 413
            assert str(MAX_BODY_BYTES) in document["error"]
            body = json.dumps({"spec": small_spec().to_dict()}).encode()
            assert post_raw(server, str(len(body)), body)[0] == 201


    def test_unknown_campaign_routes_are_404(self, tmp_path):
        with service(tmp_path) as (client, _):
            for call in (client.status, client.report):
                with pytest.raises(ServiceError) as excinfo:
                    call("nope")
                assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                list(client.events("nope"))
            assert excinfo.value.status == 404

    def test_bad_submissions_are_400(self, tmp_path):
        with service(tmp_path) as (client, _):
            cases = [
                {},                                          # neither
                {"preset": "campaign-smoke",
                 "spec": small_spec().to_dict()},            # both
                {"preset": "campaign-smoke", "bogus": 1},    # unknown key
                {"preset": "no-such-preset"},
                {"preset": "campaign-smoke", "executor": "no-such-executor"},
                {"preset": "campaign-smoke", "executor": "thread"},
                {"preset": "campaign-smoke", "executor": "process"},
                {"preset": "campaign-smoke", "executor": "sharded"},
            ]
            for body in cases:
                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", "/v1/campaigns", body)
                assert excinfo.value.status == 400, body

    def test_unrouted_paths_are_404(self, tmp_path):
        with service(tmp_path) as (client, _):
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/v1/nope")
            assert excinfo.value.status == 404


class TestParseSubmission:
    def test_spec_and_options_split(self):
        spec, options = parse_submission(
            {"spec": small_spec().to_dict(), "max_workers": 2,
             "executor": "threaded"})
        assert spec.name == "svc-test"
        assert options == {"max_workers": 2, "executor": "threaded"}

    def test_preset_resolves(self):
        spec, options = parse_submission({"preset": "campaign-smoke"})
        assert spec.name == "campaign-smoke"
        assert options == {}

    @pytest.mark.parametrize("body", [
        [], "nope", {}, {"preset": "p", "spec": {}}, {"what": 1},
    ])
    def test_invalid_bodies_raise(self, body):
        with pytest.raises(ValueError):
            parse_submission(body)
