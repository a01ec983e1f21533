"""The campaign service process of the ``campaign-service`` workload.

Run as ``python3 perfbench/service_main.py <store_dir> [<trace_out>]``.  It
builds the service with ``repro.service.create_server``, serves it on a
free local port, warms the shared worker pool and prints one JSON line
``{"event": "ready", "url": ...}``.  It then reads commands from stdin:

* ``trace on`` / ``trace off`` wrap or restore the service layers' entry
  points (answered with ``{"event": "trace", "on": ...}``);
* ``rss`` answers ``{"event": "rss", "peak_rss_mb": ...}``, the peak
  resident set so far of this process plus its pool workers;
* ``stop`` or end of input shuts the service, its pool and its resource
  tracker down, writes the spans to ``<trace_out>`` if given, and prints
  ``{"event": "stopped"}``.
"""

import json
import sys
import threading

import benchenv

benchenv.use_source_tree()

from repro.campaign.workers import shared_pool, shutdown_shared_pools  # noqa: E402
from repro.service.server import create_server  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, write_jsonl  # noqa: E402

#: Job threads are named ``campaign-<campaign id>``; their spans carry the
#: campaign id as run id, every other thread's spans carry "service".
JOB_THREAD_PREFIX = "campaign-"


def reply(document) -> None:
    print(json.dumps(document), flush=True)


def run_of(thread: threading.Thread) -> str:
    if thread.name.startswith(JOB_THREAD_PREFIX):
        return thread.name[len(JOB_THREAD_PREFIX):]
    return "service"


def main(argv) -> int:
    store_dir = argv[1]
    trace_out = argv[2] if len(argv) > 2 else None
    server = create_server(store_dir=store_dir)
    serving = threading.Thread(target=server.serve_forever,
                               kwargs={"poll_interval": 0.05},
                               name="service-accept", daemon=True)
    serving.start()
    pool = shared_pool()
    if not pool.wait_ready():
        reply({"event": "error", "error": "worker pool not ready"})
        server.shutdown_service()
        shutdown_shared_pools()
        benchenv.stop_resource_tracker()
        return 1
    tracer = Tracer("campaign-service", run_of=run_of)
    reply({"event": "ready", "url": server.url})
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command == "rss":
            sizes = [benchenv.vm_hwm_mb(pid) for pid in pool.worker_pids()
                     if pid]
            reply({"event": "rss", "peak_rss_mb": benchenv.peak_rss_mb()
                   + sum(size for size in sizes if size)})
        elif command in ("trace on", "trace off"):
            tracer.restore()
            if command == "trace on":
                tracer.install(layers.service_entry_points())
            reply({"event": "trace", "on": tracer.installed})
    tracer.restore()
    server.shutdown_service()
    shutdown_shared_pools()
    benchenv.stop_resource_tracker()
    if trace_out:
        write_jsonl(trace_out, {"process": "service"}, tracer.records())
    reply({"event": "stopped"})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
