"""Set-up probe: import the system and build one in-transit session.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``; prints
``ready`` once the session is built.  The benchmark times it from process
start to that line, so the figure covers a fresh interpreter, the imports
and ``WorkflowBuilder.build()``.
"""

import sys

import benchenv

benchenv.use_source_tree()

from repro.workflow import WorkflowBuilder  # noqa: E402

from workloads import insitu_config  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    WorkflowBuilder().config(insitu_config(workload, seed)) \
        .driver("threaded").build()
    print("ready", flush=True)
