"""One cold set-up of a workload, in a process of its own (started by worker.py).

    python3 perfbench/cold_setup.py <workload> <seed>

The wittforge sources must be on PYTHONPATH.  The package is imported
first, before any module of the benchmark, so the import includes every
standard-library module wittforge loads.  The benchmark's inputs are drawn
after that, untimed, and then the workload's set-up runs.  Prints one JSON
line of CLOCK_MONOTONIC readings (shared by all processes of the host):
after the import, before the set-up and after it.
"""

import sys
import time

MODULES = ("base_rings", "witt_core", "witt_ramified", "lifting",
           "frobenius_lab", "cli_io")


def main() -> int:
    for name in MODULES:
        __import__(f"wittforge.{name}")
    t_import = time.monotonic()

    import json
    import types

    import tracer
    import workloads

    wf = types.SimpleNamespace(**{n: sys.modules[f"wittforge.{n}"] for n in MODULES})
    make_inputs, setup, _ = workloads.WORKLOADS[sys.argv[1]]
    inputs = make_inputs(int(sys.argv[2]))
    t0 = time.monotonic()
    setup(wf, inputs, tracer.Tracer())
    t1 = time.monotonic()
    print(json.dumps([t_import, t0, t1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
