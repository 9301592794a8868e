"""Benchmark entry point for wittforge.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a wittforge checkout.  Each call runs one workload in
a fresh worker process (perfbench/worker.py) whose table cache, XDG cache
and bytecode cache point at a private temporary directory inside the
checkout, removed again at the end; nothing under ~/.cache is read or
written.  The last stdout line is the worker's JSON result.  The exit code
is not 0 when the checkout has no wittforge sources or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wittforge", "__init__.py")):
        print(f"no wittforge sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2

    tmp_parent = os.path.join(root, ".perfbench-tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_parent)
    env = dict(os.environ)
    env.update({
        "WITTFORGE_CACHE": os.path.join(tmp, "cache", "unused"),
        "XDG_CACHE_HOME": os.path.join(tmp, "xdg"),
        "PYTHONPYCACHEPREFIX": os.path.join(tmp, "pycache"),
        "TMPDIR": tmp,
        "PYTHONHASHSEED": "0",
    })
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # timed imports load bytecode
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", src, "--tmp", tmp]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run is using it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
