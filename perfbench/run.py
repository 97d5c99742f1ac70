"""The repository benchmark: one workload per run, result on the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Workloads: ``build``, ``ingest``, ``point-read`` and ``serve`` (see
``workloads.py``).  With ``--trace 0`` the result line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer ledger.
The line before it is a full record: environment and input stamps, the
set-up times, every end-to-end quantity under its own name (the result
line carries the latencies in the slots ``op1_ms`` .. ``op4_ms``; see
``workloads.py``) and every problem found.  ``perfbench/compare.py``
compares two files of captured output.

The run builds nothing: it imports the ``repro`` sources under ``src/``
and writes its scratch files under ``.perfbench_work/`` in the checkout,
which it removes before it exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
    }


def run(args) -> dict:
    import workloads
    from speed import SpeedProbe

    workload = workloads.WORKLOADS[args.workload]()
    out = workloads.Outcome(args.workload)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    setups = []
    state = None
    try:
        speed = SpeedProbe()
        for _ in range(workloads.SETUP_ROUNDS):
            if state is not None:
                workload.teardown(state)
                state = None
            start = perf_counter()
            state = workload.setup(args.seed, workdir)
            setups.append((perf_counter() - start) * speed.scale())
        # The inputs and the expected answers live as long as the run; kept
        # out of the collector's scans, they do not lengthen the program's
        # collections.
        gc.collect()
        gc.freeze()
        if args.trace:
            workload.trace(state, args.seconds, out)
        else:
            workload.measure(state, args.seconds, out)
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = max(1, out.attempted)
    if args.trace:
        out.metrics["fail_ratio"] = out.failed / attempted
        table = workloads.PER_LAYER
        values = {name: out.metrics.get(name, 0.0) for name in table}
    else:
        table = workloads.END_TO_END
        values = {"setup_s": statistics.median(setups)}
        for slot, name in zip(workloads.SLOT_NAMES, workload.SLOTS):
            values[slot] = workloads.to_ms(name, out.values[name])
        for name in table:
            values.setdefault(name, out.values.get(name))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "digests": state.digests,
        "rounds": {"setup": len(setups), "ops_checked": out.attempted},
        "setup_s": setups,
        "metrics": values,
        "slots": dict(zip(workloads.SLOT_NAMES, workload.SLOTS)),
        "values": out.values,
        "attempted": attempted,
        "failed": out.failed,
        "details": out.record,
        "problems": out.problems,
    }
    result = {
        "correct": out.failed == 0 and not out.problems,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(value), "unit": table[name]}
            for name, value in values.items()
        },
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "ingest", "point-read", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    record, result = run(args)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
