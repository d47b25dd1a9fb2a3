"""Layer-attributed benchmark of ``LemonTreeLearner.learn()``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6-serial --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and reference figures.
The package is imported from ``src/`` of the same checkout and the native
kernel is compiled into ``.bench_build/``; without ``src/repro`` the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
#: set-up measurements (each a fresh interpreter) before the rounds; one
#: more follows every round, so the median spans the whole run
SETUP_PROBES = 3
WORKLOAD_NAMES = ("fig6-serial", "fig6-pool")


def prepare_environment() -> None:
    """Import ``repro`` from this checkout only and keep every file the
    run writes (native build, temporaries) inside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))  # spawned pool workers inherit sys.path
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


def setup_probe(workload: str) -> dict:
    """Everything before learning can begin, in this fresh interpreter."""
    start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - start
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads
    from repro.scoring.kernel import resolve_kernel_backend

    workloads.make_workload(workload)
    inputs_done = time.perf_counter()
    backend, _native = resolve_kernel_backend()
    ready = time.perf_counter()
    return {
        "ready": ready,
        "import_s": import_s,
        "native_load_s": ready - inputs_done,
        "backend": backend,
    }


def measure_setup(workload: str, n: int) -> list[dict]:
    """``n`` fresh interpreters, each timed from launch until learning
    could begin (``perf_counter`` is the system-wide monotonic clock)."""
    probes = []
    for _ in range(n):
        launched = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe.pop("ready") - launched
        probes.append(probe)
    return probes


def _child_pids() -> set[int]:
    pids: set[int] = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The pool executors join their workers on close, but the shared-memory
    matrix starts multiprocessing's resource tracker, which otherwise
    outlives this process by up to a second or two and is left for init to
    reap.  Anything else still running is terminated first (the tracker
    ignores SIGTERM and ends only once no process holds its pipe); then
    closing the pipe ends the tracker.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    multiprocessing.active_children()  # joins finished multiprocessing children
    tracker = resource_tracker._resource_tracker
    for pid in _child_pids() - {getattr(tracker, "_pid", None)}:
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare_environment()
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0

    import workloads

    # The first probe builds the native kernel on the first run in a
    # checkout (in its own process, so the build's memory stays out of
    # peak_rss_mb) and warms the file cache; it is not counted.
    setup = measure_setup(args.workload, SETUP_PROBES + 1)[1:]
    run = workloads.Run(
        workloads.make_workload(args.workload),
        seed=args.seed,
        seconds=args.seconds,
        work_dir=BUILD / "work" / f"{args.workload}-{os.getpid()}",
        traced=bool(args.trace),
        after_round=lambda: setup.extend(measure_setup(args.workload, 1)),
    )
    try:
        run.execute()
    finally:
        stop_children()
    print(json.dumps(workloads.report(run, setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
