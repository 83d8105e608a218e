"""SOFOS end-to-end benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` measures the end-to-end metrics with tracing off, in
``WORKERS`` worker interpreters run one after the other.  Each worker
has its own string-hash seed (``PYTHONHASHSEED``, derived from
``--seed``), builds the workload from the same inputs and runs the same
number of sessions, as many as take about ``--seconds / WORKERS``
seconds (``workloads.sessions_for``), so every worker performs the same
operations; the run's metrics are computed over the workers' pooled
samples (see ``workloads.pooled``).  ``--trace 1`` runs one worker,
which first runs its sessions untraced in a child interpreter, to learn
how long its timed calls took, then runs them again with the per-layer
ledger armed and reports the per-layer metrics.  ``--workload all`` runs every workload.
``--plant-fault`` tampers one view triple after the views are built;
the correctness gate must then fail the run.

The human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every check passed.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("serve", "churn")
#: Worker interpreters per untraced run.  A slow stretch of a shared
#: host, or the string-hash seed of an interpreter, moves all of one
#: worker's figures; an operation's fastest call over five workers
#: rarely falls in such a worker.
WORKERS = 5
#: A run, all its children included, must end well inside 180 s.
RUN_LIMIT_S = 170


def _import_program() -> None:
    """Import the checkout's ``src/repro``; fail when it is missing."""
    source = os.path.join(ROOT, "src")
    sys.path[:0] = [source, os.path.join(ROOT, "benchmarks")]
    import repro
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {source}")


def commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def fingerprint(args, run) -> dict:
    import numpy
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seconds": args.seconds,
        "trace": args.trace,
        "repro_store": os.environ.get("REPRO_STORE"),
        "store_kinds": run.state.get("store_kinds"),
        "datasets": run.state.get("datasets"),
        "sessions": run.sessions,
        "characteristics": run.characteristics,
    }


def worker_command(args, seconds: float, trace: int,
                   sessions: int) -> list[str]:
    command = [sys.executable, os.path.abspath(__file__), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--sessions", str(sessions)]
    if args.plant_fault:
        command.append("--plant-fault")
    return command


def untraced_twin(args) -> float:
    """Run the untraced twin in a fresh interpreter with this worker's
    hash seed and sessions; the summed time of its timed calls."""
    child = subprocess.run(worker_command(args, args.seconds, 0,
                                          args.sessions),
                           capture_output=True, text=True,
                           timeout=RUN_LIMIT_S / 2, check=False)
    for line in child.stdout.splitlines():
        if line.startswith("sessions "):
            return json.loads(line[len("sessions "):])["wall_s"]
    sys.stderr.write(child.stderr)
    raise RuntimeError(f"untraced run exited {child.returncode} without "
                       "reporting its sessions")


def run_worker(args) -> int:
    """One worker: measure the workload in this interpreter."""
    import workloads
    from run_all import assert_disarmed_registry_empty

    run = workloads.Run()
    untraced_wall = 0.0
    workdir = workloads.workdir_for(ROOT)
    try:
        if args.trace:
            from ledger import Ledger
            untraced_wall = untraced_twin(args)
            run.ledger = Ledger()
            run.ledger.install()
        workloads.run_workload(run, args.workload, args.seed, args.sessions,
                               workdir, args.plant_fault)
        if not args.trace:
            try:
                assert_disarmed_registry_empty()
            except AssertionError as exc:
                run.check(False, str(exc), standalone=True)
    except Exception:                      # noqa: BLE001 -- run boundary
        traceback.print_exc()
        run.attempted += 1
        run.failures.append("exception: " + traceback.format_exc(limit=1))
    finally:
        try:
            os.rmdir(workdir)
        except OSError:
            pass

    print("fingerprint " + json.dumps(fingerprint(args, run), sort_keys=True))
    print("sessions " + json.dumps({"sessions": run.sessions,
                                    "wall_s": run.wall}))
    metrics: dict = {}
    if args.trace:
        if "store_bytes" in run.state:          # the views were built
            layers = run.ledger.metrics(run.sessions, run.wall,
                                        untraced_wall, run.state)
            for name, (value, unit) in sorted(layers.items()):
                metrics[name] = {"value": value, "unit": unit}
                print(f"{args.workload:8s} {name:34s} {value:14.6f} {unit}")
    else:
        export = run.export()
        print("samples " + json.dumps(export))
        metrics = report(args.workload,
                         workloads.end_to_end(workloads.pooled([export])))
    failed_fraction = run.failed / max(run.attempted, 1)
    print(f"{args.workload:8s} {'failed_fraction':34s} "
          f"{failed_fraction:14.6f} ratio n={run.attempted}")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def report(workload: str, figures: dict) -> dict:
    """Print every end-to-end metric with its unit and call count; the
    metrics of the result line."""
    metrics = {}
    for name, (value, unit, n) in figures.items():
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload:8s} {name:34s} {value:14.6f} {unit:5s} n={n}")
    return metrics


def hash_seed(seed: int, worker: int) -> int:
    """The ``PYTHONHASHSEED`` of ``worker`` in the run with ``seed``."""
    return (seed * WORKERS + worker) % 2 ** 32


def run_workers(args) -> int:
    """Run the workers one after the other and report the metrics of
    their pooled samples (one worker's per-layer metrics when traced).
    A worker that ends without a result line ends the run without one."""
    from workloads import end_to_end, host_loop_ms, pooled, sessions_for
    deadline = time.monotonic() + RUN_LIMIT_S
    host_loop = [host_loop_ms()]
    count = 1 if args.trace else WORKERS
    sessions = sessions_for(args.workload, args.seconds / WORKERS)
    results, exports = [], []
    for worker in range(count):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(args.seed,
                                                              worker)))
        sys.stdout.flush()
        child = subprocess.run(
            worker_command(args, args.seconds / WORKERS, args.trace,
                           sessions),
            capture_output=True, text=True, env=env, check=False,
            timeout=max(1.0, deadline - time.monotonic()))
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else None
        if not isinstance(result, dict):
            raise RuntimeError(f"worker {worker} exited {child.returncode} "
                               "without a result")
        for line in lines[:-1]:
            if line.startswith("samples "):
                exports.append(json.loads(line[len("samples "):]))
            else:
                print(f"worker {worker}: {line}")
        results.append((child.returncode, result))
    host_loop.append(host_loop_ms())
    print("host_loop_ms " + json.dumps(host_loop))

    if args.trace:
        metrics = results[0][1]["metrics"]
    else:
        metrics = report(args.workload, end_to_end(pooled(exports)))
    correct = all(code == 0 and result["correct"]
                  for code, result in results)
    attempted = sum(result["attempted"] for _, result in results)
    failed = sum(result["failed"] for _, result in results)
    print(f"{args.workload:8s} {'failed_fraction':34s} "
          f"{failed / attempted:14.6f} ratio n={attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.plant_fault:
            command.append("--plant-fault")
        sys.stdout.flush()
        child = subprocess.run(command, timeout=RUN_LIMIT_S + 10,
                               check=False)
        status = max(status, child.returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help="measure in this interpreter (one worker of "
                             "a run)")
    parser.add_argument("--sessions", type=int, default=2,
                        help="sessions to run (a worker)")
    parser.add_argument("--plant-fault", action="store_true",
                        help="tamper one view triple after the views are "
                             "built; the run must then fail its "
                             "correctness gate")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_program()
    if not args.worker:
        return run_workers(args)
    return run_worker(args)


if __name__ == "__main__":
    sys.exit(main())
