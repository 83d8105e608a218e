"""Self-test of the benchmark's correctness gate.

Runs every workload twice for a short measurement: once clean, which
must exit 0 with ``failed == 0``, and once with ``--plant-fault`` (one
tampered view triple), which must exit nonzero with ``failed > 0``.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
#: The gate does not depend on the traffic, so any seed serves.
SEED = 100


def run(workload: str, fault: bool) -> tuple[int, dict]:
    command = [sys.executable, RUN, "--workload", workload,
               "--seed", str(SEED), "--seconds", "1",
               "--trace", "0"]
    if fault:
        command.append("--plant-fault")
    child = subprocess.run(command, capture_output=True, text=True,
                           timeout=180, check=False)
    return child.returncode, json.loads(child.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    for workload in ("serve", "churn"):
        code, result = run(workload, fault=False)
        if code != 0 or result["failed"] or not result["correct"]:
            problems.append(f"{workload}: clean run exited {code} with "
                            f"{result['failed']} failures")
        code, result = run(workload, fault=True)
        if code == 0 or not result["failed"] or result["correct"]:
            problems.append(f"{workload}: planted fault not caught (exit "
                            f"{code}, {result['failed']} failures)")
        else:
            print(f"{workload}: planted fault caught, failed_fraction "
                  f"{result['failed'] / result['attempted']:.4f}, exit {code}")
    for problem in problems:
        print("SELFTEST FAILED:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
