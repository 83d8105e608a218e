"""Shared fixtures for the experiment benchmarks (E1-E9 in DESIGN.md).

Each experiment prints the rows/series the demo reports *and* appends them
to ``benchmarks/out/latest/<exp>.txt`` (gitignored) so the numbers in
EXPERIMENTS.md can be regenerated with ``pytest benchmarks/ --benchmark-only
-s``.  The committed ``benchmarks/out/<exp>.txt`` files are the recorded
reference run; a test run never rewrites them.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import load_dataset

OUT_DIR = os.path.join(os.path.dirname(__file__), "out", "latest")

_SEEN: set[str] = set()


def emit(exp_id: str, text: str) -> None:
    """Print an experiment artifact and persist it under ``OUT_DIR``."""
    banner = f"\n===== {exp_id} =====\n"
    print(banner + text)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{exp_id}.txt")
    mode = "w" if exp_id not in _SEEN else "a"
    _SEEN.add(exp_id)
    with open(path, mode, encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="session")
def small_dbpedia():
    return load_dataset("dbpedia", "small")


@pytest.fixture(scope="session")
def small_lubm():
    return load_dataset("lubm", "small")


@pytest.fixture(scope="session")
def small_swdf():
    return load_dataset("swdf", "small")


@pytest.fixture(scope="session")
def all_small(small_dbpedia, small_lubm, small_swdf):
    return {
        "dbpedia": small_dbpedia,
        "lubm": small_lubm,
        "swdf": small_swdf,
    }
