"""Shared fixtures for the benchmark harness.

Each benchmark module reproduces one table or figure of the paper:
it (re)computes the experiment via the cached suites in
``repro.experiments``, prints the paper-style rows, writes them to
``benchmarks/results/``, and times a representative operation with
pytest-benchmark.

First run trains all models (roughly 15-25 minutes on one CPU core);
subsequent runs reuse the disk cache under ``.exp_cache``.

Benchmarks that record a ``BENCH_<name>.json`` artifact at the repo
root get its path from the ``bench_path`` fixture; smoke runs write
``BENCH_<name>.smoke.json`` instead and leave the committed full result
alone.
"""

import os

import pytest

from repro.experiments import (
    ExperimentCache,
    ImageExperimentConfig,
    ServingExperimentConfig,
    TextExperimentConfig,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_path(name: str, smoke: bool) -> str:
    """Where benchmark ``name`` writes its JSON artifact.

    A full run writes the committed ``BENCH_<name>.json`` at the repo
    root; a smoke run writes ``BENCH_<name>.smoke.json`` (ignored by
    git), so a quick run never overwrites a committed full result.
    """
    return os.path.join(
        REPO_ROOT, f"BENCH_{name}{'.smoke' if smoke else ''}.json")


@pytest.fixture(scope="session")
def cache():
    return ExperimentCache()


@pytest.fixture(scope="session")
def image_cfg():
    return ImageExperimentConfig()


@pytest.fixture(scope="session")
def text_cfg():
    return TextExperimentConfig()


@pytest.fixture(scope="session")
def serving_cfg():
    return ServingExperimentConfig()


@pytest.fixture(scope="session")
def emit():
    """Print a reproduced artifact and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        path = os.path.join(RESULTS_DIR, name + ".txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def bench_path():
    """``bench_path(name, smoke)``: the artifact path for one benchmark."""
    return _bench_path
