"""Shared fixtures for the benchmark harness.

The benchmarks double as experiment drivers: each one regenerates a
table or ablation from the paper and asserts its qualitative shape
(who wins, whether bounds enclose), while pytest-benchmark records how
long the reproduced pipeline takes.
"""

import pytest

from repro.experiments import Experiments
from repro.programs import all_benchmarks


@pytest.fixture(scope="session")
def experiments():
    return Experiments()


@pytest.fixture(scope="session")
def benchmarks():
    return all_benchmarks()


def one_shot(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under the timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)

