"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def custom_config():
    """The benchmark's seeded generator of valid `custom` configs,
    custom_config(rng, n, k), loaded from perfbench/jobs.py (pure data, no
    qweyl import)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.custom_config
