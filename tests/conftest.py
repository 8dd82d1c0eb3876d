"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import propest


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment in which a fresh interpreter imports propest from this checkout."""
    src = str(Path(propest.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
