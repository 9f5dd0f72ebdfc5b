"""Shared pytest fixtures."""

import os

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:     # only the property suites need it
    settings = None

# Property tests draw fresh examples locally; under CI they replay a
# fixed, derandomized example set so a red build is reproducible.
if settings is not None:
    settings.register_profile("ci", derandomize=True, database=None)
    if os.environ.get("CI"):
        settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)
