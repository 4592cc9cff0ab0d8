"""Shared fixtures and markers for the mpb-lab test suite."""

import numpy as np
import pytest

from mpb_lab.scenario import generate_gold_codes


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running statistical checks (large symbol counts); "
        "deselect with -m 'not slow' during development",
    )


@pytest.fixture(scope="session")
def code0():
    """The desired user's frozen spreading code."""
    return generate_gold_codes(1)[0]


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture(scope="session")
def rendered():
    """Splits a ChipStream's whole render into (soi rows, interferer rows)."""
    def split(stream):
        rows = stream.render(0, stream.noise.shape[1])
        return np.split(rows, [stream.soi_steering.shape[1]])

    return split
