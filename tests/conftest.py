"""Shared fixtures for the test suite; randomized draws live in draws.py."""

import pytest

from eprenorm import DriveParams, SystemParams


@pytest.fixture
def params():
    """Representative system: 1 MHz mechanics, 0.2 MHz cavity, 5 kHz damping."""
    return SystemParams.from_hz(freq_hz=1e6, kappa_hz=0.2e6, gamma_hz=5e3, cutoff_hz=1e6)


@pytest.fixture
def drive():
    """Red-sideband drive at the memoryless calibration point."""
    return DriveParams.from_hz(detuning_hz=-1e6, coupling_hz=48.75e3)
