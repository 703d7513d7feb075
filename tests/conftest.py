import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from econocast import lagscan, metrics
from econocast.timeseries import synthesize_economy


@pytest.fixture
def derivations(monkeypatch):
    """The predictions passed to metrics.signals_from_prediction, spied on
    under both names the package calls it by."""
    calls = []
    original = metrics.signals_from_prediction

    def spy(predicted):
        calls.append(predicted)
        return original(predicted)

    for module in (metrics, lagscan):
        monkeypatch.setattr(module, "signals_from_prediction", spy)
    return calls


@pytest.fixture(scope="session")
def clean_bundle():
    """Noiseless default-shape economy: 156 months, annual cycle."""
    return synthesize_economy(seed=1, months=156, cycle_period=12, noise_scale=0.0)


@pytest.fixture(scope="session")
def noisy_bundle():
    """Default-noise economy used by pipeline-level tests."""
    return synthesize_economy(seed=1, months=156, cycle_period=12, noise_scale=0.1)


@pytest.fixture(scope="session")
def small_bundle():
    """Short noiseless economy for cheap tests."""
    return synthesize_economy(seed=7, months=72, cycle_period=12, noise_scale=0.0)
