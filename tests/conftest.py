import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from econocast import metrics
from econocast.timeseries import synthesize_economy


@pytest.fixture
def derivations(monkeypatch):
    """The prediction stacks passed to metrics.signal_rows, which every
    signal derivation goes through, spied on in every module that imports it."""
    calls = []
    original = metrics.signal_rows

    def spy(predicted):
        calls.append(predicted)
        return original(predicted)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "econocast" and getattr(module, "signal_rows", None) is original:
            monkeypatch.setattr(module, "signal_rows", spy)
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
