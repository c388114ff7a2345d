"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def per_sample_draws(monkeypatch):
    """A one-item list counting the ``random`` and ``integers`` calls made from
    here on by any generator ``np.random.default_rng`` returns: the draws
    ``data.partition_non_iid`` makes per sample, so two partitioners that fail
    on the same draw read the same count."""
    count = [0]
    make = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self._rng = make(seed)

        def __getattr__(self, name):
            if name in ("random", "integers"):
                count[0] += 1
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    return count
