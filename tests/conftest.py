import numpy as np
import pytest

from epra_kit import bploop


@pytest.fixture
def python_driver(monkeypatch):
    """Run every scheme through basic._drive, as where no compiled loop
    can be built."""
    monkeypatch.setattr(bploop, "library", lambda: None)
    assert bploop.run(0, np.eye(2), np.full(2, 0.5), 0.5, 10, 128, 2.0) is None
