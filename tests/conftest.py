import pytest

from epra_kit import bploop


@pytest.fixture
def python_driver(monkeypatch):
    """Run every scheme through basic._drive, as where no compiled loop
    can be built."""
    monkeypatch.setattr(bploop, "library", lambda: None)
