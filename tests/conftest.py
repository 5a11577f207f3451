import pytest

from epra_kit import bploop


@pytest.fixture
def python_driver(monkeypatch):
    """Run without the compiled module, as where it cannot be built: every
    scheme through basic._drive, every basis and round's bookkeeping in
    NumPy."""
    monkeypatch.setattr(bploop, "library", lambda: None)


@pytest.fixture(params=["compiled", "numpy"])
def route(request, monkeypatch):
    """Each test once on the compiled module and once on the NumPy code
    that runs where it cannot be built."""
    if request.param == "numpy":
        monkeypatch.setattr(bploop, "library", lambda: None)
    elif bploop.library() is None:
        pytest.skip("the compiled library is not built")
    return request.param
