import pytest

from pblr import blr


@pytest.fixture
def cholesky_calls(monkeypatch):
    """List that grows by one entry per Cholesky factorization made through pblr.blr."""
    calls = []
    real = blr.cholesky

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(blr, "cholesky", counting)
    return calls
