import pytest

from pblr import blr


@pytest.fixture
def cholesky_calls(monkeypatch):
    """List that grows by one entry per Cholesky factorization made through pblr.blr.

    The entry is the stack shape of the fit: () for one design, (S,) for a
    stacked fit of S designs in one call.
    """
    calls = []
    real = blr._fit

    def counting(phi, labels, cfg):
        calls.append(phi.shape[:-2])
        return real(phi, labels, cfg)

    monkeypatch.setattr(blr, "_fit", counting)
    return calls
