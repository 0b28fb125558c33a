"""Per-example losses (NLL, squared, cropped) and their exact Gaussian expectations.

The NLL loss is an affine transform of the squared loss:
nll = 0.5*log(2*pi*sigma2) + squared / (2*sigma2). Cropping clamps the
inner loss into [a, b] per example, before any averaging. Every loss is a
function of the residual r = y - w . phi(x), and under a Gaussian posterior
(or a Gaussian task) r is Gaussian, so its expected loss has a closed form.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blr import GaussianPosterior
from .tasks import DesignMatrix

# Variance floor of the cropped expectation: a zero variance is the limit of
# a tiny one, and the floor keeps the z-scores of the thresholds finite.
_MIN_VAR = 1e-300


@dataclass(frozen=True)
class LossSpec:
    """Tagged loss description: nll(sigma2), squared, or cropped(inner, a, b)."""

    kind: str
    sigma2: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    inner: Optional["LossSpec"] = None

    def __post_init__(self):
        if self.kind == "nll":
            if not (self.sigma2 is not None and self.sigma2 > 0):
                raise ValueError("nll loss requires sigma2 > 0")
        elif self.kind == "squared":
            pass
        elif self.kind == "cropped":
            if self.inner is None or self.inner.kind == "cropped":
                raise ValueError("cropped loss wraps a plain nll or squared loss")
            if self.a is None or self.b is None or not (self.a < self.b):
                raise ValueError("cropped loss requires finite a < b")
            if not (math.isfinite(self.a) and math.isfinite(self.b)):
                raise ValueError("cropped loss requires finite a < b")
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")

    @classmethod
    def nll(cls, sigma2: float) -> "LossSpec":
        return cls(kind="nll", sigma2=sigma2)

    @classmethod
    def squared(cls) -> "LossSpec":
        return cls(kind="squared")

    @classmethod
    def cropped(cls, inner: "LossSpec", a: float, b: float) -> "LossSpec":
        return cls(kind="cropped", inner=inner, a=a, b=b)


def _affine_in_squared(spec: LossSpec) -> tuple[float, float]:
    """(c0, denom) with loss(r) = c0 + r^2 / denom, for the squared and nll losses."""
    if spec.kind == "squared":
        return 0.0, 1.0
    return 0.5 * math.log(2.0 * math.pi * spec.sigma2), 2.0 * spec.sigma2


def expected_loss(spec: LossSpec, mu, var):
    """E loss(r) for a residual r ~ N(mu, var), elementwise; var = 0 gives loss(mu)."""
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if spec.kind == "cropped":
        return _expected_cropped(spec, mu, var)
    c0, denom = _affine_in_squared(spec)
    return c0 + (mu * mu + var) / denom


def _expected_cropped(spec: LossSpec, mu, var):
    """E clip(c0 + r^2 / denom, a, b) for r ~ N(mu, var), from Phi and phi.

    The inner loss is below a for |r| < t_a and above b for |r| > t_b; in
    between it is c0 + r^2 / denom, whose truncated-normal second moment on
    [lo, hi] is (mu^2 + var) P + sd ((mu + lo) phi(z_lo) - (mu + hi) phi(z_hi)).
    """
    # Imported here, not at the top: scipy.special adds about 0.1 s to
    # `import pblr.cli`, and only cropped losses need it.
    from scipy.special import ndtr

    a, b = spec.a, spec.b
    c0, denom = _affine_in_squared(spec.inner)
    t_a = math.sqrt(max(a - c0, 0.0) * denom)
    t_b = math.sqrt(max(b - c0, 0.0) * denom)
    if not math.isfinite(t_b):  # else inf * phi(inf) turns the expectation into NaN
        raise ValueError(f"cropped loss upper end b = {b!r} is too large: "
                         f"the residual where the loss reaches it overflows")
    var = np.maximum(var, _MIN_VAR)
    sd = np.sqrt(var)
    edges = (-t_b, -t_a, t_a, t_b)
    z = [(t - mu) / sd for t in edges]
    with np.errstate(over="ignore"):
        pdf = [np.exp(-0.5 * zi * zi) / math.sqrt(2.0 * math.pi) for zi in z]
    cdf = [ndtr(zi) for zi in z]
    low = cdf[2] - cdf[1]
    high = cdf[0] + ndtr(-z[3])
    mid = (cdf[1] - cdf[0]) + (cdf[3] - cdf[2])
    mid_sq = (mu * mu + var) * mid + sd * (
        (mu + edges[0]) * pdf[0] - (mu + edges[1]) * pdf[1]
        + (mu + edges[2]) * pdf[2] - (mu + edges[3]) * pdf[3])
    return a * low + b * high + c0 * mid + mid_sq / denom


def empirical_gibbs_risk(post: GaussianPosterior, design: DesignMatrix,
                         loss: LossSpec) -> float:
    """Exact E_{w~posterior} of the dataset-average loss.

    Under the posterior N(mean, A^{-1}) with A = L L', the residual
    y_i - phi_i . w is N(y_i - phi_i . mean, ||L^{-1} phi_i||^2).
    """
    if design.n == 0:
        raise ValueError("the empirical risk needs at least one example")
    resid = design.labels - design.phi @ post.mean
    return float(np.mean(expected_loss(loss, resid, post.predictive_var(design.phi))))
