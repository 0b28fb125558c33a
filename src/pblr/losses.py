"""Per-example losses (NLL, squared, cropped) and their exact Gaussian expectations.

The NLL loss is an affine transform of the squared loss:
nll = 0.5*log(2*pi*sigma2) + squared / (2*sigma2). Cropping clamps the
inner loss into [a, b] per example, before any averaging. Every loss is a
function of the residual r = y - w . phi(x), and under a Gaussian posterior
(or a Gaussian task) r is Gaussian, so its expected loss has a closed form.
The cropped one is a single form in the Gaussian tails of |r| beyond the two
residuals where the loss crosses a and b, clamped into [a, b] like the loss.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blr import GaussianPosterior, scalar_or_stack, stack_blocks
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
        elif self.kind == "cropped":
            if self.inner is None or self.inner.kind == "cropped":
                raise ValueError("cropped loss wraps a plain nll or squared loss")
            if self.a is None or self.b is None or not -math.inf < self.a < self.b < math.inf:
                raise ValueError("cropped loss requires finite a < b")
        elif self.kind != "squared":
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


def _beyond(t: float, mu, second, sd):
    """(G, M) = (P(|r| > t), E[r^2; |r| > t]) for r ~ N(mu, sd^2), a crop edge t >= 0.

    With second = mu^2 + sd^2 and z = (+-mu - t) / sd, P(+-r > t) = Phi(z) and
    E[r^2; +-r > t] = second Phi(z) + sd (t +- mu) phi(z). At t = 0 (G, M) =
    (1, second) exactly; at the scalar mu = 0 the two sides share one Phi and phi.
    """
    if t == 0.0:
        return 1.0, second
    # Imported here: scipy.special adds about 0.1 s to `import pblr.cli`.
    from scipy.special import ndtr

    def side(z):  # (Phi(z), phi(z))
        return ndtr(z), np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    with np.errstate(over="ignore"):  # z^2 overflows as var -> 0, where phi(z) -> 0
        tail_up, pdf_up = side((mu - t) / sd)  # r > t
        tail_down, pdf_down = ((tail_up, pdf_up) if mu.ndim == 0 and mu == 0.0
                               else side((-mu - t) / sd))  # r < -t
    tail = tail_up + tail_down
    return tail, second * tail + sd * ((t + mu) * pdf_up + (t - mu) * pdf_down)


def _expected_cropped(spec: LossSpec, mu, var):
    """E clip(c0 + r^2 / denom, a, b) for r ~ N(mu, var), clamped into [a, b].

    The loss is below a for |r| < t_a and above b for |r| > t_b, so with G and M
    of `_beyond` it is base + (c0 - base) G(t_a) + (b - c0) G(t_b) + (M(t_a) -
    M(t_b)) / denom, base = max(a, c0). The default crop has c0 >= a, so t_a = 0;
    where c0 >= b it is the constant b. np.clip undoes rounding past a or b, keeping NaN.
    """
    a, b = spec.a, spec.b
    c0, denom = _affine_in_squared(spec.inner)
    t_a = math.sqrt(max(a - c0, 0.0) * denom)
    t_b = math.sqrt(max(b - c0, 0.0) * denom)
    if not math.isfinite(t_b):  # else inf * phi(inf) turns the expectation into NaN
        raise ValueError(f"cropped loss upper end b = {b!r} is too large: "
                         f"the residual where the loss reaches it overflows")
    if t_b == 0.0:  # every loss is cropped down to b; a NaN mu or var stays NaN
        return np.where(np.isnan(mu) | np.isnan(var), np.nan, b)[()]
    var = np.maximum(var, _MIN_VAR)
    second, sd = mu * mu + var, np.sqrt(var)
    (g_a, m_a), (g_b, m_b) = (_beyond(t, mu, second, sd) for t in (t_a, t_b))
    base = max(a, c0)
    return np.clip(base + (c0 - base) * g_a + (b - c0) * g_b + (m_a - m_b) / denom, a, b)


def empirical_gibbs_risk(post: GaussianPosterior, design: DesignMatrix,
                         loss: LossSpec):
    """Exact E_{w~posterior} of the dataset-average loss.

    Under the posterior N(mean, A^{-1}) with A = L L', the residual
    y_i - phi_i . w is N(y_i - phi_i . mean, ||L^{-1} phi_i||^2). A stacked
    posterior and design give the array of the S risks, each with the bits of
    its fit alone. The examples are taken in the `stack_blocks` of their
    design entries, each block's expected losses written into one array of
    them all, so the work arrays stay within a block and the mean has the
    bits of a single pass. A cropped loss's mean is clamped into [a, b].
    """
    if design.n == 0:
        raise ValueError("the empirical risk needs at least one example")
    phi, labels = design.phi, design.labels
    losses = np.empty(labels.shape)
    for block in stack_blocks(design.n, phi.size // design.n):
        rows = slice(block.start, block.stop)
        resid = labels[..., rows] - (phi[..., rows, :] @ post.mean[..., None])[..., 0]
        losses[..., rows] = expected_loss(loss, resid, post.predictive_var(phi[..., rows, :]))
    risk = np.mean(losses, axis=-1)  # of values in [a, b], but it can round past b
    return scalar_or_stack(np.clip(risk, loss.a, loss.b) if loss.kind == "cropped" else risk)
