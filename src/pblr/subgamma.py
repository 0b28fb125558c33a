"""Closed-form sub-gamma parameters and a Monte-Carlo check of their MGF envelope.

Under the Gaussian generative model (inputs N(0, input_var I), labels
w_star . x + noise, prior N(0, prior_var I)), the centered loss deviation
V = generalization_risk(w) - loss(w, x, y) is sub-gamma with explicit
variance factor s^2 and scale c; the bounds use the envelope instantiated
at lambda = 1. The s^2 formula needs ||w_star||^2, which is oracle
knowledge only available for synthetic tasks.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .losses import LossSpec
from .tasks import LinearTaskSpec


@dataclass(frozen=True)
class SubGammaParams:
    """Variance factor s^2 and scale c of a sub-gamma loss deviation."""

    s2: float
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.s2) and self.s2 >= 0):
            raise ValueError("s2 must be finite and non-negative")
        if not self.c >= 0:  # also a NaN c
            raise ValueError("c must be non-negative")


def _check_lambda(lam: float, c: float) -> None:
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not c >= 0:
        raise ValueError("c must be non-negative")
    if c > 0 and lam >= 1.0 / c:
        raise ValueError(f"lambda {lam} outside the sub-gamma range (0, {1.0 / c})")


def squared_loss_subgamma_params(input_var: float, prior_var: float, dim: int,
                                 w_star_sq_norm: float, noise_var: float) -> SubGammaParams:
    """Sub-gamma (s^2, c) for the squared loss, the NLL at sigma2 = 1/2 less a constant."""
    return nll_subgamma_params(0.5, input_var, prior_var, dim, w_star_sq_norm, noise_var)


def nll_subgamma_params(sigma2: float, input_var: float, prior_var: float,
                        dim: int, w_star_sq_norm: float, noise_var: float) -> SubGammaParams:
    """Sub-gamma (s^2, c) at lambda = 1 for the Gaussian NLL: c = input_var*prior_var/sigma2."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if min(input_var, prior_var, noise_var) <= 0:
        raise ValueError("variances must be positive")
    c = input_var * prior_var / sigma2
    if not c < 1.0:  # also an infinite c, from a tiny sigma2
        raise ValueError(f"sub-gamma scale c = input_var*prior_var/sigma2 = {c!r} "
                         f"(sigma2 = {sigma2!r}, prior_var = {prior_var!r}) must be below 1")
    s2 = (input_var * (prior_var * dim + w_star_sq_norm) + noise_var * (1.0 - c)) / sigma2
    return SubGammaParams(s2=s2, c=c)


def subgamma_envelope(lam: float, s2: float, c: float) -> float:
    """Log-MGF envelope lam^2 s^2 / (2 (1 - c lam)); sub-Gaussian at c = 0."""
    _check_lambda(lam, c)
    return lam * lam * s2 / (2.0 * (1.0 - c * lam))


def dominated(row) -> bool:
    """Whether an MGF row (lambda, psi_hat, envelope, band) lies within 3 bands of its envelope."""
    _, psi_hat, envelope, band = row
    return psi_hat <= envelope + 3.0 * band


def empirical_mgf_check(task: LinearTaskSpec, prior_var: float, loss: LossSpec,
                        params: SubGammaParams, lambda_grid: Sequence[float],
                        m: int, seed: int) -> list:
    """The rows (lambda, psi_hat, envelope, band) of the log-MGF check, one per lambda.

    Given w the residual y - w.x is sqrt(s(w)) Z with s(w) = risk(w) and Z
    standard normal, so the squared-loss V = s(w) (1 - Z^2). Given Z, the
    prior expectation e = E_w exp(lambda V) is a noncentral chi-square MGF in
    closed form; psi_hat = log mean e over m draws of Z, and its band is the
    delta-method SE sd(e) / (sqrt(m) mean(e)). As 1 - Z^2 <= 1, e is bounded
    for every lambda < 1/c.
    """
    if loss.kind not in ("squared", "nll"):
        raise ValueError("MGF check supports the squared and nll losses")
    if m < 10_000:
        raise ValueError("MGF estimation needs at least 1e4 samples")
    for lam in lambda_grid:
        _check_lambda(lam, params.c)
    u = rng.stream(seed, rng.MGF_TAG).standard_normal(m)
    np.subtract(1.0, np.square(u, out=u), out=u)
    scale = 1.0 if loss.kind == "squared" else 0.5 / loss.sigma2  # V_nll = V_sq / (2 sigma2)
    # Three work arrays serve every lambda. The steps are those of t = lam scale
    # input_var u, r = 1 - 2 prior_var t and log_e = lam scale noise_var u +
    # t ||w*||^2 / r - d/2 log r, in the same order, so the rows keep their bits.
    t, r, log_e = np.empty(m), np.empty(m), np.empty(m)
    rows = []
    for lam in lambda_grid:
        np.multiply(lam * scale * task.input_var, u, out=t)
        np.subtract(1.0, np.multiply(2.0 * prior_var, t, out=r), out=r)
        if not r.min() > 0:  # params.c is below the scale of this task and prior
            raise ValueError(f"lambda {lam} is not below 1/c for this task and prior")
        np.multiply(lam * scale * task.noise_var, u, out=log_e)
        np.divide(np.multiply(t, task.w_star_sq_norm, out=t), r, out=t)
        np.add(log_e, t, out=log_e)
        np.subtract(log_e, np.multiply(0.5 * task.d, np.log(r, out=r), out=r), out=log_e)
        top = float(log_e.max())
        e = np.exp(np.subtract(log_e, top, out=log_e), out=log_e)
        e_mean = float(e.sum() / m)
        # sd(e) with ddof = 1 as np.std computes it, from the same mean
        np.square(np.subtract(e, e_mean, out=r), out=r)
        rows.append((float(lam), top + math.log(e_mean),
                     subgamma_envelope(lam, params.s2, params.c),
                     math.sqrt(r.sum() / (m - 1)) / (math.sqrt(m) * e_mean)))
    return rows
