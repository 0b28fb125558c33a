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
        if self.c < 0:
            raise ValueError("c must be non-negative")


def _check_lambda(lam: float, c: float) -> None:
    if not lam > 0:
        raise ValueError("lambda must be positive")
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
    u = 1.0 - rng.stream(seed, rng.MGF_TAG).standard_normal(m) ** 2
    scale = 1.0 if loss.kind == "squared" else 0.5 / loss.sigma2  # V_nll = V_sq / (2 sigma2)
    rows = []
    for lam in lambda_grid:
        t = lam * scale * task.input_var * u
        r = 1.0 - 2.0 * prior_var * t
        if not r.min() > 0:  # params.c is below the scale of this task and prior
            raise ValueError(f"lambda {lam} is not below 1/c for this task and prior")
        log_e = (lam * scale * task.noise_var * u + t * task.w_star_sq_norm / r
                 - 0.5 * task.d * np.log(r))
        top = float(log_e.max())
        e = np.exp(log_e - top)
        e_mean = float(np.mean(e))
        rows.append((float(lam), top + math.log(e_mean),
                     subgamma_envelope(lam, params.s2, params.c),
                     float(e.std(ddof=1)) / (math.sqrt(m) * e_mean)))
    return rows
