"""Closed-form sub-gamma parameters and an empirical MGF verifier.

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
                                 w_star_sq_norm: float, noise_var: float,
                                 lam: float = 1.0) -> SubGammaParams:
    """Sub-gamma (s^2, c) for the squared loss, the NLL at sigma2 = 1/2 less a constant."""
    return nll_subgamma_params(0.5, input_var, prior_var, dim, w_star_sq_norm,
                               noise_var, lam)


def nll_subgamma_params(sigma2: float, input_var: float, prior_var: float,
                        dim: int, w_star_sq_norm: float, noise_var: float,
                        lam: float = 1.0) -> SubGammaParams:
    """Sub-gamma (s^2, c) for the Gaussian NLL loss: c = input_var*prior_var/sigma2."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if min(input_var, prior_var, noise_var) <= 0:
        raise ValueError("variances must be positive")
    c = input_var * prior_var / sigma2
    if lam > 0 and c >= 1.0 / lam:  # also an infinite c, from a tiny sigma2
        raise ValueError(f"sub-gamma scale c = input_var*prior_var/sigma2 = {c!r} "
                         f"(sigma2 = {sigma2!r}, prior_var = {prior_var!r}) "
                         f"must be below 1/lambda = {1.0 / lam!r}")
    _check_lambda(lam, c)
    s2 = (input_var * (prior_var * dim + w_star_sq_norm)
          + noise_var * (1.0 - lam * c)) / (lam * sigma2)
    return SubGammaParams(s2=s2, c=c)


def subgamma_envelope(lam: float, s2: float, c: float) -> float:
    """Log-MGF envelope lam^2 s^2 / (2 (1 - c lam)); sub-Gaussian at c = 0."""
    _check_lambda(lam, c)
    return lam * lam * s2 / (2.0 * (1.0 - c * lam))


@dataclass(frozen=True)
class MgfRow:
    lam: float
    psi_hat: float
    envelope: float
    band: float

    @property
    def dominated(self) -> bool:
        return self.psi_hat <= self.envelope + 3.0 * self.band


@dataclass(frozen=True)
class MgfReport:
    rows: tuple
    m: int
    seed: int
    loss_kind: str

    def all_dominated(self) -> bool:
        return all(row.dominated for row in self.rows)


def _deviation_samples(task: LinearTaskSpec, prior_var: float, loss: LossSpec,
                       m: int, gen: np.random.Generator) -> np.ndarray:
    """Draw m realizations of V = risk(w) - loss(w, x, y) under prior and task."""
    d = task.d
    w = gen.normal(0.0, math.sqrt(prior_var), size=(m, d))
    x = gen.normal(0.0, math.sqrt(task.input_var), size=(m, d))
    eps = gen.normal(0.0, math.sqrt(task.noise_var), size=m)
    y = x @ task.w_star + eps
    risk_sq = task.squared_risk(w)
    loss_sq = (y - np.einsum("ij,ij->i", w, x)) ** 2
    v = risk_sq - loss_sq
    if loss.kind == "squared":
        return v
    if loss.kind == "nll":
        return v / (2.0 * loss.sigma2)  # affine map; the constant cancels
    raise ValueError("MGF check supports the squared and nll losses")


def empirical_mgf_check(task: LinearTaskSpec, prior_var: float, loss: LossSpec,
                        params: SubGammaParams, lambda_grid: Sequence[float],
                        m: int, seed: int) -> MgfReport:
    """Estimate the log-MGF of the loss deviation and compare to its envelope.

    For each lambda in the grid, psi_hat = log mean exp(lambda V) over m draws;
    its band, the delta-method SE sd(e) / (sqrt(m) mean(e)) of e = exp(lambda V),
    is finite only for lambda < 1/(2c). A non-finite psi_hat means m is too small.
    """
    if m < 10_000:
        raise ValueError("MGF estimation needs at least 1e4 samples")
    for lam in lambda_grid:
        _check_lambda(lam, params.c)
        if 2.0 * lam * params.c >= 1.0:  # E exp(2 lambda V) is infinite
            raise ValueError(f"lambda {lam} >= 1/(2c) = {0.5 / params.c}: no finite band")
    gen = rng.stream(seed, rng.MGF_TAG)
    v = _deviation_samples(task, prior_var, loss, m, gen)
    rows = []
    for lam in lambda_grid:
        lv = lam * v
        top = float(lv.max())
        e = np.exp(lv - top)
        e_mean = float(np.mean(e))
        psi_hat = top + math.log(e_mean)
        if not math.isfinite(psi_hat):
            raise ValueError(f"MGF estimate not finite at lambda={lam}; increase m")
        rows.append(MgfRow(lam=float(lam), psi_hat=psi_hat,
                           envelope=subgamma_envelope(lam, params.s2, params.c),
                           band=float(e.std(ddof=1)) / (math.sqrt(m) * e_mean)))
    return MgfReport(rows=tuple(rows), m=m, seed=seed, loss_kind=loss.kind)
