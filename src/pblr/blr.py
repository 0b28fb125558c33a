"""Conjugate Bayesian linear regression with exact evidence decomposition.

The model is y | x, w ~ N(w . phi(x), noise_var) with prior
w ~ N(0, prior_var I). The posterior is Gaussian with precision
A = phi' phi / noise_var + I / prior_var, and the negative log marginal
likelihood splits exactly into the posterior-averaged empirical negative
log-likelihood plus the posterior-prior KL divergence. All solves and log
determinants go through the Cholesky factor of A; the only use of A^{-1}
is its trace and quadratic forms, obtained by solving, never by forming an
explicit inverse.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .tasks import DesignMatrix


@dataclass(frozen=True)
class ModelConfig:
    """Fixed likelihood noise variance and isotropic prior variance."""

    noise_var: float
    prior_var: float

    def __post_init__(self):
        for name in ("noise_var", "prior_var"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian posterior N(mean, A^{-1}) stored as (mean, L) with A = L L'."""

    mean: np.ndarray
    chol: np.ndarray  # lower triangular Cholesky factor L of the precision A

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        if not np.isfinite(mean).all():
            raise ValueError("posterior mean is not finite")

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @cached_property  # computed on first use: evidence, KL and Gibbs NLL share it
    def logdet_precision(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    @cached_property
    def cov_trace(self) -> float:
        """tr(A^{-1}), from triangular solves against the identity columns; computed once."""
        inv_l = solve_triangular(self.chol, np.eye(self.d), lower=True)
        return float(np.sum(inv_l * inv_l))

    def predictive_var(self, phi: np.ndarray) -> np.ndarray:
        """phi_i' A^{-1} phi_i for each row phi_i of phi, as ||L^{-1} phi_i||^2."""
        z = solve_triangular(self.chol, phi.T, lower=True)
        return np.einsum("ij,ij->j", z, z)


@dataclass(frozen=True)
class EvidenceReport:
    """Exact split of the negative log evidence into risk and complexity."""

    neg_log_evidence: float
    gibbs_emp_risk_total: float
    kl: float

    def __post_init__(self):
        if self.kl < -1e-10:
            raise ValueError(f"KL must be non-negative, got {self.kl}")
        gap = abs(self.neg_log_evidence - (self.gibbs_emp_risk_total + self.kl))
        if gap > 1e-8 * max(1.0, abs(self.neg_log_evidence)):
            raise ValueError("evidence identity violated: "
                             f"{self.neg_log_evidence} vs {self.gibbs_emp_risk_total} + {self.kl}")


def fit_posterior(design: DesignMatrix, cfg: ModelConfig) -> GaussianPosterior:
    """Posterior precision A = phi'phi/noise_var + I/prior_var and mean A^{-1}phi'y/noise_var."""
    d = design.d
    with np.errstate(over="ignore", divide="ignore"):
        a = design.phi.T @ design.phi / cfg.noise_var + np.eye(d) / cfg.prior_var
    if not np.isfinite(a).all():
        raise ValueError(f"posterior precision is not finite at noise_var = "
                         f"{cfg.noise_var!r}, prior_var = {cfg.prior_var!r}")
    try:
        low = cholesky(a, lower=True)
    except np.linalg.LinAlgError as exc:  # rounding: A is indefinite at degree 40
        raise ValueError(f"posterior precision is not positive definite at d = {d}, "
                         f"noise_var = {cfg.noise_var!r}, prior_var = {cfg.prior_var!r}") from exc
    if design.n:
        mean = cho_solve((low, True), design.phi.T @ design.labels) / cfg.noise_var
    else:
        mean = np.zeros(d)
    return GaussianPosterior(mean=mean, chol=low)


def _nll_at_mean_total(design: DesignMatrix, cfg: ModelConfig, mean: np.ndarray) -> float:
    """n * empirical NLL of the posterior mean predictor."""
    r = design.labels - design.phi @ mean  # empty when n = 0, so r @ r = 0.0
    return 0.5 * design.n * math.log(2.0 * math.pi * cfg.noise_var) \
        + float(r @ r) / (2.0 * cfg.noise_var)


def neg_log_evidence(design: DesignMatrix, cfg: ModelConfig) -> float:
    """Negative log marginal likelihood of the labels given the inputs."""
    return evidence_decomposition(fit_posterior(design, cfg), design, cfg).neg_log_evidence


def gaussian_kl(post: GaussianPosterior, cfg: ModelConfig) -> float:
    """KL( N(mean, A^{-1}) || N(0, prior_var I) ), always >= 0."""
    d = post.d
    return 0.5 * (
        post.cov_trace / cfg.prior_var
        + float(post.mean @ post.mean) / cfg.prior_var
        - d
        + post.logdet_precision
        + d * math.log(cfg.prior_var)
    )


def gibbs_expected_empirical_nll(post: GaussianPosterior, design: DesignMatrix,
                                 cfg: ModelConfig) -> float:
    """n * E_{w~posterior} empirical NLL(w), in closed form.

    Equals n*NLL(mean) + tr(phi'phi A^{-1})/(2 noise_var); the trace term is
    evaluated as d/2 - tr(A^{-1})/(2 prior_var), which is the same quantity
    by the definition of A and stays accurate for ill-conditioned designs.
    """
    trace_term = 0.5 * design.d - post.cov_trace / (2.0 * cfg.prior_var)
    return _nll_at_mean_total(design, cfg, post.mean) + trace_term


def evidence_decomposition(post: GaussianPosterior, design: DesignMatrix,
                           cfg: ModelConfig) -> EvidenceReport:
    """Negative log evidence and its exact (risk, KL) split for a posterior fitted to design."""
    if post.d != design.d:
        raise ValueError(f"posterior has {post.d} weights, design {design.d} features")
    return EvidenceReport(
        neg_log_evidence=(_nll_at_mean_total(design, cfg, post.mean)
                          + float(post.mean @ post.mean) / (2.0 * cfg.prior_var)
                          + 0.5 * post.logdet_precision
                          + 0.5 * design.d * math.log(cfg.prior_var)),
        gibbs_emp_risk_total=gibbs_expected_empirical_nll(post, design, cfg),
        kl=gaussian_kl(post, cfg),
    )
