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


def _checked_kl(neg_log_evidence, gibbs_emp_risk_total, kl):
    """The KL, with a rounding-sized negative value (down to -1e-10) read as 0.0.

    Raises ValueError at the first KL below -1e-10, or the first evidence
    identity gap above 1e-8 relative. Takes scalars or arrays of one shape alike.
    """
    nle, gibbs, kl = map(np.asarray, (neg_log_evidence, gibbs_emp_risk_total, kl))
    bad = ~(kl >= -1e-10)  # NaN fails both checks
    if bad.any():
        raise ValueError(f"KL must be non-negative, got {float(kl[bad][0])}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        bad = ~(np.abs(nle - (gibbs + kl)) <= 1e-8 * np.maximum(1.0, np.abs(nle)))
    if bad.any():
        raise ValueError("evidence identity violated: "
                         f"{float(nle[bad][0])} vs {float(gibbs[bad][0])} + {float(kl[bad][0])}")
    return np.maximum(kl, 0.0)


@dataclass(frozen=True)
class EvidenceReport:
    """Exact split of the negative log evidence into risk and complexity."""

    neg_log_evidence: float
    gibbs_emp_risk_total: float
    kl: float

    def __post_init__(self):
        kl = _checked_kl(self.neg_log_evidence, self.gibbs_emp_risk_total, self.kl)
        object.__setattr__(self, "kl", float(kl))


def _precision_factor(phi: np.ndarray, cfg: ModelConfig, cholesky_fn) -> np.ndarray:
    """Lower Cholesky factor of A = phi'phi/noise_var + I/prior_var, for one phi or a stack."""
    d = phi.shape[-1]
    with np.errstate(over="ignore", divide="ignore"):
        a = np.swapaxes(phi, -1, -2) @ phi / cfg.noise_var + np.eye(d) / cfg.prior_var
    if not np.isfinite(a).all():
        raise ValueError(f"posterior precision is not finite at noise_var = "
                         f"{cfg.noise_var!r}, prior_var = {cfg.prior_var!r}")
    try:
        return cholesky_fn(a)
    except np.linalg.LinAlgError as exc:  # rounding: A is indefinite at degree 40
        raise ValueError(f"posterior precision is not positive definite at d = {d}, "
                         f"noise_var = {cfg.noise_var!r}, prior_var = {cfg.prior_var!r}") from exc


def fit_posterior(design: DesignMatrix, cfg: ModelConfig) -> GaussianPosterior:
    """Posterior precision A = phi'phi/noise_var + I/prior_var and mean A^{-1}phi'y/noise_var."""
    low = _precision_factor(design.phi, cfg, lambda a: cholesky(a, lower=True))
    if design.n:
        mean = cho_solve((low, True), design.phi.T @ design.labels) / cfg.noise_var
    else:
        mean = np.zeros(design.d)
    return GaussianPosterior(mean=mean, chol=low)


def _nll_total(n: int, resid_sq, cfg: ModelConfig):
    """n * empirical NLL of a predictor whose n residuals have squared norm resid_sq."""
    return 0.5 * n * math.log(2.0 * math.pi * cfg.noise_var) + resid_sq / (2.0 * cfg.noise_var)


def _nll_at_mean_total(design: DesignMatrix, cfg: ModelConfig, mean: np.ndarray) -> float:
    """n * empirical NLL of the posterior mean predictor."""
    r = design.labels - design.phi @ mean  # empty when n = 0, so r @ r = 0.0
    return _nll_total(design.n, float(r @ r), cfg)


def _split(nll_at_mean_total, mean_sq, logdet_precision, cov_trace, d: int,
           cfg: ModelConfig) -> tuple:
    """(neg_log_evidence, gibbs_emp_risk_total, kl) of a fit, from its summaries.

    The Gibbs total is n*NLL(mean) + tr(phi'phi A^{-1})/(2 noise_var); the
    trace term is evaluated as d/2 - tr(A^{-1})/(2 prior_var), which is the
    same quantity by the definition of A and stays accurate for
    ill-conditioned designs. Takes scalars or arrays of stacked fits alike.
    """
    return (nll_at_mean_total + mean_sq / (2.0 * cfg.prior_var)
            + 0.5 * logdet_precision + 0.5 * d * math.log(cfg.prior_var),
            nll_at_mean_total + (0.5 * d - cov_trace / (2.0 * cfg.prior_var)),
            0.5 * (cov_trace / cfg.prior_var + mean_sq / cfg.prior_var - d
                   + logdet_precision + d * math.log(cfg.prior_var)))


def _posterior_split(post: GaussianPosterior, design: DesignMatrix, cfg: ModelConfig) -> tuple:
    return _split(_nll_at_mean_total(design, cfg, post.mean), float(post.mean @ post.mean),
                  post.logdet_precision, post.cov_trace, post.d, cfg)


def neg_log_evidence(design: DesignMatrix, cfg: ModelConfig) -> float:
    """Negative log marginal likelihood of the labels given the inputs."""
    return evidence_decomposition(fit_posterior(design, cfg), design, cfg).neg_log_evidence


def gaussian_kl(post: GaussianPosterior, cfg: ModelConfig) -> float:
    """KL( N(mean, A^{-1}) || N(0, prior_var I) ), always >= 0."""
    return _split(0.0, float(post.mean @ post.mean), post.logdet_precision, post.cov_trace,
                  post.d, cfg)[2]


def gibbs_expected_empirical_nll(post: GaussianPosterior, design: DesignMatrix,
                                 cfg: ModelConfig) -> float:
    """n * E_{w~posterior} empirical NLL(w), in closed form."""
    return _posterior_split(post, design, cfg)[1]


def evidence_decomposition(post: GaussianPosterior, design: DesignMatrix,
                           cfg: ModelConfig) -> EvidenceReport:
    """Negative log evidence and its exact (risk, KL) split for a posterior fitted to design."""
    if post.d != design.d:
        raise ValueError(f"posterior has {post.d} weights, design {design.d} features")
    return EvidenceReport(*_posterior_split(post, design, cfg))


def stacked_neg_log_evidence(phi: np.ndarray, labels: np.ndarray,
                             cfg: ModelConfig) -> np.ndarray:
    """Negative log evidence of S independent fits at once: phi (S, n, d), labels (S, n).

    Entry s is neg_log_evidence(DesignMatrix(phi[s], labels[s]), cfg) up to
    rounding, from one stacked Cholesky factorization. It makes the checks of
    that path, with its messages: a non-finite design, a non-finite or
    indefinite precision, a non-finite mean, the KL sign and the evidence
    identity each raise ValueError.
    """
    phi = np.asarray(phi, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if phi.ndim != 3 or labels.shape != phi.shape[:2]:
        raise ValueError(f"need phi of shape (S, n, d) and labels (S, n), "
                         f"got {phi.shape} and {labels.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("design matrix contains non-finite entries")
    if not np.isfinite(labels).all():
        raise ValueError("labels contain non-finite entries")
    s, n, d = phi.shape
    low = _precision_factor(phi, cfg, np.linalg.cholesky)
    # one solve against [I | phi'y] gives L^{-1}, for tr(A^{-1}), and L^{-1} phi'y
    rhs = np.concatenate((np.broadcast_to(np.eye(d), (s, d, d)),
                          np.swapaxes(phi, 1, 2) @ labels[..., None]), axis=2)
    z = np.linalg.solve(low, rhs)
    mean = np.linalg.solve(np.swapaxes(low, 1, 2), z[..., d:]) / cfg.noise_var  # (S, d, 1)
    if not np.isfinite(mean).all():
        raise ValueError("posterior mean is not finite")
    resid = labels - (phi @ mean)[..., 0]
    inv_l = z[..., :d]
    nle, gibbs, kl = _split(_nll_total(n, np.einsum("si,si->s", resid, resid), cfg),
                            np.einsum("sij,sij->s", mean, mean),
                            2.0 * np.sum(np.log(np.diagonal(low, axis1=1, axis2=2)), axis=1),
                            np.einsum("sij,sij->s", inv_l, inv_l), d, cfg)
    _checked_kl(nle, gibbs, kl)
    return nle
