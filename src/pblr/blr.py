"""Conjugate Bayesian linear regression with exact evidence decomposition.

The model is y | x, w ~ N(w . phi(x), noise_var) with prior
w ~ N(0, prior_var I). The posterior is Gaussian with precision
A = phi' phi / noise_var + I / prior_var, and the negative log marginal
likelihood splits exactly into the posterior-averaged empirical negative
log-likelihood plus the posterior-prior KL divergence. One numpy routine
fits one design or a stack of them: the Cholesky factor L of A, its
inverse L^{-1} from one solve of L' against the identity, and z = L^{-1} phi'y.
The leading k columns of the design take the leading k x k blocks of L and
L^{-1} and the mean L_k^{-T} z[:k] / noise_var, so one fit serves every
column prefix, and `prefix_evidences` splits each prefix's evidence on a view
of the one checked design. A stacked design (S, n, d) gives a
`GaussianPosterior` and an `EvidenceReport` that carry the S fits as arrays,
entry by entry with the bits of fitting that design alone. The log determinant comes from diag(L);
tr(A^{-1}) = ||L^{-1}||_F^2 and the quadratic forms phi' A^{-1} phi =
||L^{-1} phi||^2 come from L^{-1}. A^{-1} itself is never formed.
Every stacked pass (seed scan, coverage study, cropped oracle) runs in the
ranges of `stack_blocks`, each of at most STACK_BUDGET array entries.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tasks import DesignMatrix

# design entries per block of a stacked pass (1,024 sine samples of 15 points at
# degree 7): memory stays flat in the stack size and in n
STACK_BUDGET = 1024 * 15 * 8


def stack_blocks(count: int, entries_each: int) -> list:
    """range(count) cut into consecutive ranges of max(1, STACK_BUDGET // entries_each) items."""
    step = max(1, STACK_BUDGET // max(entries_each, 1))
    return [range(start, min(start + step, count)) for start in range(0, count, step)]


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
        if not math.isfinite(math.log(2.0 * math.pi * float(self.noise_var))):
            raise ValueError(f"noise_var must keep log(2*pi*noise_var) finite, "
                             f"got {self.noise_var!r}")


def _inverse_factor(low: np.ndarray) -> np.ndarray:
    """L^{-1} of one lower triangular L or of a stack of them, as ((L')^{-1})'.

    Pivoting swaps no rows of the upper triangular L' (of L it would, where
    |L_i0| > L_00), so L^{-1} is exactly lower triangular, block by leading block.
    """
    # the identity gets the full stack shape: numpy 1.24 reads a 2-D right-hand
    # side against a stack of matrices as a stack of vectors
    eye = np.broadcast_to(np.eye(low.shape[-1]), low.shape)
    return np.swapaxes(np.linalg.solve(np.swapaxes(low, -1, -2), eye), -1, -2)


def _logdet(low: np.ndarray):
    """ln det A = 2 sum ln diag(L), per factor of a stack."""
    return 2.0 * np.sum(np.log(np.diagonal(low, axis1=-2, axis2=-1)), axis=-1)


def _frobenius_sq(inv_l: np.ndarray):
    """tr(A^{-1}) = ||L^{-1}||_F^2, per factor of a stack."""
    return np.sum(inv_l * inv_l, axis=(-2, -1))


def scalar_or_stack(value):
    """A float for one fit, or the array of one value per fit of a stack."""
    value = np.asarray(value, dtype=float)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian posterior N(mean, A^{-1}) stored as (mean, L) with A = L L'.

    A stack of S posteriors has mean (S, d) and chol (S, d, d); its scalar
    properties are then arrays of S values.
    """

    mean: np.ndarray
    chol: np.ndarray  # lower triangular Cholesky factor L of the precision A
    inv_chol: np.ndarray = None  # L^{-1}; solved from chol when not given

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        object.__setattr__(self, "mean", mean)
        if not np.isfinite(mean).all():
            raise ValueError("posterior mean is not finite")
        if self.inv_chol is None:
            object.__setattr__(self, "inv_chol", _inverse_factor(self.chol))

    @property
    def d(self) -> int:
        return self.mean.shape[-1]

    @cached_property  # computed on first use, once per posterior
    def logdet_precision(self):
        return scalar_or_stack(_logdet(self.chol))

    @cached_property
    def cov_trace(self):
        """tr(A^{-1}) = ||L^{-1}||_F^2; computed once."""
        return scalar_or_stack(_frobenius_sq(self.inv_chol))

    def predictive_var(self, phi: np.ndarray) -> np.ndarray:
        """phi_i' A^{-1} phi_i for each row phi_i of phi: the row norms of phi L^{-T}."""
        z = phi @ np.swapaxes(self.inv_chol, -1, -2)
        return np.einsum("...ij,...ij->...i", z, z)


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
    """Exact split of the negative log evidence into risk and complexity.

    Each field is a float, or an array of one value per fit of a stack.
    """

    neg_log_evidence: float
    gibbs_emp_risk_total: float
    kl: float

    def __post_init__(self):
        kl = _checked_kl(self.neg_log_evidence, self.gibbs_emp_risk_total, self.kl)
        for name, value in zip(("neg_log_evidence", "gibbs_emp_risk_total", "kl"),
                               (self.neg_log_evidence, self.gibbs_emp_risk_total, kl)):
            object.__setattr__(self, name, scalar_or_stack(value))


def _fit(phi: np.ndarray, labels: np.ndarray, cfg: ModelConfig) -> tuple:
    """(L, L^{-1}, L^{-1} phi'y) of the posterior for one design phi (n, d) or a stack (S, n, d).

    The fit of a stack entry has the same bits as the fit of that design alone.
    Raises ValueError when the precision is not finite or not positive definite.
    """
    d = phi.shape[-1]
    phi_t = np.swapaxes(phi, -1, -2)
    with np.errstate(over="ignore", divide="ignore"):
        a = phi_t @ phi / cfg.noise_var + np.eye(d) / cfg.prior_var
    if not np.isfinite(a).all():
        raise ValueError(f"posterior precision is not finite at noise_var = "
                         f"{cfg.noise_var!r}, prior_var = {cfg.prior_var!r}")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:  # rounding: A is indefinite at degree 40
        raise ValueError(f"posterior precision is not positive definite at d = {d}, "
                         f"noise_var = {cfg.noise_var!r}, prior_var = {cfg.prior_var!r}") from exc
    inv_l = _inverse_factor(low)
    return low, inv_l, inv_l @ (phi_t @ labels[..., None])  # L^{-1} phi'y is 0 when n = 0


def fit_prefixes(design: DesignMatrix, cfg: ModelConfig, widths) -> list:
    """The posterior of each leading column block phi[..., :k], k in widths, from one fit.

    The precision of phi[..., :k] is A's leading k x k block, so its factors are
    the leading blocks of L and L^{-1} (Golub & Van Loan, Matrix Computations,
    4.2). Raises ValueError as `_fit`, for a non-finite mean or a width not in 0..d.
    """
    if not all(0 <= k <= design.d for k in widths):
        raise ValueError(f"column widths {widths} are not within 0..{design.d}")
    low, inv_l, z = _fit(design.phi, design.labels, cfg)
    return [GaussianPosterior(  # the mean's check raises on a non-finite mean
        mean=(np.swapaxes(inv_l[..., :k, :k], -1, -2) @ z[..., :k, :])[..., 0] / cfg.noise_var,
        chol=low[..., :k, :k], inv_chol=inv_l[..., :k, :k]) for k in widths]


def fit_posterior(design: DesignMatrix, cfg: ModelConfig) -> GaussianPosterior:
    """Posterior precision A = phi'phi/noise_var + I/prior_var and mean A^{-1}phi'y/noise_var."""
    return fit_prefixes(design, cfg, [design.d])[0]


def _report(post: GaussianPosterior, phi, labels, cfg: ModelConfig) -> EvidenceReport:
    """The evidence split of a posterior fitted to (phi, labels), for one fit or a stack.

    n*NLL(mean) is the empirical NLL total of the posterior mean predictor.
    The Gibbs total is n*NLL(mean) + tr(phi'phi A^{-1})/(2 noise_var); the
    trace term is evaluated as d/2 - tr(A^{-1})/(2 prior_var), which is the
    same quantity by the definition of A and stays accurate for
    ill-conditioned designs.
    """
    n, d = phi.shape[-2:]
    mean, logdet_precision, cov_trace = post.mean, post.logdet_precision, post.cov_trace
    resid = labels - (phi @ mean[..., None])[..., 0]  # empty when n = 0, so its norm is 0.0
    nll_at_mean = (0.5 * n * math.log(2.0 * math.pi * cfg.noise_var)
                   + np.sum(resid * resid, axis=-1) / (2.0 * cfg.noise_var))
    mean_sq = np.sum(mean * mean, axis=-1)
    return EvidenceReport(nll_at_mean + mean_sq / (2.0 * cfg.prior_var)
                          + 0.5 * logdet_precision + 0.5 * d * math.log(cfg.prior_var),
                          nll_at_mean + (0.5 * d - cov_trace / (2.0 * cfg.prior_var)),
                          0.5 * (cov_trace / cfg.prior_var + mean_sq / cfg.prior_var - d
                                 + logdet_precision + d * math.log(cfg.prior_var)))


def evidence_decomposition(post: GaussianPosterior, design: DesignMatrix,
                           cfg: ModelConfig) -> EvidenceReport:
    """Negative log evidence and its exact (risk, KL) split for a posterior fitted to design."""
    if post.d != design.d:
        raise ValueError(f"posterior has {post.d} weights, design {design.d} features")
    return _report(post, design.phi, design.labels, cfg)


def prefix_evidences(posts, design: DesignMatrix, cfg: ModelConfig) -> list:
    """`evidence_decomposition` of each posterior of `fit_prefixes(design, cfg, widths)`.

    Each is split on its own leading columns of design, a view of the checked
    design rather than a new DesignMatrix, so the checks run once.
    """
    return [_report(post, design.phi[..., :post.d], design.labels, cfg) for post in posts]

