"""Conjugate Bayesian linear regression with exact evidence decomposition.

The model is y | x, w ~ N(w . phi(x), noise_var) with prior
w ~ N(0, prior_var I). The posterior is Gaussian with precision
A = phi' phi / noise_var + I / prior_var, and the negative log marginal
likelihood splits exactly into the posterior-averaged empirical negative
log-likelihood plus the posterior-prior KL divergence. One numpy routine
fits one design or a stack of them: the Cholesky factor L of A, its
inverse L^{-1} from one solve of L' against the identity, and z = L^{-1} phi'y.
The leading k columns of the design have the leading k x k blocks of L and
L^{-1} as factors, so every quantity of the width-k model is a sum over the
whitened coordinate i < k: the mean (sum_i L^{-1}_ij z_i / noise_var), ln det
A_k (sum_i 2 ln L_ii), tr(A_k^{-1}) (sum_i ||row i of L^{-1}||^2) and, with
v = L^{-1} phi, phi' A_k^{-1} phi (sum_i v_i^2). `fit_prefixes` returns a
`PrefixFits`: the means of any list of widths, from one running sum, and one
`EvidenceReport` with a trailing width axis, checked once. A `GaussianPosterior`
is the case k = d of the same sums, and `evidence_decomposition` splits it
with the same formula. A stacked design (S, n, d) gives a `GaussianPosterior`
and an `EvidenceReport` that carry the S fits as arrays, entry by entry with
the bits of fitting that design alone. A^{-1} itself is never formed.
Every stacked pass (seed scan, coverage study, cropped oracle) and every
empirical risk (`losses.empirical_gibbs_risk`) runs in the ranges of
`stack_blocks`, each of at most STACK_BUDGET array entries.
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


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """Row k = sum_{i<k} terms[..., i, :] for k = 0..d, as (..., d + 1, m).

    One running sum behind a zero row: width 0 is row 0, never row -1 wrapped
    around, and each width has the same bits whatever the other widths.
    """
    sums = np.zeros(terms.shape[:-2] + (terms.shape[-2] + 1, terms.shape[-1]))
    np.add.accumulate(terms, axis=-2, out=sums[..., 1:, :])
    return sums


def _at(sums: np.ndarray, widths=None) -> np.ndarray:
    """The rows of widths of running sums, as (..., K, m), or without widths the last (..., m)."""
    return sums[..., -1, :] if widths is None else sums[..., list(widths), :]


def _logdets(low: np.ndarray, widths=None):
    """ln det A_k = sum_{i<k} 2 ln L_ii for each width k: (..., K), or ln det A."""
    return _at(_running_sums(2.0 * np.log(np.diagonal(low, axis1=-2, axis2=-1))[..., None]),
               widths)[..., 0]


def _traces(inv_l: np.ndarray, widths=None):
    """tr(A_k^{-1}) = sum_{i<k} ||row i of L^{-1}||^2 for each width k: (..., K), or tr(A^{-1})."""
    return _at(_running_sums(np.add.reduce(inv_l * inv_l, axis=-1)[..., None]), widths)[..., 0]


def _predict(mean: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """phi_j . mean for the rows phi_j of phi (..., m, d): (..., m); one matrix-vector product."""
    return (phi @ mean[..., None])[..., 0]


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
        return scalar_or_stack(_logdets(self.chol))

    @cached_property
    def cov_trace(self):
        """tr(A^{-1}) = ||L^{-1}||_F^2; computed once."""
        return scalar_or_stack(_traces(self.inv_chol))

    def predict(self, phi: np.ndarray) -> np.ndarray:
        """phi_i . mean for each row phi_i of phi."""
        return _predict(self.mean, phi)

    def predictive_var(self, phi: np.ndarray, widths=None) -> np.ndarray:
        """phi_j' A^{-1} phi_j = ||v_j||^2, v_j = L^{-1} phi_j, for the rows phi_j of phi (..., m, d).

        With widths, sum_{i<k} v_ji^2 = phi_j[:k]' A_k^{-1} phi_j[:k] for A's
        leading block of each width k, as (..., K, m). Each width is one einsum
        over the leading k rows of L^{-1} phi'. A running sum along i
        (`_running_sums`) loops over that short axis innermost and took 7 times
        as long on a (6,144, 20) block of fig-c's empirical risk.
        """
        v = self.inv_chol @ np.swapaxes(phi, -1, -2)  # (..., d, m)
        sums = [np.einsum("...ij,...ij->...j", v[..., :k, :], v[..., :k, :])
                for k in ([self.d] if widths is None else widths)]
        return sums[0] if widths is None else np.stack(sums, axis=-2)


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

    Each field is a float, or an array of one value per fit of a stack
    (and, from `fit_prefixes`, per width).
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


def _split(resid, mean, logdets, traces, k, cfg: ModelConfig) -> tuple:
    """(neg log evidence, Gibbs total, KL) of posteriors N(mean, A^{-1}) of k weights.

    resid (..., n) holds the labels minus the predictions of mean (..., d) on
    the design the posterior was fitted to; logdets = ln det A, traces =
    tr(A^{-1}) and k broadcast against the fields, which have resid's shape
    without its last axis. n*NLL(mean) is the empirical NLL total of the
    posterior mean predictor. The Gibbs total is n*NLL(mean) +
    tr(phi'phi A^{-1})/(2 noise_var); the trace term is evaluated as
    k/2 - tr(A^{-1})/(2 prior_var), which is the same quantity by the definition
    of A and stays accurate for ill-conditioned designs.
    """
    # resid is empty when n = 0, so its norm is 0.0
    nll_at_mean = (0.5 * resid.shape[-1] * math.log(2.0 * math.pi * cfg.noise_var)
                   + np.add.reduce(resid * resid, axis=-1) / (2.0 * cfg.noise_var))
    mean_sq = np.add.reduce(mean * mean, axis=-1)
    k_log_prior = k * math.log(cfg.prior_var)
    return (nll_at_mean + mean_sq / (2.0 * cfg.prior_var) + 0.5 * logdets + 0.5 * k_log_prior,
            nll_at_mean + (0.5 * k - traces / (2.0 * cfg.prior_var)),
            0.5 * (traces / cfg.prior_var + mean_sq / cfg.prior_var - k
                   + logdets + k_log_prior))


def _posterior(design: DesignMatrix, cfg: ModelConfig) -> tuple:
    """(the posterior of design, the running sums of the terms L^{-1}_ij z_i / noise_var).

    Row k of the running sums is width k's mean; the posterior's is the last.
    Its check covers every width's, as a running sum that is inf or NaN at
    some row stays so at every later row.
    """
    low, inv_l, z = _fit(design.phi, design.labels, cfg)
    sums = _running_sums(inv_l * (z / cfg.noise_var))
    return GaussianPosterior(mean=_at(sums), chol=low, inv_chol=inv_l), sums


def fit_posterior(design: DesignMatrix, cfg: ModelConfig) -> GaussianPosterior:
    """Posterior precision A = phi'phi/noise_var + I/prior_var and mean A^{-1}phi'y/noise_var."""
    return _posterior(design, cfg)[0]


def evidence_decomposition(post: GaussianPosterior, design: DesignMatrix,
                           cfg: ModelConfig) -> EvidenceReport:
    """Negative log evidence and its exact (risk, KL) split for a posterior fitted to design."""
    if post.d != design.d:
        raise ValueError(f"posterior has {post.d} weights, design {design.d} features")
    return EvidenceReport(*_split(design.labels - post.predict(design.phi), post.mean,
                                  post.logdet_precision, post.cov_trace, post.d, cfg))


@dataclass(frozen=True)
class PrefixFits:
    """The posteriors of the leading column blocks phi[..., :k], k in widths, of one fit.

    post is the posterior of the whole design. mean (..., K, d) holds block k's
    mean L_k^{-T} z[:k] / noise_var, zero past entry k as L^{-1} is lower
    triangular; report is one EvidenceReport of (..., K) fields.
    """

    post: GaussianPosterior
    widths: tuple
    mean: np.ndarray
    report: EvidenceReport

    def predict(self, phi: np.ndarray) -> np.ndarray:
        """phi_j . mean_k for the rows phi_j of phi (..., m, d): (..., K, m)."""
        return _predict(self.mean, phi[..., None, :, :])

    def predictive_var(self, phi: np.ndarray) -> np.ndarray:
        """phi_j' A_k^{-1} phi_j for the rows phi_j of phi (..., m, d): (..., K, m)."""
        return self.post.predictive_var(phi, self.widths)


def fit_prefixes(design: DesignMatrix, cfg: ModelConfig, widths) -> PrefixFits:
    """The posterior and evidence split of each leading column block phi[..., :k], k in widths.

    The precision of phi[..., :k] is A's leading k x k block, so its factors are
    the leading blocks of L and L^{-1} (Golub & Van Loan, Matrix Computations,
    4.2): one fit serves every width, and the evidence report is built, and
    checked, once. Raises ValueError as `_fit`, for a non-finite mean or a
    width not in 0..d.
    """
    widths = tuple(int(k) for k in widths)
    if not all(0 <= k <= design.d for k in widths):
        raise ValueError(f"column widths {list(widths)} are not within 0..{design.d}")
    post, sums = _posterior(design, cfg)
    mean = _at(sums, widths)
    resid = design.labels[..., None, :] - _predict(mean, design.phi[..., None, :, :])
    return PrefixFits(post, widths, mean, EvidenceReport(*_split(
        resid, mean, _logdets(post.chol, widths), _traces(post.inv_chol, widths),
        np.asarray(widths, dtype=float), cfg)))
