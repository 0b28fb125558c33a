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
v = L^{-1} phi, phi' A_k^{-1} phi (sum_i v_i^2). `fit_posterior` given widths
returns the family of those width-k posteriors as one `GaussianPosterior`,
whose means, properties and predictions carry a leading width axis; without
widths it is the whole design's posterior, the case k = d of the same sums.
A stacked design (S, n, d) gives a `GaussianPosterior` and an `EvidenceReport`
that carry the S fits as arrays, entry by entry with the bits of fitting that
design alone. A family's width axis comes before the stack axis, so the family
broadcasts against a design as any stacked posterior does: `predict`,
`evidence_decomposition` and `losses.empirical_gibbs_risk` take either alike.
A^{-1} itself is never formed. Every stacked pass (seed scan, coverage study,
cropped oracle) and every empirical risk (`losses.empirical_gibbs_risk`) runs
in the ranges of `stack_blocks`, each of at most STACK_BUDGET array entries.
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


def _prefix_sums(terms: np.ndarray, axis: int, widths=None) -> np.ndarray:
    """sum_{i<k} of terms along axis for each width k, the width axis first, or the whole sum.

    One running sum behind a zero row: width 0 is row 0, never row -1 wrapped
    around, and each width has the same bits whatever the other widths. The
    summed axis is swapped to the front, which is exact for terms of at most
    one stack axis, as a `DesignMatrix` has; np.moveaxis cost 3 us a call.
    """
    terms = terms.swapaxes(0, axis)
    sums = np.zeros((terms.shape[0] + 1,) + terms.shape[1:])
    np.add.accumulate(terms, axis=0, out=sums[1:])
    return sums[-1] if widths is None else sums.take(widths, axis=0)


def _logdets(low: np.ndarray, widths=None):
    """ln det A_k = sum_{i<k} 2 ln L_ii for each width k: (K, ...), or ln det A."""
    return _prefix_sums(2.0 * np.log(low.diagonal(0, -2, -1)), -1, widths)


def _traces(inv_l: np.ndarray, widths=None):
    """tr(A_k^{-1}) = sum_{i<k} ||row i of L^{-1}||^2 for each width k: (K, ...), or tr(A^{-1})."""
    return _prefix_sums(np.add.reduce(inv_l * inv_l, axis=-1), -1, widths)


def scalar_or_stack(value):
    """A float for one fit, or the array of one value per fit of a stack."""
    value = np.asarray(value, dtype=float)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian posterior N(mean, A^{-1}) stored as (mean, L) with A = L L'.

    A stack of S posteriors has mean (S, d) and chol (S, d, d); its scalar
    properties are then arrays of S values. Given widths k_1..k_K it is the
    family of the posteriors of the leading column blocks phi[..., :k]: chol is
    the whole design's factor, whose leading k x k block factors member k, and
    mean (K, ..., d) holds the members' means, zero past entry k as L^{-1} is
    lower triangular. Its properties and predictions then lead with a K axis.
    """

    mean: np.ndarray
    chol: np.ndarray  # lower triangular Cholesky factor L of the precision A
    inv_chol: np.ndarray = None  # L^{-1}; solved from chol when not given
    widths: tuple = None  # the family's column block widths; None for one posterior

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
        return scalar_or_stack(_logdets(self.chol, self.widths))

    @cached_property
    def cov_trace(self):
        """tr(A^{-1}) = ||L^{-1}||_F^2; computed once."""
        return scalar_or_stack(_traces(self.inv_chol, self.widths))

    def predict(self, phi: np.ndarray) -> np.ndarray:
        """phi_j . mean for the rows phi_j of phi (..., m, d); one matrix-vector product."""
        return (phi @ self.mean[..., None])[..., 0]

    def predictive_var(self, phi: np.ndarray) -> np.ndarray:
        """phi_j' A^{-1} phi_j = ||v_j||^2, v_j = L^{-1} phi_j, for the rows phi_j of phi (..., m, d).

        A family's member k has sum_{i<k} v_ji^2 = phi_j[:k]' A_k^{-1} phi_j[:k],
        for A's leading block A_k, as (K, ..., m). Each width is one einsum over
        the leading k rows of L^{-1} phi'. A running sum along i (`_prefix_sums`)
        loops over that short axis innermost and took 7 times as long on a
        (6,144, 20) block of fig-c's empirical risk.
        """
        v = self.inv_chol @ np.swapaxes(phi, -1, -2)  # (..., d, m)
        sums = [np.einsum("...ij,...ij->...j", v[..., :k, :], v[..., :k, :])
                for k in ((self.d,) if self.widths is None else self.widths)]
        return sums[0] if self.widths is None else np.stack(sums)


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

    Each field is a float, or an array of one value per fit of a stack and,
    for a family of widths, per width, the width axis first.
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


def fit_posterior(design: DesignMatrix, cfg: ModelConfig, widths=None) -> GaussianPosterior:
    """Posterior precision A = phi'phi/noise_var + I/prior_var and mean A^{-1}phi'y/noise_var.

    Given widths, the family of the posteriors of the leading column blocks
    phi[..., :k], k in widths. The precision of phi[..., :k] is A's leading
    k x k block, so its factors are the leading blocks of L and L^{-1} (Golub &
    Van Loan, Matrix Computations, 4.2): one fit serves every width. Raises
    ValueError as `_fit`, for a non-finite mean, or for a width that is not an
    integer in 0..d.
    """
    if widths is not None:
        widths = tuple(widths)
        bad = [k for k in widths if not (math.isfinite(k) and k == int(k))]
        if bad:
            raise ValueError(f"column width {bad[0]!r} is not an integer")
        if not all(0 <= k <= design.d for k in widths):
            raise ValueError(f"column widths {list(widths)} are not within 0..{design.d}")
        widths = tuple(map(int, widths))
    low, inv_l, z = _fit(design.phi, design.labels, cfg)
    return GaussianPosterior(mean=_prefix_sums(inv_l * (z / cfg.noise_var), -2, widths),
                             chol=low, inv_chol=inv_l, widths=widths)


def evidence_decomposition(post: GaussianPosterior, design: DesignMatrix,
                           cfg: ModelConfig) -> EvidenceReport:
    """Negative log evidence and its exact (risk, KL) split for a posterior fitted to design.

    For a family the fields lead with its width axis, and k below is each
    member's width. n*NLL(mean) is the empirical NLL total of the posterior
    mean predictor. The Gibbs total is n*NLL(mean) + tr(phi'phi A^{-1})/(2
    noise_var); the trace term is evaluated as k/2 - tr(A^{-1})/(2 prior_var),
    which is the same quantity by the definition of A and stays accurate for
    ill-conditioned designs.
    """
    if post.d != design.d:
        raise ValueError(f"posterior has {post.d} weights, design {design.d} features")
    k = post.d if post.widths is None else np.array(post.widths, dtype=float).reshape(
        (-1,) + (1,) * (post.mean.ndim - 2))
    resid = design.labels - post.predict(design.phi)
    # resid is empty when n = 0, so its norm is 0.0
    nll_at_mean = (0.5 * design.n * math.log(2.0 * math.pi * cfg.noise_var)
                   + np.add.reduce(resid * resid, axis=-1) / (2.0 * cfg.noise_var))
    mean_sq = np.add.reduce(post.mean * post.mean, axis=-1)
    logdets, traces = post.logdet_precision, post.cov_trace
    k_log_prior = k * math.log(cfg.prior_var)
    return EvidenceReport(
        nll_at_mean + mean_sq / (2.0 * cfg.prior_var) + 0.5 * logdets + 0.5 * k_log_prior,
        nll_at_mean + (0.5 * k - traces / (2.0 * cfg.prior_var)),
        0.5 * (traces / cfg.prior_var + mean_sq / cfg.prior_var - k + logdets + k_log_prior))
