"""PAC-Bayes generalization bounds as pure scalar functions.

Every bound upper-bounds the posterior-averaged generalization loss with
probability at least 1 - delta over the draw of the training sample. The
evidence forms take the negative log marginal likelihood directly and are
evaluated in log space, so they stay finite when the evidence itself
underflows (n up to 1e6 and beyond). For the NLL loss at the Bayes
posterior, -ln Z = n * (Gibbs empirical risk) + KL, so the sub-gamma bound
is stated once, in its evidence form; its direct form emp + (kl +
ln(1/delta))/n + s^2/(2(1-c)) is that form at -ln Z = n * emp + kl.

Model selection and averaging take a finite family of models, each given
by its negative log evidence -ln Z_i on the same n training points.
Per-model bounds split the confidence budget delta/L (union bound), so the
lowest bound, int(np.argmin(bounds)), is the highest-evidence model.
Averaging over the uniform hyperprior replaces max_i Z_i with sum_i Z_i
and is never looser.
"""

import math

import numpy as np


def _check_common(kl: float, n: int, delta: float) -> None:
    if not kl >= 0:  # NaN fails every range check in this module
        raise ValueError("kl must be non-negative")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")


def catoni_bound(emp: float, kl: float, n: int, delta: float,
                 a: float, b: float) -> float:
    """Bounded-loss bound: a + (b-a)/(1-e^{a-b}) [1 - e^{-emp + a - (kl + ln(1/delta))/n}].

    Rejects an empirical term outside [a, b]: that signals the caller
    fed an uncropped loss to a bounded-loss bound.
    """
    _check_common(kl, n, delta)
    if not a < b:
        raise ValueError("need a < b")
    if not a <= emp <= b:
        raise ValueError(f"empirical risk {emp} outside loss range [{a}, {b}]")
    exponent = -emp + a - (kl - math.log(delta)) / n  # <= 0, or NaN when a = emp = -inf
    if math.isnan(exponent):
        raise ValueError("Catoni bound is not finite (exponent nan)")
    # -expm1(a - b) stays positive where 1 - exp(a - b) is 0: b - a below about 1e-16
    return a + (b - a) / -math.expm1(a - b) * (1.0 - math.exp(exponent))


def hoeffding_psi_bound(lam: float, n: int, a: float, b: float) -> float:
    """Hoeffding upper bound on the moment term for an [a, b]-valued loss."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not (n >= 1 and a <= b):  # also a NaN end
        raise ValueError(f"the Hoeffding term needs n >= 1 and a <= b, not n = {n}, [{a}, {b}]")
    return lam * lam * ((b - a) * (b - a)) / (2.0 * n)  # ** 2 raises OverflowError, * gives inf


def alquier_bound(emp: float, kl: float, n: int, delta: float,
                  lam: float, psi_bound: float) -> float:
    """emp + (kl + ln(1/delta) + psi) / lambda, for any moment bound psi."""
    _check_common(kl, n, delta)
    if math.isnan(emp):
        raise ValueError("empirical risk must not be NaN")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not psi_bound >= 0:
        raise ValueError("psi_bound must be non-negative")
    return emp + (kl - math.log(delta) + psi_bound) / lam


def subgamma_evidence_bound(neg_log_evidence: float, n: int, delta: float,
                            s2: float, c: float) -> float:
    """s^2/(2(1-c)) - (1/n) ln(Z delta), with Z = exp(-neg_log_evidence)."""
    _check_common(0.0, n, delta)
    if not math.isfinite(neg_log_evidence):  # -inf would win np.argmin as a bound of -inf
        raise ValueError(f"neg_log_evidence must be finite, got {neg_log_evidence!r}")
    if not s2 >= 0:
        raise ValueError("s2 must be non-negative")
    if not 0 <= c < 1:
        raise ValueError("sub-gamma scale c must lie in [0, 1)")
    return s2 / (2.0 * (1.0 - c)) + (neg_log_evidence - math.log(delta)) / n


def _count(neg_log_evidences) -> int:
    if len(neg_log_evidences) < 1:
        raise ValueError("family must contain at least one model")
    return len(neg_log_evidences)


def model_selection_bounds(neg_log_evidences, n: int, delta: float, s2: float,
                           c: float) -> list[float]:
    """One sub-gamma evidence bound per model, each at confidence delta/L."""
    count = _count(neg_log_evidences)
    return [subgamma_evidence_bound(nle, n, delta / count, s2, c)
            for nle in neg_log_evidences]


def hierarchical_bound(neg_log_evidences, n: int, delta: float, s2: float,
                       c: float) -> float:
    """Bound for uniform model averaging: the evidence bound of sum_i Z_i at delta/L."""
    count = _count(neg_log_evidences)
    log_zs = -np.asarray(neg_log_evidences, dtype=float)
    if not np.isfinite(log_zs).all():
        raise ValueError(f"neg_log_evidences must be finite, got {(-log_zs).tolist()}")
    top = float(log_zs.max())
    with np.errstate(over="ignore"):  # a difference below -1.8e308 is -inf, whose exp is 0
        log_sum_z = top + math.log(float(np.sum(np.exp(log_zs - top))))
    return subgamma_evidence_bound(-log_sum_z, n, delta / count, s2, c)
