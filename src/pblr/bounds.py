"""PAC-Bayes generalization bounds as pure scalar functions.

Every bound upper-bounds the posterior-averaged generalization loss with
probability at least 1 - delta over the draw of the training sample. The
evidence forms take the negative log marginal likelihood directly and are
evaluated in log space, so they stay finite when the evidence itself
underflows (n up to 1e6 and beyond).
"""

import math
import sys

_MAX_EXP = math.log(sys.float_info.max)  # largest x with a finite exp(x)


def _check_common(kl: float, n: int, delta: float) -> None:
    if kl < 0:
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
    scale = (b - a) / (1.0 - math.exp(a - b))
    exponent = -emp + a - (kl - math.log(delta)) / n
    return a + scale * (1.0 - math.exp(exponent))


def catoni_evidence_bound(neg_log_evidence: float, n: int, delta: float,
                          a: float, b: float) -> float:
    """Catoni bound expressed through the evidence: a + scale [1 - e^a (Z delta)^{1/n}]."""
    _check_common(0.0, n, delta)
    if not a < b:
        raise ValueError("need a < b")
    scale = (b - a) / (1.0 - math.exp(a - b))
    exponent = a + (-neg_log_evidence + math.log(delta)) / n
    if not exponent <= _MAX_EXP:  # also catches NaN
        raise ValueError(f"Catoni evidence bound is not finite (exponent {exponent})")
    return a + scale * (1.0 - math.exp(exponent))


def hoeffding_psi_bound(lam: float, n: int, a: float, b: float) -> float:
    """Hoeffding upper bound on the moment term for an [a, b]-valued loss."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return lam * lam * (b - a) ** 2 / (2.0 * n)


def alquier_bound(emp: float, kl: float, n: int, delta: float,
                  lam: float, psi_bound: float) -> float:
    """emp + (kl + ln(1/delta) + psi) / lambda, for any moment bound psi."""
    _check_common(kl, n, delta)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if psi_bound < 0:
        raise ValueError("psi_bound must be non-negative")
    return emp + (kl - math.log(delta) + psi_bound) / lam


def subgamma_bound(emp: float, kl: float, n: int, delta: float,
                   s2: float, c: float) -> float:
    """emp + (kl + ln(1/delta))/n + s^2/(2(1-c)) for sub-gamma losses, c < 1.

    At c = 0 this is the bound for sub-Gaussian losses.
    """
    _check_common(kl, n, delta)
    if s2 < 0:
        raise ValueError("s2 must be non-negative")
    if not 0 <= c < 1:
        raise ValueError("sub-gamma scale c must lie in [0, 1)")
    return emp + (kl - math.log(delta)) / n + s2 / (2.0 * (1.0 - c))


def subgamma_evidence_bound(neg_log_evidence: float, n: int, delta: float,
                            s2: float, c: float) -> float:
    """s^2/(2(1-c)) - (1/n) ln(Z delta), with Z = exp(-neg_log_evidence)."""
    _check_common(0.0, n, delta)
    if s2 < 0:
        raise ValueError("s2 must be non-negative")
    if not 0 <= c < 1:
        raise ValueError("sub-gamma scale c must lie in [0, 1)")
    return s2 / (2.0 * (1.0 - c)) + (neg_log_evidence - math.log(delta)) / n
