"""Model selection and model averaging over a finite family of fitted models.

Each model is given by its negative log evidence -ln Z_i on the same n
training points. Per-model bounds split the confidence budget delta/L
(union bound), so the lowest bound, int(np.argmin(bounds)), is the
highest-evidence model. Averaging over the uniform hyperprior replaces
max_i Z_i with sum_i Z_i and is never looser.
"""

import math

import numpy as np

from .bounds import subgamma_evidence_bound


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
    top = float(log_zs.max())
    log_sum_z = top + math.log(float(np.sum(np.exp(log_zs - top))))
    return subgamma_evidence_bound(-log_sum_z, n, delta / count, s2, c)
