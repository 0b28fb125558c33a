"""Model selection and model averaging over a finite family of fitted models.

Each candidate model carries its own prior and evidence; per-model bounds
split the confidence budget delta/L (union bound), so selecting the lowest
bound is the same as selecting the highest evidence. Averaging over the
uniform hyperprior replaces max_i Z_i with sum_i Z_i and is never looser.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blr import EvidenceReport, ModelConfig
from .bounds import subgamma_evidence_bound


@dataclass(frozen=True)
class ModelEntry:
    model_id: int
    degree: int
    config: ModelConfig
    evidence: EvidenceReport


@dataclass(frozen=True)
class ModelFamily:
    """Candidate models fitted on the same dataset, under a uniform hyperprior."""

    models: tuple

    def __post_init__(self):
        models = tuple(self.models)
        object.__setattr__(self, "models", models)
        if len(models) < 1:
            raise ValueError("family must contain at least one model")
        ns = {entry.evidence.n for entry in models}
        if len(ns) != 1:
            raise ValueError(f"all models must share the same sample size, got {sorted(ns)}")

    @property
    def size(self) -> int:
        return len(self.models)

    @property
    def n(self) -> int:
        return self.models[0].evidence.n


@dataclass(frozen=True)
class SelectionReport:
    """Per-model bounds, the winner, and the averaging-vs-selection gap."""

    model_ids: tuple
    degrees: tuple
    neg_log_evidences: tuple
    bounds: tuple
    selected_id: int
    hierarchical_bound: float
    gap: float
    delta: float
    s2: float
    c: float
    n: int
    ln_num_models: float
    kl_selected: float
    kl_two_level: float
    kl_identity_residual: float

    def as_dict(self) -> dict:
        return {
            "models": [
                {"id": i, "degree": deg, "neg_log_evidence": nle, "bound": bound}
                for i, deg, nle, bound in zip(self.model_ids, self.degrees,
                                              self.neg_log_evidences, self.bounds)
            ],
            "selected_id": self.selected_id,
            "hierarchical_bound": self.hierarchical_bound,
            "gap": self.gap,
            "delta": self.delta,
            "s2": self.s2,
            "c": self.c,
            "n": self.n,
        }


def model_selection_bounds(family: ModelFamily, delta: float, s2: float,
                           c: float) -> tuple[list[tuple[int, float]], int]:
    """Per-model bounds at confidence delta/L, plus the argmin model id.

    Ties break toward the smallest model id; the winner always coincides
    with the highest-evidence model because the bounds differ from the
    evidences by a model-independent constant.
    """
    count = family.size
    per_model = [
        (entry.model_id,
         subgamma_evidence_bound(entry.evidence.neg_log_evidence, family.n,
                                 delta / count, s2, c))
        for entry in family.models
    ]
    best_id, _ = min(per_model, key=lambda pair: (pair[1], pair[0]))
    return per_model, best_id


def hierarchical_bound(family: ModelFamily, delta: float, s2: float,
                       c: float) -> float:
    """Bound for uniform model averaging: uses sum_i Z_i via log-sum-exp."""
    if not 0 <= c < 1:
        raise ValueError("sub-gamma scale c must lie in [0, 1)")
    log_zs = np.array([-entry.evidence.neg_log_evidence for entry in family.models])
    top = float(log_zs.max())
    log_sum_z = top + math.log(float(np.sum(np.exp(log_zs - top))))
    n = family.n
    return s2 / (2.0 * (1.0 - c)) \
        - (math.log(delta / family.size) + log_sum_z) / n


def selection_vs_averaging_report(family: ModelFamily, delta: float, s2: float,
                                  c: float) -> SelectionReport:
    """Compare the best single-model bound against the averaging bound.

    Also evaluates the two-level KL of the selected model under a
    deterministic hyperposterior (ln L plus the within-model KL) and
    reports how well it reproduces the evidence identity.
    """
    per_model, selected_id = model_selection_bounds(family, delta, s2, c)
    h_bound = hierarchical_bound(family, delta, s2, c)
    best_bound = min(bound for _, bound in per_model)
    selected = next(e for e in family.models if e.model_id == selected_id)
    ln_l = math.log(family.size)
    kl_two_level = ln_l + selected.evidence.kl
    # deterministic-hyperposterior objective must equal -ln(Z_selected / L)
    residual = abs(
        (selected.evidence.gibbs_emp_risk_total + kl_two_level)
        - (selected.evidence.neg_log_evidence + ln_l)
    )
    return SelectionReport(
        model_ids=tuple(mid for mid, _ in per_model),
        degrees=tuple(e.degree for e in family.models),
        neg_log_evidences=tuple(e.evidence.neg_log_evidence for e in family.models),
        bounds=tuple(bound for _, bound in per_model),
        selected_id=selected_id,
        hierarchical_bound=h_bound,
        gap=best_bound - h_bound,
        delta=delta,
        s2=s2,
        c=c,
        n=family.n,
        ln_num_models=ln_l,
        kl_selected=selected.evidence.kl,
        kl_two_level=kl_two_level,
        kl_identity_residual=residual,
    )
