"""Oracles: exact generalization risk, the per-sample bounds, coverage study.

The generalization risk is exact for every loss: closed form for the
squared and NLL losses, a self-checking tensor Gauss-Hermite rule over the
posterior for the cropped one. `sample_bounds` turns one linear-task
sample into its posterior, evidence report and bounds; fig-c calls it once
per sample size. The coverage study plays the frequentist game the bounds
are stated for: draw many independent training samples, call
`sample_bounds` on each, and count how often the true Gibbs risk exceeds
each bound.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import bounds as bnd
from . import rng
from .blr import (GaussianPosterior, ModelConfig, evidence_decomposition,
                  fit_posterior)
from .losses import LossSpec, empirical_gibbs_risk, expected_loss
from .subgamma import nll_subgamma_params
from .tasks import LinearTaskSpec, gen_linear_task, identity_design


def _weights(post: GaussianPosterior, z: np.ndarray) -> np.ndarray:
    """Weight vectors mean + L^{-T} z for the columns of z, shape (columns, d)."""
    return post.mean[None, :] + solve_triangular(post.chol, z, lower=True, trans="T").T


# Nodes per axis of the successive cropped-loss rules (numpy's weights overflow past 256).
_HERMITE_NODES = (8, 16, 32, 64, 128, 256)
_MAX_POINTS = 2 ** 18  # points of the largest rule: 64 nodes per axis in d = 3


def gibbs_generalization_risk(post: GaussianPosterior, task: LinearTaskSpec,
                              loss: LossSpec) -> float:
    """Exact E_{w~posterior} E_{(x,y)~task} loss(w, x, y).

    Given w the residual y - w.x is N(0, s(w)) with s(w) = task.squared_risk(w).
    The squared and nll losses are affine in s, and E_w s(w) = s(mean) +
    input_var tr(A^{-1}). The cropped loss is not: its E_w is a tensor Gauss-Hermite
    rule (Golub & Welsch 1969) with k nodes on each axis of z in w = mean + L^{-T} z,
    k doubling from 8 until two successive rules agree within 1e-10 relative. When
    no such pair fits _MAX_POINTS points it raises ValueError.
    """
    if loss.kind != "cropped":
        s = task.squared_risk(post.mean) + task.input_var * post.cov_trace
        return float(expected_loss(loss, 0.0, s))
    d = post.d
    ladder = [k for k in _HERMITE_NODES if k ** d <= _MAX_POINTS]
    if len(ladder) < 2:
        raise ValueError(f"the cropped generalization risk in d = {d} needs over "
                         f"{_MAX_POINTS} quadrature points")
    value = None
    for k in ladder:
        nodes, weights = np.polynomial.hermite_e.hermegauss(k)
        index = np.indices((k,) * d).reshape(d, -1)
        prob = np.prod(weights[index], axis=0) / (2.0 * math.pi) ** (d / 2.0)
        s = task.squared_risk(_weights(post, nodes[index]))
        previous, value = value, float(prob @ expected_loss(loss, 0.0, s))
        if previous is not None and abs(value - previous) <= 1e-10 * abs(value):
            return value
    raise ValueError(f"the cropped generalization risk did not converge: the {k // 2}- "
                     f"and {k}-node Gauss-Hermite rules differ by {abs(value - previous):.3g}, "
                     f"and no finer rule in d = {d} fits {_MAX_POINTS} points")


FAMILIES = ("subgamma", "catoni", "alquier_sqrtn")  # checked by the coverage study


@dataclass(frozen=True)
class ValidityStudyConfig:
    """Everything one coverage run needs; task.seed is the master seed."""

    task: LinearTaskSpec
    model: ModelConfig
    n: int
    trials: int
    cropped_loss: LossSpec
    delta: float = 0.05

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        if getattr(self.cropped_loss, "kind", None) != "cropped":
            raise ValueError("the catoni and alquier families need a cropped loss")


@dataclass(frozen=True)
class FamilyCoverage:
    family: str
    trials: int
    violations: int

    @property
    def rate(self) -> float:
        return self.violations / self.trials


@dataclass(frozen=True)
class CoverageReport:
    families: tuple
    delta: float
    config: dict

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "families": [
                {"family": fam.family, "trials": fam.trials,
                 "violations": fam.violations, "rate": fam.rate}
                for fam in self.families
            ],
            "config": self.config,
        }


def sample_bounds(task: LinearTaskSpec, model: ModelConfig, n: int,
                  cropped: LossSpec, delta: float) -> tuple:
    """Fit the posterior to n draws of the task and bound its risk.

    Returns (post, report, bounds), where bounds maps subgamma (the evidence
    form, on the NLL loss), catoni, alquier_sqrtn and alquier_n (on the
    cropped loss) to their values at confidence 1 - delta.
    """
    params = nll_subgamma_params(model.noise_var, task.input_var, model.prior_var,
                                 task.d, task.w_star_sq_norm, task.noise_var)
    design = identity_design(gen_linear_task(task, n))
    post = fit_posterior(design, model)
    report = evidence_decomposition(post, design, model)  # identity checked inline
    emp_crop = empirical_gibbs_risk(post, design, cropped)
    a, b = cropped.a, cropped.b
    bounds = {
        "subgamma": bnd.subgamma_evidence_bound(report.neg_log_evidence, n, delta,
                                                params.s2, params.c),
        "catoni": bnd.catoni_bound(emp_crop, report.kl, n, delta, a, b),
    }
    for family, lam in (("alquier_sqrtn", math.sqrt(n)), ("alquier_n", float(n))):
        bounds[family] = bnd.alquier_bound(emp_crop, report.kl, n, delta, lam,
                                           bnd.hoeffding_psi_bound(lam, n, a, b))
    return post, report, bounds


def _trial_bounds_and_risks(cfg: ValidityStudyConfig, trial: int) -> dict:
    """Fit one fresh dataset and return {family: (bound, risk)}."""
    task = dataclasses.replace(
        cfg.task, seed=rng.derive_seed(cfg.task.seed, rng.TRIAL_TAG, trial, 0))
    post, _, bounds = sample_bounds(task, cfg.model, cfg.n, cfg.cropped_loss, cfg.delta)
    risk_nll = gibbs_generalization_risk(post, cfg.task, LossSpec.nll(cfg.model.noise_var))
    risk_crop = gibbs_generalization_risk(post, cfg.task, cfg.cropped_loss)
    return {family: (bounds[family], risk_nll if family == "subgamma" else risk_crop)
            for family in FAMILIES}


def run_validity_study(cfg: ValidityStudyConfig) -> CoverageReport:
    """Violation counts per bound family over independent training draws.

    A trial violates a family when its exact risk exceeds the bound; a
    non-finite bound or risk raises ValueError instead of counting either way.
    Trials use streams derived from (task.seed, trial index), so reports are
    reproducible and order-independent.
    """
    counts = {family: 0 for family in FAMILIES}
    for trial in range(cfg.trials):
        per_family = _trial_bounds_and_risks(cfg, trial)
        for family, (bound, risk) in per_family.items():
            if not (math.isfinite(bound) and math.isfinite(risk)):
                raise ValueError(f"trial {trial}, {family}: bound {bound} and risk "
                                 f"{risk} must both be finite")
            if risk > bound:
                counts[family] += 1
    echo = {
        "n": cfg.n,
        "trials": cfg.trials,
        "delta": cfg.delta,
        "seed": cfg.task.seed,
        "d": cfg.task.d,
        "input_var": cfg.task.input_var,
        "task_noise_var": cfg.task.noise_var,
        "w_star_sq_norm": cfg.task.w_star_sq_norm,
        "sigma2": cfg.model.noise_var,
        "sigma_pi2": cfg.model.prior_var,
        "crop": [cfg.cropped_loss.a, cfg.cropped_loss.b],
    }
    fams = tuple(FamilyCoverage(family=f, trials=cfg.trials, violations=counts[f])
                 for f in FAMILIES)
    return CoverageReport(families=fams, delta=cfg.delta, config=echo)
