"""Oracles: posterior sampling, generalization risk, coverage study.

The generalization risk is exact for every loss: closed form for the
squared and NLL losses, a self-checking tensor Gauss-Hermite rule over the
posterior for the cropped one. The coverage study plays the frequentist
game the bounds are stated for: draw many independent training samples,
fit the optimal posterior on each, and count how often the true Gibbs risk
exceeds each bound.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from . import bounds as bnd
from . import rng
from .blr import (GaussianPosterior, ModelConfig, evidence_decomposition,
                  fit_posterior)
from .losses import LossSpec, empirical_gibbs_risk, expected_loss
from .subgamma import nll_subgamma_params
from .tasks import LinearTaskSpec, gen_linear_task, identity_design


def sample_posterior(post: GaussianPosterior, m: int, seed: int) -> np.ndarray:
    """Draw m exact posterior weight vectors, shape (m, d).

    Uses mean + L^{-T} z with z standard normal, where the precision is
    L L'; a triangular solve, never an explicit covariance.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    gen = rng.stream(seed, rng.POSTERIOR_TAG)
    return _weights(post, gen.standard_normal((post.d, m)))


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
        s = task.squared_risk(post.mean) + task.input_var * post.cov_trace()
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


KNOWN_FAMILIES = ("subgamma", "catoni", "alquier_sqrtn", "alquier_n")
CROPPED_FAMILIES = {"catoni", "alquier_sqrtn", "alquier_n"}


@dataclass(frozen=True)
class ValidityStudyConfig:
    """Everything one coverage run needs, including a master seed."""

    task: LinearTaskSpec
    model: ModelConfig
    n: int
    trials: int
    delta: float = 0.05
    families: tuple = ("subgamma", "catoni", "alquier_sqrtn")
    cropped_loss: Optional[LossSpec] = None
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        unknown = set(self.families) - set(KNOWN_FAMILIES)
        if unknown:
            raise ValueError(f"unknown bound families: {sorted(unknown)}")
        needs_crop = set(self.families) & CROPPED_FAMILIES
        if needs_crop and (self.cropped_loss is None
                           or self.cropped_loss.kind != "cropped"):
            raise ValueError(f"families {sorted(needs_crop)} need a cropped loss")


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


def _trial_bounds_and_risks(cfg: ValidityStudyConfig, trial: int) -> dict:
    """Fit one fresh dataset and return {family: (bound, risk)}."""
    data_seed = rng.derive_seed(cfg.seed, rng.TRIAL_TAG, trial, 0)
    dataset = gen_linear_task(dataclasses.replace(cfg.task, seed=data_seed), cfg.n)
    design = identity_design(dataset)
    post = fit_posterior(design, cfg.model)
    report = evidence_decomposition(post, design, cfg.model)
    kl = report.kl
    emp_nll = report.gibbs_emp_risk_total / cfg.n

    out = {}
    cropped = cfg.cropped_loss
    if set(cfg.families) & CROPPED_FAMILIES:
        emp_crop = empirical_gibbs_risk(post, design, cropped)
        risk_crop = gibbs_generalization_risk(post, cfg.task, cropped)
    for family in cfg.families:
        if family == "subgamma":
            params = nll_subgamma_params(
                cfg.model.noise_var, cfg.task.input_var, cfg.model.prior_var,
                cfg.task.d, cfg.task.w_star_sq_norm, cfg.task.noise_var)
            out[family] = (
                bnd.subgamma_bound(emp_nll, kl, cfg.n, cfg.delta, params.s2, params.c),
                gibbs_generalization_risk(post, cfg.task, LossSpec.nll(cfg.model.noise_var)))
        elif family == "catoni":
            out[family] = (bnd.catoni_bound(emp_crop, kl, cfg.n, cfg.delta,
                                            cropped.a, cropped.b), risk_crop)
        else:  # alquier_sqrtn, alquier_n
            lam = math.sqrt(cfg.n) if family == "alquier_sqrtn" else float(cfg.n)
            psi = bnd.hoeffding_psi_bound(lam, cfg.n, cropped.a, cropped.b)
            out[family] = (bnd.alquier_bound(emp_crop, kl, cfg.n, cfg.delta, lam, psi),
                           risk_crop)
    return out


def run_validity_study(cfg: ValidityStudyConfig) -> CoverageReport:
    """Violation counts per bound family over independent training draws.

    A trial violates a family when its exact risk exceeds the bound; a
    non-finite bound or risk raises ValueError instead of counting either way.
    Trials use streams derived from (seed, trial index), so reports are
    reproducible and order-independent.
    """
    counts = {family: 0 for family in cfg.families}
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
        "seed": cfg.seed,
        "d": cfg.task.d,
        "input_var": cfg.task.input_var,
        "task_noise_var": cfg.task.noise_var,
        "w_star_sq_norm": cfg.task.w_star_sq_norm,
        "sigma2": cfg.model.noise_var,
        "sigma_pi2": cfg.model.prior_var,
        "crop": None if cfg.cropped_loss is None
                else [cfg.cropped_loss.a, cfg.cropped_loss.b],
    }
    fams = tuple(FamilyCoverage(family=f, trials=cfg.trials, violations=counts[f])
                 for f in cfg.families)
    return CoverageReport(families=fams, delta=cfg.delta, config=echo)
