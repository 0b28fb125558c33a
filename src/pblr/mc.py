"""Oracles: posterior sampling, generalization risk, coverage study.

The generalization risk of the squared and NLL losses is exact; the cropped
risk has no closed form over the posterior, so it is a Monte-Carlo average
over posterior weights of the exact risk given each weight. The coverage
study plays the frequentist game the bounds are stated for: draw many
independent training samples, fit the optimal posterior on each, and check
how often the true Gibbs risk exceeds each bound. MC noise is absorbed by
subtracting three standard errors before a violation is declared, so the
study exercises the bounds rather than the estimators.
"""

import dataclasses
import json
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
    z = gen.standard_normal((post.d, m))
    return post.mean[None, :] + solve_triangular(post.chol, z, lower=True,
                                                 trans="T").T


def gibbs_generalization_risk(post: GaussianPosterior, task: LinearTaskSpec,
                              loss: LossSpec) -> float:
    """Exact E_{w~posterior} E_{(x,y)~task} loss(w, x, y) for squared and nll losses.

    Given w the residual y - w.x is N(0, s(w)) with s(w) = task.squared_risk(w),
    and E_w s(w) = s(mean) + input_var tr(A^{-1}); both losses are affine in s.
    """
    if loss.kind == "cropped":
        raise ValueError("the cropped risk has no closed form over w; "
                         "use gibbs_generalization_risk_mc")
    s = task.squared_risk(post.mean) + task.input_var * post.cov_trace()
    return float(expected_loss(loss, 0.0, s))


def gibbs_generalization_risk_mc(post: GaussianPosterior, task: LinearTaskSpec,
                                 loss: LossSpec, m_weights: int,
                                 seed: int) -> tuple[float, float]:
    """Estimate E_{w~posterior} E_{(x,y)~task} loss(w, x, y) over m_weights draws of w.

    The inner expectation over (x, y) is exact, since given w the residual
    is N(0, task.squared_risk(w)). Returns (estimate, standard error).
    """
    if m_weights < 2:
        raise ValueError("need at least 2 weight samples")
    weights = sample_posterior(post, m_weights, seed)
    per_w = expected_loss(loss, 0.0, task.squared_risk(weights))
    return float(per_w.mean()), float(per_w.std(ddof=1) / math.sqrt(m_weights))


@dataclass(frozen=True)
class JensenRisk:
    """Paired MC risks of the posterior-mean predictor and the Gibbs predictor."""

    mean_pred_risk: float
    mean_pred_se: float
    gibbs_risk: float
    gibbs_se: float
    diff: float
    diff_se: float


def jensen_mean_predictor_risk(post: GaussianPosterior, task: LinearTaskSpec,
                               loss: LossSpec, m: int, seed: int) -> JensenRisk:
    """Compare the averaged regressor's risk with the Gibbs risk.

    Draws m posterior weights and m fresh task examples, pairing them so
    the difference estimate is low-variance. Only losses convex in the
    prediction qualify (nll, squared), for which the averaged regressor
    can never do worse than the Gibbs average.
    """
    if loss.kind not in ("squared", "nll"):
        raise ValueError("Jensen comparison needs a loss convex in the prediction")
    if m < 2:
        raise ValueError("need at least 2 samples")
    weights = sample_posterior(post, m, seed)
    fresh = gen_linear_task(
        dataclasses.replace(task, seed=rng.derive_seed(seed, rng.TEST_SET_TAG)),
        m)
    x = np.asarray(fresh.raw_inputs)
    y = fresh.labels
    loss_gibbs = expected_loss(loss, y - np.einsum("ij,ij->i", weights, x), 0.0)
    loss_mean = expected_loss(loss, y - x @ post.mean, 0.0)
    diff = loss_gibbs - loss_mean
    root_m = math.sqrt(m)
    return JensenRisk(
        mean_pred_risk=float(loss_mean.mean()),
        mean_pred_se=float(loss_mean.std(ddof=1) / root_m),
        gibbs_risk=float(loss_gibbs.mean()),
        gibbs_se=float(loss_gibbs.std(ddof=1) / root_m),
        diff=float(diff.mean()),
        diff_se=float(diff.std(ddof=1) / root_m),
    )


KNOWN_FAMILIES = ("subgamma", "catoni", "alquier_sqrtn", "alquier_n")


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
    m_weights: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")
        unknown = set(self.families) - set(KNOWN_FAMILIES)
        if unknown:
            raise ValueError(f"unknown bound families: {sorted(unknown)}")
        needs_crop = set(self.families) & {"catoni", "alquier_sqrtn", "alquier_n"}
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

    def rate(self, family: str) -> float:
        for fam in self.families:
            if fam.family == family:
                return fam.rate
        raise KeyError(family)

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

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def _trial_bounds_and_risks(cfg: ValidityStudyConfig, trial: int) -> dict:
    """Fit one fresh dataset and return {family: (bound, risk, risk_se)}."""
    data_seed = rng.derive_seed(cfg.seed, rng.TRIAL_TAG, trial, 0)
    dataset = gen_linear_task(dataclasses.replace(cfg.task, seed=data_seed), cfg.n)
    design = identity_design(dataset)
    post = fit_posterior(design, cfg.model)
    report = evidence_decomposition(design, cfg.model)
    kl = report.kl
    emp_nll = report.gibbs_emp_risk_total / cfg.n

    out = {}
    cropped = cfg.cropped_loss
    emp_crop = risk_crop = se_crop = None
    if any(f in cfg.families for f in ("catoni", "alquier_sqrtn", "alquier_n")):
        emp_crop = empirical_gibbs_risk(post, design, cropped)
        risk_crop, se_crop = gibbs_generalization_risk_mc(
            post, cfg.task, cropped, cfg.m_weights,
            rng.derive_seed(cfg.seed, rng.TRIAL_TAG, trial, 2))

    for family in cfg.families:
        if family == "subgamma":
            params = nll_subgamma_params(
                cfg.model.noise_var, cfg.task.input_var, cfg.model.prior_var,
                cfg.task.d, cfg.task.w_star_sq_norm, cfg.task.noise_var)
            bound = bnd.subgamma_bound(emp_nll, kl, cfg.n, cfg.delta,
                                       params.s2, params.c)
            risk = gibbs_generalization_risk(post, cfg.task,
                                             LossSpec.nll(cfg.model.noise_var))
            se = 0.0
        elif family == "catoni":
            bound = bnd.catoni_bound(emp_crop, kl, cfg.n, cfg.delta,
                                     cropped.a, cropped.b)
            risk, se = risk_crop, se_crop
        else:  # alquier_sqrtn, alquier_n
            lam = math.sqrt(cfg.n) if family == "alquier_sqrtn" else float(cfg.n)
            psi = bnd.hoeffding_psi_bound(lam, cfg.n, cropped.a, cropped.b)
            bound = bnd.alquier_bound(emp_crop, kl, cfg.n, cfg.delta, lam, psi)
            risk, se = risk_crop, se_crop
        out[family] = (bound, risk, se)
    return out


def run_validity_study(cfg: ValidityStudyConfig) -> CoverageReport:
    """Violation counts per bound family over independent training draws.

    A trial violates a family when risk - 3*se > bound. Trials use streams
    derived from (seed, trial index), so reports are reproducible and
    order-independent.
    """
    counts = {family: 0 for family in cfg.families}
    for trial in range(cfg.trials):
        per_family = _trial_bounds_and_risks(cfg, trial)
        for family, (bound, risk, se) in per_family.items():
            if risk - 3.0 * se > bound:
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
        "m_weights": cfg.m_weights,
        "crop": None if cfg.cropped_loss is None
                else [cfg.cropped_loss.a, cfg.cropped_loss.b],
    }
    fams = tuple(FamilyCoverage(family=f, trials=cfg.trials, violations=counts[f])
                 for f in cfg.families)
    return CoverageReport(families=fams, delta=cfg.delta, config=echo)
