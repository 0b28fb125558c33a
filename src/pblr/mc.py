"""Oracles: exact generalization risk, the per-sample bounds, coverage study.

The generalization risk is exact for every loss: closed form for a plain
loss, a self-checking tensor Gauss-Hermite rule for a cropped one, refined
from 8 nodes per axis in steps of about sqrt(2) (d <= 5).
That rule runs over the posterior's whitened coordinates z, w = mean + L^{-T} z;
its grid of residual variances is broadcast from per-axis terms, and a stack's
posteriors go through it in blocks of k^d grid points each. Both take one
posterior or a stack of them.
`sample_bounds` draws the linear-task samples of its seeds as one
`tasks.gen_linear_stack` and turns them into their stacked posterior, evidence
report and bounds, with one fit for the stack; fig-c calls it with one seed per
sample size. The coverage study plays the frequentist game the bounds are
stated for: draw many independent training samples, pass their seeds to
`sample_bounds` in blocks of `blr.stack_blocks` (at most blr.STACK_BUDGET
design entries, n*d per trial), and count how often the true Gibbs risk
exceeds each bound.
"""

import math

import numpy as np

from . import bounds as bnd
from . import rng
from .blr import (GaussianPosterior, ModelConfig, evidence_decomposition,
                  fit_posterior, scalar_or_stack, stack_blocks)
from .losses import LossSpec, empirical_gibbs_risk, expected_loss
from .subgamma import nll_subgamma_params
from .tasks import DesignMatrix, LinearTaskSpec, gen_linear_stack

# Nodes per axis of the successive cropped-loss rules. Steps of about sqrt(2), not 2,
# make the rule that confirms a converged one about 2^(d/2), not 2^d, times as large
# (numpy's weights overflow past 256).
_HERMITE_NODES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
_MAX_POINTS = 2 ** 18  # points of the largest rule: 64 nodes per axis in d = 3


def _rule(mean: np.ndarray, inv_chol: np.ndarray, k: int, task: LinearTaskSpec,
          loss: LossSpec) -> np.ndarray:
    """The k-node rule's sum of prob * E loss over the grid of z, per posterior (rows of mean).

    r_i = (w* - mean)_i - sum_{j >= i} L^{-1}_{ji} z_j spans grid axes i..d-1 only, so
    s = noise_var + input_var sum_i r_i^2 is built from the last axis up, and only r_0
    spans the whole (B, k, ..., k) grid. Each value has the same bits in any stack: the
    grid is reduced row by row with np.sum, not by a matrix product, whose tail
    handling can tie a row's bits to the stack size.
    """
    d = mean.shape[1]
    nodes, weights = np.polynomial.hermite_e.hermegauss(k)
    prob = weights
    for _ in range(d - 1):
        prob = np.multiply.outer(prob, weights)
    prob = prob.ravel() / (2.0 * math.pi) ** (d / 2.0)
    scale = math.sqrt(task.input_var)  # s = noise_var + sum_i (scale r_i)^2
    diff = scale * (task.w_star - mean)
    terms = (scale * inv_chol)[..., None] * nodes  # [., j, i, :]: L^{-1}_{ji} z_j, scaled
    axis = [(1,) * j + (k,) + (1,) * (d - 1 - j) for j in range(d)]  # grid axis j
    values = []
    for block in stack_blocks(len(mean), prob.size):
        rows = slice(block.start, block.stop)
        s = task.noise_var
        for i in reversed(range(d)):  # r_i spans axes i..d-1, a superset of s's
            r = diff[rows, i].reshape((-1,) + (1,) * d)
            for j in reversed(range(i, d)):
                r = r - terms[rows, j, i].reshape((-1,) + axis[j])
            r *= r
            r += s
            s = r
        values.append(np.sum(expected_loss(loss, 0.0, s).reshape(len(block), -1) * prob,
                             axis=-1))
    return np.concatenate(values)


def gibbs_generalization_risk(post: GaussianPosterior, task: LinearTaskSpec,
                              loss: LossSpec):
    """Exact E_{w~posterior} E_{(x,y)~task} loss(w, x, y): a float, or an array for a stack.

    Given w the residual y - w.x is N(0, s(w)) with s(w) = task.squared_risk(w).
    A plain loss is affine in s, and E_w s(w) = s(mean) + input_var tr(A^{-1}).
    A cropped loss is not: its E_w is a tensor Gauss-Hermite
    rule (Golub & Welsch 1969) with k nodes on each axis of z in w = mean + L^{-T} z,
    k climbing from 8 in steps of about sqrt(2) (8, 12, 16, 24, ...) until two
    successive rules agree within 1e-10 relative; the first two fit _MAX_POINTS up
    to d = 5. As L^{-1} is lower triangular, coordinate i of w* - w is a sum of
    per-axis terms in z_i, ..., z_{d-1}, so each rule's (k, ..., k) grid of s(w) is
    broadcast from them, with no grid of weights. Each rule is evaluated for every
    posterior of the stack that has not yet converged, in `stack_blocks` of k^d
    points per posterior. When some posterior has no such pair within _MAX_POINTS
    points it raises ValueError, as it does for a posterior whose width is not task.d.
    """
    if post.d != task.d:
        raise ValueError(f"posterior has {post.d} weights, task {task.d} dimensions")
    if not math.isfinite(loss.a):
        s = task.squared_risk(post.mean) + task.input_var * post.cov_trace
        return scalar_or_stack(expected_loss(loss, 0.0, s))
    d = post.d
    ladder = [k for k in _HERMITE_NODES if k ** d <= _MAX_POINTS]
    if len(ladder) < 2:
        raise ValueError(f"the cropped generalization risk in d = {d} needs over "
                         f"{_MAX_POINTS} quadrature points")
    mean = post.mean.reshape(-1, d)
    inv_chol = post.inv_chol.reshape(-1, d, d)
    risk = np.empty(len(mean))
    live = np.arange(len(mean))  # posteriors still on the ladder
    value = None
    for k in ladder:
        previous, value = value, _rule(mean[live], inv_chol[live], k, task, loss)
        if previous is not None:
            gap = np.abs(value - previous)
            done = gap <= 1e-10 * np.abs(value)  # NaN never converges
            risk[live[done]] = value[done]
            live, value, gap = live[~done], value[~done], gap[~done]
            if not live.size:
                return scalar_or_stack(risk.reshape(post.mean.shape[:-1]))
    raise ValueError(f"the cropped generalization risk did not converge: the "
                     f"{ladder[-2]}- and {ladder[-1]}-node Gauss-Hermite rules differ by "
                     f"{gap[0]:.3g}, and no finer rule in d = {d} fits {_MAX_POINTS} points")


FAMILIES = ("subgamma", "catoni", "alquier_sqrtn")  # checked by the coverage study


def sample_bounds(task: LinearTaskSpec, model: ModelConfig, n: int,
                  cropped: LossSpec, delta: float, seeds) -> tuple:
    """Fit the posterior to n draws of the task at each of the S seeds and bound its risk.

    Returns (post, report, bounds): the S posteriors as one stacked
    GaussianPosterior, their EvidenceReport of (S,) arrays, and bounds
    mapping subgamma (the evidence form, on the NLL loss), catoni,
    alquier_sqrtn and alquier_n (on the cropped loss) to (S,) arrays of their
    values at confidence 1 - delta; catoni is capped at the crop's top b, which
    the cropped risk never exceeds. One fit, one evidence split and one
    empirical cropped risk serve the stack, so entry s has the bits of a
    stack of one at seeds[s]; the scalar bound formulas run once per sample.
    """
    if cropped is None or not math.isfinite(cropped.a):
        raise ValueError("the catoni and alquier families need a cropped loss")
    if not len(seeds):
        raise ValueError("sample_bounds needs at least one seed")
    params = nll_subgamma_params(model.noise_var, task.input_var, model.prior_var,
                                 task.d, task.w_star_sq_norm, task.noise_var)
    design = DesignMatrix(*gen_linear_stack(task, n, seeds))
    post = fit_posterior(design, model)
    report = evidence_decomposition(post, design, model)  # identity checked inline
    emp_crop = empirical_gibbs_risk(post, design, cropped)
    a, b = cropped.a, cropped.b
    lams = (math.sqrt(n), float(n))  # alquier_sqrtn, alquier_n
    rows = [(bnd.subgamma_evidence_bound(nle, n, delta, params.s2, params.c),
             min(b, bnd.catoni_bound(emp, kl, n, delta, a, b)),
             *(bnd.alquier_bound(emp, kl, n, delta, lam, bnd.hoeffding_psi_bound(lam, n, a, b))
               for lam in lams))
            for nle, kl, emp in zip(report.neg_log_evidence.tolist(), report.kl.tolist(),
                                    emp_crop.tolist())]
    return post, report, dict(zip(("subgamma", "catoni", "alquier_sqrtn", "alquier_n"),
                                  np.array(rows).T))


def _block_bounds_and_risks(task: LinearTaskSpec, model: ModelConfig, n: int,
                            cropped: LossSpec, delta: float, block: range) -> dict:
    """Fit the trials of block in one stack; {family: (bounds, risks)}, arrays over the block."""
    seeds = [rng.derive_seed(task.seed, rng.TRIAL_TAG, trial, 0) for trial in block]
    post, _, bounds = sample_bounds(task, model, n, cropped, delta, seeds)
    risk_nll = gibbs_generalization_risk(post, task, LossSpec.nll(model.noise_var))
    risk_crop = gibbs_generalization_risk(post, task, cropped)
    return {family: (bounds[family], risk_nll if family == "subgamma" else risk_crop)
            for family in FAMILIES}


def run_validity_study(task: LinearTaskSpec, model: ModelConfig, n: int,
                       cropped: LossSpec, delta: float, trials: int) -> dict:
    """Violation counts per bound family over independent training draws.

    A trial violates a family when its exact risk exceeds the bound; a
    non-finite bound or risk raises ValueError instead of counting either way.
    Trials use streams derived from (task.seed, trial index), so the result is
    reproducible and order-independent; each block of `stack_blocks` (n*d
    design entries per trial) is one stacked fit. Returns the coverage.json
    dict: delta, one {family, trials, violations, rate} per family, and the
    config echo.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    counts = {family: 0 for family in FAMILIES}
    for block in stack_blocks(trials, n * task.d):
        per_family = _block_bounds_and_risks(task, model, n, cropped, delta, block)
        bound, risk = (np.array([pair[i] for pair in per_family.values()], dtype=float)
                       for i in (0, 1))  # (families, trials of the block)
        bad = ~(np.isfinite(bound) & np.isfinite(risk))
        if bad.any():  # the first trial with a bad value, then its first bad family
            trial, j = np.argwhere(bad.T)[0]
            raise ValueError(f"trial {block[trial]}, {list(per_family)[j]}: bound "
                             f"{bound[j, trial]} and risk {risk[j, trial]} must both be finite")
        for family, above in zip(per_family, risk > bound):
            counts[family] += int(np.count_nonzero(above))
    return {
        "delta": delta,
        "families": [{"family": family, "trials": trials, "violations": counts[family],
                      "rate": counts[family] / trials} for family in FAMILIES],
        "config": {
            "n": n, "trials": trials, "delta": delta, "seed": task.seed, "d": task.d,
            "input_var": task.input_var, "task_noise_var": task.noise_var,
            "w_star_sq_norm": task.w_star_sq_norm, "sigma2": model.noise_var,
            "sigma_pi2": model.prior_var, "crop": [cropped.a, cropped.b],
        },
    }
