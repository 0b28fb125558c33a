import math

import numpy as np
import pytest

from pblr.blr import GaussianPosterior, ModelConfig, fit_posterior
from pblr.losses import LossSpec
from pblr import mc
from pblr.mc import (ValidityStudyConfig, _trial_bounds_and_risks,
                     gibbs_generalization_risk, run_validity_study, sample_posterior)
from pblr.tasks import DesignMatrix, LinearTaskSpec, gen_linear_task, identity_design

from oracles import generalization_risk_mc, posterior_draws, precision


def spd_posterior(mean, scale):
    d = len(mean)
    return GaussianPosterior(mean=np.asarray(mean, dtype=float),
                             chol=math.sqrt(scale) * np.eye(d))


def fitted_posterior(seed=0, n=40, d=3):
    rng = np.random.default_rng(seed)
    design = DesignMatrix(phi=rng.standard_normal((n, d)),
                          labels=rng.standard_normal(n))
    cfg = ModelConfig(noise_var=0.9, prior_var=1.4)
    return fit_posterior(design, cfg), cfg


def test_sample_posterior_moments():
    post, _ = fitted_posterior()
    m = 100_000
    weights = sample_posterior(post, m, seed=0)
    cov = np.linalg.inv(precision(post))
    mean_band = 4.0 * np.sqrt(np.diag(cov) / m)
    assert np.all(np.abs(weights.mean(axis=0) - post.mean) < mean_band)
    sample_cov = np.cov(weights.T)
    # variance of a covariance entry is O((cov_ii cov_jj + cov_ij^2)/m)
    for i in range(post.d):
        for j in range(post.d):
            band = 4.0 * math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / m)
            assert abs(sample_cov[i, j] - cov[i, j]) < band


def test_sample_posterior_point_mass_limit():
    post = spd_posterior([1.0, -2.0], 1e16)
    weights = sample_posterior(post, 50, seed=1)
    assert np.abs(weights - post.mean).max() < 1e-6


def test_sample_posterior_deterministic():
    post, _ = fitted_posterior()
    a = sample_posterior(post, 100, seed=9)
    b = sample_posterior(post, 100, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_posterior(post, 100, seed=10))


def test_generalization_risk_point_mass_at_truth():
    task = LinearTaskSpec(w_star=np.array([0.4, -0.1]), input_var=1.0,
                          noise_var=1e-30, seed=0)
    post = spd_posterior(task.w_star, 1e18)
    est = gibbs_generalization_risk(post, task, LossSpec.squared())
    assert est == pytest.approx(0.0, abs=1e-12)


def test_generalization_risk_point_mass_closed_form():
    task = LinearTaskSpec(w_star=np.array([1.0, 0.0]), input_var=0.7,
                          noise_var=0.2, seed=0)
    w = np.array([0.0, 1.0])
    post = spd_posterior(w, 1e18)
    expected = 0.7 * 2.0 + 0.2  # input_var ||w* - w||^2 + noise_var
    est = gibbs_generalization_risk(post, task, LossSpec.squared())
    assert est == pytest.approx(expected, abs=1e-7)
    assert task.squared_risk(w) == pytest.approx(expected, abs=1e-15)


def test_generalization_risk_nll_affine_identity():
    task = LinearTaskSpec(w_star=np.array([0.5, 0.5, 0.0]), input_var=1.0,
                          noise_var=0.3, seed=0)
    post, cfg = fitted_posterior(seed=3, d=3)
    sq = gibbs_generalization_risk(post, task, LossSpec.squared())
    nll = gibbs_generalization_risk(post, task, LossSpec.nll(cfg.noise_var))
    expected = 0.5 * math.log(2.0 * math.pi * cfg.noise_var) \
        + sq / (2.0 * cfg.noise_var)
    assert nll == pytest.approx(expected, rel=1e-12)


def test_generalization_risk_cropped_agrees_when_crop_inactive():
    task = LinearTaskSpec(w_star=np.array([0.2, -0.3, 0.1]), input_var=1.0,
                          noise_var=0.3, seed=0)
    post, cfg = fitted_posterior(seed=5, d=3)
    exact = gibbs_generalization_risk(post, task, LossSpec.nll(cfg.noise_var))
    wide = LossSpec.cropped(LossSpec.nll(cfg.noise_var), -1e9, 1e9)
    assert gibbs_generalization_risk(post, task, wide) == pytest.approx(exact, rel=1e-12)


def test_generalization_risk_rejects_cropped_loss(monkeypatch):
    # the cropped oracle raises rather than return an unconverged value
    task = LinearTaskSpec(w_star=np.full(3, 0.5 / math.sqrt(3)), input_var=1.0,
                          noise_var=1.0 / 9.0, seed=0)
    cropped = LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0)
    wide = fit_posterior(identity_design(gen_linear_task(task, 1)),
                         ModelConfig(noise_var=2.0, prior_var=100.0))
    with pytest.raises(ValueError, match="did not converge"):
        gibbs_generalization_risk(wide, task, cropped)
    # in d = 20 not even the first two rules fit the point budget: no rule is built
    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", None)
    task20 = LinearTaskSpec(w_star=np.full(20, 0.1), input_var=1.0, noise_var=0.1)
    with pytest.raises(ValueError, match="d = 20"):
        gibbs_generalization_risk(spd_posterior(np.zeros(20), 1.0), task20, cropped)


@pytest.mark.parametrize("spec", [
    LossSpec.nll(0.9),
    LossSpec.squared(),
    LossSpec.cropped(LossSpec.nll(0.9), 1.0, 1.5),
    LossSpec.cropped(LossSpec.squared(), 0.2, 1.0),
], ids=["nll", "squared", "cropped-nll", "cropped-squared"])
def test_generalization_risk_agrees_with_monte_carlo(spec):
    task = LinearTaskSpec(w_star=np.array([0.5, -0.3, 0.2]), input_var=1.0,
                          noise_var=0.3, seed=12)
    post, _ = fitted_posterior(seed=13, n=10, d=3)
    m = 200_000
    fresh = gen_linear_task(task, m)
    ref, ref_se = generalization_risk_mc(spec, posterior_draws(post, m, 14),
                                         fresh.raw_inputs, fresh.labels)
    exact = gibbs_generalization_risk(post, task, spec)
    assert abs(exact - ref) < 4.0 * ref_se


def study_config(**overrides):
    base = dict(
        task=LinearTaskSpec(w_star=np.full(3, 0.5 / math.sqrt(3)),
                            input_var=1.0, noise_var=1.0 / 9.0, seed=0),
        model=ModelConfig(noise_var=2.0, prior_var=0.01),
        n=20,
        trials=5,
        delta=0.05,
        families=("subgamma", "catoni", "alquier_sqrtn"),
        cropped_loss=LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0),
        seed=3,
    )
    base.update(overrides)
    return ValidityStudyConfig(**base)


def test_small_coverage_study_has_no_violations():
    report = run_validity_study(study_config(trials=20))
    for fam in report.families:
        assert fam.violations == 0, f"{fam.family} violated"


def test_coverage_report_deterministic_and_echoes_config():
    a = run_validity_study(study_config())
    b = run_validity_study(study_config())
    assert a.as_dict() == b.as_dict()
    echo = a.as_dict()["config"]
    for key in ("n", "trials", "delta", "seed", "d", "sigma2", "sigma_pi2", "crop"):
        assert key in echo
    assert "m_weights" not in echo  # the risk is exact: nothing is sampled
    assert echo["crop"] == [1.0, 4.0]


def test_study_config_validation():
    with pytest.raises(ValueError):
        study_config(families=("nonsense",))
    with pytest.raises(ValueError):
        study_config(cropped_loss=None)  # bounded families need a crop
    with pytest.raises(ValueError):
        study_config(trials=0)


@pytest.mark.parametrize("position, bad", [(0, math.nan), (0, math.inf),
                                           (1, math.nan)])
def test_nonfinite_trial_value_raises(monkeypatch, position, bad):
    # NaN compares False and an infinite bound is never exceeded: neither is coverage
    values = [1.0, 0.5]  # (bound, risk)
    values[position] = bad
    monkeypatch.setattr(mc, "_trial_bounds_and_risks",
                        lambda cfg, trial: {"subgamma": tuple(values)})
    with pytest.raises(ValueError, match="finite"):
        run_validity_study(study_config(families=("subgamma",)))


@pytest.mark.parametrize("risk, violations", [(1.0, 0), (1.0 + 1e-15, 1)])
def test_violation_is_risk_above_bound(monkeypatch, risk, violations):
    monkeypatch.setattr(mc, "_trial_bounds_and_risks",
                        lambda cfg, trial: {"subgamma": (1.0, risk)})
    report = run_validity_study(study_config(families=("subgamma",), trials=1))
    assert report.families[0].violations == violations


def test_coverage_trial_factors_once(cholesky_calls):
    _trial_bounds_and_risks(study_config(), 0)
    assert len(cholesky_calls) == 1
