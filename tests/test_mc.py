import math

import numpy as np
import pytest

from pblr.blr import GaussianPosterior, ModelConfig, fit_posterior
from pblr.losses import LossSpec
from pblr import blr, experiments as exp, mc, rng as streams
from pblr.mc import gibbs_generalization_risk, run_validity_study, sample_bounds
from pblr.tasks import DesignMatrix, LinearTaskSpec, gen_linear_task

from oracles import (cropped_risk_tensor_rule, generalization_risk_mc, posterior_draws,
                     precision, sample_posterior)


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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("loss", [
    LossSpec.nll(2.0), LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0)], ids=["nll", "cropped"])
def test_generalization_risk_refuses_a_posterior_of_another_width(d, loss):
    # neither width may be broadcast against the task's 3 weights
    task = LinearTaskSpec(w_star=np.array([0.3, -0.2, 0.1]), input_var=1.0,
                          noise_var=0.1, seed=0)
    post = spd_posterior(np.full(d, 0.1), 4.0)
    with pytest.raises(ValueError, match=f"posterior has {d} weights, task 3 dimensions"):
        gibbs_generalization_risk(post, task, loss)


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
    ds = gen_linear_task(task, 1)
    wide = fit_posterior(DesignMatrix(phi=ds.raw_inputs, labels=ds.labels),
                         ModelConfig(noise_var=2.0, prior_var=100.0))
    with pytest.raises(ValueError, match="did not converge") as err:
        gibbs_generalization_risk(wide, task, cropped)
    err.match("the 48- and 64-node")  # the last two rungs of the ladder in d = 3
    # in d = 20 not even the first two rules fit the point budget: no rule is built
    monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", None)
    task20 = LinearTaskSpec(w_star=np.full(20, 0.1), input_var=1.0, noise_var=0.1)
    with pytest.raises(ValueError, match="d = 20"):
        gibbs_generalization_risk(spd_posterior(np.zeros(20), 1.0), task20, cropped)


@pytest.mark.parametrize("spec, d, n", [
    (LossSpec.nll(0.9), 3, 10),
    (LossSpec.squared(), 3, 10),
    (LossSpec.cropped(LossSpec.nll(0.9), 1.0, 1.5), 3, 10),
    (LossSpec.cropped(LossSpec.squared(), 0.2, 1.0), 3, 10),
    # the 8- and 12-node rules fit the point budget in d = 5 (12^5 <= 2^18)
    (LossSpec.cropped(LossSpec.nll(0.9), 1.0, 1.5), 5, 40),
], ids=["nll", "squared", "cropped-nll", "cropped-squared", "cropped-nll-d5"])
def test_generalization_risk_agrees_with_monte_carlo(spec, d, n):
    task = LinearTaskSpec(w_star=np.array([0.5, -0.3, 0.2, 0.1, -0.4])[:d], input_var=1.0,
                          noise_var=0.3, seed=12)
    post, _ = fitted_posterior(seed=13, n=n, d=d)
    m = 200_000
    fresh = gen_linear_task(task, m)
    ref, ref_se = generalization_risk_mc(spec, posterior_draws(post, m, 14),
                                         fresh.raw_inputs, fresh.labels)
    exact = gibbs_generalization_risk(post, task, spec)
    assert abs(exact - ref) < 4.0 * ref_se


def study_args(**overrides):
    """run_validity_study's keyword arguments: sample_bounds' own plus trials."""
    base = dict(
        task=LinearTaskSpec(w_star=np.full(3, 0.5 / math.sqrt(3)),
                            input_var=1.0, noise_var=1.0 / 9.0, seed=3),
        model=ModelConfig(noise_var=2.0, prior_var=0.01),
        n=20,
        cropped=LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0),
        delta=0.05,
        trials=5,
    )
    base.update(overrides)
    return base


def test_small_coverage_study_has_no_violations():
    report = run_validity_study(**study_args(trials=20))
    for fam in report["families"]:
        assert fam["violations"] == 0, f"{fam['family']} violated"


def test_coverage_report_deterministic_and_echoes_config():
    a = run_validity_study(**study_args())
    b = run_validity_study(**study_args())
    assert a == b
    # coverage.json keeps the order the dict is built in
    assert list(a) == ["delta", "families", "config"]
    for fam in a["families"]:
        assert list(fam) == ["family", "trials", "violations", "rate"]
    echo = a["config"]
    for key in ("n", "trials", "delta", "seed", "d", "sigma2", "sigma_pi2", "crop"):
        assert key in echo
    assert "m_weights" not in echo  # the risk is exact: nothing is sampled
    assert echo["crop"] == [1.0, 4.0]


def test_study_config_validation():
    with pytest.raises(ValueError, match="cropped loss"):
        run_validity_study(**study_args(cropped=None))  # bounded families need a crop
    with pytest.raises(ValueError, match="trials"):
        run_validity_study(**study_args(trials=0))


def test_sample_bounds_needs_a_seed():
    args = study_args()
    task, model, n, cropped, delta = (args[k] for k in ("task", "model", "n", "cropped", "delta"))
    with pytest.raises(ValueError, match="at least one seed"):
        sample_bounds(task, model, n, cropped, delta, [])


def fake_block(values, bad_trial=0):
    """A stand-in for mc._block_bounds_and_risks: subgamma (bound, risk) = values at
    bad_trial, and the finite, covered (1.0, 0.5) at every other trial."""
    def fake(task, model, n, cropped, delta, block):
        bound, risk = np.ones(len(block)), np.full(len(block), 0.5)
        if bad_trial in block:
            bound[block.index(bad_trial)], risk[block.index(bad_trial)] = values
        return {"subgamma": (bound, risk)}
    return fake


@pytest.mark.parametrize("position, bad", [(0, math.nan), (0, math.inf),
                                           (1, math.nan)])
def test_nonfinite_trial_value_raises(monkeypatch, position, bad):
    # NaN compares False and an infinite bound is never exceeded: neither is coverage
    values = [1.0, 0.5]  # (bound, risk)
    values[position] = bad
    monkeypatch.setattr(mc, "_block_bounds_and_risks", fake_block(values))
    with pytest.raises(ValueError, match="trial 0, subgamma: .* must both be finite"):
        run_validity_study(**study_args())


@pytest.mark.parametrize("block", [256, 2])
def test_nonfinite_value_names_its_trial(monkeypatch, block):
    # trial 3 of 5 is the bad one; with blocks of 2 it is the second of the second block
    monkeypatch.setattr(blr, "STACK_BUDGET", block * 20 * 3)  # block trials of n = 20, d = 3
    monkeypatch.setattr(mc, "_block_bounds_and_risks", fake_block([1.0, math.inf], 3))
    with pytest.raises(ValueError, match="trial 3, subgamma: bound 1.0 and risk inf"):
        run_validity_study(**study_args(trials=5))


def test_first_nonfinite_trial_wins_over_family_order(monkeypatch):
    # trial-major: trial 1's catoni is reported before trial 2's subgamma
    def fake(task, model, n, cropped, delta, block):
        return {"subgamma": (np.array([1.0, 1.0, np.nan]), np.full(3, 0.5)),
                "catoni": (np.array([1.0, np.nan, 1.0]), np.full(3, 0.5))}
    monkeypatch.setattr(mc, "_block_bounds_and_risks", fake)
    with pytest.raises(ValueError, match="trial 1, catoni"):
        run_validity_study(**study_args(trials=3))


@pytest.mark.parametrize("risk, violations", [(1.0, 0), (1.0 + 1e-15, 1)])
def test_violation_is_risk_above_bound(monkeypatch, risk, violations):
    monkeypatch.setattr(mc, "_block_bounds_and_risks", fake_block([1.0, risk]))
    report = run_validity_study(**study_args(trials=1))
    assert report["families"][0]["violations"] == violations


def test_coverage_study_fits_once_per_block(cholesky_calls, monkeypatch):
    run_validity_study(**study_args(trials=5))
    assert cholesky_calls == [(5,)]  # one stacked fit: no per-trial fits
    cholesky_calls.clear()
    monkeypatch.setattr(blr, "STACK_BUDGET", 2 * 20 * 3)  # 2 trials of n = 20, d = 3
    run_validity_study(**study_args(trials=5))
    assert cholesky_calls == [(2,), (2,), (1,)]


def test_coverage_study_blocks_follow_the_budget(cholesky_calls):
    # n * d = 6,000 design entries per trial: 20 trials per block, memory flat in n
    run_validity_study(**study_args(trials=50, n=2_000))
    assert cholesky_calls == [(20,), (20,), (10,)]


def test_stacked_study_matches_stacks_of_one():
    args = study_args(trials=20)
    task, model, n, cropped, delta, trials = args.values()
    nll = LossSpec.nll(model.noise_var)
    stacked = mc._block_bounds_and_risks(task, model, n, cropped, delta, range(trials))
    assert set(stacked) == set(mc.FAMILIES)
    for trial in range(trials):
        seed = streams.derive_seed(task.seed, streams.TRIAL_TAG, trial, 0)
        post, report, bounds = sample_bounds(task, model, n, cropped, delta, [seed])
        assert post.mean.shape == (1, task.d) and report.kl.shape == (1,)
        risks = {"nll": gibbs_generalization_risk(post, task, nll),
                 "cropped": gibbs_generalization_risk(post, task, cropped)}
        # one posterior, not a stack: its oracle gives the same bits as a float
        single = GaussianPosterior(mean=post.mean[0], chol=post.chol[0])
        assert gibbs_generalization_risk(single, task, nll) == risks["nll"][0]
        assert gibbs_generalization_risk(single, task, cropped) == risks["cropped"][0]
        for family, (bound, risk) in stacked.items():
            assert bound[trial] == bounds[family][0], (trial, family)
            expected = risks["nll" if family == "subgamma" else "cropped"][0]
            assert risk[trial] == expected, (trial, family)


def test_cropped_oracle_matches_a_fixed_32_node_rule():
    args = study_args(trials=20)
    task, model, n, cropped, delta, trials = args.values()
    seeds = [streams.derive_seed(task.seed, streams.TRIAL_TAG, trial, 0) for trial in range(trials)]
    post, _, _ = sample_bounds(task, model, n, cropped, delta, seeds)
    risk = gibbs_generalization_risk(post, task, cropped)
    for trial in range(trials):
        single = GaussianPosterior(mean=post.mean[trial], chol=post.chol[trial])
        assert risk[trial] == pytest.approx(cropped_risk_tensor_rule(single, task, cropped, 32),
                                            rel=1e-13, abs=0.0), trial


def test_study_result_does_not_depend_on_the_block_size(monkeypatch):
    args = study_args(trials=20)
    whole = run_validity_study(**args)
    monkeypatch.setattr(blr, "STACK_BUDGET", 3 * 20 * 3)  # 7 blocks, the last one short
    assert run_validity_study(**args) == whole


def test_generalization_risk_chunks_agree(monkeypatch):
    # a stack evaluated a few (posterior, point) pairs at a time gives the same bits
    args = study_args()
    task, model, n, cropped, delta = (args[k] for k in ("task", "model", "n", "cropped", "delta"))
    post, _, _ = sample_bounds(task, model, n, cropped, delta, range(6))
    whole = gibbs_generalization_risk(post, task, cropped)
    monkeypatch.setattr(blr, "STACK_BUDGET", 1000 * 3)  # 1,000 (posterior, point) pairs in d = 3
    np.testing.assert_array_equal(gibbs_generalization_risk(post, task, cropped), whole)


def stacked_posterior(*posts):
    return GaussianPosterior(mean=np.stack([p.mean for p in posts]),
                             chol=np.stack([p.chol for p in posts]))


def test_stacked_cropped_oracle_fails_closed():
    # one member that never converges fails the whole stack, wherever it sits
    task = LinearTaskSpec(w_star=np.full(3, 0.5 / math.sqrt(3)), input_var=1.0,
                          noise_var=1.0 / 9.0, seed=0)
    cropped = LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0)
    good, _ = fitted_posterior(seed=3, d=3)
    ds = gen_linear_task(task, 1)
    wide = fit_posterior(DesignMatrix(phi=ds.raw_inputs, labels=ds.labels),
                         ModelConfig(noise_var=2.0, prior_var=100.0))
    assert np.isfinite(gibbs_generalization_risk(stacked_posterior(good, good), task, cropped)).all()
    with pytest.raises(ValueError, match="did not converge"):
        gibbs_generalization_risk(stacked_posterior(good, good, wide, good), task, cropped)
    # in d = 20 no stack of any size gets a rule
    task20 = LinearTaskSpec(w_star=np.full(20, 0.1), input_var=1.0, noise_var=0.1)
    zero = spd_posterior(np.zeros(20), 1.0)
    with pytest.raises(ValueError, match="d = 20 needs over"):
        gibbs_generalization_risk(stacked_posterior(zero, zero), task20, cropped)


@pytest.mark.parametrize("d, n, noise_var, prior_var, k, finer", [
    (1, 40, 0.9, 1.4, 16, 24),
    (2, 40, 0.9, 1.4, 16, 24),
    (5, 200, 0.9, 1.4, 8, 12),
    # n = 2 in d = 3: the prior's axis has about 740 times the narrowest one's variance
    (3, 2, 0.001, 0.05, 32, 48),
], ids=["d1", "d2", "d5", "anisotropic"])
def test_cropped_rule_matches_the_tensor_reference(d, n, noise_var, prior_var, k, finer):
    # the per-axis grid against the reference's weights mean + L^{-T} z, at a node count
    # where the reference has converged
    rng = np.random.default_rng(13)
    design = DesignMatrix(phi=rng.standard_normal((n, d)), labels=rng.standard_normal(n))
    post = fit_posterior(design, ModelConfig(noise_var=noise_var, prior_var=prior_var))
    task = LinearTaskSpec(w_star=np.array([0.5, -0.3, 0.2, 0.1, -0.4])[:d], input_var=0.7,
                          noise_var=0.3, seed=12)
    cropped = LossSpec.cropped(LossSpec.nll(0.9), 1.0, 1.5)
    ref = cropped_risk_tensor_rule(post, task, cropped, k)
    assert ref == pytest.approx(cropped_risk_tensor_rule(post, task, cropped, finer),
                                rel=1e-13, abs=0.0)
    value = mc._rule(post.mean[None], post.inv_chol[None], k, task, cropped)[0]
    assert value == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_validate_oracle_stops_at_the_12_node_rule(monkeypatch):
    # each of validate's first 10 trials (seed 1) converges on the 8- and 12-node rules:
    # one more rung would cost 2.4 times the points
    evaluated = []
    real = mc.expected_loss

    def counting(loss, mu, var):
        if loss.kind == "cropped":
            evaluated.append(np.size(var))
        return real(loss, mu, var)

    monkeypatch.setattr(mc, "expected_loss", counting)
    exp.run_coverage(seed=1, trials=10)
    assert sum(evaluated) == 10 * (8 ** 3 + 12 ** 3)
