import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pblr.blr import GaussianPosterior, ModelConfig, fit_posterior, \
    gibbs_expected_empirical_nll
from pblr.losses import LossSpec, empirical_gibbs_risk, expected_loss
from pblr.tasks import DesignMatrix

from oracles import empirical_risk_mc, loss_of_residual, posterior_draws

LOSSES = {
    "nll": LossSpec.nll(0.9),
    "squared": LossSpec.squared(),
    "cropped-nll": LossSpec.cropped(LossSpec.nll(0.9), 1.0, 2.0),
    "cropped-squared": LossSpec.cropped(LossSpec.squared(), 0.5, 3.0),
}


def make_posterior(mean, precision_scale):
    d = len(mean)
    return GaussianPosterior(mean=np.asarray(mean, dtype=float),
                             chol=np.sqrt(precision_scale) * np.eye(d))


def random_fit(seed, n, d, noise_var, prior_var):
    rng = np.random.default_rng(seed)
    design = DesignMatrix(phi=rng.standard_normal((n, d)),
                          labels=rng.standard_normal(n))
    cfg = ModelConfig(noise_var=noise_var, prior_var=prior_var)
    return fit_posterior(design, cfg), design, cfg


def test_nll_zero_residual():
    assert expected_loss(LossSpec.nll(1.0), 0.0, 0.0) == pytest.approx(
        0.5 * math.log(2.0 * math.pi), abs=1e-14)


def test_nll_unit_residual_half_variance():
    val = expected_loss(LossSpec.nll(0.5), 1.0, 0.0)
    assert val == pytest.approx(0.5 * math.log(math.pi) + 1.0, abs=1e-12)
    assert val == pytest.approx(1.5723649429247, abs=1e-10)


def test_nll_is_affine_in_squared():
    rng = np.random.default_rng(0)
    for _ in range(25):
        mu = float(rng.standard_normal())
        var = float(rng.uniform(0.0, 2.0))
        sigma2 = float(rng.uniform(0.1, 3.0))
        sq = expected_loss(LossSpec.squared(), mu, var)
        expected = 0.5 * math.log(2.0 * math.pi * sigma2) + sq / (2.0 * sigma2)
        assert expected_loss(LossSpec.nll(sigma2), mu, var) == pytest.approx(
            expected, abs=1e-12)


def test_squared_loss_values():
    sq = LossSpec.squared()
    assert expected_loss(sq, 2.0, 0.0) == pytest.approx(4.0)
    assert expected_loss(sq, 0.0, 0.0) == pytest.approx(0.0)
    assert expected_loss(sq, -3.0, 0.5) == pytest.approx(9.5)


def test_crop_values_and_idempotence():
    spec = LossSpec.cropped(LossSpec.squared(), 1.0, 4.0)
    values = expected_loss(spec, np.array([0.5, math.sqrt(2.7), 3.0]), 0.0)
    assert values == pytest.approx([1.0, 2.7, 4.0], abs=1e-12)
    # an inner loss that never leaves [a, b] is not changed by cropping
    assert expected_loss(spec, 1.5, 0.0) == pytest.approx(
        expected_loss(LossSpec.squared(), 1.5, 0.0), abs=1e-12)


def test_crop_rejects_bad_interval():
    with pytest.raises(ValueError):
        LossSpec.cropped(LossSpec.squared(), 2.0, 2.0)


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec.nll(0.0)
    with pytest.raises(ValueError):
        LossSpec.cropped(LossSpec.squared(), 4.0, 1.0)
    with pytest.raises(ValueError):
        LossSpec.cropped(LossSpec.cropped(LossSpec.squared(), 0.0, 1.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        LossSpec(kind="huber")


def test_expected_loss_at_zero_variance_is_the_loss():
    resid = np.random.default_rng(2).standard_normal((4, 5)) * 2.0
    for spec in LOSSES.values():
        got = expected_loss(spec, resid, 0.0)
        assert got.shape == (4, 5)
        assert np.allclose(got, loss_of_residual(spec, resid), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(LOSSES))
def test_exact_empirical_risk_agrees_with_monte_carlo(name):
    post, design, _ = random_fit(3, 20, 3, 0.9, 1.5)
    exact = empirical_gibbs_risk(post, design, LOSSES[name])
    est, se = empirical_risk_mc(LOSSES[name], posterior_draws(post, 50_000, 11),
                                design.phi, design.labels)
    assert abs(exact - est) < 4.0 * se


def test_mc_gibbs_risk_matches_closed_form_nll():
    post, design, cfg = random_fit(3, 20, 3, 0.9, 1.5)
    closed = gibbs_expected_empirical_nll(post, design, cfg) / design.n
    assert empirical_gibbs_risk(post, design, LossSpec.nll(0.9)) == pytest.approx(
        closed, rel=1e-12)
    est, se = empirical_risk_mc(LossSpec.nll(0.9), posterior_draws(post, 100_000, 42),
                                design.phi, design.labels)
    assert abs(est - closed) < 4.0 * se


def test_mc_gibbs_risk_point_mass_limit():
    design = DesignMatrix(phi=np.array([[1.0], [2.0]]), labels=np.array([1.0, 1.0]))
    post = make_posterior([0.5], 1e16)
    at_mean = 0.5 * (0.5 ** 2 + 0.0 ** 2)
    assert empirical_gibbs_risk(post, design, LossSpec.squared()) == pytest.approx(
        at_mean, abs=1e-12)
    cropped = LossSpec.cropped(LossSpec.squared(), 0.1, 1.0)
    assert empirical_gibbs_risk(post, design, cropped) == pytest.approx(
        0.5 * (0.25 + 0.1), abs=1e-6)


def test_mc_gibbs_risk_constant_cropped_loss():
    design = DesignMatrix(phi=np.array([[1.0]]), labels=np.array([0.0]))
    post = make_posterior([0.0], 4.0)
    # every squared value below 1e6 is cropped up to the lower end
    spec = LossSpec.cropped(LossSpec.squared(), 1e6, 2e6)
    assert empirical_gibbs_risk(post, design, spec) == 1e6


def test_empirical_risk_needs_an_example():
    design = DesignMatrix(phi=np.zeros((0, 1)), labels=np.zeros(0))
    with pytest.raises(ValueError):
        empirical_gibbs_risk(make_posterior([0.0], 1.0), design, LossSpec.squared())


def test_mc_estimator_unbiased_across_seeds():
    # pooled over 50 seeds the plain Monte-Carlo estimate pins the exact
    # cropped term far tighter than any single run
    post, design, _ = random_fit(4, 15, 2, 1.1, 0.8)
    spec = LossSpec.cropped(LossSpec.nll(1.1), 1.2, 1.6)
    exact = empirical_gibbs_risk(post, design, spec)
    estimates, variances = [], []
    for seed in range(50):
        est, se = empirical_risk_mc(spec, posterior_draws(post, 2_000, seed),
                                    design.phi, design.labels)
        estimates.append(est)
        variances.append(se * se)
    pooled_se = math.sqrt(sum(variances)) / len(estimates)
    assert abs(np.mean(estimates) - exact) < 4.0 * pooled_se


# --- properties of the cropped expectation -----------------------------------

inner_losses = st.one_of(
    st.just(LossSpec.squared()),
    st.floats(0.05, 5.0).map(LossSpec.nll))
means = st.floats(-10.0, 10.0)
variances = st.floats(0.0, 100.0)


def crop_of(inner, a, width):
    return LossSpec.cropped(inner, a, a + width)


def tol(*values):
    return 1e-9 * max(1.0, *(abs(v) for v in values))


@settings(max_examples=300, deadline=None)
@given(inner_losses, st.floats(-5.0, 10.0), st.floats(1e-3, 10.0), means, variances)
def test_cropped_value_lies_in_interval(inner, a, width, mu, var):
    spec = crop_of(inner, a, width)
    value = float(expected_loss(spec, mu, var))
    assert spec.a - tol(spec.a) <= value <= spec.b + tol(spec.b)


@settings(max_examples=200, deadline=None)
@given(inner_losses, st.floats(-10.0, 10.0), st.floats(0.0, 100.0))
def test_wide_crop_equals_uncropped(inner, mu, var):
    plain = float(expected_loss(inner, mu, var))
    wide = float(expected_loss(LossSpec.cropped(inner, -1e6, 1e6), mu, var))
    assert wide == pytest.approx(plain, rel=1e-9, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(inner_losses, st.floats(-5.0, 10.0), st.floats(1e-3, 10.0), means)
def test_cropped_point_mass_is_clamped(inner, a, width, mu):
    spec = crop_of(inner, a, width)
    at_mu = float(expected_loss(inner, mu, 0.0))
    assume(abs(at_mu - spec.a) > 1e-6 and abs(at_mu - spec.b) > 1e-6)
    value = float(expected_loss(spec, mu, 1e-30))
    if at_mu < spec.a:
        assert value == pytest.approx(spec.a, rel=1e-12, abs=1e-12)
    elif at_mu > spec.b:
        assert value == pytest.approx(spec.b, rel=1e-12, abs=1e-12)
    else:
        assert value == pytest.approx(at_mu, rel=1e-9, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(inner_losses, st.floats(-5.0, 10.0), st.floats(1e-3, 10.0), variances, variances)
def test_cropped_nondecreasing_in_variance_at_zero_mean(inner, a, width, v1, v2):
    spec = crop_of(inner, a, width)
    lo, hi = sorted((v1, v2))
    small = float(expected_loss(spec, 0.0, lo))
    large = float(expected_loss(spec, 0.0, hi))
    assert small <= large + tol(spec.a, spec.b)
