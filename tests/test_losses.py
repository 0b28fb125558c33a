import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pblr import blr, losses
from pblr.blr import GaussianPosterior, ModelConfig, evidence_decomposition, \
    fit_posterior
from pblr.losses import LossSpec, empirical_gibbs_risk, expected_loss
from pblr.tasks import DesignMatrix

from oracles import (empirical_risk_mc, expected_cropped_four_edges, loss_of_residual,
                     posterior_draws)

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
        LossSpec(0.0, 1.0, -math.inf, 4.0)  # one infinite end


def test_loss_record_constants():
    # written out here, as the test oracles read c0 and den from the record
    for sigma2 in (1e-300, 0.5, 2.0, 2.8e307):
        assert LossSpec.nll(sigma2) == LossSpec(0.5 * math.log(2 * math.pi * sigma2),
                                                2 * sigma2, -math.inf, math.inf)
    assert LossSpec.squared() == LossSpec(0.0, 1.0)
    cropped = LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0)
    assert cropped == LossSpec(LossSpec.nll(2.0).c0, 4.0, 1.0, 4.0)


@pytest.mark.parametrize("fields", [
    (0.0, 1.0, -math.inf, 4.0), (0.0, 1.0, 1.0, math.inf),  # one infinite end
    (0.0, 0.0), (0.0, -1.0), (0.0, math.inf), (0.0, math.nan),  # den
    (math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0),  # c0
    (0.0, 1.0, 2.0, 2.0), (0.0, 1.0, 3.0, 2.0), (0.0, 1.0, math.nan, 2.0),  # a >= b
])
def test_loss_record_refuses_an_invalid_state(fields):
    with pytest.raises(ValueError):
        LossSpec(*fields)


@pytest.mark.parametrize("inner, a, b", [
    (LossSpec.cropped(LossSpec.squared(), 0.0, 1.0), 0.0, 1.0),
    (LossSpec.squared(), -math.inf, math.inf),
    (LossSpec.nll(2.0), math.nan, 4.0), (LossSpec.nll(2.0), 1.0, math.nan),
])
def test_cropped_refuses_a_cropped_inner_loss_or_an_open_end(inner, a, b):
    with pytest.raises(ValueError, match="cropped loss"):
        LossSpec.cropped(inner, a, b)


@pytest.mark.parametrize("sigma2", [1e308, np.float64(2.9e307), math.inf])
def test_nll_rejects_sigma2_whose_log_constant_overflows(sigma2):
    with pytest.raises(ValueError, match="log\\(2\\*pi\\*sigma2\\) finite"):
        LossSpec.nll(sigma2)
    assert math.isfinite(expected_loss(LossSpec.nll(2.8e307), 0.0, 0.0))


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
    closed = evidence_decomposition(post, design, cfg).gibbs_emp_risk_total / design.n
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


@pytest.mark.parametrize("spec", [
    LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0),
    LossSpec.cropped(LossSpec.squared(), 0.2, 1.0),
    LossSpec.cropped(LossSpec.nll(0.9), 1.0, 1.5),
    LossSpec.cropped(LossSpec.nll(2.0), 2.0, 4.0),
], ids=["default", "squared", "nll-0.9", "nll-2-above-c0"])
def test_zero_mean_cropped_form_matches_the_general_one(spec):
    # at the scalar mu = 0 the edges t and -t share one Phi and phi; an array of zeros takes both
    var = np.geomspace(1e-12, 1e2, 600)
    np.testing.assert_allclose(expected_loss(spec, 0.0, var),
                               expected_loss(spec, np.zeros_like(var), var), rtol=1e-13, atol=0.0)


def test_zero_mean_cropped_form_edge_cases():
    var = np.geomspace(1e-12, 1e2, 60)
    inactive = LossSpec.cropped(LossSpec.nll(2.0), -1e9, 1e9)
    np.testing.assert_array_equal(expected_loss(inactive, 0.0, var),
                                  expected_loss(inactive, np.zeros_like(var), var))
    # c0 = 0.5 log(4 pi) >= b: every residual's loss is cropped down to b
    above = LossSpec.cropped(LossSpec.nll(2.0), 0.5, 1.0)
    np.testing.assert_array_equal(expected_loss(above, 0.0, var), 1.0)
    # var = 0 is the clamped loss(0); beta^2 overflows without a RuntimeWarning
    for spec in (LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0),
                 LossSpec.cropped(LossSpec.squared(), 0.2, 1.0),
                 LossSpec.cropped(LossSpec.squared(), 0.2, 1e300)):
        at_zero = loss_of_residual(spec, np.zeros(1))
        assert expected_loss(spec, 0.0, 0.0) == at_zero[0]
        assert expected_loss(spec, 0.0, np.zeros(3)).tolist() == [at_zero[0]] * 3


@pytest.mark.parametrize("spec", [
    LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0),
    LossSpec.cropped(LossSpec.squared(), 0.2, 1.0),
    LossSpec.cropped(LossSpec.nll(2.0), 0.5, 1.0),  # c0 >= b: the constant b
], ids=["default", "squared", "above-c0"])
def test_cropped_expectation_keeps_a_nan(spec):
    # clamping into [a, b] must not turn a NaN residual or variance into a number
    got = expected_loss(spec, np.array([np.nan, 0.5, 0.5]), np.array([1.0, np.nan, 1.0]))
    assert np.isnan(got[:2]).all() and spec.a <= got[2] <= spec.b
    assert np.isnan(expected_loss(spec, np.nan, 1.0))


@pytest.mark.parametrize("spec", [
    LossSpec.cropped(LossSpec.nll(2.0), 1.0, 4.0),
    LossSpec.cropped(LossSpec.nll(2.0), 2.0, 4.0),
    LossSpec.cropped(LossSpec.squared(), 0.2, 1.0),
    LossSpec.cropped(LossSpec.nll(2.0), -1e9, 1e9),
], ids=["default-t_a-0", "nll-t_a-positive", "squared-t_a-positive", "inactive-t_a-0"])
def test_cropped_expectation_agrees_with_the_four_edge_form(spec):
    # the one form in the tails beyond t_a and t_b, against the form in all four edges
    gen = np.random.default_rng(5)
    var = np.concatenate([[0.0, 1e-300, 0.0], np.geomspace(1e-12, 1e2, 300)])
    mu = np.concatenate([[0.0, -0.0, 1e-300], gen.standard_normal(300) * 3.0])
    for mu_arg in (0.0, np.zeros_like(var), mu):
        np.testing.assert_allclose(expected_loss(spec, mu_arg, var),
                                   expected_cropped_four_edges(spec, mu_arg, var),
                                   rtol=2e-14, atol=0.0)


# |z| bands and the relative gap allowed there between the numpy Phi and
# scipy.special.ndtr; beyond |z| = 4 most of the gap is ndtr's own error (against
# 40-digit values it is off by up to 9.2e-15 on [4, 8) and 2.2e-13 past 20).
PHI_BANDS = [(0.0, 1.0, 1e-15), (1.0, 4.0, 4e-15), (4.0, 8.0, 1.5e-14), (8.0, 38.6, 3e-13)]


def test_normal_cdf_agrees_with_ndtr():
    from scipy.special import ndtr

    z = np.linspace(-38.6, 38.6, 772_001)
    cdf, e = losses._normal(z)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(e, np.exp(-0.5 * z * z))  # phi keeps its bits
    for low, high, rtol in PHI_BANDS:
        band = (np.abs(z) >= low) & (np.abs(z) < high)
        # ndtr underflows a little before Phi does: 1e-307 covers the subnormal tail
        np.testing.assert_allclose(cdf[band], ndtr(z[band]), rtol=rtol, atol=1e-307)
    special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300])
    cdf, e = losses._normal(special)
    np.testing.assert_array_equal(cdf, [1.0, 0.0, np.nan, 0.5, 0.5, 1.0, 0.0])
    np.testing.assert_array_equal(e, [0.0, 0.0, np.nan, 1.0, 1.0, 0.0, 0.0])


def test_normal_cdf_is_exactly_symmetric():
    z = np.linspace(0.0, 38.6, 386_001)
    assert losses._normal(np.array([0.0]))[0][0] == 0.5
    np.testing.assert_array_equal(losses._normal(z)[0] + losses._normal(-z)[0], 1.0)


def _underflow_edge():
    """The two adjacent z > 0 on either side of -z^2 / 2 = _EXP_ZERO, live one first."""
    def live(x):
        return not x * -0.5 * x < losses._EXP_ZERO

    z = math.sqrt(-2.0 * losses._EXP_ZERO)
    while not live(z):
        z = math.nextafter(z, 0.0)
    while live(math.nextafter(z, math.inf)):
        z = math.nextafter(z, math.inf)
    return z, math.nextafter(z, math.inf)


def test_normal_classes_each_element_as_if_alone():
    # every branch and each boundary in one block: the series, erfcx (NaN too) and
    # the underflowed tail, each element with the bits it has in a block of its own
    below_one = math.nextafter(1.0, 0.0)
    edges = [0.0, below_one, 1.0, *_underflow_edge(), 38.0, 40.0, math.inf]
    z = np.array([*edges, *(-x for x in edges), math.nan])
    dead = z * -0.5 * z < losses._EXP_ZERO
    assert dead.sum() == 6  # +-(past the edge), +-40, +-inf
    cdf, e = losses._normal(z)
    np.testing.assert_array_equal(cdf[dead], z[dead] > 0.0)
    np.testing.assert_array_equal(e[dead], 0.0)
    assert np.isnan(cdf[-1]) and np.isnan(e[-1]) and cdf[0] == 0.5
    for block in (z, np.tile(z, (3, 7)), np.concatenate([z, np.full(500, 2.5)])):
        cdf, e = losses._normal(block)
        alone = [losses._normal(np.array([x])) for x in block.ravel()]
        for got, want in ((cdf, [c[0] for c, _ in alone]), (e, [p[0] for _, p in alone])):
            np.testing.assert_array_equal(got.ravel().view(np.uint64),
                                          np.array(want).view(np.uint64))


def test_erfcx_coefficients_reproduce_erfcx():
    # a mistyped digit in the table moves erfcx by far more than this somewhere on
    # [0, 27]; scipy's erfcx is itself off by up to 8.9e-16 from 40-digit values near 0
    from scipy.special import erfcx

    x = np.linspace(0.0, 27.0, 270_001)
    np.testing.assert_allclose(losses._erfcx(x), erfcx(x), rtol=1e-15, atol=0.0)
    assert losses._erfcx(np.zeros(1))[0] == 1.0


@pytest.mark.parametrize("stack", [(), (4,)], ids=["one", "stack"])
@pytest.mark.parametrize("name", sorted(LOSSES))
def test_empirical_risk_blocks_keep_the_bits(monkeypatch, stack, name):
    # 1,003 examples of 5 features: one block, then blocks of 40 examples (and a tail)
    gen = np.random.default_rng(8)
    design = DesignMatrix(phi=gen.standard_normal((*stack, 1003, 5)),
                          labels=gen.standard_normal((*stack, 1003)))
    post = fit_posterior(design, ModelConfig(noise_var=0.9, prior_var=1.5))
    whole = empirical_gibbs_risk(post, design, LOSSES[name])
    monkeypatch.setattr(blr, "STACK_BUDGET", 200 * max(stack, default=1))
    assert blr.stack_blocks(1003, design.phi.size // 1003)[-1] == range(1000, 1003)
    np.testing.assert_array_equal(empirical_gibbs_risk(post, design, LOSSES[name]), whole)


def test_cropped_empirical_risk_is_clamped_to_the_crop():
    # every loss is cropped down to b = 0.1, whose mean over 3 examples rounds to 0.1 + 1 ulp
    design = DesignMatrix(phi=np.ones((3, 1)), labels=np.full(3, 5.0))
    spec = LossSpec.cropped(LossSpec.squared(), 0.05, 0.1)
    assert np.mean(np.full(3, 0.1)) > 0.1
    assert empirical_gibbs_risk(make_posterior([0.0], 1e16), design, spec) == 0.1


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
    assert spec.a <= value <= spec.b


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
