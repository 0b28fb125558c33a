import math

import numpy as np
import pytest

from pblr import blr
from pblr.blr import EvidenceReport, ModelConfig, evidence_decomposition, fit_posterior
from pblr.losses import LossSpec, empirical_gibbs_risk, expected_loss
from pblr.tasks import DesignMatrix, SineTaskSpec, gen_sine_task, polynomial_features

from oracles import (kl_gaussians, lower_inverse_exact, nle_full_covariance, nle_sequential_1d,
                     precision, ridge_minimizer_gd, sample_posterior)

UNIT_CFG = ModelConfig(noise_var=1.0, prior_var=1.0)
ONE_POINT = DesignMatrix(phi=np.array([[1.0]]), labels=np.array([1.0]))


def split(design, cfg):
    """The evidence report of the posterior fitted to design."""
    return evidence_decomposition(fit_posterior(design, cfg), design, cfg)


def random_instance(rng, n=None, d=None):
    n = int(rng.integers(0, 101)) if n is None else n
    d = int(rng.integers(1, 11)) if d is None else d
    phi = rng.standard_normal((n, d))
    labels = rng.standard_normal(n)
    cfg = ModelConfig(noise_var=float(rng.uniform(0.2, 3.0)),
                      prior_var=float(rng.uniform(0.2, 5.0)))
    return DesignMatrix(phi=phi, labels=labels), cfg


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(noise_var=0.0, prior_var=1.0)
    with pytest.raises(ValueError):
        ModelConfig(noise_var=1.0, prior_var=-1.0)


@pytest.mark.parametrize("noise_var", [1e308, np.float64(2.9e307)])
def test_model_config_rejects_noise_var_whose_log_constant_overflows(noise_var):
    # 2*pi*noise_var overflows above about 2.86e307: the NLL constant would be inf
    with pytest.raises(ValueError, match="^noise_var must keep log"):
        ModelConfig(noise_var=noise_var, prior_var=1.0)
    ModelConfig(noise_var=2.8e307, prior_var=1.0)


def test_empty_sample_recovers_prior():
    design = DesignMatrix(phi=np.zeros((0, 2)), labels=np.zeros(0))
    post = fit_posterior(design, UNIT_CFG)
    assert np.array_equal(precision(post), np.eye(2))
    assert np.array_equal(post.mean, np.zeros(2))


def test_hand_computed_one_point_posterior():
    post = fit_posterior(ONE_POINT, UNIT_CFG)
    assert precision(post)[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert post.mean[0] == pytest.approx(0.5, abs=1e-14)


def test_posterior_mean_matches_gradient_descent_ridge():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((50, 5))
    labels = rng.standard_normal(50)
    cfg = ModelConfig(noise_var=0.8, prior_var=2.0)
    post = fit_posterior(DesignMatrix(phi=phi, labels=labels), cfg)
    w_gd = ridge_minimizer_gd(phi, labels, 0.8, 2.0)
    assert np.abs(post.mean - w_gd).max() < 1e-6


def test_neg_log_evidence_empty():
    design = DesignMatrix(phi=np.zeros((0, 3)), labels=np.zeros(0))
    assert split(design, UNIT_CFG).neg_log_evidence == pytest.approx(0.0, abs=1e-14)


def test_neg_log_evidence_one_point_marginal_density():
    # marginal of y=1 is N(0, prior_var + noise_var) = N(0, 2)
    expected = 0.5 * math.log(4.0 * math.pi) + 0.25
    assert split(ONE_POINT, UNIT_CFG).neg_log_evidence == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.5155121234846454, abs=1e-12)


def test_neg_log_evidence_zero_feature():
    design = DesignMatrix(phi=np.array([[0.0]]), labels=np.array([0.0]))
    assert split(design, UNIT_CFG).neg_log_evidence == pytest.approx(
        0.5 * math.log(2.0 * math.pi), abs=1e-12)


def test_neg_log_evidence_matches_full_covariance_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        design, cfg = random_instance(rng)
        mine = split(design, cfg).neg_log_evidence
        ref = nle_full_covariance(design.phi, design.labels, cfg.noise_var,
                                  cfg.prior_var)
        assert mine == pytest.approx(ref, rel=1e-8, abs=1e-8)


def test_neg_log_evidence_matches_sequential_1d_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        phi = rng.standard_normal((n, 1))
        labels = rng.standard_normal(n)
        cfg = ModelConfig(noise_var=float(rng.uniform(0.3, 2.0)),
                          prior_var=float(rng.uniform(0.3, 4.0)))
        mine = split(DesignMatrix(phi=phi, labels=labels), cfg).neg_log_evidence
        ref = nle_sequential_1d(phi[:, 0], labels, cfg.noise_var, cfg.prior_var)
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_kl_zero_when_posterior_equals_prior():
    design = DesignMatrix(phi=np.zeros((0, 4)), labels=np.zeros(0))
    cfg = ModelConfig(noise_var=1.0, prior_var=2.7)
    post = fit_posterior(design, cfg)
    assert evidence_decomposition(post, design, cfg).kl == pytest.approx(0.0, abs=1e-12)


def test_kl_one_point_frozen_value():
    post = fit_posterior(ONE_POINT, UNIT_CFG)
    assert evidence_decomposition(post, ONE_POINT, UNIT_CFG).kl == pytest.approx(
        0.22157359027997264, abs=1e-12)


def test_kl_matches_generic_gaussian_oracle():
    rng = np.random.default_rng(3)
    for _ in range(15):
        design, cfg = random_instance(rng, n=int(rng.integers(1, 30)))
        post = fit_posterior(design, cfg)
        cov_post = np.linalg.inv(precision(post))
        ref = kl_gaussians(post.mean, cov_post, np.zeros(post.d),
                           cfg.prior_var * np.eye(post.d))
        assert evidence_decomposition(post, design, cfg).kl == pytest.approx(
            ref, rel=1e-8, abs=1e-8)


def test_kl_strictly_positive_for_informative_fit():
    rng = np.random.default_rng(4)
    for _ in range(10):
        design, cfg = random_instance(rng, n=int(rng.integers(1, 50)))
        if np.abs(design.labels).max() == 0.0:
            continue
        post = fit_posterior(design, cfg)
        assert evidence_decomposition(post, design, cfg).kl > 0.0


def test_gibbs_nll_one_point_frozen_value():
    post = fit_posterior(ONE_POINT, UNIT_CFG)
    val = evidence_decomposition(post, ONE_POINT, UNIT_CFG).gibbs_emp_risk_total
    assert val == pytest.approx(1.2939385332046727, abs=1e-12)


def test_gibbs_nll_empty_sample():
    design = DesignMatrix(phi=np.zeros((0, 2)), labels=np.zeros(0))
    post = fit_posterior(design, UNIT_CFG)
    report = evidence_decomposition(post, design, UNIT_CFG)
    assert report.gibbs_emp_risk_total == pytest.approx(0.0, abs=1e-12)


def test_gibbs_nll_matches_monte_carlo():
    rng = np.random.default_rng(5)
    design, cfg = random_instance(rng, n=30, d=4)
    post = fit_posterior(design, cfg)
    closed = evidence_decomposition(post, design, cfg).gibbs_emp_risk_total
    weights = sample_posterior(post, 100_000, seed=123)
    resid = design.labels[None, :] - weights @ design.phi.T
    totals = 0.5 * design.n * math.log(2.0 * math.pi * cfg.noise_var) \
        + (resid ** 2).sum(axis=1) / (2.0 * cfg.noise_var)
    se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(closed - totals.mean()) < 4.0 * se


def test_evidence_identity_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(50):
        design, cfg = random_instance(rng)
        post = fit_posterior(design, cfg)
        report = evidence_decomposition(post, design, cfg)  # validates inline
        gap = abs(report.neg_log_evidence
                  - (report.gibbs_emp_risk_total + report.kl))
        assert gap <= 1e-8 * max(1.0, abs(report.neg_log_evidence))
        assert report.kl >= -1e-10


def covariance(post):
    """The posterior covariance A^{-1} = L^{-T} L^{-1}."""
    inv = np.linalg.inv(post.chol)
    return inv.T @ inv


def pac_bayes_objective(post, design, cfg):
    """n * E_post[NLL] + KL(post || prior), with the KL of two generic Gaussians."""
    risk = empirical_gibbs_risk(post, design, LossSpec.nll(cfg.noise_var))
    return design.n * risk + kl_gaussians(post.mean, covariance(post), np.zeros(post.d),
                                          cfg.prior_var * np.eye(post.d))


def test_bayes_posterior_minimizes_the_pac_bayes_objective():
    # F(q) = NLE + KL(q || rho*) for every Gaussian q, so the fitted posterior rho*
    # minimizes the objective F and its minimum is the negative log evidence
    rng = np.random.default_rng(18)
    for _ in range(300):
        design, cfg = random_instance(rng, n=int(rng.integers(1, 60)),
                                      d=int(rng.integers(1, 8)))
        best = fit_posterior(design, cfg)
        nle = evidence_decomposition(best, design, cfg).neg_log_evidence
        d = best.d
        scale = np.tril(0.3 * rng.standard_normal((d, d)), -1) + 1.0
        q = blr.GaussianPosterior(mean=best.mean + 0.3 * rng.standard_normal(d),
                                  chol=best.chol * scale)
        f_q = pac_bayes_objective(q, design, cfg)
        tol = 1e-12 * max(1.0, abs(f_q))
        gap = f_q - nle
        assert abs(gap - kl_gaussians(q.mean, covariance(q), best.mean, covariance(best))) <= tol
        assert gap >= -tol
        assert abs(pac_bayes_objective(best, design, cfg) - nle) <= 1e-12 * max(1.0, abs(nle))


def test_evidence_decomposition_empty():
    design = DesignMatrix(phi=np.zeros((0, 2)), labels=np.zeros(0))
    report = evidence_decomposition(fit_posterior(design, UNIT_CFG), design, UNIT_CFG)
    assert (report.neg_log_evidence, report.gibbs_emp_risk_total, report.kl) \
        == (pytest.approx(0.0), pytest.approx(0.0), pytest.approx(0.0))


def test_evidence_decomposition_one_point_sums():
    report = evidence_decomposition(fit_posterior(ONE_POINT, UNIT_CFG), ONE_POINT, UNIT_CFG)
    assert report.gibbs_emp_risk_total == pytest.approx(1.2939385332046727, abs=1e-12)
    assert report.kl == pytest.approx(0.22157359027997264, abs=1e-12)
    assert report.neg_log_evidence == pytest.approx(1.5155121234846454, abs=1e-12)


def test_evidence_report_rejects_violated_identity():
    # inf - inf and NaN make the gap NaN, which must fail the check, not pass it
    for numbers in ((1.0, 0.3, 0.3), (math.inf,) * 3, (math.nan,) * 3):
        with pytest.raises(ValueError):
            EvidenceReport(*numbers)


def test_evidence_report_reads_rounding_kl_as_zero():
    # fig-c at sigma_pi2 = 1e-15 gives a KL of about -1.1e-13 from rounding alone
    report = EvidenceReport(2.0, 2.0, -1.14e-13)
    assert report.kl == 0.0 and type(report.kl) is float
    assert EvidenceReport(2.0, 1.5, 0.5).kl == 0.5
    with pytest.raises(ValueError, match="KL must be non-negative, got -1e-09"):
        EvidenceReport(2.0, 2.0 + 1e-9, -1e-9)


def test_overflowing_evidence_fails_closed():
    # outside pytest the overflow is only a warning, and every term becomes inf
    design = DesignMatrix(phi=np.array([[1.0]]), labels=np.array([1e200]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="evidence identity"):
        evidence_decomposition(fit_posterior(design, UNIT_CFG), design, UNIT_CFG)


def test_log_density_ratio_matches_prior_times_likelihood():
    # log p(w1) - log p(w2) = [log prior - n empirical nll](w1) - same at w2,
    # where log p(w) = const - ||L'(w - mean)||^2 / 2 under the posterior
    rng = np.random.default_rng(7)
    design, cfg = random_instance(rng, n=25, d=3)
    post = fit_posterior(design, cfg)

    def unnormalized(w):
        log_prior = -0.5 * post.d * math.log(2.0 * math.pi * cfg.prior_var) \
            - float(w @ w) / (2.0 * cfg.prior_var)
        resid = design.labels - design.phi @ w
        total_nll = 0.5 * design.n * math.log(2.0 * math.pi * cfg.noise_var) \
            + float(resid @ resid) / (2.0 * cfg.noise_var)
        return log_prior - total_nll

    def log_density(w):
        z = post.chol.T @ (w - post.mean)
        return -0.5 * float(z @ z)

    for _ in range(10):
        w1 = rng.standard_normal(post.d)
        w2 = rng.standard_normal(post.d)
        lhs = log_density(w1) - log_density(w2)
        rhs = unnormalized(w1) - unnormalized(w2)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_precision_trace_never_decreases_with_data():
    rng = np.random.default_rng(8)
    cfg = ModelConfig(noise_var=0.7, prior_var=1.3)
    phi = rng.standard_normal((30, 3))
    labels = rng.standard_normal(30)
    prev = -np.inf
    for n in range(31):
        post = fit_posterior(DesignMatrix(phi=phi[:n], labels=labels[:n]), cfg)
        trace = float(np.trace(precision(post)))
        assert trace >= prev - 1e-12
        prev = trace


def test_posterior_rejects_nonfinite_labels():
    with pytest.raises(ValueError):
        DesignMatrix(phi=np.array([[1.0]]), labels=np.array([np.inf]))


def test_posterior_computes_its_trace_once(monkeypatch):
    calls = []
    for name in ("_inverse_factor", "_traces"):  # L^{-1}, then tr(A^{-1}) from its rows
        real = getattr(blr, name)
        monkeypatch.setattr(blr, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    design, cfg = random_instance(np.random.default_rng(3))
    post = fit_posterior(design, cfg)
    report = evidence_decomposition(post, design, cfg)
    assert evidence_decomposition(post, design, cfg).kl == report.kl
    post.predictive_var(design.phi)
    assert calls == ["_inverse_factor", "_traces"]


def test_inverse_factor_is_lower_triangular_block_by_block():
    # the degree-7 sine precision at seed 1: |L_i0| > L_00, where a pivoting
    # solve of L itself swaps rows and leaves nonzeros above the diagonal
    xs = gen_sine_task(SineTaskSpec(n=15, noise_var=0.25, seed=1)).raw_inputs
    phi = polynomial_features(xs, 7)
    low = np.linalg.cholesky(phi.T @ phi / 0.5 + np.eye(8) / 200.0)
    assert np.abs(low[1:, 0]).max() > low[0, 0]
    inv_l = blr._inverse_factor(low)
    assert np.count_nonzero(np.triu(inv_l, 1)) == 0
    for k in range(1, 9):  # each leading block is the inverse of L's leading block
        exact = lower_inverse_exact(low[:k, :k])
        assert np.abs(inv_l[:k, :k] - exact).max() <= 1e-13 * np.abs(exact).max(), k


def report_fields(report):
    return report.neg_log_evidence, report.gibbs_emp_risk_total, report.kl


@pytest.mark.parametrize("shape", [(30, 6), (4, 30, 6)], ids=["one", "stack"])
def test_width_family_matches_fitting_each_prefix(cholesky_calls, shape):
    rng = np.random.default_rng(13)
    design = DesignMatrix(phi=rng.standard_normal(shape), labels=rng.standard_normal(shape[:-1]))
    cfg = ModelConfig(noise_var=0.7, prior_var=1.9)
    widths = [6, 0, 1, 4, 6]
    fits = fit_posterior(design, cfg, widths)
    report = evidence_decomposition(fits, design, cfg)
    assert len(cholesky_calls) == 1
    logdets, traces = fits.logdet_precision, fits.cov_trace
    assert fits.mean.shape == (5,) + shape[:-2] + (6,)
    assert all(field.shape == (5,) + shape[:-2]
               for field in (logdets, traces, *report_fields(report)))
    # the whole design's fit and split, bit for bit
    post = fit_posterior(design, cfg)
    np.testing.assert_array_equal(fits.mean[-1], post.mean)
    np.testing.assert_array_equal(fits.chol, post.chol)
    np.testing.assert_array_equal(fits.inv_chol, post.inv_chol)
    for got, alone in zip(report_fields(report),
                          report_fields(evidence_decomposition(post, design, cfg))):
        np.testing.assert_array_equal(got[-1], alone)
    phi = rng.standard_normal(shape[:-2] + (9, 6))  # new inputs
    preds, variances = fits.predict(phi), fits.predictive_var(phi)
    assert preds.shape == variances.shape == (5,) + shape[:-2] + (9,)
    np.testing.assert_array_equal(preds[-1], post.predict(phi))
    np.testing.assert_array_equal(variances[-1], post.predictive_var(phi))
    # the risk on new data through the one empirical risk routine, every width at once
    test = DesignMatrix(phi=phi, labels=rng.standard_normal(shape[:-2] + (9,)))
    specs = (LossSpec.nll(cfg.noise_var), LossSpec.cropped(LossSpec.nll(cfg.noise_var), 1.0, 2.5))
    risks = [empirical_gibbs_risk(fits, test, spec) for spec in specs]
    assert all(risk.shape == (5,) + shape[:-2] for risk in risks)
    for risk, spec in zip(risks, specs):
        np.testing.assert_array_equal(risk[-1], empirical_gibbs_risk(post, test, spec))
    # width 0 is the zero predictor, not row -1 wrapped around to the full model
    zero_nll = (0.5 * shape[-2] * math.log(2.0 * math.pi * cfg.noise_var)
                + np.sum(design.labels ** 2, axis=-1) / (2.0 * cfg.noise_var))
    assert np.all(fits.mean[1] == 0.0)
    assert np.all(logdets[1] == 0.0) and np.all(traces[1] == 0.0)
    assert np.all(preds[1] == 0.0) and np.all(variances[1] == 0.0)
    for got, want in zip(report_fields(report), (zero_nll, zero_nll, 0.0)):
        np.testing.assert_array_equal(got[1], want)
    for risk, spec in zip(risks, specs):  # the loss of the label itself, at zero variance
        zero_risk = np.mean(expected_loss(spec, test.labels, 0.0), axis=-1)
        np.testing.assert_array_equal(risk[1], zero_risk)
    for j, k in enumerate(widths):
        if k == 0:
            continue
        prefix = DesignMatrix(design.phi[..., :k], design.labels)
        alone = fit_posterior(prefix, cfg)
        np.testing.assert_allclose(fits.mean[j, ..., :k], alone.mean, rtol=1e-12, atol=1e-15)
        assert np.all(fits.mean[j, ..., k:] == 0.0)
        np.testing.assert_allclose(logdets[j], alone.logdet_precision, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traces[j], alone.cov_trace, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(variances[j], alone.predictive_var(phi[..., :k]),
                                   rtol=1e-12, atol=0.0)
        for got, want in zip(report_fields(report),
                             report_fields(evidence_decomposition(alone, prefix, cfg))):
            np.testing.assert_allclose(got[j], want, rtol=1e-12, atol=0.0)
        test_prefix = DesignMatrix(phi[..., :k], test.labels)
        for risk, spec in zip(risks, specs):
            np.testing.assert_allclose(risk[j], empirical_gibbs_risk(alone, test_prefix, spec),
                                       rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match=r"column widths \[2, 7\] are not within 0..6"):
        fit_posterior(design, cfg, [2, 7])
    # int() would read 4.5 as width 4; a numpy integer is a width
    with pytest.raises(ValueError, match="column width 4.5 is not an integer"):
        fit_posterior(design, cfg, [2, 4.5])
    # an empty family would fit, then fail in predictive_var with numpy's bare stacking error
    with pytest.raises(ValueError, match=r"column widths \[\] are empty"):
        fit_posterior(design, cfg, [])
    assert fit_posterior(design, cfg, [np.int64(2), 6]).widths == (2, 6)


def test_a_width_has_the_same_bits_whatever_the_other_widths():
    rng = np.random.default_rng(14)
    design = DesignMatrix(phi=rng.standard_normal((30, 6)), labels=rng.standard_normal(30))
    cfg = ModelConfig(noise_var=0.7, prior_var=1.9)
    phi = rng.standard_normal((9, 6))
    alone = fit_posterior(design, cfg, [4])
    among = fit_posterior(design, cfg, [6, 4, 0, 4])
    for j in (1, 3):
        np.testing.assert_array_equal(among.mean[j], alone.mean[0])
        np.testing.assert_array_equal(among.predict(phi)[j], alone.predict(phi)[0])
        np.testing.assert_array_equal(among.predictive_var(phi)[j], alone.predictive_var(phi)[0])
        for got, want in zip(report_fields(evidence_decomposition(among, design, cfg)),
                             report_fields(evidence_decomposition(alone, design, cfg))):
            np.testing.assert_array_equal(got[j], want[0])


def test_evidence_decomposition_rejects_mismatched_posterior():
    post = fit_posterior(ONE_POINT, UNIT_CFG)
    design = DesignMatrix(phi=np.ones((1, 2)), labels=np.ones(1))
    with pytest.raises(ValueError, match="weights"):
        evidence_decomposition(post, design, UNIT_CFG)


def test_predictive_var_matches_explicit_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        design, cfg = random_instance(rng)
        post = fit_posterior(design, cfg)
        phi = rng.standard_normal((int(rng.integers(1, 40)), post.d))
        ref = np.einsum("ij,jk,ik->i", phi, np.linalg.inv(precision(post)), phi)
        assert np.allclose(post.predictive_var(phi), ref, rtol=1e-10, atol=0.0)


def test_stacked_evidence_matches_per_fit_path():
    rng = np.random.default_rng(12)
    for n, d in ((0, 2), (1, 1), (7, 3), (40, 6)):
        cfg = ModelConfig(noise_var=float(rng.uniform(0.2, 3.0)),
                          prior_var=float(rng.uniform(0.2, 5.0)))
        phi = rng.standard_normal((5, n, d))
        labels = rng.standard_normal((5, n))
        stacked = split(DesignMatrix(phi=phi, labels=labels), cfg).neg_log_evidence
        assert stacked.shape == (5,)
        per_fit = [split(DesignMatrix(phi=p, labels=y), cfg).neg_log_evidence
                   for p, y in zip(phi, labels)]
        np.testing.assert_array_equal(stacked, per_fit)  # one fit routine, one split


@pytest.mark.parametrize("phi, labels, cfg, message", [
    (np.ones((2, 3, 2)), np.ones((2, 2)), UNIT_CFG, "does not match labels"),
    (np.full((2, 3, 2), np.inf), np.ones((2, 3)), UNIT_CFG,
     "design matrix contains non-finite entries"),
    (np.ones((2, 3, 2)), np.full((2, 3), np.nan), UNIT_CFG,
     "labels contain non-finite entries"),
    (np.ones((2, 3, 2)), np.ones((2, 3)), ModelConfig(noise_var=1e-310, prior_var=1.0),
     "posterior precision is not finite at noise_var = 1e-310, prior_var = 1.0"),
    (polynomial_features(np.linspace(0.1, 2 * np.pi, 30).reshape(2, 15), 40),
     np.zeros((2, 15)), ModelConfig(noise_var=0.5, prior_var=200.0),
     "posterior precision is not positive definite at d = 41, "
     "noise_var = 0.5, prior_var = 200.0"),
    (np.array([[[1.0]], [[1.0]]]), np.array([[1.0], [1e200]]), UNIT_CFG,
     "evidence identity violated"),
], ids=["shape", "design", "labels", "precision-inf", "indefinite", "identity"])
def test_stacked_evidence_fails_closed(phi, labels, cfg, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        split(DesignMatrix(phi=phi, labels=labels), cfg)
    if phi.ndim == 3 and labels.shape == phi.shape[:2]:  # the per-fit path says the same
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            for p, y in zip(phi, labels):
                split(DesignMatrix(phi=p, labels=y), cfg).neg_log_evidence
