import numpy as np
import pytest

from oracles import bootstrap_log_mgf_se, squared_log_mgf_quadrature
from pblr import __version__, rng
from pblr.cli import main
from pblr.experiments import run_validate
from pblr.losses import LossSpec
from pblr.subgamma import (SubGammaParams, _deviation_samples, empirical_mgf_check,
                           nll_subgamma_params, squared_loss_subgamma_params,
                           subgamma_envelope)
from pblr.tasks import LinearTaskSpec

SMALL_TASK = LinearTaskSpec(w_star=np.array([0.3, -0.2]), input_var=0.5,
                            noise_var=0.05, seed=0)
SMALL_PRIOR_VAR = 0.1


def test_squared_params_direct_substitution():
    p = squared_loss_subgamma_params(1.0, 0.01, 20, 0.25, 1.0 / 9.0)
    assert p.c == pytest.approx(0.02, abs=1e-15)
    assert p.s2 == pytest.approx(1.1177777777777778, abs=1e-12)


def test_squared_params_noiseless_zero_target():
    for d, lam in [(1, 1.0), (7, 0.5), (30, 2.0)]:
        p = squared_loss_subgamma_params(0.4, 0.3, d, 0.0, 1e-300, lam=lam)
        assert p.s2 == pytest.approx(2.0 * 0.4 * 0.3 * d / lam, rel=1e-9)


def test_squared_params_scale_linear_in_prior_var():
    base = squared_loss_subgamma_params(0.7, 0.2, 3, 0.1, 0.05)
    doubled = squared_loss_subgamma_params(0.7, 0.4, 3, 0.1, 0.05)
    assert doubled.c == pytest.approx(2.0 * base.c, rel=1e-14)


def test_nll_params_reproduce_reported_constants():
    p = nll_subgamma_params(2.0, 1.0, 0.01, 20, 0.25, 1.0 / 9.0)
    assert p.c == 0.005
    assert 0.2795 <= p.s2 <= 0.2810
    gap = p.s2 / (2.0 * (1.0 - p.c))
    assert 0.1404 <= gap <= 0.1412


def test_nll_params_are_rescaled_squared_params():
    # c_nll = c_sqr / (2 sigma2); s2_nll equals the squared-loss formula
    # evaluated with c_nll inside, divided by 2 sigma2
    rng = np.random.default_rng(0)
    for _ in range(30):
        sigma2 = float(rng.uniform(0.3, 4.0))
        input_var = float(rng.uniform(0.05, 2.0))
        prior_var = float(rng.uniform(0.01, 1.0))
        d = int(rng.integers(1, 40))
        wsq = float(rng.uniform(0.0, 2.0))
        noise = float(rng.uniform(0.01, 1.0))
        c_nll = input_var * prior_var / sigma2
        lam = float(rng.uniform(0.05, min(4.0, 0.9 / c_nll)))
        nll = nll_subgamma_params(sigma2, input_var, prior_var, d, wsq, noise,
                                  lam=lam)
        # c does not depend on lambda; evaluate the squared family in range
        c_sqr = 2.0 * input_var * prior_var
        sqr = squared_loss_subgamma_params(input_var, prior_var, d, wsq,
                                           noise, lam=0.5 / c_sqr)
        assert nll.c == pytest.approx(sqr.c / (2.0 * sigma2), rel=1e-14)
        rescaled = (2.0 / lam) * (input_var * (prior_var * d + wsq)
                                  + noise * (1.0 - lam * nll.c)) / (2.0 * sigma2)
        assert nll.s2 == pytest.approx(rescaled, rel=1e-14)


def test_params_flatten_as_noise_model_widens():
    p = nll_subgamma_params(1e9, 1.0, 0.01, 5, 0.25, 0.1)
    assert p.c < 1e-10
    assert p.s2 < 1e-8


def test_lambda_outside_subgamma_range_rejected():
    with pytest.raises(ValueError):
        squared_loss_subgamma_params(1.0, 1.0, 2, 0.0, 0.1, lam=0.5)  # 1/c = 0.5
    with pytest.raises(ValueError):
        nll_subgamma_params(1.0, 2.0, 1.0, 2, 0.0, 0.1, lam=0.5)  # 1/c = 0.5
    with pytest.raises(ValueError):
        subgamma_envelope(10.0, 1.0, 0.1)


def test_envelope_subgaussian_special_case():
    for lam in (0.2, 1.0, 3.0):
        assert subgamma_envelope(lam, 0.42, 0.0) == pytest.approx(
            lam * lam * 0.42 / 2.0, rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        SubGammaParams(s2=-0.1, c=0.0)
    with pytest.raises(ValueError):
        squared_loss_subgamma_params(1.0, 1.0, 0, 0.0, 0.1)


def small_variance_params():
    return squared_loss_subgamma_params(SMALL_TASK.input_var, SMALL_PRIOR_VAR,
                                        SMALL_TASK.d, SMALL_TASK.w_star_sq_norm,
                                        SMALL_TASK.noise_var)


def test_mgf_mean_zero_deviation_at_small_lambda():
    params = small_variance_params()
    report = empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                                 params, [0.01], 50_000, seed=3)
    row = report.rows[0]
    # psi(lambda)/lambda -> E[V] = 0; psi_hat itself is O(lambda^2)
    assert abs(row.psi_hat) <= 4.0 * row.band + 1e-3 * row.lam


def test_mgf_envelope_dominates_on_default_grid():
    params = small_variance_params()
    report = empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                                 params, [0.25, 0.5, 1.0], 100_000, seed=4)
    assert report.all_dominated()
    for row in report.rows:
        assert row.psi_hat <= row.envelope + 3.0 * row.band


def test_mgf_nll_uses_affine_map():
    # identical draws: nll deviations are squared deviations / (2 sigma2),
    # so psi_nll(lambda) = psi_sq(lambda / (2 sigma2))
    params = small_variance_params()
    sigma2 = 2.0
    lam_nll = 0.25
    sq = empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                             params, [lam_nll / (2.0 * sigma2)], 20_000, seed=5)
    nll_params = SubGammaParams(s2=params.s2 / (2.0 * sigma2) ** 2,
                                c=params.c / (2.0 * sigma2))
    nl = empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.nll(sigma2),
                             nll_params, [lam_nll], 20_000, seed=5)
    assert nl.rows[0].psi_hat == pytest.approx(sq.rows[0].psi_hat, rel=1e-10)


def test_mgf_grid_validation():
    params = small_variance_params()
    with pytest.raises(ValueError):
        empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                            params, [1.0], 100, seed=0)  # m too small
    inv_c = 1.0 / params.c
    with pytest.raises(ValueError):
        empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                            params, [inv_c * 1.01], 20_000, seed=0)
    # inside (0, 1/c) but E exp(2 lambda V) is infinite: no finite band
    lam = 0.75 * inv_c
    with pytest.raises(ValueError, match=f"lambda {lam} .* 1/\\(2c\\) = {0.5 * inv_c}"):
        empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                            params, [0.25, lam], 20_000, seed=0)


MGF_CHECK_LAMBDAS = (0.25, 0.5, 1.0)
MGF_CHECK_SEEDS = range(5)
MGF_CHECK_M = 20_000


def mgf_check_reports():
    params = small_variance_params()
    for seed in MGF_CHECK_SEEDS:
        yield seed, empirical_mgf_check(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                                        params, MGF_CHECK_LAMBDAS, MGF_CHECK_M, seed)


def test_mgf_band_matches_bootstrap_on_same_draws():
    for seed, report in mgf_check_reports():
        v = _deviation_samples(SMALL_TASK, SMALL_PRIOR_VAR, LossSpec.squared(),
                               MGF_CHECK_M, rng.stream(seed, rng.MGF_TAG))
        boot = bootstrap_log_mgf_se(v, MGF_CHECK_LAMBDAS, reps=400, seed=seed)
        for row, se in zip(report.rows, boot):
            assert abs(row.band / se - 1.0) <= 0.2, (seed, row.lam, row.band, se)


def test_mgf_psi_hat_within_four_bands_of_quadrature():
    exact = [squared_log_mgf_quadrature(lam, SMALL_TASK.w_star, SMALL_TASK.input_var,
                                        SMALL_TASK.noise_var, SMALL_PRIOR_VAR)
             for lam in MGF_CHECK_LAMBDAS]
    for seed, report in mgf_check_reports():
        for row, psi in zip(report.rows, exact):
            assert row.band > 0
            assert abs(row.psi_hat - psi) <= 4.0 * row.band, (seed, row.lam)


def test_mgf_report_csv(tmp_path):
    # mgf.csv as `pblr validate` writes it, against the report it was written from
    main(["validate", "--seed", "6", "--trials", "1", "--mgf-m", "10000",
          "--out", str(tmp_path)])
    _, report, _ = run_validate(seed=6, trials=1, mgf_m=10_000)
    lines = (tmp_path / "mgf.csv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[:4] == [f"# tool_version = {__version__}", "# seed = 6",
                         "# m = 10000", "# loss = squared"]
    assert lines[4] == "lambda,psi_hat,envelope,band"
    assert len(lines) == 5 + len(report.rows)
    for line, row in zip(lines[5:], report.rows):
        assert tuple(float(v) for v in line.split(",")) == \
            (row.lam, row.psi_hat, row.envelope, row.band)
