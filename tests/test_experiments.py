import math
import re

import numpy as np
import pytest

from pblr import blr, experiments as exp, losses, mc
from pblr.blr import GaussianPosterior, fit_posterior
from pblr.losses import LossSpec, empirical_gibbs_risk
from pblr.mc import sample_bounds
from pblr.subgamma import dominated, nll_subgamma_params
from pblr.tasks import DesignMatrix

from oracles import subgamma_bound


def test_fig_a_row_count_and_grid():
    dataset, _, grid, preds = exp.run_fig_a(seed=0, degrees=(1, 2, 3), grid_size=50)
    assert dataset.n == exp.SINE_N
    assert preds.shape == (3, 50)
    xs = sorted(grid.tolist())
    assert xs[0] == 0.0 and xs[-1] == pytest.approx(2 * math.pi)


def test_fig_a_rejects_degree_zero():
    with pytest.raises(ValueError):
        exp.run_fig_a(degrees=(0, 1, 2))


def test_sine_studies_reject_non_integral_degrees():
    # int() would fit degree 2 and report it as "2", and read 1.9 as degree 1
    with pytest.raises(ValueError, match="polynomial degrees must be integers, got 2.5"):
        exp.run_fig_b(degrees=[2.5])
    with pytest.raises(ValueError, match="polynomial degrees must be integers, got 1.9"):
        exp.selected_degrees(3, degrees=[1.9, 3])
    with pytest.raises(ValueError, match="polynomial degrees must be integers, got inf"):
        exp.run_fig_a(degrees=[math.inf])  # not int()'s OverflowError
    assert exp.selected_degrees(3, degrees=[np.int64(1), 3]).tolist() == [1, 1, 1]


def test_fig_a_dense_noiseless_interpolates_sine(monkeypatch):
    # degree-7 fit on dense nearly noiseless data approximates sin closely
    monkeypatch.setattr(exp, "SINE_NOISE_VAR", 1e-12)
    _, _, grid, preds = exp.run_fig_a(seed=0, n=500, degrees=(7,), grid_size=100)
    errs = [abs(pred - math.sin(x)) for x, pred in zip(grid.tolist(), preds[0].tolist())]
    assert max(errs) < 0.1


def test_fig_b_identity_and_kl_growth_default_seed():
    rows = exp.run_fig_b()
    assert [r[0] for r in rows] == list(exp.DEFAULT_DEGREES)
    for _, nle, gibbs, kl, test_risk in rows:
        assert abs(nle - (gibbs + kl)) <= 1e-8 * max(1.0, abs(nle))
        assert math.isfinite(test_risk)
    kls = [r[3] for r in rows]
    assert all(a < b for a, b in zip(kls, kls[1:]))


def test_fig_c_small_grid_structure():
    rows, meta = exp.run_fig_c(seed=1, n_grid=(10, 100))
    assert meta["c"] == 0.005
    assert 0.2795 <= meta["s2"] <= 0.2810
    for row in rows:
        n, emp, gen, sg, cat, al_sqrt, al_n = row
        assert sg < cat
        assert sg < al_sqrt
        assert 5.3 <= al_n <= 6.9
        assert abs(emp - gen) < 0.5


@pytest.mark.parametrize("sigma2, crop", [
    (10.0, (2.0702310797116956, 2.0702310797117955)),
    (2.0, (1.2655121234746454, 1.2655121234846454)),
], ids=["sigma2-10-width-1e-13", "sigma2-2-width-1e-11"])
def test_fig_c_narrow_crop_around_c0_is_accepted(sigma2, crop):
    # c0 = 0.5 ln(2 pi sigma2) lies in the crop; rounding used to put the
    # cropped empirical risk just outside it, and catoni_bound refused it
    rows, meta = exp.run_fig_c(seed=1, n_grid=(10, 1000), sigma2=sigma2, crop_interval=crop)
    assert (meta["crop_a"], meta["crop_b"]) == crop
    assert all(math.isfinite(value) for row in rows for value in row)


def test_fig_c_catoni_column_stops_at_the_crop_top():
    # at n = 10 the Catoni formula gives 0.2672 for a loss in [1e-300, 2e-300]
    rows, _ = exp.run_fig_c(seed=1, n_grid=(10,), crop_interval=(1e-300, 2e-300))
    assert rows[0][exp.FIG_C_COLUMNS.index("bound_catoni_cropped")] == 2e-300


def test_fig_c_bound_columns_are_sample_bounds():
    rows, _ = exp.run_fig_c(seed=1, n_grid=(10, 100))
    task, model, cropped = exp._linear_setup(1, exp.LINREG_D, exp.LINREG_SIGMA2,
                                             exp.LINREG_SIGMA_PI2, exp.DEFAULT_CROP)
    columns = {"bound_subgamma": "subgamma", "bound_catoni_cropped": "catoni",
               "bound_alquier_sqrtn_cropped": "alquier_sqrtn",
               "bound_alquier_n_cropped": "alquier_n"}
    assert [c for c in exp.FIG_C_COLUMNS if c.startswith("bound_")] == list(columns)
    for row in rows:
        n = row[0]
        _, report, bounds = sample_bounds(task, model, n, cropped, exp.DEFAULT_DELTA,
                                          [task.seed])  # fig-c's stack of one
        assert bounds.shape == (4, 1) and mc.FAMILIES == tuple(columns.values())
        for j, column in enumerate(columns):
            assert row[exp.FIG_C_COLUMNS.index(column)] == bounds[j, 0], column
        # the evidence form equals the direct form emp + (kl + ln(1/delta))/n + gap
        params = nll_subgamma_params(model.noise_var, task.input_var, model.prior_var,
                                     task.d, task.w_star_sq_norm, task.noise_var)
        direct = subgamma_bound(report.gibbs_emp_risk_total[0] / n, report.kl[0], n,
                                exp.DEFAULT_DELTA, params.s2, params.c)
        assert bounds[0, 0] == pytest.approx(direct, rel=1e-12)


def test_fig_c_deterministic():
    a, _ = exp.run_fig_c(seed=2, n_grid=(10,))
    b, _ = exp.run_fig_c(seed=2, n_grid=(10,))
    assert a == b


def test_write_csv_metadata_and_values(tmp_path):
    path = tmp_path / "table.csv"
    exp.write_csv(path, ("a", "b"), [(1, 0.5), (2, 0.25)], {"seed": 7})
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("# tool_version = ")
    assert lines[1] == "# seed = 7"
    assert lines[2] == "a,b"
    assert lines[3] == "1,0.5"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_csv_rejects_nonfinite_before_opening(tmp_path, bad):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="b = "):
        exp.write_csv(path, ("a", "b"), [(1, 0.5), (2, bad)], {"seed": 7})
    assert not path.exists()


def test_write_csv_keeps_signed_zeros_and_repeats(tmp_path):
    # float cells, np.float64 ones included, keep the sign of zero and format alike on repeats
    path = tmp_path / "table.csv"
    values = [0.0, -0.0, 0.1, 0.0, np.float64(0.1), -0.0, 1e-300, np.float64(-0.0), 0.1]
    exp.write_csv(path, ("i", "v"), list(enumerate(values)), {})
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[1:] == ["i,v", "0,0.0", "1,-0.0", "2,0.1", "3,0.0", "4,0.1", "5,-0.0",
                         "6,1e-300", "7,-0.0", "8,0.1"]


@pytest.mark.parametrize("bad", [math.nan, np.float64(math.nan), math.inf, -math.inf])
def test_write_csv_rejects_nonfinite_after_repeated_values(tmp_path, bad):
    path = tmp_path / "table.csv"
    rows = [(0.5, 0.0), (0.5, -0.0), (0.5, bad), (0.5, bad)]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: b = {bad!r} is not finite')}$"):
        exp.write_csv(path, ("a", "b"), rows, {"seed": 7})
    assert not path.exists()


def test_write_csv_names_the_first_nonfinite_cell_in_row_order(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(0.5, 0.0), (0.5, math.inf), (math.nan, 1.0), (0.5, -math.inf)]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: b = inf is not finite')}$"):
        exp.write_csv(path, ("a", "b"), rows, {"seed": 7})
    assert not path.exists()


def test_run_validate_quick():
    coverage, mgf, ok = exp.run_validate(seed=0, trials=2, mgf_m=10_000)
    assert ok
    assert {f["family"] for f in coverage["families"]} == \
        {"subgamma", "catoni", "alquier_sqrtn"}
    assert all(f["violations"] == 0 for f in coverage["families"])
    assert all(map(dominated, mgf))


@pytest.mark.parametrize("degrees, test_size", [
    ((3, 1), 1000), (tuple(range(1, 8)), 1000), (tuple(range(1, 8)), 10_000),
], ids=["3-1", "1-7", "1-7-blocked"])
def test_fig_b_test_risk_matches_a_fit_per_degree(monkeypatch, degrees, test_size):
    calls, real = [], losses.expected_loss

    def counting(loss, resid, var):
        calls.append(resid.shape)
        return real(loss, resid, var)
    monkeypatch.setattr(losses, "expected_loss", counting)
    rows = exp.run_fig_b(degrees=degrees, test_size=test_size)
    # every degree's test risk from one expected_loss call per block of test points,
    # each block within the budget: 2,194 points of 7 degrees' 8 weights at 10,000
    widths = len(degrees) * (max(degrees) + 1)
    assert len(calls) == len(blr.stack_blocks(test_size, widths))
    assert len(calls) == (1 if test_size == 1000 else 5)
    assert all(shape[0] == len(degrees) and math.prod(shape) * (max(degrees) + 1)
               <= blr.STACK_BUDGET for shape in calls)
    train = exp.gen_sine_task(exp.SineTaskSpec(n=exp.SINE_N, noise_var=exp.SINE_NOISE_VAR,
                                               seed=exp.DEFAULT_SEED))
    test = exp.gen_sine_task(exp.SineTaskSpec(
        n=test_size, noise_var=exp.SINE_NOISE_VAR,
        seed=exp.rng.derive_seed(exp.DEFAULT_SEED, exp.rng.TEST_SET_TAG)))
    _, fits, _ = exp._polynomial_fits(train.raw_inputs, train.labels, exp.SINE_SIGMA2,
                                      exp.SINE_SIGMA_PI2, degrees)
    test_phi = exp.polynomial_features(test.raw_inputs, max(degrees))
    assert [row[0] for row in rows] == list(degrees)
    for j, (degree, *_, test_risk) in enumerate(rows):
        k = degree + 1  # the degree's posterior as the leading blocks of the one fit
        post = GaussianPosterior(mean=fits.mean[j, :k], chol=fits.chol[:k, :k],
                                 inv_chol=fits.inv_chol[:k, :k])
        alone = empirical_gibbs_risk(post, DesignMatrix(test_phi[:, :k], test.labels),
                                     LossSpec.nll(exp.SINE_SIGMA2))
        assert test_risk == pytest.approx(alone, rel=1e-14, abs=0.0), degree


def test_fig_b_factors_each_degree_once(cholesky_calls):
    exp.run_fig_b(degrees=tuple(range(1, 8)))
    # one factorization of the degree-7 design; degrees 1-6 are its leading blocks
    assert cholesky_calls == [()]


@pytest.mark.parametrize("run_sine", [
    lambda degrees: exp.run_fig_a(degrees=degrees, grid_size=10),
    lambda degrees: exp.run_fig_b(degrees=degrees, test_size=10),
    lambda degrees: exp.polynomial_family(degrees=degrees),
], ids=["run_fig_a", "run_fig_b", "polynomial_family"])
def test_sine_study_fits_each_degree_once(cholesky_calls, run_sine):
    run_sine((1, 2, 3))
    assert cholesky_calls == [()]  # one fit at degree 3 serves degrees 1 and 2


@pytest.mark.parametrize("run_sine, sizes", [
    (lambda: exp.run_fig_a(degrees=(2, 5, 3), grid_size=10), [(15,), (10,)]),
    (lambda: exp.run_fig_b(degrees=(2, 5, 3), test_size=10), [(15,), (10,)]),
    (lambda: exp.selected_degrees(seeds=4, degrees=(2, 5, 3)), [(4, 15)]),
], ids=["run_fig_a", "run_fig_b", "selected_degrees"])
def test_sine_study_builds_each_power_once(monkeypatch, run_sine, sizes):
    # the powers of each input array at the top degree; lower degrees are column prefixes
    calls, features = [], exp.polynomial_features

    def counting(xs, degree):
        calls.append((np.shape(xs), degree))
        return features(xs, degree)
    monkeypatch.setattr(exp, "polynomial_features", counting)
    run_sine()
    assert calls == [(size, 5) for size in sizes]


def test_fig_c_factors_each_sample_size_once(cholesky_calls):
    exp.run_fig_c(n_grid=(10, 100, 1000))
    assert len(cholesky_calls) == 3


def stacked_evidences(seeds, sigma2=exp.SINE_SIGMA2, degrees=exp.DEFAULT_DEGREES):
    """(len(seeds), len(degrees)) negative log evidences from one stacked `_polynomial_fits`."""
    samples = [exp.gen_sine_task(exp.SineTaskSpec(n=exp.SINE_N, noise_var=exp.SINE_NOISE_VAR,
                                                  seed=seed)) for seed in seeds]
    _, _, report = exp._polynomial_fits(np.stack([sample.raw_inputs for sample in samples]),
                                        np.stack([sample.labels for sample in samples]),
                                        sigma2, exp.SINE_SIGMA_PI2, degrees)
    return report.neg_log_evidence.T  # the degree axis leads


def test_seed_scan_evidence_matches_per_seed_fits():
    stacked = stacked_evidences(range(200))
    per_seed = np.array([[report.neg_log_evidence for _, report in
                          exp.polynomial_family(seed=seed)] for seed in range(200)])
    # both paths run blr's one fit routine and one split, so the bits agree
    np.testing.assert_array_equal(stacked, per_seed)


def _per_seed_winners(seeds):
    winners = []
    for seed in seeds:
        nles = [report.neg_log_evidence for _, report in exp.polynomial_family(seed=seed)]
        winners.append(exp.DEFAULT_DEGREES[nles.index(min(nles))])
    return winners


def test_seed_scan_blocks_keep_the_per_seed_winners(monkeypatch):
    # 16 seeds per block at the defaults: 100 seeds cross six block boundaries
    monkeypatch.setattr(blr, "STACK_BUDGET", 16 * exp.SINE_N * 8)
    assert exp.selected_degrees(seed=30, seeds=100).tolist() == _per_seed_winners(range(30, 130))


def test_seed_scan_raises_a_stacked_failure_that_no_seed_makes(monkeypatch):
    # a failed block gives no winners, even if every per-seed fit of it passes
    def refuse_stacks(design, cfg, widths):
        if design.phi.ndim == 3:
            raise ValueError("stacked fit refused")
        return fit_posterior(design, cfg, widths)
    monkeypatch.setattr(blr, "STACK_BUDGET", 16 * exp.SINE_N * 8)
    monkeypatch.setattr(exp, "fit_posterior", refuse_stacks)
    with pytest.raises(ValueError, match="stacked fit refused"):
        exp.selected_degrees(seed=30, seeds=20)


@pytest.mark.parametrize("kwargs", [
    {"degrees": (40,)}, {"degrees": (7, 12, 14)}, {"degrees": (400,)}, {"sigma2": 1e-300},
], ids=["degree-40", "degrees-7-12-14", "degree-400", "sigma2-1e-300"])
def test_stacked_fits_fail_as_the_per_seed_path(kwargs):
    with pytest.raises(ValueError) as per_seed:
        for seed in (1, 2, 3):
            exp.polynomial_family(seed=seed, **kwargs)
    with pytest.raises(ValueError) as stacked:
        stacked_evidences((1, 2, 3), **kwargs)
    assert str(stacked.value) == str(per_seed.value)


def test_seed_scan_uses_no_per_seed_fit(cholesky_calls):
    assert len(exp.selected_degrees(seed=0, seeds=50)) == 50
    # one fit of all 50 seeds for every degree, and none of a single design
    assert cholesky_calls == [(50,)]
    with pytest.raises(ValueError, match="seeds must be at least 1, got 0"):
        exp.selected_degrees(seeds=0)


@pytest.mark.parametrize("seeds, n, blocks", [
    (1030, exp.SINE_N, [1024, 6]), (40, 1_000, [15, 15, 10]), (4, 50_000, [1, 1, 1, 1]),
], ids=["defaults", "budget-sized-blocks", "one-seed-per-block"])
def test_seed_scan_stacks_at_most_the_budget(cholesky_calls, seeds, n, blocks):
    # a stacked fit of S seeds holds S * n * 8 design entries at degree 7
    exp.selected_degrees(seeds=seeds, n=n)
    assert cholesky_calls == [(size,) for size in blocks]  # one fit per block
    assert all(size == 1 or size * n * 8 <= blr.STACK_BUDGET for size in blocks)
