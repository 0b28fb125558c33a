import math

import pytest

from pblr import experiments as exp


def test_fig_a_row_count_and_grid():
    dataset, rows = exp.run_fig_a(seed=0, degrees=(1, 2, 3), grid_size=50)
    assert dataset.n == exp.SINE_N
    assert len(rows) == 3 * 50
    xs = sorted({r[1] for r in rows})
    assert xs[0] == 0.0 and xs[-1] == pytest.approx(2 * math.pi)


def test_fig_a_rejects_degree_zero():
    with pytest.raises(ValueError):
        exp.run_fig_a(degrees=(0, 1, 2))


def test_fig_a_dense_noiseless_interpolates_sine():
    # degree-7 fit on dense nearly noiseless data approximates sin closely
    _, rows = exp.run_fig_a(seed=0, n=500, noise_var=1e-12, degrees=(7,),
                            grid_size=100)
    errs = [abs(pred - math.sin(x)) for _, x, pred in rows]
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


def test_run_validate_quick():
    coverage, mgf, ok = exp.run_validate(seed=0, trials=2, mgf_m=10_000)
    assert ok
    assert {f.family for f in coverage.families} == \
        {"subgamma", "catoni", "alquier_sqrtn"}
    assert all(f.violations == 0 for f in coverage.families)
    assert mgf.all_dominated()


def test_fig_b_factors_each_degree_once(cholesky_calls):
    exp.run_fig_b(degrees=tuple(range(1, 8)))
    assert len(cholesky_calls) == 7


def test_fig_c_factors_each_sample_size_once(cholesky_calls):
    exp.run_fig_c(n_grid=(10, 100, 1000))
    assert len(cholesky_calls) == 3
