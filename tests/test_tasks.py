import dataclasses

import numpy as np
import pytest

from pblr import __version__, rng, tasks
from pblr.cli import main
from pblr.tasks import (DesignMatrix, LinearTaskSpec, SineTaskSpec, gen_linear_stack,
                        gen_linear_task, gen_sine_stack, gen_sine_task)

from oracles import linear_sample_one_seed, sine_sample_one_seed


def polynomial_features(x, degree):
    """The design-matrix row of a single scalar input."""
    return DesignMatrix(tasks.polynomial_features([x], degree), [0.0]).phi[0]


def test_polynomial_features_powers_of_two():
    assert polynomial_features(2.0, 3).tolist() == [1.0, 2.0, 4.0, 8.0]


def test_polynomial_features_zero_input():
    assert polynomial_features(0.0, 4).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_polynomial_features_direct():
    assert polynomial_features(1.5, 2).tolist() == [1.0, 1.5, 2.25]


def test_polynomial_features_rejects_negative_degree():
    with pytest.raises(ValueError, match="degree"):
        polynomial_features(1.0, -1)


def test_polynomial_overflow_is_caught_by_design_matrix():
    with pytest.raises(ValueError, match="non-finite"):
        polynomial_features(1e300, 3)


def test_design_matrix_shape_mismatch():
    with pytest.raises(ValueError):
        DesignMatrix(phi=np.ones((3, 2)), labels=np.ones(2))


def test_sine_task_shapes_and_range():
    spec = SineTaskSpec(n=15, noise_var=0.25, seed=3)
    ds = gen_sine_task(spec)
    assert len(ds.labels) == 15
    assert ds.raw_inputs.min() >= 0.0 and ds.raw_inputs.max() <= 2 * np.pi
    # 6 sigma envelope around the sine curve
    assert np.abs(ds.labels - np.sin(ds.raw_inputs)).max() <= 6 * 0.5


def test_sine_task_empty():
    ds = gen_sine_task(SineTaskSpec(n=0, noise_var=0.25, seed=0))
    assert len(ds.labels) == 0


def test_sine_task_noiseless_limit():
    ds = gen_sine_task(SineTaskSpec(n=5, noise_var=1e-30, seed=1))
    assert np.abs(ds.labels - np.sin(ds.raw_inputs)).max() < 1e-12


def test_determinism_bit_identical():
    spec = SineTaskSpec(n=50, noise_var=0.25, seed=11)
    a, b = gen_sine_task(spec), gen_sine_task(spec)
    assert np.array_equal(a.raw_inputs, b.raw_inputs)
    assert np.array_equal(a.labels, b.labels)
    lin = LinearTaskSpec(w_star=np.array([1.0, -2.0]), seed=11)
    c, d = gen_linear_task(lin, 40), gen_linear_task(lin, 40)
    assert np.array_equal(c.raw_inputs, d.raw_inputs)
    assert np.array_equal(c.labels, d.labels)


# the last block's seeds have one and two entropy words (rng.streams hashes both)
@pytest.mark.parametrize("count, start", [(1, 40), (7, 40), (200, 40), (7, 2**32 - 2)],
                         ids=["1", "7", "200", "7-from-2**32-2"])
def test_sine_stack_rows_are_the_one_seed_samples(count, start):
    spec = SineTaskSpec(n=15, noise_var=0.25, seed=start)
    xs, labels = gen_sine_stack(spec, count)
    assert xs.shape == labels.shape == (count, 15)
    for row in range(count):
        one = gen_sine_task(SineTaskSpec(n=15, noise_var=0.25, seed=start + row))
        np.testing.assert_array_equal(xs[row], one.raw_inputs)
        np.testing.assert_array_equal(labels[row], one.labels)
        ref_xs, ref_labels = sine_sample_one_seed(start + row, 15, 0.25)
        np.testing.assert_array_equal(xs[row], ref_xs)
        np.testing.assert_array_equal(labels[row], ref_labels)


def trial_seeds(count):
    return [rng.derive_seed(3, rng.TRIAL_TAG, trial, 0) for trial in range(count)]


@pytest.mark.parametrize("d", [3, 20])
@pytest.mark.parametrize("seeds", [pytest.param(trial_seeds(c), id=str(c)) for c in (1, 3, 10)]
                         + [pytest.param([2**32 - 1, 2**32, 2**70], id="2**32-1,2**32,2**70")])
def test_linear_stack_rows_are_the_one_seed_samples(seeds, d):
    spec = LinearTaskSpec(w_star=np.linspace(-1.0, 1.0, d), input_var=0.7, noise_var=0.2,
                          seed=3)
    inputs, labels = gen_linear_stack(spec, 20, seeds)
    assert inputs.shape == (len(seeds), 20, d) and labels.shape == (len(seeds), 20)
    for row, seed in enumerate(seeds):
        one = gen_linear_task(dataclasses.replace(spec, seed=seed), 20)
        ref_inputs, ref_labels = linear_sample_one_seed(seed, 20, spec)
        for got, want in ((inputs[row], one.raw_inputs), (labels[row], one.labels),
                          (inputs[row], ref_inputs), (labels[row], ref_labels)):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("field, value", [
    ("w_star", [np.nan, 1.0]), ("w_star", [1.0, np.inf]), ("input_var", np.inf),
    ("noise_var", np.inf), ("input_var", np.nan), ("noise_var", 0.0),
])
def test_linear_spec_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        LinearTaskSpec(**{"w_star": [1.0, 2.0], field: value})


@pytest.mark.parametrize("noise_var", [np.inf, np.nan, 0.0, -1.0])
def test_sine_spec_rejects_non_finite_noise(noise_var):
    with pytest.raises(ValueError, match="noise_var must be positive and finite"):
        SineTaskSpec(n=3, noise_var=noise_var)


def test_different_seeds_differ():
    a = gen_sine_task(SineTaskSpec(n=10, noise_var=0.25, seed=0))
    b = gen_sine_task(SineTaskSpec(n=10, noise_var=0.25, seed=1))
    assert not np.array_equal(a.raw_inputs, b.raw_inputs)


def test_linear_task_label_variance():
    # Var(y) = ||w*||^2 input_var + noise_var = 0.25 + 1/9, 4 sigma MC band
    d = 20
    w = np.full(d, 0.5 / np.sqrt(d))
    spec = LinearTaskSpec(w_star=w, input_var=1.0, noise_var=1.0 / 9.0, seed=5)
    n = 100_000
    ds = gen_linear_task(spec, n)
    target = 0.25 + 1.0 / 9.0
    band = 4.0 * np.sqrt(2.0 / n) * target
    assert abs(ds.labels.var() - target) < band


def test_linear_task_zero_signal_zero_noise():
    spec = LinearTaskSpec(w_star=np.zeros(3), input_var=1.0, noise_var=1e-30,
                          seed=2)
    ds = gen_linear_task(spec, 20)
    assert np.abs(ds.labels).max() < 1e-12


def test_linear_task_input_output_moment():
    # d=1, w*=1: E[x y] = 1, Var(xy) = 3, 3 sigma band
    spec = LinearTaskSpec(w_star=np.array([1.0]), input_var=1.0, noise_var=1.0,
                          seed=7)
    n = 100_000
    ds = gen_linear_task(spec, n)
    est = float(np.mean(ds.raw_inputs[:, 0] * ds.labels))
    assert abs(est - 1.0) < 3.0 * np.sqrt(3.0 / n)


def test_linear_task_input_means():
    spec = LinearTaskSpec(w_star=np.ones(4), input_var=2.0, noise_var=1.0,
                          seed=9)
    n = 100_000
    ds = gen_linear_task(spec, n)
    band = 4.0 * np.sqrt(2.0 / n)
    assert np.abs(ds.raw_inputs.mean(axis=0)).max() < band


def test_polynomial_design_rows_match_feature_map():
    ds = gen_sine_task(SineTaskSpec(n=6, noise_var=0.25, seed=0))
    design = DesignMatrix(tasks.polynomial_features(ds.raw_inputs, 3), ds.labels)
    assert design.d == 4
    for i in range(6):
        assert np.allclose(design.phi[i], ds.raw_inputs[i] ** np.arange(4))


def write_train_csv(tmp_path, seed, n):
    """train.csv as `pblr fig-a` writes it."""
    assert main(["fig-a", "--seed", str(seed), "--n", str(n), "--degrees", "1",
                 "--grid-size", "2", "--out", str(tmp_path)]) == 0
    return tmp_path / "train.csv"


def test_dataset_csv_roundtrip(tmp_path):
    raw = write_train_csv(tmp_path, seed=4, n=7).read_bytes().decode("utf-8")
    assert "\r" not in raw
    lines = [line for line in raw.strip().split("\n") if not line.startswith("#")]
    assert lines[0] == "x_0,y"
    assert len(lines) == 8
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    ds = gen_sine_task(SineTaskSpec(n=7, noise_var=0.25, seed=4))
    assert np.array_equal(parsed[:, 0], ds.raw_inputs)
    assert np.array_equal(parsed[:, 1], ds.labels)


def test_dataset_csv_scalar_inputs(tmp_path):
    lines = write_train_csv(tmp_path, seed=0, n=3).read_text(encoding="utf-8").split("\n")
    assert lines[0] == f"# tool_version = {__version__}"
    assert "# seed = 0" in lines and "# n = 3" in lines
    body = [line for line in lines if line and not line.startswith("#")]
    assert body[0] == "x_0,y"
    assert len(body) == 4
