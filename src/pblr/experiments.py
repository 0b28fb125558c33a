"""Reproductions of the two synthetic studies, emitting plot-ready tables.

fig_a / fig_b: polynomial models of degree 1..7 fitted to 15 noisy sine
samples, with the evidence split per degree. `_polynomial_fits` checks and fits
the top degree's design once, for one sample or a stack, and each degree is a
column prefix of that design and fit: `blr.fit_posterior` given the widths
degree + 1 returns one posterior whose means lead with a degree axis, and one
report holds every degree's evidence split. fig_a's predictions and fig_b's
test risk carry the same leading degree axis. The fig-b seed scan
(`selected_degrees`) draws each of its `blr.stack_blocks` of n*(top degree + 1)
design entries per seed as one `tasks.gen_sine_stack` and takes the argmin
along the degree axis, axis 0, so each seed's sample and evidence have the bits
of its own draw and fit. `write_csv` checks and formats a table one column at a
time; run_fig_a returns arrays, and cli formats each grid point and degree once.
fig_c: bound values against training-set size for the 20-dimensional
Gaussian linear task. validate: coverage of the bounds over repeated draws
plus the MGF envelope check.
"""

import math
from pathlib import Path

import numpy as np

from . import __version__, rng
from .blr import ModelConfig, evidence_decomposition, fit_posterior, stack_blocks
from .losses import LossSpec, empirical_gibbs_risk
from .mc import gibbs_generalization_risk, run_validity_study, sample_bounds
from .subgamma import dominated, empirical_mgf_check, nll_subgamma_params
from .tasks import (TWO_PI, DesignMatrix, LinearTaskSpec, SineTaskSpec, gen_sine_stack,
                    gen_sine_task, polynomial_features)

DEFAULT_SEED = 1

# sine / polynomial study defaults
SINE_N = 15
SINE_NOISE_VAR = 0.25
SINE_SIGMA2 = 0.5
SINE_SIGMA_PI2 = 1.0 / 0.005
DEFAULT_DEGREES = tuple(range(1, 8))
FIG_A_GRID_SIZE = 200
FIG_B_TEST_SIZE = 1_000

# linear-task bound comparison defaults
LINREG_D = 20
LINREG_W_NORM = 0.5
LINREG_INPUT_VAR = 1.0
LINREG_NOISE_VAR = 1.0 / 9.0
LINREG_SIGMA2 = 2.0
LINREG_SIGMA_PI2 = 0.01
DEFAULT_DELTA = 0.05
DEFAULT_CROP = (1.0, 4.0)
DEFAULT_N_GRID = (10, 100, 1_000, 10_000, 100_000, 1_000_000)
COVERAGE_TRIALS = 100

# MGF study defaults: a small-variance squared-loss configuration
MGF_TASK = LinearTaskSpec(w_star=np.array([0.3, -0.2]), input_var=0.5,
                          noise_var=0.05, seed=0)
MGF_PRIOR_VAR = 0.1
MGF_LAMBDAS = (0.25, 0.5, 1.0)
MGF_M = 1_000_000


def write_csv(path, columns, rows, metadata) -> None:
    """CSV with '#'-prefixed metadata lines before the header; LF endings.

    Each column holds one type: a float column is written as float's repr, any
    other with str. Raises ValueError, before the file or its directory is
    made, naming the first non-finite float cell in row order.
    """
    cols = list(zip(*rows))
    is_float = [isinstance(col[0], float) for col in cols]
    if not all(all(map(math.isfinite, col)) for col, f in zip(cols, is_float) if f):
        name, val = next((name, val) for row in zip(*cols)
                         for name, val, f in zip(columns, row, is_float)
                         if f and not math.isfinite(val))
        raise ValueError(f"{path}: {name} = {val!r} is not finite")
    cells = (map(float.__repr__, col) if f else map(str, col) for col, f in zip(cols, is_float))
    lines = [f"# tool_version = {__version__}",
             *(f"# {key} = {val}" for key, val in metadata.items()), ",".join(columns),
             *map(",".join, zip(*cells))]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _checked_degrees(degrees) -> tuple:
    degrees = tuple(degrees)
    bad = [d for d in degrees if not (math.isfinite(d) and d == int(d))]
    if bad:
        raise ValueError(f"polynomial degrees must be integers, got {bad[0]!r}")
    degrees = tuple(map(int, degrees))
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("polynomial degrees must be >= 1")
    return degrees


def _polynomial_fits(xs, labels, sigma2, sigma_pi2, degrees) -> tuple:
    """(degrees, the posterior of the widths degree + 1 in the order of degrees, its report).

    xs and labels are one sine sample, shape (n,), or a stack of S samples,
    shape (S, n); a stack gives means and report fields an S axis after the
    leading degree axis.
    """
    degrees = _checked_degrees(degrees)
    cfg = ModelConfig(noise_var=sigma2, prior_var=sigma_pi2)
    design = DesignMatrix(polynomial_features(xs, max(degrees)), labels)
    post = fit_posterior(design, cfg, [degree + 1 for degree in degrees])
    # the report checks the evidence identity of every degree on construction
    return degrees, post, evidence_decomposition(post, design, cfg)


def run_fig_a(seed=DEFAULT_SEED, n=SINE_N, sigma2=SINE_SIGMA2, sigma_pi2=SINE_SIGMA_PI2,
              degrees=DEFAULT_DEGREES, grid_size=FIG_A_GRID_SIZE):
    """(dataset, degrees, grid, preds): preds[i, j] is degrees[i]'s posterior mean at grid[j]."""
    dataset = gen_sine_task(SineTaskSpec(n=n, noise_var=SINE_NOISE_VAR, seed=seed))
    degrees, post, _ = _polynomial_fits(dataset.raw_inputs, dataset.labels, sigma2,
                                        sigma_pi2, degrees)
    grid = np.linspace(0.0, TWO_PI, grid_size)
    return dataset, degrees, grid, post.predict(polynomial_features(grid, max(degrees)))


def run_fig_b(seed=DEFAULT_SEED, n=SINE_N, sigma2=SINE_SIGMA2, sigma_pi2=SINE_SIGMA_PI2,
              degrees=DEFAULT_DEGREES):
    """Evidence decomposition per degree plus the Gibbs NLL risk on FIG_B_TEST_SIZE fresh points."""
    train = gen_sine_task(SineTaskSpec(n=n, noise_var=SINE_NOISE_VAR, seed=seed))
    degrees, post, report = _polynomial_fits(train.raw_inputs, train.labels, sigma2, sigma_pi2,
                                             degrees)
    test = gen_sine_task(SineTaskSpec(n=FIG_B_TEST_SIZE, noise_var=SINE_NOISE_VAR,
                                      seed=rng.derive_seed(seed, rng.TEST_SET_TAG)))
    # every degree's risk at once, over (degree, test point) blocks of the test set
    risk = empirical_gibbs_risk(post, DesignMatrix(polynomial_features(
        test.raw_inputs, max(degrees)), test.labels), LossSpec.nll(sigma2))
    return list(zip(degrees, report.neg_log_evidence.tolist(),
                    report.gibbs_emp_risk_total.tolist(), report.kl.tolist(), risk.tolist()))


def selected_degrees(seeds, seed=DEFAULT_SEED, n=SINE_N, sigma2=SINE_SIGMA2,
                     sigma_pi2=SINE_SIGMA_PI2, degrees=DEFAULT_DEGREES) -> np.ndarray:
    """The highest-evidence degree of each of the sine samples seed, ..., seed + seeds - 1.

    Draws the same samples as `run_fig_b`, one `gen_sine_stack` per
    `stack_blocks` block of n*(top degree + 1) design entries per seed, and
    fits each block at once, so each evidence has the bits of `run_fig_b`'s
    neg_log_evidence. Keeps the first of tied evidences, so the degree listed
    first wins a tie. A block fails as a whole, with the error of its first
    failing check.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    degrees = _checked_degrees(degrees)
    best = []
    for block in stack_blocks(seeds, n * (max(degrees) + 1)):
        xs, labels = gen_sine_stack(
            SineTaskSpec(n=n, noise_var=SINE_NOISE_VAR, seed=seed + block.start), len(block))
        _, _, report = _polynomial_fits(xs, labels, sigma2, sigma_pi2, degrees)
        best.append(np.asarray(degrees)[np.argmin(report.neg_log_evidence, axis=0)])
    return np.concatenate(best)


def _linear_setup(seed, d, sigma2, sigma_pi2, crop):
    """Task, model and cropped NLL loss of the Gaussian linear study."""
    task = LinearTaskSpec(w_star=np.full(d, LINREG_W_NORM / math.sqrt(d)),
                          input_var=LINREG_INPUT_VAR, noise_var=LINREG_NOISE_VAR,
                          seed=seed)
    model = ModelConfig(noise_var=sigma2, prior_var=sigma_pi2)
    return task, model, LossSpec.cropped(LossSpec.nll(sigma2), *crop)


def run_fig_c(seed=DEFAULT_SEED, n_grid=DEFAULT_N_GRID, delta=DEFAULT_DELTA,
              sigma2=LINREG_SIGMA2, sigma_pi2=LINREG_SIGMA_PI2,
              crop_interval=DEFAULT_CROP):
    """Bound values against training-set size on the Gaussian linear task.

    Every column is exact: the Gibbs risks are closed-form Gaussian
    expectations. Returns (rows, metadata); the sub-gamma parameters are
    echoed in the metadata.
    """
    if any(n < 1 for n in n_grid):
        raise ValueError("sample sizes must be at least 1")
    task, model, cropped = _linear_setup(seed, LINREG_D, sigma2, sigma_pi2, crop_interval)
    params = nll_subgamma_params(sigma2, task.input_var, sigma_pi2, task.d,
                                 task.w_star_sq_norm, task.noise_var)
    rows = []
    for n in n_grid:  # one sample per n: a stack of one
        post, report, bounds = sample_bounds(task, model, n, cropped, delta, [task.seed])
        gen_nll = gibbs_generalization_risk(post, task, LossSpec.nll(sigma2))
        rows.append((n, float(report.gibbs_emp_risk_total[0] / n), float(gen_nll[0]),
                     *bounds[:, 0].tolist()))
    metadata = {
        "seed": seed, "delta": delta, "d": task.d, "w_norm": LINREG_W_NORM,
        "input_var": task.input_var, "noise_var": task.noise_var,
        "sigma2": sigma2, "sigma_pi2": sigma_pi2,
        "crop_a": cropped.a, "crop_b": cropped.b,
        "s2": params.s2, "c": params.c,
    }
    return rows, metadata


FIG_C_COLUMNS = ("n", "emp_gibbs_nll", "gen_gibbs_nll", "bound_subgamma",
                 "bound_catoni_cropped", "bound_alquier_sqrtn_cropped",
                 "bound_alquier_n_cropped")


def run_coverage(seed=DEFAULT_SEED, trials=COVERAGE_TRIALS, n=20, d=3,
                 delta=DEFAULT_DELTA) -> dict:
    """Coverage study (the coverage.json dict) on a low-dimensional copy of the fig_c task."""
    task, model, cropped = _linear_setup(seed, d, LINREG_SIGMA2, LINREG_SIGMA_PI2,
                                         DEFAULT_CROP)
    return run_validity_study(task, model, n, cropped, delta, trials)


def run_validate(seed=DEFAULT_SEED, trials=COVERAGE_TRIALS, delta=DEFAULT_DELTA, mgf_m=MGF_M):
    """Coverage study plus MGF envelope check; returns (coverage, mgf rows, ok)."""
    coverage = run_coverage(seed=seed, trials=trials, delta=delta)
    slack = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    coverage_ok = all(fam["rate"] <= slack for fam in coverage["families"])
    mgf = empirical_mgf_check(MGF_TASK, MGF_PRIOR_VAR, LossSpec.squared(), MGF_LAMBDAS,
                              mgf_m, rng.derive_seed(seed, rng.MGF_TAG))
    return coverage, mgf, coverage_ok and all(map(dominated, mgf))
