"""Reproductions of the two synthetic studies, emitting plot-ready tables.

fig_a / fig_b: polynomial models of degree 1..7 fitted to 15 noisy sine
samples, with the evidence split per degree. fig_c: bound values against
training-set size for the 20-dimensional Gaussian linear task. validate:
coverage of the bounds over repeated draws plus the MGF envelope check.
"""

import math

import numpy as np

from . import __version__, rng
from . import bounds as bnd
from .blr import ModelConfig, evidence_decomposition, fit_posterior
from .losses import LossSpec, empirical_gibbs_risk
from .mc import ValidityStudyConfig, gibbs_generalization_risk, run_validity_study
from .selection import ModelEntry, ModelFamily
from .subgamma import (empirical_mgf_check, nll_subgamma_params,
                       squared_loss_subgamma_params)
from .tasks import (TWO_PI, LinearTaskSpec, SineTaskSpec, gen_linear_task,
                    gen_sine_task, identity_design, polynomial_design)

DEFAULT_SEED = 1

# sine / polynomial study defaults
SINE_N = 15
SINE_NOISE_VAR = 0.25
SINE_SIGMA2 = 0.5
SINE_SIGMA_PI2 = 1.0 / 0.005
DEFAULT_DEGREES = tuple(range(1, 8))

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

# MGF study defaults: a small-variance squared-loss configuration
MGF_TASK = LinearTaskSpec(w_star=np.array([0.3, -0.2]), input_var=0.5,
                          noise_var=0.05, seed=0)
MGF_PRIOR_VAR = 0.1
MGF_LAMBDAS = (0.25, 0.5, 1.0)
MGF_M = 1_000_000


def write_csv(path, columns, rows, metadata) -> None:
    """CSV with '#'-prefixed metadata lines before the header; LF endings.

    Raises ValueError, before the file is opened, if any float cell is not finite.
    """
    rows = list(rows)
    for row in rows:
        for col, val in zip(columns, row):
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"{path}: {col} = {val!r} is not finite")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# tool_version = {__version__}\n")
        for key, val in metadata.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _sine_setup(seed, n, noise_var, sigma2, sigma_pi2):
    spec = SineTaskSpec(n=n, noise_var=noise_var, seed=seed)
    return gen_sine_task(spec), ModelConfig(noise_var=sigma2, prior_var=sigma_pi2)


def check_degrees(degrees) -> tuple:
    degrees = tuple(int(d) for d in degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise ValueError("polynomial degrees must be >= 1")
    return degrees


def run_fig_a(seed=DEFAULT_SEED, n=SINE_N, noise_var=SINE_NOISE_VAR,
              sigma2=SINE_SIGMA2, sigma_pi2=SINE_SIGMA_PI2,
              degrees=DEFAULT_DEGREES, grid_size=200):
    """Posterior-mean predictions per degree on a dense input grid."""
    degrees = check_degrees(degrees)
    dataset, cfg = _sine_setup(seed, n, noise_var, sigma2, sigma_pi2)
    grid = np.linspace(0.0, TWO_PI, grid_size)
    rows = []
    for degree in degrees:
        post = fit_posterior(polynomial_design(dataset, degree), cfg)
        phi = grid[:, None] ** np.arange(degree + 1)[None, :]
        preds = phi @ post.mean
        rows.extend((degree, float(x), float(p)) for x, p in zip(grid, preds))
    return dataset, rows


def run_fig_b(seed=DEFAULT_SEED, n=SINE_N, noise_var=SINE_NOISE_VAR,
              sigma2=SINE_SIGMA2, sigma_pi2=SINE_SIGMA_PI2,
              degrees=DEFAULT_DEGREES, test_size=1000):
    """Evidence decomposition per degree plus the Gibbs NLL risk on fresh data."""
    degrees = check_degrees(degrees)
    if test_size < 1:
        raise ValueError(f"test_size must be at least 1, got {test_size}")
    dataset, cfg = _sine_setup(seed, n, noise_var, sigma2, sigma_pi2)
    test_spec = SineTaskSpec(n=test_size, noise_var=noise_var,
                             seed=rng.derive_seed(seed, rng.TEST_SET_TAG))
    test = gen_sine_task(test_spec)
    rows = []
    for degree in degrees:
        design = polynomial_design(dataset, degree)
        post = fit_posterior(design, cfg)
        report = evidence_decomposition(post, design, cfg)  # identity checked inline
        phi_test = test.raw_inputs[:, None] ** np.arange(degree + 1)[None, :]
        resid = test.labels - phi_test @ post.mean
        test_risk = float(np.mean(
            0.5 * math.log(2.0 * math.pi * sigma2)
            + (resid ** 2 + post.predictive_var(phi_test)) / (2.0 * sigma2)))
        rows.append((degree, report.neg_log_evidence, report.gibbs_emp_risk_total,
                     report.kl, test_risk))
    return rows


def polynomial_family(seed=DEFAULT_SEED, n=SINE_N, noise_var=SINE_NOISE_VAR,
                      sigma2=SINE_SIGMA2, sigma_pi2=SINE_SIGMA_PI2,
                      degrees=DEFAULT_DEGREES) -> ModelFamily:
    """Polynomial models of the given degrees fitted on one sine sample."""
    degrees = check_degrees(degrees)
    dataset, cfg = _sine_setup(seed, n, noise_var, sigma2, sigma_pi2)
    entries = []
    for idx, degree in enumerate(degrees):
        design = polynomial_design(dataset, degree)
        report = evidence_decomposition(fit_posterior(design, cfg), design, cfg)
        entries.append(ModelEntry(model_id=idx, degree=degree, config=cfg,
                                  evidence=report))
    return ModelFamily(models=tuple(entries))


def fig_c_w_star(d=LINREG_D, norm=LINREG_W_NORM) -> np.ndarray:
    return np.full(d, norm / math.sqrt(d))


def run_fig_c(seed=DEFAULT_SEED, n_grid=DEFAULT_N_GRID, delta=DEFAULT_DELTA,
              sigma2=LINREG_SIGMA2, sigma_pi2=LINREG_SIGMA_PI2, d=LINREG_D,
              w_norm=LINREG_W_NORM, input_var=LINREG_INPUT_VAR,
              noise_var=LINREG_NOISE_VAR, crop_interval=DEFAULT_CROP):
    """Bound values against training-set size on the Gaussian linear task.

    Every column is exact: the Gibbs risks are closed-form Gaussian
    expectations. Returns (rows, metadata); the sub-gamma parameters are
    echoed in the metadata.
    """
    if any(n < 1 for n in n_grid):
        raise ValueError("sample sizes must be at least 1")
    task = LinearTaskSpec(w_star=fig_c_w_star(d, w_norm), input_var=input_var,
                          noise_var=noise_var, seed=seed)
    model = ModelConfig(noise_var=sigma2, prior_var=sigma_pi2)
    params = nll_subgamma_params(sigma2, input_var, sigma_pi2, d,
                                 task.w_star_sq_norm, noise_var)
    a, b = crop_interval
    cropped = LossSpec.cropped(LossSpec.nll(sigma2), a, b)
    rows = []
    for n in n_grid:
        dataset = gen_linear_task(task, n)
        design = identity_design(dataset)
        post = fit_posterior(design, model)
        report = evidence_decomposition(post, design, model)  # identity checked inline
        emp_nll = report.gibbs_emp_risk_total / n
        gen_nll = gibbs_generalization_risk(post, task, LossSpec.nll(sigma2))
        emp_crop = empirical_gibbs_risk(post, design, cropped)
        sqrt_n = math.sqrt(n)
        rows.append((
            n,
            emp_nll,
            gen_nll,
            bnd.subgamma_evidence_bound(report.neg_log_evidence, n, delta,
                                        params.s2, params.c),
            bnd.catoni_bound(emp_crop, report.kl, n, delta, a, b),
            bnd.alquier_bound(emp_crop, report.kl, n, delta, sqrt_n,
                              bnd.hoeffding_psi_bound(sqrt_n, n, a, b)),
            bnd.alquier_bound(emp_crop, report.kl, n, delta, float(n),
                              bnd.hoeffding_psi_bound(float(n), n, a, b)),
        ))
    metadata = {
        "seed": seed, "delta": delta, "d": d, "w_norm": w_norm,
        "input_var": input_var, "noise_var": noise_var,
        "sigma2": sigma2, "sigma_pi2": sigma_pi2,
        "crop_a": a, "crop_b": b,
        "s2": params.s2, "c": params.c,
    }
    return rows, metadata


FIG_C_COLUMNS = ("n", "emp_gibbs_nll", "gen_gibbs_nll", "bound_subgamma",
                 "bound_catoni_cropped", "bound_alquier_sqrtn_cropped",
                 "bound_alquier_n_cropped")


def default_validity_config(seed=DEFAULT_SEED, trials=100, n=20, d=3, delta=DEFAULT_DELTA,
                            crop_interval=DEFAULT_CROP) -> ValidityStudyConfig:
    """Coverage-study configuration: a low-dimensional copy of the fig_c task."""
    task = LinearTaskSpec(w_star=fig_c_w_star(d, LINREG_W_NORM),
                          input_var=LINREG_INPUT_VAR,
                          noise_var=LINREG_NOISE_VAR, seed=seed)
    a, b = crop_interval
    return ValidityStudyConfig(
        task=task,
        model=ModelConfig(noise_var=LINREG_SIGMA2, prior_var=LINREG_SIGMA_PI2),
        n=n,
        trials=trials,
        delta=delta,
        families=("subgamma", "catoni", "alquier_sqrtn"),
        cropped_loss=LossSpec.cropped(LossSpec.nll(LINREG_SIGMA2), a, b),
        seed=seed,
    )


def run_validate(seed=DEFAULT_SEED, trials=100, delta=DEFAULT_DELTA, mgf_m=MGF_M):
    """Coverage study plus MGF envelope check; returns (coverage, mgf, ok)."""
    coverage = run_validity_study(default_validity_config(
        seed=seed, trials=trials, delta=delta))
    slack = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    coverage_ok = all(fam.rate <= slack for fam in coverage.families)
    params = squared_loss_subgamma_params(
        MGF_TASK.input_var, MGF_PRIOR_VAR, MGF_TASK.d,
        MGF_TASK.w_star_sq_norm, MGF_TASK.noise_var)
    mgf = empirical_mgf_check(MGF_TASK, MGF_PRIOR_VAR, LossSpec.squared(),
                              params, MGF_LAMBDAS, mgf_m,
                              rng.derive_seed(seed, rng.MGF_TAG))
    return coverage, mgf, coverage_ok and mgf.all_dominated()
