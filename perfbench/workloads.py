"""The benchmark's workloads: the CLI calls of one round, their op counts and output checks.

A round is the list of `pblr` CLI invocations one closed-loop client makes
before it starts the next round. Every check fails closed: a missing file,
an unparsable or non-finite value, or an exception inside the check counts
as a failed check, and marks the call that wrote the file as failed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from probe import ALL_PARTS

REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1

# Relative tolerance for exact (closed-form) columns. The worst disagreement
# between the oracle and the program on the degree-7 sine designs, whose
# precision matrix has a condition number near 1e13, is about 4e-9.
RTOL_EXACT = 1e-7
# Monte-Carlo columns must lie within this many standard errors of the
# exact expectation.
MC_SIGMAS = 5.0

# Paper parameters behind the CLI defaults (pblr.experiments).
LIN_D, LIN_W_NORM, LIN_INPUT_VAR, LIN_NOISE_VAR = 20, 0.5, 1.0, 1.0 / 9.0
LIN_SIGMA2, LIN_PRIOR_VAR, DELTA, CROP = 2.0, 0.01, 0.05, (1.0, 4.0)
FIG_C_MC_WEIGHTS, FIG_C_MC_GEN = 10_000, 100_000
SINE_N, SINE_NOISE_VAR, SINE_SIGMA2, SINE_PRIOR_VAR = 15, 0.25, 0.5, 200.0
DEGREES = tuple(range(1, 8))
SINE_GRID, SINE_TEST = 200, 1000
COVERAGE_FAMILIES = ("subgamma", "catoni", "alquier_sqrtn")
COVERAGE_N = 20
MGF_W_STAR, MGF_INPUT_VAR, MGF_NOISE_VAR, MGF_PRIOR_VAR = (0.3, -0.2), 0.5, 0.05, 0.1
MGF_LAMBDAS = (0.25, 0.5, 1.0)


class Checks:
    """Named pass/fail results plus the calls whose outputs were unusable."""

    def __init__(self):
        self.results = {}
        self.bad_calls = set()

    def add(self, name, ok, call=None):
        self.results[name] = self.results.get(name, True) and bool(ok)
        if not ok and call is not None:
            self.bad_calls.add(call)

    def guard(self, name, call, fn, *args):
        """Run one check group; any exception fails it and marks the call bad."""
        try:
            fn(self, *args)
        except Exception as exc:  # fail closed on malformed output or oracle trouble
            self.add(f"{name}.error:{type(exc).__name__}", False, call)

    @property
    def failed(self):
        return sorted(name for name, ok in self.results.items() if not ok)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable  # (seed, out, tiny) -> [(argv, ops), ...]
    check: Callable  # (checks, seed, out, tiny) -> None
    probe: tuple = ALL_PARTS  # the speed probe's parts that match this work (probe.py)


def close(value, ref, rtol=RTOL_EXACT):
    return math.isfinite(value) and abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def read_table(path):
    """(metadata, header, float rows) of a '#'-prefixed CSV file."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    if header is None:
        raise ValueError(f"{path} has no header")
    return meta, header, rows


def column(header, rows, name):
    return [row[header.index(name)] for row in rows]


def all_finite(rows):
    return all(math.isfinite(v) for row in rows for v in row)


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# --- fig_c_curve ---------------------------------------------------------------

FIG_C_GRID = (10, 100, 1_000, 10_000, 100_000)
# One round stops at n = 1e4 (about 2 s), so a run takes the median of a
# dozen rounds, each rescaled by the speed probes right around it; the cost
# is linear in n, so the layer shares are those of the longer grid.
FIG_C_ROUND_GRID = FIG_C_GRID[:-1]
FIG_C_TINY_GRID = (10, 100, 1_000)
FIG_C_DEFAULT_GRID = FIG_C_GRID + (1_000_000,)


def linear_task(seed):
    from pblr.tasks import LinearTaskSpec
    return LinearTaskSpec(w_star=np.full(LIN_D, LIN_W_NORM / math.sqrt(LIN_D)),
                          input_var=LIN_INPUT_VAR, noise_var=LIN_NOISE_VAR, seed=seed)


def linear_fit(seed, n):
    from pblr.tasks import gen_linear_task
    data = gen_linear_task(linear_task(seed), n)
    return oracle.Fit(data.raw_inputs, data.labels, LIN_SIGMA2, LIN_PRIOR_VAR)


def fig_c_exact(fit, n):
    """(emp_gibbs_nll, bound_subgamma) of an oracle fit on n examples."""
    nle, gibbs, _ = fit.split()
    w_sq = LIN_W_NORM ** 2
    s2, c = oracle.nll_subgamma_params(LIN_SIGMA2, LIN_INPUT_VAR, LIN_PRIOR_VAR,
                                       LIN_D, w_sq, LIN_NOISE_VAR)
    return gibbs / n, oracle.subgamma_evidence_bound(nle, n, DELTA, s2, c)


def fig_c_calls(grid):
    def calls(seed, out, tiny):
        g = FIG_C_TINY_GRID if tiny else grid
        argv = ["fig-c", "--seed", str(seed), "--out", str(out), "--n-grid", *map(str, g)]
        return [(argv, sum(g))]
    return calls


def _check_fig_c_rows(checks, seed, out, grid):
    meta, header, rows = read_table(out / "fig_c.csv")
    checks.add("fig_c.rows", column(header, rows, "n") == [float(n) for n in grid], 0)
    checks.add("fig_c.finite", all_finite(rows), 0)
    m_emp = int(meta.get("mc_weights", FIG_C_MC_WEIGHTS))
    m_gen = int(meta.get("mc_gen_weights", FIG_C_MC_GEN))
    a, b = CROP
    task = linear_task(seed)
    gen = np.random.default_rng([seed, 0x0bec])
    for row in rows:
        got = dict(zip(header, row))
        n = int(got["n"])
        fit = linear_fit(seed, n)
        kl = fit.split()[2]
        emp_nll, bound_sg = fig_c_exact(fit, n)
        checks.add("fig_c.emp_gibbs_nll.exact", close(got["emp_gibbs_nll"], emp_nll))
        checks.add("fig_c.bound_subgamma.exact", close(got["bound_subgamma"], bound_sg))
        gen_risk, gen_sd = oracle.gibbs_gen_nll(fit, task.w_star, LIN_INPUT_VAR, LIN_NOISE_VAR)
        checks.add("fig_c.gen_gibbs_nll.mc", abs(got["gen_gibbs_nll"] - gen_risk)
                   <= MC_SIGMAS * gen_sd / math.sqrt(m_gen) + RTOL_EXACT * abs(gen_risk))
        # The cropped empirical term is recovered from the lambda = n bound,
        # then the other two cropped bounds must follow from it exactly.
        lam_n = float(n)
        emp = got["bound_alquier_n_cropped"] - (
            kl + math.log(1.0 / DELTA) + lam_n * (b - a) ** 2 / 2.0) / lam_n
        exact = oracle.cropped_nll_risk(fit, a, b)
        sd = oracle.cropped_nll_sd(fit, a, b, gen, block=max(1, 4_000_000 // n))
        checks.add("fig_c.emp_cropped.mc", abs(emp - exact)
                   <= MC_SIGMAS * sd / math.sqrt(m_emp) + RTOL_EXACT * abs(exact))
        checks.add("fig_c.bound_catoni_cropped.exact", close(
            got["bound_catoni_cropped"], oracle.catoni_bound(emp, kl, n, DELTA, a, b)))
        checks.add("fig_c.bound_alquier_sqrtn_cropped.exact", close(
            got["bound_alquier_sqrtn_cropped"],
            oracle.alquier_hoeffding_bound(emp, kl, n, DELTA, math.sqrt(n), a, b)))


def _check_fig_c_reference(checks, grid):
    ref = load_reference()["fig_c"]
    ok = True
    for n in grid:
        if str(n) in ref:
            emp_nll, bound_sg = fig_c_exact(linear_fit(REFERENCE_SEED, n), n)
            ok &= close(emp_nll, ref[str(n)][0]) and close(bound_sg, ref[str(n)][1])
    checks.add("reference.fig_c", ok)


def fig_c_check(grid):
    def check(checks, seed, out, tiny):
        g = FIG_C_TINY_GRID if tiny else grid
        checks.guard("fig_c", 0, _check_fig_c_rows, seed, out, g)
        checks.guard("reference.fig_c", None, _check_fig_c_reference, g)
    return check


# --- coverage ------------------------------------------------------------------

# A round is a tenth of `validate` at its defaults: 10 trials and an MGF
# check on 1e5 draws (about 2 s), keeping the split between the trial loop
# and the bootstrap; the per-trial and per-draw work is the default's.
COVERAGE_TRIALS = 10
COVERAGE_ROUND = ("--trials", str(COVERAGE_TRIALS), "--mgf-m", "100000")
COVERAGE_TINY = ("--trials", "10", "--mc-weights", "200", "--mgf-m", "20000")


def coverage_calls(seed, out, tiny):
    argv = ["validate", "--seed", str(seed), "--out", str(out)]
    return [(argv + list(COVERAGE_TINY if tiny else COVERAGE_ROUND), COVERAGE_TRIALS)]


def mgf_envelopes():
    w = np.array(MGF_W_STAR)
    s2, c = oracle.squared_subgamma_params(MGF_INPUT_VAR, MGF_PRIOR_VAR, w.size,
                                           float(w @ w), MGF_NOISE_VAR)
    return [oracle.subgamma_envelope(lam, s2, c) for lam in MGF_LAMBDAS]


def _check_coverage(checks, seed, out, trials):
    report = json.loads((out / "coverage.json").read_text(encoding="utf-8"))
    fams = report["families"]
    numbers = [v for fam in fams for v in (fam["trials"], fam["violations"], fam["rate"])]
    checks.add("coverage.finite", all(math.isfinite(v) for v in numbers), 0)
    checks.add("coverage.families", [f["family"] for f in fams] == list(COVERAGE_FAMILIES), 0)
    slack = DELTA + 2.0 * math.sqrt(DELTA * (1.0 - DELTA) / trials)
    checks.add("coverage.band", all(
        f["trials"] == trials and 0 <= f["violations"] <= trials
        and f["rate"] == f["violations"] / trials and f["rate"] <= slack for f in fams))
    cfg = report["config"]
    checks.add("coverage.config", (cfg["n"], cfg["trials"], cfg["seed"], cfg["delta"])
               == (COVERAGE_N, trials, seed, DELTA))


def _check_mgf(checks, out):
    _, header, rows = read_table(out / "mgf.csv")
    checks.add("mgf.finite", all_finite(rows), 0)
    checks.add("mgf.rows", column(header, rows, "lambda") == list(MGF_LAMBDAS), 0)
    w = np.array(MGF_W_STAR)
    for row, env in zip(rows, mgf_envelopes()):
        lam, psi, envelope, band = (row[header.index(k)]
                                    for k in ("lambda", "psi_hat", "envelope", "band"))
        checks.add("mgf.envelope.exact", close(envelope, env))
        checks.add("mgf.dominated", psi <= envelope + 3.0 * band)
        truth = oracle.squared_log_mgf(lam, w, MGF_INPUT_VAR, MGF_NOISE_VAR, MGF_PRIOR_VAR)
        checks.add("mgf.psi_hat.mc", band > 0 and abs(psi - truth) <= MC_SIGMAS * band)


def _check_mgf_reference(checks):
    ref = load_reference()["mgf_envelope"]
    checks.add("reference.mgf", all(close(e, r) for e, r in zip(mgf_envelopes(), ref)))


def coverage_check(checks, seed, out, tiny):
    checks.guard("coverage", 0, _check_coverage, seed, out, COVERAGE_TRIALS)
    checks.guard("mgf", 0, _check_mgf, out)
    checks.guard("reference.mgf", None, _check_mgf_reference)


# --- sine_scan -----------------------------------------------------------------

# 200 seeds (1400 evidence reports) keep a round near 0.9 s, so the speed
# probes around a round follow the speed it ran at and a run takes the median
# of about 25 rounds.
SINE_SEEDS, SINE_TINY_SEEDS = 200, 20


def sine_calls(seed, out, tiny):
    k = SINE_TINY_SEEDS if tiny else SINE_SEEDS
    common = ["--seed", str(seed), "--out", str(out)]
    return [(["fig-b", "--seeds", str(k), *common], k * len(DEGREES)),
            (["fig-b", *common], len(DEGREES)),
            (["fig-a", *common], 0)]


def sine_data(seed, n=SINE_N):
    from pblr.tasks import SineTaskSpec, gen_sine_task
    return gen_sine_task(SineTaskSpec(n=n, noise_var=SINE_NOISE_VAR, seed=seed))


def powers(x, degree):
    return x[..., None] ** np.arange(degree + 1)


def fig_b_exact(seed):
    """Rows (degree, neg_log_evidence, gibbs_emp_risk_total, kl, test_risk)."""
    from pblr import rng
    data = sine_data(seed)
    test = sine_data(rng.derive_seed(seed, rng.TEST_SET_TAG), SINE_TEST)
    rows = []
    for degree in DEGREES:
        fit = oracle.Fit(powers(data.raw_inputs, degree), data.labels,
                         SINE_SIGMA2, SINE_PRIOR_VAR)
        phi_test = powers(test.raw_inputs, degree)
        resid = test.labels - phi_test @ fit.mean
        test_risk = float(np.mean(0.5 * math.log(2.0 * math.pi * SINE_SIGMA2)
                                  + (resid ** 2 + fit.predictive_var(phi_test))
                                  / (2.0 * SINE_SIGMA2)))
        rows.append((degree, *fit.split(), test_risk))
    return rows


def _check_selection(checks, seed, out, k):
    _, header, rows = read_table(out / "fig_b_selection.csv")
    wins = dict(zip(column(header, rows, "degree"), column(header, rows, "wins")))
    checks.add("fig_b_selection.finite", all_finite(rows), 0)
    checks.add("fig_b_selection.wins_sum", sum(wins.values()) == k, 0)
    data = [sine_data(seed + j) for j in range(k)]
    x = np.stack([d.raw_inputs for d in data])
    y = np.stack([d.labels for d in data])
    nle = np.stack([oracle.neg_log_evidence_batch(powers(x, g), y, SINE_SIGMA2, SINE_PRIOR_VAR)
                    for g in DEGREES], axis=1)
    best = np.asarray(DEGREES)[nle.argmin(axis=1)]
    ordered = np.sort(nle, axis=1)
    ties = int(np.sum(ordered[:, 1] - ordered[:, 0] <= RTOL_EXACT * np.abs(ordered[:, 0])))
    expected = {float(g): int(np.sum(best == g)) for g in DEGREES}
    checks.add("fig_b_selection.exact", set(wins) <= set(expected) and all(
        abs(wins.get(g, 0) - expected[g]) <= ties for g in expected))


def _check_fig_b(checks, seed, out):
    _, header, rows = read_table(out / "fig_b.csv")
    checks.add("fig_b.finite", all_finite(rows), 1)
    checks.add("fig_b.rows", column(header, rows, "degree") == [float(g) for g in DEGREES], 1)
    names = ("neg_log_evidence", "gibbs_emp_risk_total", "kl", "test_risk")
    for row, ref in zip(rows, fig_b_exact(seed)):
        got = dict(zip(header, row))
        nle = got["neg_log_evidence"]
        checks.add("fig_b.identity", abs(nle - (got["gibbs_emp_risk_total"] + got["kl"]))
                   <= 1e-8 * max(1.0, abs(nle)))
        checks.add("fig_b.split.exact", all(close(got[k], r) for k, r in zip(names[:3], ref[1:4])))
        checks.add("fig_b.test_risk.exact", close(got["test_risk"], ref[4]))


def _check_fig_a(checks, seed, out):
    _, header, rows = read_table(out / "fig_a.csv")
    checks.add("fig_a.finite", all_finite(rows), 2)
    checks.add("fig_a.rows", len(rows) == len(DEGREES) * SINE_GRID, 2)
    data = sine_data(seed)
    grid = np.linspace(0.0, 2.0 * math.pi, SINE_GRID)
    table = np.array(rows)
    for degree in DEGREES:
        fit = oracle.Fit(powers(data.raw_inputs, degree), data.labels,
                         SINE_SIGMA2, SINE_PRIOR_VAR)
        expected = powers(grid, degree) @ fit.mean
        got = table[table[:, 0] == degree]
        checks.add("fig_a.exact", got.shape[0] == SINE_GRID
                   and np.allclose(got[:, 1], grid, rtol=0.0, atol=1e-12)
                   and np.allclose(got[:, 2], expected, rtol=RTOL_EXACT,
                                   atol=RTOL_EXACT * np.abs(expected).max()))
    _, _, train = read_table(out / "train.csv")
    checks.add("fig_a.train", np.array_equal(np.array(train),
                                             np.column_stack([data.raw_inputs, data.labels])), 2)


def _check_fig_b_reference(checks):
    ref = load_reference()["fig_b"]
    checks.add("reference.fig_b", all(close(v, r) for row, ref_row in
                                      zip(fig_b_exact(REFERENCE_SEED), ref)
                                      for v, r in zip(row[1:], ref_row[1:])))


def sine_check(checks, seed, out, tiny):
    checks.guard("fig_b_selection", 0, _check_selection, seed, out,
                 SINE_TINY_SEEDS if tiny else SINE_SEEDS)
    checks.guard("fig_b", 1, _check_fig_b, seed, out)
    checks.guard("fig_a", 2, _check_fig_a, seed, out)
    checks.guard("reference.fig_b", None, _check_fig_b_reference)


WORKLOADS = {w.name: w for w in (
    # Memory-bound: its rounds barely follow the interpreter-bound parts.
    Workload("fig_c_curve", fig_c_calls(FIG_C_ROUND_GRID), fig_c_check(FIG_C_ROUND_GRID),
             probe=("stream", "stream")),
    Workload("coverage", coverage_calls, coverage_check),
    Workload("sine_scan", sine_calls, sine_check),
)}

# Not a benchmark workload: fig-c at its defaults (n up to 1e6), run once for
# the committed baseline to anchor the cost of the cropped empirical term.
ANCHOR = Workload("fig_c_default", fig_c_calls(FIG_C_DEFAULT_GRID),
                  fig_c_check(FIG_C_DEFAULT_GRID), probe=("stream", "stream"))
