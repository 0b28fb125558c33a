"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole gate is also part of the plain `pytest` run. Every clause
of a criterion is evaluated before the verdict so a failure names every
violated clause at once.
"""

import math
import time

import numpy as np

from pblr import experiments as exp
from pblr.blr import ModelConfig, evidence_decomposition, fit_posterior
from pblr.losses import LossSpec
from pblr.bounds import hierarchical_bound, model_selection_bounds
from pblr.subgamma import empirical_mgf_check, nll_subgamma_params
from pblr.tasks import DesignMatrix

from oracles import nle_sequential_1d, sample_posterior


def verdict(number, name, clauses, elapsed, budget):
    """Print the criterion line, then fail on any violated clause."""
    failures = [msg for ok, msg in clauses if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {status} ({elapsed:.1f}s)")
    for msg in failures:
        print(f"  violated: {msg}")
    assert elapsed < budget, f"runtime {elapsed:.1f}s over the {budget}s budget"
    assert not failures, "; ".join(failures)


def random_instances(seed, count, n_range=(0, 101), d_range=(1, 11)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(*n_range))
        d = int(rng.integers(*d_range))
        design = DesignMatrix(phi=rng.standard_normal((n, d)),
                              labels=rng.standard_normal(n))
        cfg = ModelConfig(noise_var=float(rng.uniform(0.2, 3.0)),
                          prior_var=float(rng.uniform(0.2, 5.0)))
        yield design, cfg


def test_criterion_1_evidence_identity():
    start = time.monotonic()
    worst = 0.0
    for design, cfg in random_instances(101, 100):
        report = evidence_decomposition(fit_posterior(design, cfg), design, cfg)
        gap = abs(report.neg_log_evidence
                  - (report.gibbs_emp_risk_total + report.kl))
        worst = max(worst, gap / max(1.0, abs(report.neg_log_evidence)))
    elapsed = time.monotonic() - start
    verdict(1, "evidence identity", [
        (worst <= 1e-8, f"relative identity gap {worst:.2e} > 1e-8"),
    ], elapsed, 5.0)


def test_criterion_2_sequential_1d_oracle():
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(202)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        phi = rng.standard_normal((n, 1))
        labels = rng.standard_normal(n)
        cfg = ModelConfig(noise_var=float(rng.uniform(0.3, 2.0)),
                          prior_var=float(rng.uniform(0.3, 4.0)))
        design = DesignMatrix(phi=phi, labels=labels)
        mine = evidence_decomposition(fit_posterior(design, cfg), design, cfg).neg_log_evidence
        ref = nle_sequential_1d(phi[:, 0], labels, cfg.noise_var, cfg.prior_var)
        worst = max(worst, abs(mine - ref) / max(1.0, abs(ref)))
    elapsed = time.monotonic() - start
    verdict(2, "1-D sequential predictive oracle", [
        (worst <= 1e-8, f"relative oracle gap {worst:.2e} > 1e-8"),
    ], elapsed, 1.0)


def test_criterion_3_quadratic_form_vs_monte_carlo():
    start = time.monotonic()
    clauses = []
    count = 0
    for design, cfg in random_instances(303, 30, n_range=(5, 51),
                                        d_range=(1, 7)):
        if count == 10:
            break
        count += 1
        post = fit_posterior(design, cfg)
        closed = evidence_decomposition(post, design, cfg).gibbs_emp_risk_total
        weights = sample_posterior(post, 100_000, seed=count)
        resid = design.labels[None, :] - weights @ design.phi.T
        totals = 0.5 * design.n * math.log(2.0 * math.pi * cfg.noise_var) \
            + (resid ** 2).sum(axis=1) / (2.0 * cfg.noise_var)
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        deviation = abs(closed - totals.mean())
        clauses.append((deviation < 4.0 * se,
                        f"instance {count}: |closed - MC| = {deviation:.3e} "
                        f"exceeds 4 se = {4.0 * se:.3e}"))
    elapsed = time.monotonic() - start
    verdict(3, "quadratic-form expectation vs MC", clauses, elapsed, 30.0)


def test_criterion_4_reported_subgamma_constants():
    start = time.monotonic()
    params = nll_subgamma_params(2.0, 1.0, 0.01, 20, 0.25, 1.0 / 9.0)
    gap = params.s2 / (2.0 * (1.0 - params.c))
    elapsed = time.monotonic() - start
    verdict(4, "reported sub-gamma constants", [
        (params.c == 0.005, f"c = {params.c!r} != 0.005"),
        (0.2795 <= params.s2 <= 0.2810,
         f"s2 = {params.s2!r} outside [0.2795, 0.2810]"),
        (0.1404 <= gap <= 0.1412, f"gap = {gap!r} outside [0.1404, 0.1412]"),
    ], elapsed, 1.0)


def test_criterion_5_degree_selection_default_seed():
    start = time.monotonic()
    rows = exp.run_fig_b()
    nles = [r[1] for r in rows]
    kls = [r[3] for r in rows]
    selected = rows[int(np.argmin(nles))][0]
    identity_ok = all(
        abs(nle - (gibbs + kl)) <= 1e-8 * max(1.0, abs(nle))
        for _, nle, gibbs, kl, _ in rows)
    elapsed = time.monotonic() - start
    verdict(5, "degree-3 selection on the default seed", [
        (selected == 3,
         f"argmin of neg_log_evidence is degree {selected}, not 3 "
         "(known-failing: unreachable at sigma2 = 1/2, see README)"),
        (all(a < b for a, b in zip(kls, kls[1:])),
         "kl not strictly increasing in degree"),
        (identity_ok, "evidence identity violated in a row"),
    ], elapsed, 5.0)


def test_criterion_6_bound_comparison_curves():
    start = time.monotonic()
    rows, meta = exp.run_fig_c()
    clauses = [(meta["c"] == 0.005, "metadata c != 0.005"),
               (0.2795 <= meta["s2"] <= 0.2810, "metadata s2 off")]
    for n, emp, gen, sg, cat, al_sqrt, al_n in rows:
        clauses.append((sg < cat, f"n={n}: subgamma {sg:.4f} >= catoni {cat:.4f}"))
        clauses.append((sg < al_sqrt,
                        f"n={n}: subgamma {sg:.4f} >= alquier-sqrt(n) "
                        f"{al_sqrt:.4f} (known-failing at n=1e6, see README)"))
        clauses.append((5.3 <= al_n <= 6.9,
                        f"n={n}: alquier lambda=n bound {al_n:.4f} outside [5.3, 6.9]"))
        if n >= 10_000:
            gap = sg - gen
            clauses.append((0.10 <= gap <= 0.18,
                            f"n={n}: bound-risk gap {gap:.4f} outside [0.10, 0.18]"))
    elapsed = time.monotonic() - start
    verdict(6, "bound comparison against sample size", clauses, elapsed, 600.0)


def test_criterion_7_bound_coverage():
    start = time.monotonic()
    trials, delta = 500, 0.05
    report = exp.run_coverage(seed=7, trials=trials, n=20, d=3, delta=delta)
    ceiling = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    clauses = [
        (fam["rate"] <= ceiling,
         f"{fam['family']}: violation rate {fam['rate']:.4f} > {ceiling:.4f} "
         f"({fam['violations']}/{fam['trials']})")
        for fam in report["families"]
    ]
    elapsed = time.monotonic() - start
    verdict(7, "bound coverage over 500 training draws", clauses, elapsed, 300.0)


def test_criterion_8_mgf_envelope_domination():
    start = time.monotonic()
    rows = empirical_mgf_check(exp.MGF_TASK, exp.MGF_PRIOR_VAR,
                               LossSpec.squared(), exp.MGF_LAMBDAS,
                               1_000_000, seed=8)
    clauses = [
        (psi_hat <= envelope + 3.0 * band,
         f"lambda={lam}: psi_hat {psi_hat:.5f} > envelope "
         f"{envelope:.5f} + 3 band {3 * band:.5f}")
        for lam, psi_hat, envelope, band in rows
    ]
    elapsed = time.monotonic() - start
    verdict(8, "sub-gamma MGF envelope domination", clauses, elapsed, 120.0)


def test_criterion_9_selection_equivalence():
    start = time.monotonic()
    clauses = []
    for seed in range(50):
        nles = [report.neg_log_evidence for _, report in exp.polynomial_family(seed=seed)]
        bounds = model_selection_bounds(nles, exp.SINE_N, 0.05, 1.0, 0.0)
        selected = int(np.argmin(bounds))
        clauses.append((selected == int(np.argmin(nles)),
                        f"seed {seed}: bound argmin != evidence argmax"))
        clauses.append((hierarchical_bound(nles, exp.SINE_N, 0.05, 1.0, 0.0)
                        <= min(bounds) + 1e-12,
                        f"seed {seed}: hierarchical bound not dominant"))
    for count, n in [(2, 15), (7, 15), (4, 3)]:
        nles = [2.5] * count
        gap = min(model_selection_bounds(nles, n, 0.05, 0.3, 0.01)) \
            - hierarchical_bound(nles, n, 0.05, 0.3, 0.01)
        clauses.append((abs(gap - math.log(count) / n) <= 1e-12,
                        f"equalized evidences (L={count}): gap {gap!r} != ln(L)/n"))
    elapsed = time.monotonic() - start
    verdict(9, "selection equals evidence ranking", clauses, elapsed, 10.0)
