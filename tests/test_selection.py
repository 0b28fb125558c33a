import math

import numpy as np
import pytest

from pblr.bounds import subgamma_evidence_bound
from pblr.experiments import (DEFAULT_SEED, SINE_N, SINE_NOISE_VAR, SINE_SIGMA2,
                              SINE_SIGMA_PI2, polynomial_family, selected_degrees)
from pblr.bounds import hierarchical_bound, model_selection_bounds
from pblr.tasks import SineTaskSpec, gen_sine_task, polynomial_features

from oracles import nle_exact_rational, nle_full_covariance

# relative error bound of each degree's negative log evidence against the
# exact-rational reference, about 10x the worst seen over seeds 1-6; the
# normal equations square cond(phi), so the error grows with the degree
EXACT_EVIDENCE_RTOL = {1: 1e-14, 2: 1e-14, 3: 1e-12, 4: 1e-11, 5: 1e-10, 6: 1e-9, 7: 5e-8}


def test_single_model_reduces_to_evidence_bound():
    bounds = model_selection_bounds([3.0], 10, 0.05, 0.3, 0.01)
    assert bounds == [subgamma_evidence_bound(3.0, 10, 0.05, 0.3, 0.01)]
    assert hierarchical_bound([3.0], 10, 0.05, 0.3, 0.01) == bounds[0]


def test_tie_breaks_to_smallest_id():
    bounds = model_selection_bounds([2.0, 2.0, 2.0], 10, 0.05, 0.3, 0.01)
    assert int(np.argmin(bounds)) == 0


def test_selection_uses_delta_over_l():
    nles = [1.0, 4.0, 2.5]
    for bound, nle in zip(model_selection_bounds(nles, 10, 0.3, 0.2, 0.0), nles):
        assert bound == subgamma_evidence_bound(nle, 10, 0.3 / 3, 0.2, 0.0)


def test_argmin_bound_is_argmax_evidence():
    rng = np.random.default_rng(0)
    for _ in range(30):
        nles = list(rng.uniform(-5.0, 50.0, size=int(rng.integers(1, 9))))
        bounds = model_selection_bounds(nles, 10, 0.05, 0.4, 0.02)
        assert int(np.argmin(bounds)) == int(np.argmin(nles))


def test_hierarchical_never_looser_than_selection():
    rng = np.random.default_rng(1)
    for _ in range(30):
        nles = list(rng.uniform(0.0, 40.0, size=int(rng.integers(1, 8))))
        h = hierarchical_bound(nles, 10, 0.05, 0.4, 0.02)
        assert h <= min(model_selection_bounds(nles, 10, 0.05, 0.4, 0.02)) + 1e-12


def test_equal_evidences_gap_is_log_l_over_n():
    for count, n in [(2, 10), (5, 7), (11, 2)]:
        nles = [3.3] * count
        gap = min(model_selection_bounds(nles, n, 0.05, 0.3, 0.01)) \
            - hierarchical_bound(nles, n, 0.05, 0.3, 0.01)
        assert gap == pytest.approx(math.log(count) / n, abs=1e-12)


def test_single_model_gap_zero():
    bounds = model_selection_bounds([2.0], 10, 0.05, 0.3, 0.01)
    gap = min(bounds) - hierarchical_bound([2.0], 10, 0.05, 0.3, 0.01)
    assert gap == pytest.approx(0.0, abs=1e-14)


def test_hierarchical_bound_survives_underflowing_evidences():
    # Z_i = exp(-1e6) underflows; the max-shifted log-sum-exp does not
    nles = [1e6, 1e6 + 1.0]
    expected = subgamma_evidence_bound(1e6 - math.log1p(math.exp(-1.0)), 10**6,
                                       0.05 / 2, 0.3, 0.01)
    assert hierarchical_bound(nles, 10**6, 0.05, 0.3, 0.01) == pytest.approx(
        expected, rel=1e-14)


def test_family_validation():
    for bound_fn in (model_selection_bounds, hierarchical_bound):
        with pytest.raises(ValueError, match="at least one model"):
            bound_fn([], 10, 0.05, 0.3, 0.01)


def test_fig_b_selection_report_shape():
    family = polynomial_family(seed=0, degrees=(1, 2, 3))
    assert [deg for deg, _ in family] == [1, 2, 3]
    nles = [report.neg_log_evidence for _, report in family]
    bounds = model_selection_bounds(nles, SINE_N, 0.05, 1.0, 0.0)
    assert len(bounds) == 3
    assert min(bounds) - hierarchical_bound(nles, SINE_N, 0.05, 1.0, 0.0) >= -1e-12
    # the shared (s2, c) shift is model-independent: any pair keeps the winner
    other = model_selection_bounds(nles, SINE_N, 0.05, 0.4, 0.2)
    assert int(np.argmin(other)) == int(np.argmin(bounds))


def test_polynomial_family_selection_consistency():
    # fitted sine-task family: pairs come in degree order, the winner by
    # bound is the winner by evidence for any (s2, c), and averaging
    # dominates selection
    for seed in range(8):
        family = polynomial_family(seed=seed)
        assert [deg for deg, _ in family] == list(range(1, 8))
        nles = [report.neg_log_evidence for _, report in family]
        for s2, c in [(1.0, 0.0), (0.4, 0.2)]:
            bounds = model_selection_bounds(nles, SINE_N, 0.05, s2, c)
            assert int(np.argmin(bounds)) == int(np.argmin(nles))
            assert hierarchical_bound(nles, SINE_N, 0.05, s2, c) <= min(bounds) + 1e-12


def test_seed_scan_selects_degree_1_over_2000_seeds():
    # README's claim: degree 1 has the highest evidence at nearly every seed, degree 3 never
    best = selected_degrees(seed=DEFAULT_SEED, seeds=2000)
    assert len(best) == 2000
    assert np.sum(best == 1) >= 1990 and not np.any(best == 3)


def exact_evidence_errors(seeds) -> dict:
    """degree -> worst relative error of `polynomial_family`'s evidence over seeds."""
    worst = dict.fromkeys(EXACT_EVIDENCE_RTOL, 0.0)
    for seed in seeds:
        sample = gen_sine_task(SineTaskSpec(n=SINE_N, noise_var=SINE_NOISE_VAR, seed=seed))
        for degree, report in polynomial_family(seed=seed, degrees=tuple(EXACT_EVIDENCE_RTOL)):
            exact = nle_exact_rational(sample.raw_inputs, sample.labels, degree,
                                       SINE_SIGMA2, SINE_SIGMA_PI2)
            worst[degree] = max(worst[degree], abs(report.neg_log_evidence - exact) / abs(exact))
    return worst


def test_exact_rational_oracle_agrees_with_the_full_covariance_form():
    # at degree 1, where cond(K) is small, the n x n float form is accurate
    sample = gen_sine_task(SineTaskSpec(n=SINE_N, noise_var=SINE_NOISE_VAR, seed=4))
    exact = nle_exact_rational(sample.raw_inputs, sample.labels, 1, SINE_SIGMA2, SINE_SIGMA_PI2)
    assert exact == pytest.approx(nle_full_covariance(
        polynomial_features(sample.raw_inputs, 1), sample.labels, SINE_SIGMA2,
        SINE_SIGMA_PI2), rel=1e-12)
    assert nle_exact_rational([], [], 3, SINE_SIGMA2, SINE_SIGMA_PI2) == 0.0  # no data


def test_polynomial_family_evidence_matches_exact_rationals():
    # sine seeds 1-20 (about 1.5 s): degree 7 sits near 2.2e-9 against its 5e-8 bound
    worst = exact_evidence_errors(range(1, 21))
    assert all(worst[degree] <= rtol for degree, rtol in EXACT_EVIDENCE_RTOL.items()), worst
