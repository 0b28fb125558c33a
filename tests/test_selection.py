import json
import math

import numpy as np
import pytest

from pblr.blr import EvidenceReport, ModelConfig
from pblr.bounds import subgamma_evidence_bound
from pblr.experiments import polynomial_family
from pblr.selection import (ModelEntry, ModelFamily, hierarchical_bound,
                            model_selection_bounds,
                            selection_vs_averaging_report)

CFG = ModelConfig(noise_var=1.0, prior_var=1.0)


def entry(model_id, nle, n=10, degree=None):
    # consistent synthetic report: split nle arbitrarily into risk + kl
    kl = 0.25 * abs(nle)
    report = EvidenceReport(neg_log_evidence=nle, gibbs_emp_risk_total=nle - kl,
                            kl=kl, n=n, d=model_id + 1, sigma2=1.0,
                            sigma_pi2=1.0)
    return ModelEntry(model_id=model_id, degree=degree or model_id + 1,
                      config=CFG, evidence=report)


def family_of(nles, n=10):
    return ModelFamily(models=tuple(entry(i, nle, n=n)
                                    for i, nle in enumerate(nles)))


def test_single_model_reduces_to_evidence_bound():
    fam = family_of([3.0])
    per_model, selected = model_selection_bounds(fam, 0.05, 0.3, 0.01)
    assert selected == 0
    assert per_model[0][1] == pytest.approx(
        subgamma_evidence_bound(3.0, 10, 0.05, 0.3, 0.01), rel=1e-14)
    assert hierarchical_bound(fam, 0.05, 0.3, 0.01) == pytest.approx(
        per_model[0][1], rel=1e-14)


def test_tie_breaks_to_smallest_id():
    fam = family_of([2.0, 2.0, 2.0])
    _, selected = model_selection_bounds(fam, 0.05, 0.3, 0.01)
    assert selected == 0


def test_selection_uses_delta_over_l():
    fam = family_of([1.0, 4.0, 2.5])
    per_model, _ = model_selection_bounds(fam, 0.3, 0.2, 0.0)
    for (mid, bound), nle in zip(per_model, [1.0, 4.0, 2.5]):
        assert bound == pytest.approx(
            subgamma_evidence_bound(nle, 10, 0.3 / 3, 0.2, 0.0), rel=1e-14)


def test_argmin_bound_is_argmax_evidence():
    rng = np.random.default_rng(0)
    for _ in range(30):
        nles = list(rng.uniform(-5.0, 50.0, size=int(rng.integers(1, 9))))
        fam = family_of(nles)
        _, selected = model_selection_bounds(fam, 0.05, 0.4, 0.02)
        assert selected == int(np.argmin(nles))


def test_hierarchical_never_looser_than_selection():
    rng = np.random.default_rng(1)
    for _ in range(30):
        nles = list(rng.uniform(0.0, 40.0, size=int(rng.integers(1, 8))))
        fam = family_of(nles)
        per_model, _ = model_selection_bounds(fam, 0.05, 0.4, 0.02)
        h = hierarchical_bound(fam, 0.05, 0.4, 0.02)
        assert h <= min(b for _, b in per_model) + 1e-12


def test_equal_evidences_gap_is_log_l_over_n():
    for count, n in [(2, 10), (5, 7), (11, 2)]:
        fam = family_of([3.3] * count, n=n)
        report = selection_vs_averaging_report(fam, 0.05, 0.3, 0.01)
        assert report.gap == pytest.approx(math.log(count) / n, abs=1e-12)


def test_single_model_gap_zero():
    report = selection_vs_averaging_report(family_of([2.0]), 0.05, 0.3, 0.01)
    assert report.gap == pytest.approx(0.0, abs=1e-14)


def test_family_validation():
    with pytest.raises(ValueError):
        ModelFamily(models=())
    with pytest.raises(ValueError):
        ModelFamily(models=(entry(0, 1.0, n=5), entry(1, 2.0, n=6)))
    assert ModelFamily(models=[entry(0, 1.0), entry(1, 2.0)]).size == 2


def test_report_json_schema():
    fam = family_of([1.0, 2.0, 0.5])
    report = selection_vs_averaging_report(fam, 0.05, 0.3, 0.01)
    payload = json.loads(json.dumps(report.as_dict()))
    assert set(payload) >= {"models", "selected_id", "hierarchical_bound", "gap"}
    assert set(map(frozenset, payload["models"])) == \
        {frozenset({"id", "degree", "neg_log_evidence", "bound"})}
    assert payload["selected_id"] == 2


def test_fig_b_selection_report_shape():
    family = polynomial_family(seed=0, degrees=(1, 2, 3))
    report = selection_vs_averaging_report(family, 0.05, 1.0, 0.0)
    assert report.degrees == (1, 2, 3)
    assert len(report.bounds) == 3
    assert report.gap >= -1e-12
    # the shared (s2, c) shift is model-independent: any pair keeps the winner
    other = selection_vs_averaging_report(family, 0.05, 0.4, 0.2)
    assert other.selected_id == report.selected_id


def test_polynomial_family_selection_consistency():
    # fitted sine-task family: winner by bound == winner by evidence,
    # dominance and the two-level KL identity hold
    for seed in range(8):
        fam = polynomial_family(seed=seed)
        report = selection_vs_averaging_report(fam, 0.05, 1.0, 0.0)
        nles = report.neg_log_evidences
        assert report.selected_id == int(np.argmin(nles))
        assert report.hierarchical_bound <= min(report.bounds) + 1e-12
        assert report.kl_identity_residual <= 1e-8 * max(1.0, abs(min(nles)))
        assert report.kl_two_level == pytest.approx(
            math.log(fam.size) + report.kl_selected, rel=1e-14)
