import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pblr.blr import ModelConfig, evidence_decomposition, fit_posterior
from pblr.bounds import (alquier_bound, catoni_bound, hierarchical_bound, hoeffding_psi_bound,
                         model_selection_bounds, subgamma_evidence_bound)
from pblr.tasks import DesignMatrix

from oracles import catoni_evidence_bound, subgamma_bound

LN20 = math.log(20.0)


def decomposition_instance(seed=0, n=25, d=3):
    rng = np.random.default_rng(seed)
    design = DesignMatrix(phi=rng.standard_normal((n, d)),
                          labels=rng.standard_normal(n))
    cfg = ModelConfig(noise_var=1.2, prior_var=0.9)
    return evidence_decomposition(fit_posterior(design, cfg), design, cfg)


# ---------------------------------------------------------------- catoni

def test_catoni_trivial_floor():
    for a, b, n in [(-1.0, 2.0, 5), (0.0, 1.0, 50), (1.0, 4.0, 7)]:
        assert catoni_bound(a, 0.0, n, 1.0, a, b) == pytest.approx(a, abs=1e-14)


def test_catoni_frozen_value():
    assert catoni_bound(0.2, 1.0, 100, 0.05, 0.0, 1.0) == pytest.approx(
        0.3374966438161321, abs=1e-13)


def test_catoni_monotone_in_kl():
    prev = -math.inf
    for kl in np.linspace(0.0, 20.0, 40):
        val = catoni_bound(0.5, float(kl), 30, 0.1, 0.0, 1.0)
        assert val > prev
        prev = val


def test_catoni_rejects_uncropped_empirical_risk():
    with pytest.raises(ValueError, match="outside"):
        catoni_bound(4.5, 0.0, 10, 0.5, 1.0, 4.0)


def test_catoni_value_range_invariant():
    rng = np.random.default_rng(1)
    a, b = 1.0, 4.0
    ceiling = a + (b - a) / (1.0 - math.exp(a - b))
    for _ in range(200):
        emp = float(rng.uniform(a, b))
        kl = float(rng.uniform(0.0, 50.0))
        n = int(rng.integers(1, 1000))
        delta = float(rng.uniform(0.01, 1.0))
        val = catoni_bound(emp, kl, n, delta, a, b)
        assert a <= val <= ceiling


def test_catoni_narrow_crop_is_finite():
    # 1 - exp(a - b) rounds to 0 for b - a below about 1e-16; expm1 keeps b - a
    for a, b in [(1e-300, 2e-300), (1.0, 1.0 + 2.0 ** -52), (0.0, 1e-20)]:
        val = catoni_bound(a, 1.0, 10, 0.05, a, b)
        assert math.isfinite(val) and val >= a


def test_catoni_keeps_its_bits_at_ordinary_crops():
    # the old denominator 1 - exp(a - b), bit for bit, at the crops the figures use
    for a, b in [(1.0, 4.0), (3.0, 5.0), (2.0, 4.0), (0.2, 1.0)]:
        emp, kl, n, delta = (a + b) / 2.0, 3.0, 100, 0.05
        exponent = -emp + a - (kl - math.log(delta)) / n
        old = a + (b - a) / (1.0 - math.exp(a - b)) * (1.0 - math.exp(exponent))
        assert catoni_bound(emp, kl, n, delta, a, b) == old


def test_catoni_evidence_trivial_case():
    # Z = e^{-n a} at delta=1 makes the root e^a (Z delta)^{1/n} equal one
    for a, b, n in [(0.0, 1.0, 4), (1.0, 4.0, 11)]:
        assert catoni_evidence_bound(n * a, n, 1.0, a, b) == pytest.approx(
            a, abs=1e-12)


def test_catoni_evidence_equals_catoni_under_decomposition():
    n = 25
    report = decomposition_instance(n=n)
    emp = report.gibbs_emp_risk_total / n
    a, b = math.floor(emp) - 1.0, math.ceil(emp) + 1.0
    via_emp = catoni_bound(emp, report.kl, n, 0.05, a, b)
    via_evidence = catoni_evidence_bound(report.neg_log_evidence, n, 0.05, a, b)
    assert via_evidence == pytest.approx(via_emp, rel=1e-8)


def test_catoni_evidence_two_path_small_scale():
    # benign scale: the naive (non-log-space) formula is usable as an oracle
    nle, n, delta, a, b = 1.5155121234846454, 1, 0.05, 1.0, 4.0
    z = math.exp(-nle)
    naive = a + (b - a) / (1.0 - math.exp(a - b)) \
        * (1.0 - math.exp(a) * (z * delta) ** (1.0 / n))
    assert catoni_evidence_bound(nle, n, delta, a, b) == pytest.approx(
        naive, rel=1e-12)


# ---------------------------------------------------------------- alquier

def test_hoeffding_psi_values():
    assert hoeffding_psi_bound(10.0, 10, 0.0, 2.0) == pytest.approx(20.0)
    assert hoeffding_psi_bound(math.sqrt(50.0), 50, 0.0, 2.0) == pytest.approx(2.0)
    assert hoeffding_psi_bound(3.0, 7, 1.5, 1.5) == pytest.approx(0.0)


@pytest.mark.parametrize("args", [(1.0, 0, 1.0, 4.0), (1.0, 5, 4.0, 1.0)], ids=["n-0", "a-above-b"])
def test_hoeffding_psi_rejects_a_bad_sample_size_or_range(args):
    with pytest.raises(ValueError):
        hoeffding_psi_bound(*args)


def test_alquier_lambda_n_reduction():
    emp, kl, n, delta, a, b = 0.7, 2.0, 40, 0.1, 0.0, 1.5
    psi = hoeffding_psi_bound(float(n), n, a, b)
    expected = emp + (kl + math.log(1 / delta)) / n + 0.5 * (b - a) ** 2
    assert alquier_bound(emp, kl, n, delta, float(n), psi) == pytest.approx(
        expected, rel=1e-12)


def test_alquier_lambda_sqrt_n_reduction():
    emp, kl, n, delta, a, b = 0.7, 2.0, 36, 0.1, 1.0, 4.0
    lam = math.sqrt(n)
    psi = hoeffding_psi_bound(lam, n, a, b)
    expected = emp + (kl + math.log(1 / delta) + 0.5 * (b - a) ** 2) / lam
    assert alquier_bound(emp, kl, n, delta, lam, psi) == pytest.approx(
        expected, rel=1e-12)


def test_alquier_collapses_to_empirical_risk():
    assert alquier_bound(0.42, 0.0, 10, 1.0, 5.0, 0.0) == pytest.approx(0.42)


# ---------------------------------------------------------------- sub-gaussian / sub-gamma
# A sub-Gaussian loss is the sub-gamma case c = 0.

def test_subgaussian_trivial():
    assert subgamma_bound(0.3, 0.0, 10, 1.0, 0.0, 0.0) == pytest.approx(0.3)


def test_subgaussian_equals_subgamma_at_zero_scale():
    for emp, kl, n, delta, s2 in [(1.0, 2.0, 10, 0.05, 0.28),
                                  (0.1, 0.0, 3, 0.5, 1.7)]:
        assert subgamma_bound(emp, kl, n, delta, s2, 0.0) == pytest.approx(
            emp + (kl + math.log(1.0 / delta)) / n + 0.5 * s2, rel=1e-14)


def test_subgaussian_frozen_value():
    assert subgamma_bound(1.0, 2.0, 10, 0.05, 0.28, 0.0) == pytest.approx(
        1.639573227355399, abs=1e-12)


def test_subgamma_additive_gap():
    base = subgamma_bound(0.0, 0.0, 5, 1.0, 0.2803, 0.005)
    assert base == pytest.approx(0.2803 / (2.0 * 0.995), abs=1e-14)
    assert base == pytest.approx(0.14085427135678393, abs=1e-12)


def test_subgamma_rejects_scale_at_least_one():
    with pytest.raises(ValueError):
        subgamma_bound(0.0, 0.0, 5, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        subgamma_evidence_bound(0.0, 5, 0.5, 1.0, 1.2)


def test_subgamma_trivial():
    assert subgamma_bound(0.9, 0.0, 10, 1.0, 0.0, 0.3) == pytest.approx(0.9)


def test_subgamma_evidence_trivial():
    assert subgamma_evidence_bound(0.0, 7, 1.0, 0.0, 0.5) == pytest.approx(0.0)


def test_subgamma_evidence_direct_substitution():
    val = subgamma_evidence_bound(1.5155121234846454, 1, 0.05, 0.2803, 0.005)
    expected = 0.2803 / (2.0 * 0.995) + 1.5155121234846454 + LN20
    assert val == pytest.approx(expected, abs=1e-12)
    assert val == pytest.approx(4.6520, abs=2e-4)


def test_subgamma_evidence_equals_subgamma_under_decomposition():
    n = 25
    report = decomposition_instance(seed=5, n=n)
    via_emp = subgamma_bound(report.gibbs_emp_risk_total / n, report.kl, n,
                             0.05, 0.3, 0.01)
    via_evidence = subgamma_evidence_bound(report.neg_log_evidence, n, 0.05,
                                           0.3, 0.01)
    assert via_evidence == pytest.approx(via_emp, rel=1e-8)


# ---------------------------------------------------------------- shared invariants

@pytest.mark.parametrize("bound_fn", [
    lambda emp, kl, n, delta: catoni_bound(emp, kl, n, delta, 0.0, 2.0),
    lambda emp, kl, n, delta: alquier_bound(emp, kl, n, delta, float(n),
                                            hoeffding_psi_bound(float(n), n, 0.0, 2.0)),
    lambda emp, kl, n, delta: subgamma_bound(emp, kl, n, delta, 0.4, 0.0),
    lambda emp, kl, n, delta: subgamma_bound(emp, kl, n, delta, 0.4, 0.1),
])
def test_bounds_nondecreasing_in_kl_and_confidence(bound_fn):
    emp, n = 0.8, 25
    for delta in (1.0, 0.5, 0.05):
        vals = [bound_fn(emp, kl, n, delta) for kl in (0.0, 1.0, 5.0, 20.0)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    vals = [bound_fn(emp, 2.0, n, delta) for delta in (1.0, 0.2, 0.05, 0.01)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_fitted_posterior_minimizes_risk_plus_kl():
    # shifting the posterior mean along t*mean: objective minimal at t = 1
    rng = np.random.default_rng(9)
    design = DesignMatrix(phi=rng.standard_normal((40, 4)),
                          labels=rng.standard_normal(40))
    cfg = ModelConfig(noise_var=0.8, prior_var=1.7)
    post = fit_posterior(design, cfg)

    def objective(t):
        mean = t * post.mean
        resid = design.labels - design.phi @ mean
        nll = 0.5 * design.n * math.log(2.0 * math.pi * cfg.noise_var) \
            + float(resid @ resid) / (2.0 * cfg.noise_var)
        trace_term = 0.5 * design.d - post.cov_trace / (2.0 * cfg.prior_var)
        kl = 0.5 * (post.cov_trace / cfg.prior_var
                    + float(mean @ mean) / cfg.prior_var - design.d
                    + post.logdet_precision
                    + design.d * math.log(cfg.prior_var))
        return nll + trace_term + kl

    at_one = objective(1.0)
    for t in np.linspace(-0.5, 2.0, 26):
        assert at_one <= objective(float(t)) + 1e-9


def test_catoni_evidence_overflow_is_a_value_error():
    # a huge evidence makes e^{a - ln(Z delta)/n} overflow: not finite, not OverflowError
    with pytest.raises(ValueError, match="not finite"):
        catoni_evidence_bound(-1e6, 10, 0.05, 1.0, 4.0)


NAN = math.nan
NAN_CASES = {  # (function, argument) -> a call with that one argument NaN, or the inf named
    ("alquier_bound", "emp"): lambda: alquier_bound(NAN, 1.0, 10, 0.05, 3.0, 0.5),
    ("alquier_bound", "kl"): lambda: alquier_bound(0.5, NAN, 10, 0.05, 3.0, 0.5),
    ("alquier_bound", "lam"): lambda: alquier_bound(0.5, 1.0, 10, 0.05, NAN, 0.5),
    ("alquier_bound", "psi_bound"): lambda: alquier_bound(0.5, 1.0, 10, 0.05, 3.0, NAN),
    ("hoeffding_psi_bound", "lam"): lambda: hoeffding_psi_bound(NAN, 10, 1.0, 4.0),
    ("hoeffding_psi_bound", "a"): lambda: hoeffding_psi_bound(3.0, 10, NAN, 4.0),
    ("hoeffding_psi_bound", "b"): lambda: hoeffding_psi_bound(3.0, 10, 1.0, NAN),
    ("subgamma_bound", "emp"): lambda: subgamma_bound(NAN, 1.0, 10, 0.05, 0.3, 0.1),
    ("subgamma_bound", "kl"): lambda: subgamma_bound(0.5, NAN, 10, 0.05, 0.3, 0.1),
    ("subgamma_evidence_bound", "s2"): lambda: subgamma_evidence_bound(
        5.0, 10, 0.05, NAN, 0.1),
    ("subgamma_evidence_bound", "neg_log_evidence"): lambda: subgamma_evidence_bound(
        NAN, 10, 0.05, 0.3, 0.1),
    ("model_selection_bounds", "neg_log_evidences"): lambda: model_selection_bounds(
        [NAN, 1.0], 10, 0.05, 0.3, 0.1),
    ("hierarchical_bound", "neg_log_evidences"): lambda: hierarchical_bound(
        [NAN, 1.0], 10, 0.05, 0.3, 0.1),
    ("subgamma_evidence_bound", "neg_log_evidence=inf"): lambda: subgamma_evidence_bound(
        math.inf, 10, 0.05, 0.3, 0.1),
    ("subgamma_evidence_bound", "neg_log_evidence=-inf"): lambda: subgamma_evidence_bound(
        -math.inf, 10, 0.05, 0.3, 0.1),
    ("model_selection_bounds", "neg_log_evidences=-inf"): lambda: model_selection_bounds(
        [-math.inf, 1.0], 10, 0.05, 0.3, 0.1),
    ("model_selection_bounds", "neg_log_evidences=inf"): lambda: model_selection_bounds(
        [1.0, math.inf], 10, 0.05, 0.3, 0.1),
    ("hierarchical_bound", "neg_log_evidences=-inf"): lambda: hierarchical_bound(
        [-math.inf, 1.0], 10, 0.05, 0.3, 0.1),
    ("hierarchical_bound", "neg_log_evidences=inf,inf"): lambda: hierarchical_bound(
        [math.inf, math.inf], 10, 0.05, 0.3, 0.1),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES), ids="-".join)
def test_nan_argument_is_refused(case):
    # a NaN bound would otherwise pass every comparison and win np.argmin
    with pytest.raises(ValueError):
        NAN_CASES[case]()


def test_hierarchical_bound_of_far_apart_evidences_is_finite():
    # log_zs - top overflows to -inf for the smaller evidence, whose share is then 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = hierarchical_bound([1e308, -1e308], 10, 0.05, 0.3, 0.1)
    assert bound == subgamma_evidence_bound(-1e308, 10, 0.025, 0.3, 0.1)
    assert math.isfinite(bound)


# ---------------------------------------------------------------- properties

A, B = 1.0, 4.0  # the cropping interval of fig-c
S2, C = 0.28, 0.5

DIRECT = {
    "catoni": lambda emp, kl, n, delta: catoni_bound(emp, kl, n, delta, A, B),
    "alquier_sqrtn": lambda emp, kl, n, delta: alquier_bound(
        emp, kl, n, delta, math.sqrt(n), hoeffding_psi_bound(math.sqrt(n), n, A, B)),
    "alquier_n": lambda emp, kl, n, delta: alquier_bound(
        emp, kl, n, delta, float(n), hoeffding_psi_bound(float(n), n, A, B)),
    "subgaussian": lambda emp, kl, n, delta: subgamma_bound(emp, kl, n, delta, S2, 0.0),
    "subgamma": lambda emp, kl, n, delta: subgamma_bound(emp, kl, n, delta, S2, C),
}

emps = st.floats(A, B)
kls = st.floats(0.0, 1e6)
ns = st.integers(1, 10**7)
# down to the smallest subnormal, where 1/delta overflows but -ln(delta) is 744.4
deltas = st.one_of(st.sampled_from([1e-320, 5e-324]),
                   st.floats(5e-324, 1.0, allow_subnormal=True))


def ordered(lo, hi, slack=1e-12):
    return lo <= hi + slack * max(1.0, abs(lo), abs(hi))


@pytest.mark.parametrize("name", sorted(DIRECT))
@settings(max_examples=100, deadline=None)
@given(emp=emps, kl1=kls, kl2=kls, n=ns, delta=deltas)
def test_bound_nondecreasing_in_kl(name, emp, kl1, kl2, n, delta):
    lo, hi = sorted((kl1, kl2))
    assert ordered(DIRECT[name](emp, lo, n, delta), DIRECT[name](emp, hi, n, delta))


@pytest.mark.parametrize("name", sorted(DIRECT))
@settings(max_examples=100, deadline=None)
@given(emp=emps, kl=kls, n=ns, d1=deltas, d2=deltas)
def test_bound_nonincreasing_in_delta(name, emp, kl, n, d1, d2):
    lo, hi = sorted((d1, d2))
    assert ordered(DIRECT[name](emp, kl, n, hi), DIRECT[name](emp, kl, n, lo))


@pytest.mark.parametrize("name", sorted(DIRECT))
@settings(max_examples=100, deadline=None)
@given(emp=emps, kl=kls, n1=ns, n2=ns, delta=deltas)
def test_bound_nonincreasing_in_n(name, emp, kl, n1, n2, delta):
    lo, hi = sorted((n1, n2))
    assert ordered(DIRECT[name](emp, kl, hi, delta), DIRECT[name](emp, kl, lo, delta))


@settings(max_examples=200, deadline=None)
@given(emp=emps, kl=kls, n=ns, delta=deltas)
def test_evidence_forms_equal_direct_forms_under_identity(emp, kl, n, delta):
    nle = n * emp + kl  # -ln Z = n * (Gibbs empirical risk) + KL
    assert subgamma_evidence_bound(nle, n, delta, S2, C) == pytest.approx(
        subgamma_bound(emp, kl, n, delta, S2, C), rel=1e-9)
    assert catoni_evidence_bound(nle, n, delta, A, B) == pytest.approx(
        catoni_bound(emp, kl, n, delta, A, B), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(emp=emps, kl=kls, n=ns, delta=deltas)
def test_bounds_finite_on_valid_inputs(emp, kl, n, delta):
    nle = n * emp + kl
    values = [bound(emp, kl, n, delta) for bound in DIRECT.values()]
    values += [subgamma_evidence_bound(nle, n, delta, S2, C),
               catoni_evidence_bound(nle, n, delta, A, B)]
    assert all(map(math.isfinite, values)), values
