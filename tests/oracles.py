"""Independent reference implementations used only to check the package.

Each oracle takes a deliberately different computational path from the
code under test: full-covariance marginal likelihood instead of the
Cholesky decomposition route, elimination in exact rationals (stdlib
fractions) instead of floating point, plain gradient descent instead of a linear
solve, sequential 1-D Bayesian updating instead of batch formulas, plain
Monte Carlo over sampled weights and data instead of closed-form Gaussian
expectations, a bootstrap instead of the delta method, and Gauss-Hermite
quadrature of a closed-form conditional MGF instead of sampling. The
exceptions are `sample_posterior`, seeded exact posterior draws,
`squared_log_mgf_given_z`, the conditional MGF the package's MGF check
also averages, `mgf_rows_reference`, that check's arithmetic as plain
array expressions, `sine_sample_one_seed` and `linear_sample_one_seed`,
earlier forms of the package's sine and linear draws kept to pin their
bits, and `expected_cropped_four_edges`, the earlier region-by-region
cropped expectation that the package's one form is checked against. None
is an independent path; `plain_log_mgf_mc` is the independent check of the
two MGF ones. The bound references state the direct
sub-gamma bound and the evidence-form Catoni bound, the forms the package
does not compute, for checking the forms it does.
"""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.linalg import solve_triangular

from pblr import rng

# the stream tag of `sample_posterior`, beside the package's tags in pblr.rng
POSTERIOR_TAG = 3


def nle_full_covariance(phi: np.ndarray, y: np.ndarray, sigma2: float,
                        prior_var: float) -> float:
    """-log N(y | 0, sigma2 I + prior_var phi phi') via slogdet and solve."""
    n = y.shape[0]
    if n == 0:
        return 0.0
    cov = sigma2 * np.eye(n) + prior_var * (phi @ phi.T)
    _, logdet = np.linalg.slogdet(cov)
    return 0.5 * (n * math.log(2.0 * math.pi) + logdet + float(y @ np.linalg.solve(cov, y)))


def nle_sequential_1d(phis: np.ndarray, ys: np.ndarray, sigma2: float,
                      prior_var: float) -> float:
    """Sum of -log predictive densities from iterative 1-D conjugate updates."""
    mean, var = 0.0, prior_var
    total = 0.0
    for p, y in zip(phis, ys):
        pred_var = var * p * p + sigma2
        resid = y - mean * p
        total += 0.5 * math.log(2.0 * math.pi * pred_var) + 0.5 * resid * resid / pred_var
        precision = 1.0 / var + p * p / sigma2
        mean = (mean / var + p * y / sigma2) / precision
        var = 1.0 / precision
    return total


def nle_exact_rational(xs, ys, degree: int, sigma2: float, prior_var: float,
                       digits: int = 40) -> float:
    """-log evidence of the polynomial model, reading every float input as an exact rational.

    Uses the precision form 2 nle = n ln(2 pi sigma2) + d ln prior_var + ln det A
    + y'y/sigma2 - b'A^{-1}b, with A = phi'phi/sigma2 + I/prior_var and
    b = phi'y/sigma2, in stdlib fractions: the powers, A, det A and b'A^{-1}b
    are exact (elimination without pivoting, as A is positive definite), and
    the one logarithm is taken in decimal at `digits` digits. pi is math.pi.
    """
    xs = [Fraction(float(x)) for x in xs]
    ys = [Fraction(float(y)) for y in ys]
    s2, pv, d = Fraction(sigma2), Fraction(prior_var), degree + 1
    rows = [[x ** j for j in range(d)] for x in xs]
    a = [[sum(r[i] * r[j] for r in rows) / s2 + (1 / pv if i == j else 0) for j in range(d)]
         for i in range(d)]
    c = [sum(r[i] * y for r, y in zip(rows, ys)) / s2 for i in range(d)]
    det, quad = Fraction(1), Fraction(0)
    for k in range(d):  # A = L D L' with unit L: det A = prod D, b'A^{-1}b = sum (L^{-1}b)^2 / D
        det *= a[k][k]
        quad += c[k] * c[k] / a[k][k]
        for i in range(k + 1, d):
            f = a[i][k] / a[k][k]
            a[i] = [a_ij - f * a_kj for a_ij, a_kj in zip(a[i], a[k])]
            c[i] -= f * c[k]
    log_arg = (2 * Fraction(math.pi) * s2) ** len(xs) * pv ** d * det
    rest = sum(y * y for y in ys) / s2 - quad
    with localcontext() as ctx:
        ctx.prec = digits
        twice = (Decimal(log_arg.numerator).ln() - Decimal(log_arg.denominator).ln()
                 + Decimal(rest.numerator) / Decimal(rest.denominator))
        return float(twice / 2)


def lower_inverse_exact(low: np.ndarray) -> np.ndarray:
    """The inverse of a lower triangular float matrix, solved in fractions and rounded once."""
    k = low.shape[0]
    lf = [[Fraction(float(v)) for v in row] for row in low]
    inv = [[Fraction(0)] * k for _ in range(k)]
    for j in range(k):
        for i in range(j, k):
            inv[i][j] = (int(i == j) - sum(lf[i][m] * inv[m][j] for m in range(j, i))) / lf[i][i]
    return np.array([[float(v) for v in row] for row in inv])


def ridge_minimizer_gd(phi: np.ndarray, y: np.ndarray, sigma2: float,
                       prior_var: float, max_iters: int = 500_000) -> np.ndarray:
    """Gradient descent on (1/2sigma2)||y - phi w||^2 + (1/2prior_var)||w||^2."""
    d = phi.shape[1]
    w = np.zeros(d)
    lipschitz = float(np.linalg.eigvalsh(phi.T @ phi)[-1]) / sigma2 + 1.0 / prior_var
    step = 1.0 / lipschitz
    for _ in range(max_iters):
        grad = phi.T @ (phi @ w - y) / sigma2 + w / prior_var
        w_next = w - step * grad
        if np.max(np.abs(w_next - w)) < 1e-13:
            return w_next
        w = w_next
    return w


def kl_gaussians(mean0: np.ndarray, cov0: np.ndarray, mean1: np.ndarray,
                 cov1: np.ndarray) -> float:
    """KL(N0 || N1) for generic multivariate Gaussians, via inv and slogdet."""
    d = mean0.shape[0]
    inv1 = np.linalg.inv(cov1)
    diff = mean1 - mean0
    _, logdet0 = np.linalg.slogdet(cov0)
    _, logdet1 = np.linalg.slogdet(cov1)
    return 0.5 * (float(np.trace(inv1 @ cov0)) + float(diff @ inv1 @ diff)
                  - d + logdet1 - logdet0)


def loss_of_residual(spec, resid: np.ndarray) -> np.ndarray:
    """Loss clip(c0 + r^2 / den, a, b) of each residual r = y - w.x, written out directly."""
    return np.clip(spec.c0 + resid * resid / spec.den, spec.a, spec.b)


def precision(post) -> np.ndarray:
    """The posterior precision matrix A = L L', rebuilt from its Cholesky factor."""
    return post.chol @ post.chol.T


def sample_posterior(post, m: int, seed: int) -> np.ndarray:
    """Draw m exact posterior weight vectors, shape (m, d).

    Uses mean + L^{-T} z with z standard normal, where the precision is
    L L'; a triangular solve, never an explicit covariance.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    gen = rng.stream(seed, POSTERIOR_TAG)
    z = gen.standard_normal((post.d, m))
    return post.mean[None, :] + solve_triangular(post.chol, z, lower=True, trans="T").T


def posterior_draws(post, m: int, seed: int) -> np.ndarray:
    """m posterior weight vectors from numpy's sampler and the explicit covariance."""
    cov = np.linalg.inv(precision(post))
    return np.random.default_rng(seed).multivariate_normal(post.mean, cov, size=m)


def empirical_risk_mc(spec, weights: np.ndarray, phi: np.ndarray,
                      labels: np.ndarray) -> tuple:
    """(estimate, se) of E_w of the dataset-average loss; one iid term per weight."""
    per_w = loss_of_residual(spec, labels[None, :] - weights @ phi.T).mean(axis=1)
    return float(per_w.mean()), float(per_w.std(ddof=1) / math.sqrt(len(per_w)))


def generalization_risk_mc(spec, weights: np.ndarray, x: np.ndarray,
                           y: np.ndarray) -> tuple:
    """(estimate, se) of E_w E_{x,y} loss from paired draws (w_j, x_j, y_j)."""
    per_pair = loss_of_residual(spec, y - np.einsum("ij,ij->i", weights, x))
    return float(per_pair.mean()), float(per_pair.std(ddof=1) / math.sqrt(len(per_pair)))


def cropped_risk_tensor_rule(post, task, loss, k: int) -> float:
    """E_w E_{x,y} of a cropped loss from one fixed tensor Gauss-Hermite rule, k nodes per axis.

    The k^d weights are mean + L^{-T} z over the node grid, from a triangular
    solve; at each, the residual is N(0, s(w)) and its expected loss comes from
    the general array-mu formula of `expected_loss`, not its zero-mean form.
    """
    from pblr.losses import expected_loss

    z, weights = np.polynomial.hermite_e.hermegauss(k)
    grid = np.stack(np.meshgrid(*[z] * post.d, indexing="ij")).reshape(post.d, -1)
    prob = np.ones(1)
    for _ in range(post.d):
        prob = np.outer(prob, weights).ravel()
    w = post.mean[:, None] + solve_triangular(post.chol, grid, lower=True, trans="T")
    s = task.squared_risk(w.T)
    return float(prob @ expected_loss(loss, np.zeros_like(s), s)) / (2.0 * math.pi) ** (post.d / 2)


def expected_cropped_four_edges(spec, mu, var):
    """E clip(c0 + r^2 / denom, a, b) for r ~ N(mu, var), with all four edges +-t_a, +-t_b.

    The reference for the package's one form in the tails beyond t_a and t_b:
    a P(|r| < t_a) + b P(|r| > t_b) plus c0 P and the truncated second moment
    of t_a <= |r| <= t_b over denom, each probability from Phi at its own
    edges, and at the scalar mu = 0 the half-normal form of the same sum. It
    is the package's earlier form, line for line, and it is not clamped.
    """
    from scipy.special import ndtr

    mu, var = np.asarray(mu, dtype=float), np.asarray(var, dtype=float)
    c0, denom, a, b = spec.c0, spec.den, spec.a, spec.b
    t_a = math.sqrt(max(a - c0, 0.0) * denom)
    t_b = math.sqrt(max(b - c0, 0.0) * denom)
    var = np.maximum(var, 1e-300)
    sd = np.sqrt(var)
    if mu.ndim == 0 and mu == 0.0:
        alpha, beta = t_a / sd, t_b / sd
        with np.errstate(over="ignore"):
            gauss = alpha * np.exp(-0.5 * alpha * alpha) - beta * np.exp(-0.5 * beta * beta)
        tail_a, tail_b = ndtr(-alpha), ndtr(-beta)
        scaled = var / denom
        return (a * (1.0 - 2.0 * tail_a) + 2.0 * b * tail_b
                + 2.0 * (c0 + scaled) * (tail_a - tail_b)
                + math.sqrt(2.0 / math.pi) * scaled * gauss)
    edges = (-t_b, -t_a, t_a, t_b)
    z = [(t - mu) / sd for t in edges]
    with np.errstate(over="ignore"):
        pdf = [np.exp(-0.5 * zi * zi) / math.sqrt(2.0 * math.pi) for zi in z]
    cdf = [ndtr(zi) for zi in z]
    low = cdf[2] - cdf[1]
    high = cdf[0] + ndtr(-z[3])
    mid = (cdf[1] - cdf[0]) + (cdf[3] - cdf[2])
    mid_sq = (mu * mu + var) * mid + sd * (
        (mu + edges[0]) * pdf[0] - (mu + edges[1]) * pdf[1]
        + (mu + edges[2]) * pdf[2] - (mu + edges[3]) * pdf[3])
    return a * low + b * high + c0 * mid + mid_sq / denom


def sine_sample_one_seed(seed: int, n: int, noise_var: float) -> tuple:
    """(xs, labels) of one sine-task sample, drawn and labelled as one-seed vectors."""
    gen = rng.stream(seed, rng.SINE_TAG, n)
    xs = gen.uniform(0.0, 2.0 * np.pi, size=n)
    eps = gen.normal(0.0, np.sqrt(noise_var), size=n)
    return xs, np.sin(xs) + eps


def linear_sample_one_seed(seed: int, n: int, spec) -> tuple:
    """(inputs, labels) of one linear-task sample, drawn with normal(0, sd) and labelled xs @ w."""
    gen = rng.stream(seed, rng.LINEAR_TAG, n)
    xs = gen.normal(0.0, np.sqrt(spec.input_var), size=(n, spec.d))
    eps = gen.normal(0.0, np.sqrt(spec.noise_var), size=n)
    return xs, xs @ spec.w_star + eps


def bootstrap_log_mgf_se(v: np.ndarray, lams, reps: int, seed: int) -> np.ndarray:
    """Bootstrap standard error of log mean exp(lam * v), one per lam.

    Each of the `reps` resamples draws len(v) indices with replacement and is
    shared by every lam.
    """
    gen = np.random.default_rng(seed)
    lams = np.asarray(lams, dtype=float)
    estimates = np.empty((reps, lams.size))
    for b in range(reps):
        resample = v[gen.integers(0, v.size, v.size)]
        for j, lam in enumerate(lams):
            lv = lam * resample
            top = lv.max()
            estimates[b, j] = top + math.log(np.mean(np.exp(lv - top)))
    return estimates.std(axis=0, ddof=1)


def plain_log_mgf_mc(lams, w_star: np.ndarray, input_var: float, noise_var: float,
                     prior_var: float, m: int, seed: int) -> list:
    """(estimate, se) of log E exp(lam V) per lam, from m plain draws of (w, x, y).

    w from the prior N(0, prior_var I), then x and noise from the task, and
    V = risk(w) - (y - w.x)^2 with risk(w) = input_var ||w* - w||^2 + noise_var;
    se is the delta-method sd(e) / (sqrt(m) mean(e)) of e = exp(lam V).
    """
    gen = np.random.default_rng(seed)
    d = w_star.size
    w = gen.normal(0.0, math.sqrt(prior_var), size=(m, d))
    x = gen.normal(0.0, math.sqrt(input_var), size=(m, d))
    y = x @ w_star + gen.normal(0.0, math.sqrt(noise_var), size=m)
    diff = w_star[None, :] - w
    v = (input_var * np.sum(diff * diff, axis=1) + noise_var
         - (y - np.sum(w * x, axis=1)) ** 2)
    out = []
    for lam in lams:
        e = np.exp(lam * v)
        out.append((math.log(float(e.mean())),
                    float(e.std(ddof=1)) / (math.sqrt(m) * float(e.mean()))))
    return out


def squared_log_mgf_given_z(lam: float, z: np.ndarray, w_star: np.ndarray,
                            input_var: float, noise_var: float,
                            prior_var: float) -> np.ndarray:
    """log E_w exp(lam V | Z = z) for V = risk(w) - (y - w.x)^2, w from the prior.

    Given w the residual is sqrt(s(w)) Z with s(w) = input_var ||w* - w||^2 +
    noise_var, so V = s(w) (1 - Z^2). Given Z, w* - w ~ N(w*, prior_var I)
    and E exp(t ||w* - w||^2) = (1 - 2 t prior_var)^(-d/2)
    exp(t ||w*||^2 / (1 - 2 t prior_var)) at t = lam input_var (1 - Z^2).
    """
    u = 1.0 - z * z
    t = lam * input_var * u
    shrink = 1.0 - 2.0 * t * prior_var
    if np.any(shrink <= 0):
        raise ValueError("lam must be below 1/c = 1 / (2 input_var prior_var)")
    return (lam * noise_var * u + t * float(w_star @ w_star) / shrink
            - 0.5 * w_star.size * np.log(shrink))


def squared_log_mgf_quadrature(lam: float, w_star: np.ndarray, input_var: float,
                               noise_var: float, prior_var: float) -> float:
    """log E exp(lam V): `squared_log_mgf_given_z` integrated over Z ~ N(0, 1).

    The outer expectation is a 200-node Gauss-Hermite rule (numpy's weights
    overflow at 400 nodes).
    """
    z, weights = np.polynomial.hermite_e.hermegauss(200)
    log_f = squared_log_mgf_given_z(lam, z, w_star, input_var, noise_var, prior_var)
    return math.log(float(weights @ np.exp(log_f)) / math.sqrt(2.0 * math.pi))


def subgamma_bound(emp: float, kl: float, n: int, delta: float, s2: float,
                   c: float) -> float:
    """Direct-form sub-gamma bound emp + (kl + ln(1/delta))/n + s^2/(2(1-c)).

    The reference for `bounds.subgamma_evidence_bound` at -ln Z = n emp + kl
    (sub-Gaussian at c = 0). Raises ValueError on a NaN emp, a KL that is
    negative or NaN, n < 1, delta outside (0, 1], s2 < 0 or c outside [0, 1).
    """
    if not (emp == emp and kl >= 0 and n >= 1 and 0 < delta <= 1 and s2 >= 0
            and 0 <= c < 1):
        raise ValueError(f"invalid sub-gamma bound arguments {(emp, kl, n, delta, s2, c)}")
    return emp + (kl - math.log(delta)) / n + s2 / (2.0 * (1.0 - c))


def catoni_evidence_bound(neg_log_evidence: float, n: int, delta: float,
                          a: float, b: float) -> float:
    """Catoni's bound through the evidence: a + (b-a)/(1-e^{a-b}) [1 - e^a (Z delta)^{1/n}].

    The reference for `bounds.catoni_bound` at -ln Z = n emp + kl, in log space
    so that it stays finite when Z underflows. Raises ValueError when
    e^a (Z delta)^{1/n} overflows.
    """
    if not (n >= 1 and 0 < delta <= 1 and a < b):
        raise ValueError(f"invalid Catoni bound arguments {(n, delta, a, b)}")
    exponent = a + (math.log(delta) - neg_log_evidence) / n
    if not exponent <= math.log(sys.float_info.max):
        raise ValueError(f"Catoni bound is not finite (exponent {exponent})")
    return a + (b - a) / (1.0 - math.exp(a - b)) * (1.0 - math.exp(exponent))


def mgf_rows_reference(task, prior_var: float, loss, params, lambda_grid, m: int,
                       seed: int) -> list:
    """`subgamma.empirical_mgf_check`'s rows, one fresh temporary per operation.

    The same draws and the same operations in the same order as the package's
    in-place pass, written as plain array expressions with np.mean and
    np.std(ddof=1), so the rows must agree bit for bit.
    """
    from pblr.subgamma import subgamma_envelope

    u = 1.0 - rng.stream(seed, rng.MGF_TAG).standard_normal(m) ** 2
    scale = 1.0 / loss.den
    rows = []
    for lam in lambda_grid:
        t = lam * scale * task.input_var * u
        r = 1.0 - 2.0 * prior_var * t
        if not r.min() > 0:
            raise ValueError(f"lambda {lam} is not below 1/c for this task and prior")
        log_e = (lam * scale * task.noise_var * u + t * task.w_star_sq_norm / r
                 - 0.5 * task.d * np.log(r))
        top = float(log_e.max())
        e = np.exp(log_e - top)
        e_mean = float(np.mean(e))
        rows.append((float(lam), top + math.log(e_mean),
                     subgamma_envelope(lam, params.s2, params.c),
                     float(e.std(ddof=1)) / (math.sqrt(m) * e_mean)))
    return rows
