"""Independent reference values for the benchmark's output checks.

Everything here is written against numpy/scipy directly and shares no code
with `pblr` except the seeded data generators (`pblr.tasks`, `pblr.rng`),
which the recorded reference in `reference.json` pins to the commit that
defined the benchmark. Exact quantities (evidence split, sub-gamma bound,
MGF envelope, posterior-mean predictions) are computed in closed form;
Monte-Carlo quantities get an exact expectation plus the standard error of
the estimator the program uses, so an exact value in the program passes too.
"""

import math

import numpy as np


class Fit:
    """Conjugate posterior N(mean, A^{-1}) with A = phi'phi/s2 + I/p2, via numpy."""

    def __init__(self, phi, y, sigma2, prior_var):
        self.phi, self.y = phi, y
        self.sigma2, self.prior_var = sigma2, prior_var
        n, d = phi.shape
        self.n, self.d = n, d
        a = phi.T @ phi / sigma2 + np.eye(d) / prior_var
        self.low = np.linalg.cholesky(a)
        inv_low = np.linalg.solve(self.low, np.eye(d))
        self.cov = inv_low.T @ inv_low
        self.mean = self.cov @ (phi.T @ y) / sigma2
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.low))))
        self.cov_trace = float(np.sum(inv_low * inv_low))

    def split(self):
        """(neg_log_evidence, gibbs_emp_risk_total, kl) of this fit."""
        n, d, s2, p2 = self.n, self.d, self.sigma2, self.prior_var
        resid = self.y - self.phi @ self.mean
        nll_at_mean = 0.5 * n * math.log(2.0 * math.pi * s2) + float(resid @ resid) / (2.0 * s2)
        msq = float(self.mean @ self.mean)
        nle = nll_at_mean + msq / (2.0 * p2) + 0.5 * self.logdet + 0.5 * d * math.log(p2)
        # tr(phi'phi A^{-1}) = s2 (d - tr(A^{-1}) / p2)
        gibbs = nll_at_mean + 0.5 * (d - self.cov_trace / p2)
        kl = 0.5 * (self.cov_trace / p2 + msq / p2 - d + self.logdet + d * math.log(p2))
        return nle, gibbs, kl

    def predictive_var(self, phi):
        return np.einsum("ij,jk,ik->i", phi, self.cov, phi)

    def sample(self, m, gen):
        z = gen.standard_normal((self.d, m))
        return self.mean[None, :] + np.linalg.solve(self.low.T, z).T


def nll_subgamma_params(sigma2, input_var, prior_var, d, w_sq, noise_var):
    """(s2, c) of the Gaussian NLL loss at lambda = 1."""
    c = input_var * prior_var / sigma2
    s2 = (input_var * (prior_var * d + w_sq) + noise_var * (1.0 - c)) / sigma2
    return s2, c


def squared_subgamma_params(input_var, prior_var, d, w_sq, noise_var):
    """(s2, c) of the squared loss at lambda = 1."""
    c = 2.0 * input_var * prior_var
    s2 = 2.0 * (input_var * (prior_var * d + w_sq) + noise_var * (1.0 - c))
    return s2, c


def subgamma_evidence_bound(nle, n, delta, s2, c):
    return s2 / (2.0 * (1.0 - c)) + (nle + math.log(1.0 / delta)) / n


def catoni_bound(emp, kl, n, delta, a, b):
    scale = (b - a) / (1.0 - math.exp(a - b))
    return a + scale * (1.0 - math.exp(-emp + a - (kl + math.log(1.0 / delta)) / n))


def alquier_hoeffding_bound(emp, kl, n, delta, lam, a, b):
    psi = lam * lam * (b - a) ** 2 / (2.0 * n)
    return emp + (kl + math.log(1.0 / delta) + psi) / lam


def gibbs_gen_nll(fit, w_star, input_var, noise_var):
    """Exact E_w risk of the NLL loss and the per-weight standard deviation.

    risk(w) = c0 + (input_var ||w - w*||^2 + noise_var) / (2 sigma2), with
    u = w - w* ~ N(mean - w*, Sigma): Var ||u||^2 = 2 tr(Sigma^2) + 4 mu'Sigma mu.
    """
    s2 = fit.sigma2
    mu = fit.mean - w_star
    risk = (0.5 * math.log(2.0 * math.pi * s2)
            + (input_var * (float(mu @ mu) + fit.cov_trace) + noise_var) / (2.0 * s2))
    var_sq = 2.0 * float(np.sum(fit.cov * fit.cov)) + 4.0 * float(mu @ fit.cov @ mu)
    return risk, input_var / (2.0 * s2) * math.sqrt(var_sq)


# scipy.special, .stats and .integrate are imported where used: pblr does not
# load them, and the benchmark measures peak memory before any check runs.


def _second_moment(mu, sd, lo, hi):
    """E[r^2 1{lo <= r <= hi}] for r ~ N(mu, sd^2), elementwise."""
    from scipy.special import ndtr
    from scipy.stats import norm
    alpha, beta = (lo - mu) / sd, (hi - mu) / sd
    mass = ndtr(beta) - ndtr(alpha)
    pdf_a, pdf_b = norm.pdf(alpha), norm.pdf(beta)
    with np.errstate(invalid="ignore"):
        tail = np.where(np.isfinite(alpha), alpha * pdf_a, 0.0) \
            - np.where(np.isfinite(beta), beta * pdf_b, 0.0)
    return mu * mu * mass + 2.0 * mu * sd * (pdf_a - pdf_b) + sd * sd * (mass + tail)


def _mass(mu, sd, lo, hi):
    from scipy.special import ndtr
    return ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd)


def cropped_nll_risk(fit, a, b):
    """Exact E_w of the dataset-average loss clip(c0 + r^2 / (2 sigma2), a, b).

    Each residual r_i = y_i - phi_i . w is N(mu_i, v_i) under the posterior;
    the loss is below a for |r| < t_a, above b for |r| > t_b, and a scaled
    second moment in between.
    """
    s2 = fit.sigma2
    c0 = 0.5 * math.log(2.0 * math.pi * s2)
    mu = fit.y - fit.phi @ fit.mean
    sd = np.sqrt(fit.predictive_var(fit.phi))
    t_a = math.sqrt(2.0 * s2 * (a - c0)) if a > c0 else 0.0
    t_b = math.sqrt(2.0 * s2 * (b - c0)) if b > c0 else 0.0
    low = _mass(mu, sd, -t_a, t_a)
    mid = _mass(mu, sd, t_a, t_b) + _mass(mu, sd, -t_b, -t_a)
    high = 1.0 - low - mid
    mid_sq = _second_moment(mu, sd, t_a, t_b) + _second_moment(mu, sd, -t_b, -t_a)
    per_example = a * low + b * high + c0 * mid + mid_sq / (2.0 * s2)
    return float(per_example.mean())


def cropped_nll_sd(fit, a, b, gen, m=128, block=32):
    """Standard deviation over posterior weights of the dataset-average cropped loss.

    Estimated from m draws of this module's own sampler; it sets the
    tolerance for a Monte-Carlo estimate of `cropped_nll_risk`.
    """
    s2 = fit.sigma2
    c0 = 0.5 * math.log(2.0 * math.pi * s2)
    weights = fit.sample(m, gen)
    per_w = np.empty(m)
    for start in range(0, m, block):
        r = fit.y[None, :] - weights[start:start + block] @ fit.phi.T
        per_w[start:start + block] = np.clip(c0 + r * r / (2.0 * s2), a, b).mean(axis=1)
    return float(per_w.std(ddof=1))


def squared_log_mgf(lam, w_star, input_var, noise_var, prior_var):
    """log E exp(lam V) for V = risk(w) - (y - w.x)^2, w from the prior.

    Given w, y - w.x ~ N(0, s) with s = input_var ||w* - w||^2 + noise_var,
    so E_{x,y} exp(lam V) = exp(lam s) (1 + 2 lam s)^(-1/2); ||w* - w||^2 is
    prior_var times a noncentral chi-square.
    """
    from scipy import integrate, stats

    d = w_star.shape[0]
    nc = float(w_star @ w_star) / prior_var
    dist = stats.ncx2(d, nc)

    def integrand(q):
        s = input_var * prior_var * q + noise_var
        return math.exp(lam * s + dist.logpdf(q)) / math.sqrt(1.0 + 2.0 * lam * s)

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return math.log(value)


def subgamma_envelope(lam, s2, c):
    return lam * lam * s2 / (2.0 * (1.0 - c * lam))


def neg_log_evidence_batch(phi, y, sigma2, prior_var):
    """Negative log evidence of many independent fits at once.

    phi has shape (S, n, d) and y shape (S, n); returns shape (S,).
    """
    _, n, d = phi.shape
    a = np.einsum("sni,snj->sij", phi, phi) / sigma2 + np.eye(d) / prior_var
    low = np.linalg.cholesky(a)
    rhs = np.einsum("sni,sn->si", phi, y)[..., None] / sigma2
    z = np.linalg.solve(low, rhs)
    mean = np.linalg.solve(np.swapaxes(low, 1, 2), z)[..., 0]
    resid = y - np.einsum("sni,si->sn", phi, mean)
    logdet = 2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
    return (0.5 * n * math.log(2.0 * math.pi * sigma2)
            + np.einsum("sn,sn->s", resid, resid) / (2.0 * sigma2)
            + np.einsum("si,si->s", mean, mean) / (2.0 * prior_var)
            + 0.5 * logdet + 0.5 * d * math.log(prior_var))
