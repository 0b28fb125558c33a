"""Independent reference implementations used only to check the package.

Each oracle takes a deliberately different computational path from the
code under test: full-covariance marginal likelihood instead of the
Cholesky decomposition route, plain gradient descent instead of a linear
solve, sequential 1-D Bayesian updating instead of batch formulas, plain
Monte Carlo over sampled weights and data instead of closed-form Gaussian
expectations.
"""

import math

import numpy as np


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
    """Loss of each residual y - w.x, written out directly per loss kind."""
    if spec.kind == "cropped":
        return np.clip(loss_of_residual(spec.inner, resid), spec.a, spec.b)
    sq = resid * resid
    if spec.kind == "squared":
        return sq
    return 0.5 * math.log(2.0 * math.pi * spec.sigma2) + sq / (2.0 * spec.sigma2)


def posterior_draws(post, m: int, seed: int) -> np.ndarray:
    """m posterior weight vectors from numpy's sampler and the explicit covariance."""
    cov = np.linalg.inv(post.precision)
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
