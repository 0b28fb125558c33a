"""Synthetic regression tasks, dataset containers, and feature maps.

Two generative tasks are provided: a noisy sine curve with scalar inputs
(fitted with polynomial features) and a Gaussian linear task with vector
inputs (fitted in the input space). The sine sample has one definition,
`gen_sine_stack`, which draws the samples of consecutive seeds into one
array each for x and y; `gen_sine_task` is its one-seed case.
"""

from dataclasses import dataclass

import numpy as np

from . import rng

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Dataset:
    """Raw inputs and labels, before any feature mapping.

    ``raw_inputs`` has shape (n,) for scalar tasks and (n, d) for vector
    tasks; ``labels`` always has shape (n,).
    """

    raw_inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "raw_inputs", np.asarray(self.raw_inputs, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=float))
        if self.labels.ndim != 1:
            raise ValueError("labels must be a vector")
        if self.raw_inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("labels length must equal number of inputs")

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class DesignMatrix:
    """Feature-mapped inputs: row i of ``phi`` is the feature vector of example i.

    A stack of S designs of one shape has phi (S, n, d) and labels (S, n).
    """

    phi: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        labels = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "labels", labels)
        if phi.ndim > 3:
            raise ValueError("phi must be a matrix or a stack of matrices")
        if phi.shape[:-1] != labels.shape:
            raise ValueError(f"phi of shape {phi.shape} does not match labels of shape "
                             f"{labels.shape}")
        if not np.isfinite(phi).all():
            raise ValueError("design matrix contains non-finite entries")
        if not np.isfinite(labels).all():
            raise ValueError("labels contain non-finite entries")

    @property
    def n(self) -> int:
        return self.phi.shape[-2]

    @property
    def d(self) -> int:
        return self.phi.shape[-1]


@dataclass(frozen=True)
class SineTaskSpec:
    """y = sin(x) + eps with x uniform on [0, 2 pi] and eps ~ N(0, noise_var)."""

    n: int
    noise_var: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if not self.noise_var > 0:
            raise ValueError("noise_var must be positive")


@dataclass(frozen=True)
class LinearTaskSpec:
    """y = w_star . x + eps with x ~ N(0, input_var I) and eps ~ N(0, noise_var)."""

    w_star: np.ndarray
    input_var: float = 1.0
    noise_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "w_star", np.asarray(self.w_star, dtype=float))
        if self.w_star.ndim != 1 or self.w_star.shape[0] < 1:
            raise ValueError("w_star must be a vector of dimension >= 1")
        if not (self.input_var > 0 and self.noise_var > 0):
            raise ValueError("variances must be positive")

    @property
    def d(self) -> int:
        return self.w_star.shape[0]

    @property
    def w_star_sq_norm(self) -> float:
        return float(self.w_star @ self.w_star)

    def squared_risk(self, w: np.ndarray) -> np.ndarray:
        """E_{x,y} (y - w.x)^2 = input_var ||w* - w||^2 + noise_var, per weight vector.

        Given w, the residual y - w.x is N(0, squared_risk(w)).
        """
        diff = self.w_star - w
        return self.input_var * np.einsum("...i,...i->...", diff, diff) + self.noise_var


def polynomial_features(xs: np.ndarray, degree: int) -> np.ndarray:
    """Powers [1, x, ..., x^degree] along a new last axis, for an array of scalar inputs.

    Overflow produces non-finite entries, without a warning; the fits reject them.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    with np.errstate(over="ignore"):
        return np.asarray(xs, dtype=float)[..., None] ** np.arange(degree + 1)


def polynomial_design(dataset: Dataset, degree: int) -> DesignMatrix:
    """Build the n x (degree+1) design matrix [1, x, ..., x^degree] for scalar inputs."""
    if dataset.raw_inputs.ndim != 1:
        raise ValueError("polynomial features need scalar inputs")
    return DesignMatrix(phi=polynomial_features(dataset.raw_inputs, degree),
                        labels=dataset.labels)


def gen_sine_stack(spec: SineTaskSpec, count: int) -> tuple:
    """Inputs and labels, each (count, n), of the sine samples at seeds spec.seed + s, s < count.

    Seed spec.seed + s fills row s of x on [0, TWO_PI] and of the noise from its
    own stream, and one np.sin serves the stack, so row s has the bits of that
    seed's `gen_sine_task`, whatever the count.
    """
    xs = np.empty((count, spec.n))
    eps = np.empty((count, spec.n))
    sd = np.sqrt(spec.noise_var)
    for row in range(count):
        gen = rng.stream(spec.seed + row, rng.SINE_TAG, spec.n)
        xs[row] = gen.uniform(0.0, TWO_PI, size=spec.n)
        eps[row] = gen.normal(0.0, sd, size=spec.n)
    return xs, np.sin(xs) + eps


def gen_sine_task(spec: SineTaskSpec) -> Dataset:
    """Draw a sine-task sample with x on [0, TWO_PI]; bit-identical for equal specs.

    The one-seed case of `gen_sine_stack`.
    """
    xs, labels = gen_sine_stack(spec, 1)
    return Dataset(raw_inputs=xs[0], labels=labels[0])


def gen_linear_task(spec: LinearTaskSpec, n: int) -> Dataset:
    """Draw n examples from the Gaussian linear task."""
    if n < 0:
        raise ValueError("n must be non-negative")
    gen = rng.stream(spec.seed, rng.LINEAR_TAG, n)
    xs = gen.normal(0.0, np.sqrt(spec.input_var), size=(n, spec.d))
    eps = gen.normal(0.0, np.sqrt(spec.noise_var), size=n)
    return Dataset(raw_inputs=xs, labels=xs @ spec.w_star + eps)
