"""Synthetic regression tasks, dataset containers, and feature maps.

Two generative tasks are provided: a noisy sine curve with scalar inputs
(fitted with polynomial features) and a Gaussian linear task with vector
inputs (fitted in the input space).
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
    """Feature-mapped inputs: row i of ``phi`` is the feature vector of example i."""

    phi: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        labels = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "labels", labels)
        if phi.ndim != 2:
            raise ValueError("phi must be a matrix")
        if phi.shape[0] != labels.shape[0]:
            raise ValueError(f"phi has {phi.shape[0]} rows but {labels.shape[0]} labels")
        if not np.isfinite(phi).all():
            raise ValueError("design matrix contains non-finite entries")
        if not np.isfinite(labels).all():
            raise ValueError("labels contain non-finite entries")

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def d(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class SineTaskSpec:
    """y = sin(x) + eps with x uniform on [lo, hi] and eps ~ N(0, noise_var)."""

    n: int
    noise_var: float
    lo: float = 0.0
    hi: float = TWO_PI
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
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


def polynomial_features(x: float, degree: int) -> np.ndarray:
    """Map a scalar to [1, x, x^2, ..., x^degree].

    Overflow produces non-finite entries; DesignMatrix rejects those on
    construction.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    with np.errstate(over="ignore"):
        return np.asarray(float(x), dtype=float) ** np.arange(degree + 1)


def polynomial_design(dataset: Dataset, degree: int) -> DesignMatrix:
    """Build the n x (degree+1) design matrix for a scalar-input dataset."""
    xs = np.asarray(dataset.raw_inputs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("polynomial features need scalar inputs")
    with np.errstate(over="ignore"):
        phi = xs[:, None] ** np.arange(degree + 1)[None, :]
    return DesignMatrix(phi=phi, labels=dataset.labels)


def identity_design(dataset: Dataset) -> DesignMatrix:
    """Use the raw input vectors themselves as features."""
    phi = np.asarray(dataset.raw_inputs, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    return DesignMatrix(phi=phi, labels=dataset.labels)


def gen_sine_task(spec: SineTaskSpec) -> Dataset:
    """Draw a sine-task sample; bit-identical for equal (spec, seed)."""
    gen = rng.stream(spec.seed, rng.SINE_TAG, spec.n)
    xs = gen.uniform(spec.lo, spec.hi, size=spec.n)
    eps = gen.normal(0.0, np.sqrt(spec.noise_var), size=spec.n)
    return Dataset(raw_inputs=xs, labels=np.sin(xs) + eps)


def gen_linear_task(spec: LinearTaskSpec, n: int) -> Dataset:
    """Draw n examples from the Gaussian linear task."""
    if n < 0:
        raise ValueError("n must be non-negative")
    gen = rng.stream(spec.seed, rng.LINEAR_TAG, n)
    xs = gen.normal(0.0, np.sqrt(spec.input_var), size=(n, spec.d))
    eps = gen.normal(0.0, np.sqrt(spec.noise_var), size=n)
    return Dataset(raw_inputs=xs, labels=xs @ spec.w_star + eps)


def write_dataset_csv(dataset: Dataset, path, metadata=None) -> None:
    """Serialize a dataset as CSV: header x_0,...,x_k,y, one row per example.

    `metadata` items, when given, become '#'-prefixed lines above the header.
    """
    inputs = np.atleast_2d(dataset.raw_inputs.T).T  # (n, k)
    if inputs.shape[0] != dataset.n:
        inputs = inputs.reshape(dataset.n, -1)
    k = inputs.shape[1] if dataset.n else 1
    header = ",".join(f"x_{j}" for j in range(k)) + ",y"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key} = {val}\n")
        fh.write(header + "\n")
        for i in range(dataset.n):
            row = ",".join(repr(float(v)) for v in inputs[i])
            fh.write(f"{row},{float(dataset.labels[i])!r}\n")
