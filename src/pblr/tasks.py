"""Synthetic regression tasks, the design matrix, and the polynomial feature map.

Two generative tasks are provided: a noisy sine curve with scalar inputs
(fitted with polynomial features) and a Gaussian linear task with vector
inputs (fitted in the input space). Each task's sample has one definition, a
stack generator that fills one array each for x and y with the samples of
several seeds: `gen_sine_stack` (consecutive seeds) and `gen_linear_stack`
(any seeds). A stack is seeded as one block (`rng.streams`), and each row
keeps the bits of its own seed's stream. `gen_sine_task` and `gen_linear_task`
are their one-seed cases, kept as a plain `Dataset` for the benchmark's oracle.
"""

from dataclasses import dataclass

import numpy as np

from . import rng

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Dataset:
    """One seed's sample from a task generator: raw inputs (n,) or (n, d), labels (n,)."""

    raw_inputs: np.ndarray
    labels: np.ndarray

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
        if not 0 < self.noise_var < np.inf:
            raise ValueError(f"noise_var must be positive and finite, got {self.noise_var!r}")


@dataclass(frozen=True)
class LinearTaskSpec:
    """y = w_star . x + eps with x ~ N(0, input_var I) and eps ~ N(0, noise_var)."""

    w_star: np.ndarray
    input_var: float = 1.0
    noise_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "w_star", np.asarray(self.w_star, dtype=float))
        if self.w_star.ndim != 1 or self.w_star.shape[0] < 1 or not np.isfinite(self.w_star).all():
            raise ValueError("w_star must be a finite vector of dimension >= 1")
        for name, v in (("input_var", self.input_var), ("noise_var", self.noise_var)):
            if not 0 < v < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

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


def gen_sine_stack(spec: SineTaskSpec, count: int) -> tuple:
    """Inputs and labels, each (count, n), of the sine samples at seeds spec.seed + s, s < count.

    The block of seeds is seeded at once (`rng.streams`). Seed spec.seed + s fills
    row s of the uniforms and of the standard normals from its own stream; one
    scaling per array and one np.sin serve the stack, so row s has the bits of
    that seed's `gen_sine_task`, whatever the count.
    """
    xs = np.empty((count, spec.n))
    eps = np.empty((count, spec.n))
    for row, gen in enumerate(rng.streams(range(spec.seed, spec.seed + count),
                                          rng.SINE_TAG, spec.n)):
        gen.random(out=xs[row])
        gen.standard_normal(out=eps[row])
    # uniform(0, 2 pi) is 0.0 + 2 pi U, the same bits for U >= +0; normal(0, sd) is
    # 0.0 + sd Z, whose zero's sign sin(x) + eps absorbs
    xs *= TWO_PI
    eps *= np.sqrt(spec.noise_var)
    return xs, np.sin(xs) + eps


def gen_sine_task(spec: SineTaskSpec) -> Dataset:
    """Draw a sine-task sample with x on [0, TWO_PI]; bit-identical for equal specs.

    The one-seed case of `gen_sine_stack`.
    """
    xs, labels = gen_sine_stack(spec, 1)
    return Dataset(raw_inputs=xs[0], labels=labels[0])


def gen_linear_stack(spec: LinearTaskSpec, n: int, seeds) -> tuple:
    """Inputs (S, n, d) and labels (S, n) of n draws of the linear task at each of the S seeds.

    Seed seeds[s] (not spec.seed) fills row s of the inputs, then of the noise, from its
    own stream with standard normals scaled in place, so row s has the bits of that
    seed's `gen_linear_task`, whatever the stack.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    inputs = np.empty((len(seeds), n, spec.d))
    labels = np.empty((len(seeds), n))
    input_sd, noise_sd = np.sqrt(spec.input_var), np.sqrt(spec.noise_var)
    for row, gen in enumerate(rng.streams(seeds, rng.LINEAR_TAG, n)):
        gen.standard_normal(out=inputs[row])
        inputs[row] *= input_sd
        gen.standard_normal(out=labels[row])
        labels[row] *= noise_sd
        labels[row] += inputs[row] @ spec.w_star
    return inputs, labels


def gen_linear_task(spec: LinearTaskSpec, n: int) -> Dataset:
    """Draw n examples from the Gaussian linear task: the one-seed case of `gen_linear_stack`."""
    inputs, labels = gen_linear_stack(spec, n, [spec.seed])
    return Dataset(raw_inputs=inputs[0], labels=labels[0])
