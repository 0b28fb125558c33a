"""Per-example losses clip(c0 + r^2 / den, a, b) and their exact Gaussian expectations.

Every loss is that one record (`LossSpec`) of the residual r = y - w . phi(x):
the squared loss is (c0, den) = (0, 1) on the whole line, the NLL at sigma2 is
(0.5*log(2*pi*sigma2), 2*sigma2), and cropping clamps a plain loss into a
finite [a, b] per example, before any averaging. Under a Gaussian posterior
(or a Gaussian task) r is Gaussian, so its expected loss has a closed form,
and so has the posterior's empirical risk (`empirical_gibbs_risk`), alike for
one posterior, a stack of them and a family of column block widths.
The cropped one is a single form in the Gaussian tails of |r| beyond the two
residuals where the loss crosses a and b, clamped into [a, b] like the loss.

Those tails take the standard normal CDF Phi, computed here with numpy alone;
each call puts every z in one of three branches, once. For |z| < 1 Phi is
1/2 + z Q(z^2), Q the Taylor series of the integral of phi through its w^14 term.
Past |z| = 38.6, e = exp(-z^2 / 2) underflows to 0 and so does Phi(-|z|), so Phi
is 0 or 1 and neither is computed. Elsewhere, NaN included, Phi(-|z|) =
erfcx(x) e / 2 with x = |z| / sqrt(2) and e the exponential phi(z) shares, and
Phi(z) = 1 - Phi(-|z|) for z > 0. erfcx is Weideman's (SIAM J. Numer. Anal. 31,
1994) rational form: (x + 4) erfcx(x) is a degree-24 polynomial in
t = (x - 4) / (x + 4), interpolated at 25 Chebyshev nodes in t from 50-digit
values of erfcx (mpmath) and converted to powers of t, whose coefficients stay
below 1.1. Both tables hold their exact values rounded to double. The rational
form is within 5.6e-16 relative of erfcx on [0, 27] and gives erfcx(0) = 1.0
exactly. Against 40-digit values Phi(-|z|) is within 1.6e-15 relative below
|z| = 8 and 5.7e-14 out to 37, where scipy.special.ndtr is off by up to 9.2e-15
and 2.2e-13; the two agree within 7e-16 for |z| < 1, 3.3e-15 below 4 and 1.2e-14
on [4, 8).
"""

import math
from dataclasses import dataclass

import numpy as np

from .blr import GaussianPosterior, scalar_or_stack, stack_blocks
from .tasks import DesignMatrix

# Variance floor of the cropped expectation: a zero variance is the limit of
# a tiny one, and the floor keeps the z-scores of the thresholds finite.
_MIN_VAR = 1e-300


@dataclass(frozen=True)
class LossSpec:
    """The loss clip(c0 + r^2 / den, a, b): plain on (-inf, inf), cropped on a finite a < b."""

    c0: float
    den: float
    a: float = -math.inf
    b: float = math.inf

    def __post_init__(self):
        if not (math.isfinite(self.c0) and 0.0 < self.den < math.inf):
            raise ValueError("loss c0 + r^2 / den needs a finite c0 and a finite den > 0, "
                             f"got c0 = {self.c0!r}, den = {self.den!r}")
        plain = self.a == -math.inf and self.b == math.inf
        if not (plain or -math.inf < self.a < self.b < math.inf):
            raise ValueError("loss ends must be (-inf, inf) or finite a < b, "
                             f"got ({self.a!r}, {self.b!r})")

    @property
    def kind(self) -> str:
        """The loss's name in a trace ('cropped', 'squared' or 'nll'), derived from the record."""
        if math.isfinite(self.a):
            return "cropped"
        return "squared" if (self.c0, self.den) == (0.0, 1.0) else "nll"

    @classmethod
    def nll(cls, sigma2: float) -> "LossSpec":
        """The Gaussian NLL 0.5 log(2 pi sigma2) + r^2 / (2 sigma2)."""
        sigma2 = float(sigma2)
        c0 = 0.5 * math.log(2.0 * math.pi * sigma2) if sigma2 > 0 else math.nan
        if not math.isfinite(c0):
            raise ValueError("nll loss requires sigma2 > 0 with log(2*pi*sigma2) finite, "
                             f"got {sigma2!r}")
        return cls(c0, 2.0 * sigma2)

    @classmethod
    def squared(cls) -> "LossSpec":
        return cls(0.0, 1.0)

    @classmethod
    def cropped(cls, inner: "LossSpec", a: float, b: float) -> "LossSpec":
        """The plain loss inner clamped into a finite [a, b] per example."""
        if math.isfinite(inner.a) or not -math.inf < a < b < math.inf:
            raise ValueError("cropped loss needs a plain inner loss and finite a < b, "
                             f"got ({a!r}, {b!r})")
        return cls(inner.c0, inner.den, a, b)


def expected_loss(spec: LossSpec, mu, var):
    """E loss(r) for a residual r ~ N(mu, var), elementwise; var = 0 gives loss(mu)."""
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if math.isfinite(spec.a):
        return _expected_cropped(spec, mu, var)
    return spec.c0 + (mu * mu + var) / spec.den


# Both polynomials hold their coefficients constant term first, as 0-d arrays: numpy
# 2.4 takes those faster than Python floats (the 24 Horner steps on 20 points took
# 20-30 us against 29-51 us).
# (x + 4) erfcx(x) in powers of t = (x - 4) / (x + 4):
_ERFCX_POWERS = tuple(map(np.array, (
    1.095995661000491, -0.976548729080882, 0.7732087022652371, -0.5408538313132345,
    0.3308515878780107, -0.1740109372399329, 0.07638151490940508, -0.026370053340693672,
    0.0061120556534863925, -0.0002809588591883079, -0.0004550526593817673,
    0.00017681276807153315, -3.635329756508496e-06, -1.8860655851650423e-05,
    4.695056181536189e-06, 1.423544943950122e-06, -8.478822846448528e-07,
    -7.440264267692018e-08, 1.269526620028216e-07, -2.753680956835059e-10,
    -1.8208760359519016e-08, 7.051218877756988e-10, 2.3248139490706373e-09,
    -7.64653997246155e-11, -1.8622648765726154e-10)))
# Q(w) = sum_k (-1)^k w^k / (sqrt(2 pi) 2^k k! (2k + 1)), so Phi(z) = 1/2 + z Q(z^2);
# for |z| < 1 the first term left out is below 3.1e-19.
_PHI_SERIES = tuple(map(np.array, (
    0.3989422804014327, -0.06649038006690544, 0.009973557010035817, -0.0011873282154804543,
    0.00011543468761615529, -9.444656259503615e-06, 6.659693516316651e-07,
    -4.122667414862689e-08, 2.2735298243728065e-09, -1.1301171641619213e-10,
    5.1124347902563106e-12, -2.121761474217046e-13, 8.133418984498675e-15,
    -2.896516732371323e-16, 9.631274849017947e-18)))
# exp(x) is 0 below about -745.133, and slow to say so (numpy 2.4: 290 us for 12,288
# such x against 17 us for ordinary ones); below this it is not called.
_EXP_ZERO = -745.2


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k for an array x, in one work array."""
    acc = x * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= x
    acc += coeffs[0]
    return acc


def _erfcx(x):
    """exp(x^2) erfc(x) for an array x >= 0 (module docstring)."""
    den = x + 4.0
    t = x - 4.0
    t /= den
    acc = _horner(_ERFCX_POWERS, t)
    acc /= den
    return acc


def _cdf_near(z):
    """Phi(z) for an array z with |z| < 1."""
    acc = _horner(_PHI_SERIES, z * z)
    acc *= z
    acc += 0.5
    return acc


def _cdf_far(z, e):
    """Phi(z) for an array z with |z| >= 1 or NaN, and e = exp(-z^2 / 2)."""
    acc = _erfcx(np.abs(z) * math.sqrt(0.5))  # Phi(-|z|) = erfcx(|z| / sqrt 2) e / 2
    acc *= 0.5
    acc *= e
    np.subtract(1.0, acc, out=acc, where=z > 0.0)
    return acc


def _normal(z):
    """(Phi(z), exp(-z^2 / 2)) for an array z; the second is sqrt(2 pi) phi(z).

    Each branch of the module docstring's partition takes only its own elements,
    and a block wholly in the erfcx branch is not gathered.
    """
    with np.errstate(over="ignore"):  # z^2 overflows as |z| -> inf, where e -> 0
        e = z * -0.5
        e *= z
    live = ~(e < _EXP_ZERO)  # a NaN z stays live, and NaN
    if live.all():
        np.exp(e, out=e)
    else:
        e_live = np.exp(e[live])
        e.fill(0.0)
        e[live] = e_live
    near = np.abs(z) < 1.0  # within live
    far = live ^ near
    if far.all():
        return _cdf_far(z, e), e
    cdf = (z > 0.0).astype(float)  # Phi where e underflows
    if near.any():
        cdf[near] = _cdf_near(z[near])
    if far.any():
        cdf[far] = _cdf_far(z[far], e[far])
    return cdf, e


def _beyond(t: float, mu, second, sd):
    """(G, M) = (P(|r| > t), E[r^2; |r| > t]) for r ~ N(mu, sd^2), a crop edge t >= 0.

    With second = mu^2 + sd^2 and z = (+-mu - t) / sd, P(+-r > t) = Phi(z) and
    E[r^2; +-r > t] = second Phi(z) + sd (t +- mu) phi(z). The two signs take one
    `_normal` call; at t = 0 (G, M) = (1, second) exactly; at the scalar mu = 0
    they share one z.
    """
    if t == 0.0:
        return 1.0, second
    shared = mu.ndim == 0 and mu == 0.0
    z = np.empty((1 if shared else 2, *np.broadcast_shapes(mu.shape, sd.shape)))
    np.subtract(mu, t, out=z[:1])  # r > t
    if not shared:  # r < -t
        np.negative(mu, out=z[1:])
        z[1:] -= t
    with np.errstate(over="ignore"):  # |z| overflows as var -> 0
        z /= sd
    cdf, pdf = _normal(z)
    pdf /= math.sqrt(2.0 * math.pi)
    pdf[:1] *= t + mu
    if not shared:
        pdf[1:] *= t - mu
    tail = cdf[0] + cdf[-1]
    moment = pdf[0] + pdf[-1]
    moment *= sd
    moment += second * tail
    return tail, moment


def _expected_cropped(spec: LossSpec, mu, var):
    """E clip(c0 + r^2 / den, a, b) for r ~ N(mu, var), clamped into [a, b].

    The loss is below a for |r| < t_a and above b for |r| > t_b, so with G and M
    of `_beyond` it is base + (c0 - base) G(t_a) + (b - c0) G(t_b) + (M(t_a) -
    M(t_b)) / den, base = max(a, c0). The default crop has c0 >= a, so t_a = 0;
    where c0 >= b it is the constant b. np.clip undoes rounding past a or b, keeping NaN.
    """
    c0, den, a, b = spec.c0, spec.den, spec.a, spec.b
    t_a = math.sqrt(max(a - c0, 0.0) * den)
    t_b = math.sqrt(max(b - c0, 0.0) * den)
    if not math.isfinite(t_b):  # else inf * phi(inf) turns the expectation into NaN
        raise ValueError(f"cropped loss upper end b = {b!r} is too large: "
                         f"the residual where the loss reaches it overflows")
    if t_b == 0.0:  # every loss is cropped down to b; a NaN mu or var stays NaN
        return np.where(np.isnan(mu) | np.isnan(var), np.nan, b)[()]
    var = np.maximum(var, _MIN_VAR)
    second, sd = mu * mu + var, np.sqrt(var)
    (g_a, m_a), (g_b, m_b) = (_beyond(t, mu, second, sd) for t in (t_a, t_b))
    base = max(a, c0)
    return np.clip(base + (c0 - base) * g_a + (b - c0) * g_b + (m_a - m_b) / den, a, b)


def empirical_gibbs_risk(post: GaussianPosterior, design: DesignMatrix, loss: LossSpec):
    """Exact E_{w~posterior} of the dataset-average loss.

    Under the posterior N(mean, A^{-1}) with A = L L', the residual
    y_i - phi_i . w is N(y_i - phi_i . mean, ||L^{-1} phi_i||^2). A stacked
    posterior and design give the array of the S risks, each with the bits of
    its fit alone; a family of leading column blocks of design
    (`blr.fit_posterior` given widths) gives its risks a leading width axis.
    The examples are taken in the `stack_blocks` of the entries of post's
    means, each block's expected losses written into one array of them all, so
    the work arrays stay within a block and the mean has the bits of a single
    pass. The mean is clamped into the loss's [a, b], the whole line for a plain loss.
    """
    if design.n == 0:
        raise ValueError("the empirical risk needs at least one example")
    phi, labels = design.phi, design.labels
    losses = np.empty(post.mean.shape[:-1] + (design.n,))
    for block in stack_blocks(design.n, post.mean.size):
        rows = slice(block.start, block.stop)
        block_phi = phi[..., rows, :]
        losses[..., rows] = expected_loss(loss, labels[..., rows] - post.predict(block_phi),
                                          post.predictive_var(block_phi))
    risk = np.mean(losses, axis=-1)  # of values in [a, b], but it can round past b
    return scalar_or_stack(np.clip(risk, loss.a, loss.b))
