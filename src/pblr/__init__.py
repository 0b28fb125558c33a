"""PAC-Bayes bounds and exact marginal likelihood for Bayesian linear regression."""

__version__ = "0.1.0"

from .blr import ModelConfig, evidence_decomposition, fit_posterior
from .bounds import subgamma_evidence_bound
from .tasks import DesignMatrix, SineTaskSpec, gen_sine_task, polynomial_features
