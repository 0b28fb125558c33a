"""PAC-Bayes bounds and exact marginal likelihood for Bayesian linear regression."""

__version__ = "0.1.0"

from .blr import (
    EvidenceReport,
    GaussianPosterior,
    ModelConfig,
    evidence_decomposition,
    fit_posterior,
    gaussian_kl,
    gibbs_expected_empirical_nll,
    neg_log_evidence,
)
from .bounds import (
    alquier_bound,
    catoni_bound,
    catoni_evidence_bound,
    hoeffding_psi_bound,
    subgamma_bound,
    subgamma_evidence_bound,
)
from .losses import LossSpec, empirical_gibbs_risk, expected_loss
from .subgamma import (
    SubGammaParams,
    empirical_mgf_check,
    nll_subgamma_params,
    squared_loss_subgamma_params,
    subgamma_envelope,
)
from .selection import hierarchical_bound, model_selection_bounds
from .tasks import (
    Dataset,
    DesignMatrix,
    LinearTaskSpec,
    SineTaskSpec,
    gen_linear_task,
    gen_sine_task,
    identity_design,
    polynomial_design,
)
from .mc import (
    ValidityStudyConfig,
    gibbs_generalization_risk,
    run_validity_study,
)
