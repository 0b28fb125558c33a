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
    log_gibbs_posterior_density,
    neg_log_evidence,
)
from .bounds import (
    BoundReport,
    alquier_bound,
    catoni_bound,
    catoni_evidence_bound,
    hoeffding_psi_bound,
    subgamma_bound,
    subgamma_evidence_bound,
    subgaussian_bound,
)
from .losses import LossSpec, empirical_gibbs_risk, expected_loss
from .subgamma import (
    SubGammaParams,
    empirical_mgf_check,
    nll_subgamma_params,
    squared_loss_subgamma_params,
    subgamma_envelope,
)
from .selection import (
    ModelEntry,
    ModelFamily,
    hierarchical_bound,
    model_selection_bounds,
    selection_vs_averaging_report,
)
from .tasks import (
    Dataset,
    DesignMatrix,
    LinearTaskSpec,
    SineTaskSpec,
    gen_linear_task,
    gen_sine_task,
    identity_design,
    polynomial_design,
    polynomial_features,
    write_dataset_csv,
)
from .mc import (
    ValidityStudyConfig,
    gibbs_generalization_risk,
    jensen_mean_predictor_risk,
    run_validity_study,
    sample_posterior,
)
