"""Modal decomposition of sequence distributions, mode truncation, and
SGLD-based local learning coefficient experiments."""

from .corpus import (
    CountTable,
    TokenStream,
    build_conditional_matrix,
    extract_contextual_examples,
    stream_ngram_counts,
)
from .distribution import (
    Alphabet,
    ConditionalOperator,
    Language,
    check_language,
    conditional_operator,
    fundamental_tensor,
    marginalize,
    plant_absolute_bigram,
    plant_collective_bigram,
    random_doubly_stochastic_language,
    random_language,
)
from .model import (
    Dataset,
    InsensitivityReport,
    SoftmaxModel,
    empirical_loss,
    entropy_rate_bound,
    fit_model,
    grad_log_prob,
    insensitivity_report,
    lipschitz_estimates,
    log_prob,
    phi_map,
    population_loss,
    sample_dataset,
)
from .modes import (
    ModeDecomposition,
    gram_mode_basis,
    mode_basis_eval,
    mode_weight,
    pair_model_with_mode,
    propensity,
    reconstruct_conditional,
    truncated_weighted_svd,
    tucker_decompose,
    weighted_svd,
)
from .sgld import (
    ChainTrace,
    LLCEstimate,
    QuadraticTarget,
    SGLDConfig,
    SoftmaxTarget,
    bound_f,
    bound_g,
    bound_mu,
    llc_estimate,
    estimator_difference_bound,
    run_chain,
    run_chains,
    run_coupled_chains,
    sgld_step,
    volume_scaling_fit,
)
from .truncation import (
    EffectiveDistribution,
    multi_length_truncation,
    project_leq_chi,
    truncate_kl,
    truncate_normalized,
)

__version__ = "0.1.0"
