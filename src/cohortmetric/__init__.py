"""Function-regularized diffusion metrics for cohort-level functionals."""

from .config import ConfigError, RunConfig, load_config
from .data import DataMatrix
from .diffusion import (
    AffinityMatrix,
    DiffusionEmbedding,
    MarkovOperator,
    gaussian_kernel,
    markov_normalize,
    median_bandwidth,
    spectral_embed,
)
from .extension import (
    ReferenceEmbedding,
    asymmetric_kernel,
    build_reference,
    extend_batch,
)
from .harness import (
    FitTooLargeError,
    FittedModel,
    Predictions,
    ValidationReport,
    fit_pipeline,
    predict,
    recommend_pipeline,
    validate_pipeline,
)
from .metric import (
    CohortFunctional,
    RegularizedMetric,
    WeightField,
    folder_weight,
    fit_weighted_metric,
    multiscale_estimate,
    weighted_kernel,
)
from .simulate import (
    GroundTruth,
    TrialDataset,
    TrialSpec,
    gen_propensity_trial,
    gen_random_model,
    gen_sphere_trial,
    generate,
    score_against_truth,
)
from .survival import (
    CohortError,
    CohortTooSmallError,
    CoxFit,
    HazardModel,
    LinearRisk,
    LocalAlphaFunctional,
    LocalEffectEstimate,
    SurvivalCurve,
    SurvivalRecords,
    UndefinedCohortValue,
    cox_fit,
    kaplan_meier,
    logrank_test,
    mom_bias_oracle,
    moments_alpha,
    partial_likelihood_alpha,
    recommend_groups,
    simulate_cohort,
    weibull_sample,
)
from .tree import PartitionTree, build_topdown

__version__ = "0.1.0"
