"""Survival-analysis toolkit.

Cohort ingestion, chained-equation imputation with Rubin pooling, Cox
elastic net, neural risk models, IPCW metrics, and a seeded experiment
harness with a synthetic-cohort generator.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND as KERNEL_BACKEND
from .coxph import fit_coxph, neg_log_partial_likelihood, wald_stats
from .curves import CumHazardFn, SurvivalCurve
from .deephit import DeepHitParams, deephit_loss, fit_deephit, make_time_grid
from .deepsurv import DeepSurvParams, deepsurv_loss, fit_deepsurv
from .harness import (
    ExperimentConfig,
    PrepConfig,
    SplitPlan,
    cv_evaluate,
    grid_search,
    identify_factors,
    run_experiment,
    split,
)
from .impute import mice_impute, nelson_aalen, pool_rubin
from .metrics import (
    bootstrap_ci,
    bootstrap_counts,
    brier_score,
    concordance_index,
    cumulative_dynamic_auc,
    integrated_brier,
    kaplan_meier,
)
from .nnet import adam_step, backward, forward, init_mlp, init_optimizer
from .preprocess import dummy_encode, fit_scaler, apply_scaler, prune_correlated
from .synth import ensure_like, generate
from .tabular import (
    ColumnSpec,
    InclusionRules,
    SurvivalDataset,
    apply_inclusion,
    load_csv,
    load_schema,
    save_csv,
    save_schema,
    summarize,
)

__all__ = [
    "__version__",
    "KERNEL_BACKEND",
    "ColumnSpec",
    "SurvivalDataset",
    "InclusionRules",
    "load_csv",
    "save_csv",
    "load_schema",
    "save_schema",
    "apply_inclusion",
    "summarize",
    "dummy_encode",
    "fit_scaler",
    "apply_scaler",
    "prune_correlated",
    "nelson_aalen",
    "mice_impute",
    "pool_rubin",
    "fit_coxph",
    "neg_log_partial_likelihood",
    "wald_stats",
    "init_mlp",
    "forward",
    "backward",
    "adam_step",
    "init_optimizer",
    "DeepSurvParams",
    "deepsurv_loss",
    "fit_deepsurv",
    "DeepHitParams",
    "deephit_loss",
    "fit_deephit",
    "make_time_grid",
    "CumHazardFn",
    "SurvivalCurve",
    "kaplan_meier",
    "concordance_index",
    "brier_score",
    "integrated_brier",
    "cumulative_dynamic_auc",
    "bootstrap_ci",
    "bootstrap_counts",
    "SplitPlan",
    "PrepConfig",
    "ExperimentConfig",
    "split",
    "cv_evaluate",
    "grid_search",
    "identify_factors",
    "run_experiment",
    "ensure_like",
    "generate",
]
