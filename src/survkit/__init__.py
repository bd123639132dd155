"""Survival-analysis toolkit.

Cohort ingestion, chained-equation imputation with Rubin pooling, Cox
elastic net, neural risk models, IPCW metrics, and a seeded experiment
harness with a synthetic-cohort generator. Names are imported from their
modules: the package holds only the version and the kernel backend's name.
"""

__version__ = "0.1.0"
KERNEL_BACKEND = "python"
