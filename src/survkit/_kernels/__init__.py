"""Numerical kernels: the Efron partial-likelihood scan and concordance counts.

Both are implemented in numpy in `_ref`. The Efron scan comes in two parts:
`efron_ties` builds the time-only tie structure once, and `efron_eval`
scores one vector of linear predictors on it; `efron_loss_grad` is the two
in one call. `BACKEND` names the implementation; run manifests record it so
results stay attributable to the kernels that produced them.
"""

from ._ref import concordance_counts, efron_eval, efron_loss_grad, efron_ties

BACKEND = "python"

__all__ = ["efron_ties", "efron_eval", "efron_loss_grad", "concordance_counts", "BACKEND"]
