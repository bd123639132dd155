"""Numerical kernels: the Efron partial-likelihood scan and concordance counts.

Both are implemented in numpy in `_ref`. `BACKEND` names that implementation;
run manifests record it so results stay attributable to the kernels that
produced them.
"""

from ._ref import concordance_counts, efron_loss_grad

BACKEND = "python"

__all__ = ["efron_loss_grad", "concordance_counts", "BACKEND"]
