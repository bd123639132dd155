"""Checks of the kernels survkit selected (compiled or numpy) on small inputs.

`concordance_counts` must equal a naive count over all pairs, exactly.
`efron_loss_grad` must give the Efron value of its definition, and a
gradient that matches central differences of that value. Inputs come
from the seed, with tied times and tied scores so the tie paths run.
"""

from __future__ import annotations

import math

import numpy as np

SIZES = (2, 9, 40)
VALUE_REL_TOL = 1e-10
GRAD_TOL = 1e-6
EPS = 1e-6


def naive_counts(t, e, s):
    conc = tied = comp = 0
    for i in range(len(t)):
        if not e[i]:
            continue
        for j in range(len(t)):
            if i != j and (t[j] > t[i] or (t[j] == t[i] and not e[j])):
                comp += 1
                conc += int(s[i] > s[j])
                tied += int(s[i] == s[j])
    return conc, tied, comp


def naive_efron(t, e, eta):
    value = 0.0
    for time in sorted({t[i] for i in range(len(t)) if e[i]}):
        dead = [i for i in range(len(t)) if e[i] and t[i] == time]
        risk = sum(math.exp(eta[j]) for j in range(len(t)) if t[j] >= time)
        tie = sum(math.exp(eta[i]) for i in dead)
        d = len(dead)
        value += sum(math.log(risk - l / d * tie) for l in range(d))
        value -= sum(eta[i] for i in dead)
    return value


def inputs(rng, n):
    times = rng.integers(1, max(3, n // 3), size=n).astype(float)
    events = rng.random(n) < 0.65
    events[0] = True
    scores = np.round(rng.normal(size=n), 1)
    eta = rng.normal(size=n)
    return times, events, scores, eta


def problems(seed):
    """Kernel results that differ from their definitions, as messages."""
    from survkit._kernels import concordance_counts, efron_loss_grad

    rng = np.random.default_rng(seed)
    found = []
    for n in SIZES:
        t, e, s, eta = inputs(rng, n)
        got = tuple(int(c) for c in concordance_counts(t, e, s))
        want = naive_counts(t, e, s)
        if got != want:
            found.append(f"concordance_counts at n={n}: {got}, naive {want}")

        value, grad = efron_loss_grad(t, e.astype(float), eta)
        value = float(value)
        want = naive_efron(t, e, eta)
        if not math.isclose(value, want, rel_tol=VALUE_REL_TOL, abs_tol=VALUE_REL_TOL):
            found.append(f"efron_loss_grad value at n={n}: {value!r}, naive {want!r}")
        for i in range(n):
            hi, lo = eta.copy(), eta.copy()
            hi[i] += EPS
            lo[i] -= EPS
            fd = (naive_efron(t, e, hi) - naive_efron(t, e, lo)) / (2 * EPS)
            if abs(grad[i] - fd) > GRAD_TOL * max(1.0, abs(fd)):
                found.append(f"efron_loss_grad gradient[{i}] at n={n}: {float(grad[i])!r}, "
                             f"central difference {fd!r}")
                break
    return found
