"""Kernel tests: Efron partial-likelihood loss/gradient and concordance counts.

The reference oracle here is an intentionally naive O(n^2) implementation,
written independently of the shipped kernels, so agreement is meaningful.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survkit._kernels import (
    EfronTies,
    concordance_counts,
    efron_eval,
    efron_loss_grad,
    efron_ties,
)


def slow_efron(times, events, eta):
    """Textbook Efron negative log partial likelihood via explicit loops."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    x = np.asarray(eta, dtype=float)
    phi = np.exp(x)
    value = 0.0
    for u in np.unique(t[e == 1.0]):
        tied = (t == u) & (e == 1.0)
        d = int(tied.sum())
        risk = phi[t >= u].sum()
        tie_sum = phi[tied].sum()
        value -= x[tied].sum()
        for ell in range(d):
            value += np.log(risk - (ell / d) * tie_sum)
    return value


def slow_efron_grad(times, events, eta):
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    x = np.asarray(eta, dtype=float)
    phi = np.exp(x)
    n = len(t)
    grad = -e.copy()
    for u in np.unique(t[e == 1.0]):
        tied = (t == u) & (e == 1.0)
        d = int(tied.sum())
        at_risk = t >= u
        risk = phi[at_risk].sum()
        tie_sum = phi[tied].sum()
        for ell in range(d):
            denom = risk - (ell / d) * tie_sum
            w = at_risk.astype(float) - (ell / d) * tied.astype(float)
            grad += phi * w / denom
    return grad


def random_survival(rng, n, tie_prob=0.3, censor_prob=0.35, scale=1.0):
    """Small random dataset with deliberate time ties and censoring."""
    times = rng.integers(1, max(3, n // 2), size=n).astype(float)
    if tie_prob == 0.0:
        times = times + rng.random(n) * 0.5
    events = (rng.random(n) > censor_prob).astype(float)
    if events.sum() == 0:
        events[rng.integers(0, n)] = 1.0
    eta = rng.normal(0.0, scale, size=n)
    return times, events, eta


# -- hand-computed values ------------------------------------------------------


def test_value_zero_scores_no_ties():
    # Risk sets of sizes 3, 2, 1 with phi = 1 give log 3 + log 2 + log 1.
    value, grad = efron_loss_grad([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert value == pytest.approx(np.log(6.0), abs=1e-14)
    np.testing.assert_allclose(grad, [-2.0 / 3.0, -1.0 / 6.0, 5.0 / 6.0], atol=1e-14)


def test_value_with_censoring():
    # Censored subject contributes no event term but stays in earlier risk sets.
    value, grad = efron_loss_grad([1.0, 2.0, 3.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    assert value == pytest.approx(np.log(3.0), abs=1e-14)
    np.testing.assert_allclose(grad, [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_value_and_grad_with_ties():
    """Two tied events at t=1 with phi = (2, 1, 1).

    Efron denominators: 4 and 4 - (1/2)*3 = 2.5 for the tied group, then 1
    for the last event; value = log 4 + log 2.5 + log 1 - log 2 = log 5.
    """
    eta = [np.log(2.0), 0.0, 0.0]
    value, grad = efron_loss_grad([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], eta)
    assert value == pytest.approx(np.log(5.0), abs=1e-12)
    np.testing.assert_allclose(grad, [-0.1, -0.55, 0.65], atol=1e-12)


def test_no_events_is_zero():
    value, grad = efron_loss_grad([1.0, 2.0], [0.0, 0.0], [0.3, -0.2])
    assert value == 0.0
    np.testing.assert_array_equal(grad, [0.0, 0.0])


def test_input_validation():
    with pytest.raises(ValueError):
        efron_loss_grad([], [], [])
    with pytest.raises(ValueError):
        efron_loss_grad([1.0, 2.0], [1.0], [0.0, 0.0])


# -- oracle agreement ----------------------------------------------------------


def test_matches_slow_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 60))
        times, events, eta = random_survival(rng, n)
        value, grad = efron_loss_grad(times, events, eta)
        assert value == pytest.approx(slow_efron(times, events, eta), rel=1e-12)
        np.testing.assert_allclose(grad, slow_efron_grad(times, events, eta), atol=1e-10)


def test_gradient_finite_differences():
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(10):
        n = int(rng.integers(4, 25))
        times, events, eta = random_survival(rng, n)
        _, grad = efron_loss_grad(times, events, eta)
        for j in range(n):
            hi = eta.copy()
            lo = eta.copy()
            hi[j] += eps
            lo[j] -= eps
            fd = (efron_loss_grad(times, events, hi)[0] - efron_loss_grad(times, events, lo)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=5e-8)


def test_shift_invariance():
    # The partial likelihood only sees score differences.
    rng = np.random.default_rng(3)
    times, events, eta = random_survival(rng, 30)
    v0, g0 = efron_loss_grad(times, events, eta)
    v1, g1 = efron_loss_grad(times, events, eta + 123.456)
    assert v1 == pytest.approx(v0, rel=1e-12)
    np.testing.assert_allclose(g1, g0, atol=1e-10)


def test_underflow_reports_infeasible():
    """A score spread beyond exp range must not silently produce -inf logs."""
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([0.0, 1.0, 1.0])
    eta = np.array([800.0, -800.0, -800.0])
    value, grad = efron_loss_grad(times, events, eta)
    assert value == float("inf")
    assert np.all(np.isnan(grad))


# -- prepared tie structure ------------------------------------------------------


def test_tie_structure_hand_case():
    # sorted: t = 1 (event), 1 (censored), 2 (event), 2 (event), 3 (censored)
    ties = efron_ties([2.0, 1.0, 1.0, 3.0, 2.0], [1.0, 1.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(ties.order, [1, 2, 0, 4, 3])
    np.testing.assert_array_equal(ties.events, [True, False, True, True, False])
    np.testing.assert_array_equal(ties.starts, [0, 2, 4])
    np.testing.assert_array_equal(ties.has_event, [True, True, False])
    np.testing.assert_array_equal(ties.sizes, [1, 2])
    np.testing.assert_array_equal(ties.frac, [0.0, 0.0, 0.5])
    np.testing.assert_array_equal(ties.bounds, [0, 1])
    np.testing.assert_array_equal(ties.own, [0, 1, 1])
    np.testing.assert_array_equal(ties.group_at, [0, 2])
    np.testing.assert_array_equal(ties.risk_at, [0, 2, 2])
    np.testing.assert_array_equal(ties.event_pos, [0, 2, 3])
    np.testing.assert_array_equal(ties.cover1, [1, 1, 2, 2, 2])
    np.testing.assert_array_equal(ties.event_f, [1.0, 0.0, 1.0, 1.0, 0.0])
    assert ties.tied is True
    assert efron_ties([1.0, 2.0, 2.0], [1.0, 1.0, 0.0]).tied is False


def test_prepared_ties_serve_many_score_vectors():
    """One efron_ties record, reused over several score vectors, gives the
    bits of a fresh efron_loss_grad call each time and is left unchanged."""
    rng = np.random.default_rng(19)
    cases = [random_survival(rng, 40)[:2] for _ in range(5)]
    cases.append((np.array([1.0, 2.0, 2.0, 4.0]), np.zeros(4)))  # all censored
    cases.append((np.array([3.0, 1.0, 3.0, 3.0, 2.0]), np.array([1.0, 0.0, 1.0, 1.0, 0.0])))
    for times, events in cases:
        ties = efron_ties(times, events)
        before = {f.name: np.array(getattr(ties, f.name)) for f in dataclasses.fields(ties)}
        for scale in (0.1, 1.0, 4.0):
            eta = rng.normal(0.0, scale, len(times))
            value, grad = efron_eval(ties, eta)
            fresh_value, fresh_grad = efron_loss_grad(times, events, eta)
            assert value == fresh_value
            assert grad.tobytes() == fresh_grad.tobytes()
            assert value == pytest.approx(slow_efron(times, events, eta), rel=1e-12, abs=1e-14)
        for name, arr in before.items():
            np.testing.assert_array_equal(getattr(ties, name), arr)
    with pytest.raises(ValueError):
        efron_eval(efron_ties([1.0, 2.0], [1.0, 0.0]), [0.0, 0.0, 0.0])


def naive_ties(times, events):
    """The tie structure built the plain way: group starts from np.r_ and
    np.unique, the scan's index arrays by boolean compress and searchsorted,
    every other field as efron_ties derives it."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=float)
    order = np.argsort(t, kind="stable")
    ts, es = t[order], e[order].astype(bool)
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    assert len(starts) == len(np.unique(ts))
    d = np.add.reduceat(es.astype(np.int64), starts)
    has_event = d > 0
    sizes = d[has_event]
    bounds = np.cumsum(sizes) - sizes
    frac = np.concatenate([np.arange(k) / k for k in sizes]) if len(sizes) else np.zeros(0)
    event_times = ts[starts][has_event]
    own = np.searchsorted(event_times, ts[es])
    return EfronTies(
        order=order, events=es, starts=starts, has_event=has_event, sizes=sizes,
        frac=frac, bounds=bounds, own=own,
        group_at=starts[has_event], risk_at=starts[has_event][own],
        event_pos=np.flatnonzero(es),
        cover1=np.searchsorted(event_times, ts, side="right"),
        event_f=es.astype(float), tied=bool(np.any(sizes > 1)),
    )


def test_ties_equal_the_naive_build_bit_for_bit():
    """On 2000 small tied, censored cohorts (minibatch sized, some all
    censored) every field of efron_ties and the value and gradient of
    efron_eval equal those of the naive build."""
    rng = np.random.default_rng(23)
    for case in range(2000):
        n = int(rng.integers(1, 80))
        times, events, eta = random_survival(rng, n, scale=float(rng.choice([0.1, 1.0, 5.0])))
        if case % 10 == 0:
            events = np.zeros(n)
        ties, naive = efron_ties(times, events), naive_ties(times, events)
        for f in dataclasses.fields(EfronTies):
            a, b = np.asarray(getattr(ties, f.name)), np.asarray(getattr(naive, f.name))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        value, grad = efron_eval(ties, eta)
        naive_value, naive_grad = efron_eval(naive, eta)
        assert value == naive_value and grad.tobytes() == naive_grad.tobytes()


# -- the scan against its reference ---------------------------------------------


def reference_denominators(ties, phi):
    """EfronTies.denominators before the scan read index arrays: every group
    sum is taken, tied or not."""
    rev = phi[::-1].cumsum()[::-1]
    risk = rev[ties.starts][ties.has_event]
    tie = np.add.reduceat(np.where(ties.events, phi, 0.0), ties.starts)[ties.has_event]
    return risk[ties.own] - ties.frac * tie[ties.own]


def reference_hazard_weights(ties, phi, denom):
    a_g = np.add.reduceat(1.0 / denom, ties.bounds)
    b_g = np.add.reduceat(ties.frac / denom, ties.bounds)
    cover = ties.cover1 - 1  # last event group at or before each time, -1 if none
    a_i = np.where(cover >= 0, a_g.cumsum()[cover], 0.0)
    b_i = np.zeros(len(phi))
    b_i[ties.events] = b_g[ties.own]
    return phi * (a_i - b_i)


def reference_eval(ties, eta):
    x = np.asarray(eta, dtype=float)
    n = len(ties.order)
    if len(ties.frac) == 0:
        return 0.0, np.zeros(n)
    xs = x[ties.order]
    shift = xs.max()
    phi = np.exp(xs - shift)
    denom = reference_denominators(ties, phi)
    if np.any(denom <= 0.0):
        return float("inf"), np.full(n, np.nan)
    log_sum = np.add.reduceat(np.log(denom), ties.bounds)
    tie_eta = np.add.reduceat(np.where(ties.events, xs, 0.0), ties.starts)[ties.has_event]
    value = float(log_sum.sum() + len(ties.frac) * shift - tie_eta.sum())
    grad = np.empty(n)
    grad[ties.order] = reference_hazard_weights(ties, phi, denom) - ties.events
    return value, grad


@st.composite
def efron_inputs(draw, kinds=("tie_free", "all_tied", "long_ties", "single_event")):
    """(times, events, eta) of one cohort kind, with equal, spread or
    +/-700 scores (the last reach the infeasible path)."""
    kind = draw(st.sampled_from(kinds))
    scores = draw(st.sampled_from(["normal", "equal", "extreme"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 120) if kind == "long_ties" else st.integers(1, 60))
    events = (rng.random(n) < rng.uniform(0.2, 0.9)).astype(float)
    if kind == "tie_free":
        times = rng.permutation(n) + rng.random(n) * 0.5
    elif kind == "all_tied":
        times = np.full(n, 3.0)
    elif kind == "long_ties":
        # one time holds at least 9 events and some censored members
        times = rng.integers(1, 4, n).astype(float)
        times[:12] = 2.0
        events[:12] = [1.0] * 9 + [0.0] * 3
    else:
        events = np.zeros(n)
        times = rng.integers(1, 6, n).astype(float)
    if kind == "single_event" or not events.any():
        events[rng.integers(0, n)] = 1.0
    if scores == "normal":
        eta = rng.normal(0.0, rng.choice([0.1, 1.0, 5.0]), n)
    elif scores == "equal":
        eta = np.full(n, rng.normal())
    else:
        eta = rng.choice([-700.0, 700.0], n) + rng.normal(0.0, 1.0, n)
    return times, events, eta


def value_bytes(value):
    return np.float64(value).tobytes()


@settings(max_examples=300, deadline=None)
@given(efron_inputs())
def test_scan_is_bit_identical_to_the_reference(case):
    """Skipping the group sums where every event group has d = 1, and
    gathering through the prepared index arrays, changes no bit of the
    value, gradient, denominators or hazard weights."""
    times, events, eta = case
    ties = efron_ties(times, events)
    value, grad = efron_eval(ties, eta)
    want_value, want_grad = reference_eval(ties, eta)
    assert value_bytes(value) == value_bytes(want_value)
    assert grad.tobytes() == want_grad.tobytes()
    xs = eta[ties.order]
    phi = np.exp(xs - xs.max())
    denom = ties.denominators(phi)
    assert denom.tobytes() == reference_denominators(ties, phi).tobytes()
    if np.all(denom > 0.0):
        with np.errstate(over="ignore", invalid="ignore"):
            weights = ties.hazard_weights(phi, denom)
            want = reference_hazard_weights(ties, phi, denom)
        assert weights.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(efron_inputs(), st.data())
def test_efron_is_invariant_to_row_order(case, data):
    """Permuting the rows permutes the gradient: byte-equal when no two
    times tie (the sorted scan is the same), within rel 1e-12 when tied
    rows change places inside their groups."""
    times, events, eta = case
    perm = np.array(data.draw(st.permutations(range(len(times)))), dtype=int)
    value, grad = efron_loss_grad(times, events, eta)
    p_value, p_grad = efron_loss_grad(times[perm], events[perm], eta[perm])
    if len(np.unique(times)) == len(times):
        assert value_bytes(p_value) == value_bytes(value)
        assert p_grad.tobytes() == grad[perm].tobytes()
    elif np.isfinite(value):
        assert p_value == pytest.approx(value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(p_grad, grad[perm], rtol=1e-12, atol=1e-12)
    else:
        assert p_value == value and np.isnan(p_grad).all()


@settings(max_examples=100, deadline=None)
@given(efron_inputs(), st.floats(-50.0, 50.0))
def test_efron_is_invariant_to_a_score_shift(case, c):
    """Adding a constant to every score cancels between each risk-set sum
    and its events' scores: value and gradient agree up to the rounding of
    eta + c, which grows with n |c|."""
    times, events, eta = case
    value, grad = efron_loss_grad(times, events, eta)
    s_value, s_grad = efron_loss_grad(times, events, eta + c)
    if not np.isfinite(value):
        assert not np.isfinite(s_value)
        return
    scale = len(times) * (1.0 + abs(c) + np.abs(eta).max())
    assert s_value == pytest.approx(value, rel=1e-9, abs=1e-12 * scale)
    np.testing.assert_allclose(s_grad, grad, rtol=1e-9, atol=1e-12 * scale)


# -- concordance counts --------------------------------------------------------


def slow_concordance(times, events, scores):
    conc = tied = comp = 0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if i == j or not events[i]:
                continue
            if times[j] > times[i] or (times[j] == times[i] and not events[j]):
                comp += 1
                if scores[i] > scores[j]:
                    conc += 1
                elif scores[i] == scores[j]:
                    tied += 1
    return conc, tied, comp


def test_concordance_hand_case():
    # Anti-ranked scores: every ordered pair is concordant.
    out = concordance_counts([1.0, 2.0, 3.0], [1, 1, 1], [3.0, 2.0, 1.0])
    assert out == (3, 0, 3)


def test_concordance_tied_times():
    # Two events at the same time are not comparable with each other.
    assert concordance_counts([1.0, 1.0], [1, 1], [1.0, 2.0]) == (0, 0, 0)
    # Event paired against a censored subject at the same time is comparable.
    assert concordance_counts([1.0, 1.0], [1, 0], [2.0, 1.0]) == (1, 0, 1)


def test_concordance_matches_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        times = rng.integers(1, 12, size=n).astype(float)
        events = rng.random(n) < 0.6
        scores = np.round(rng.normal(size=n), 1)  # coarse values force score ties
        assert concordance_counts(times, events, scores) == slow_concordance(
            times, events, scores
        )


def test_concordance_returns_integers():
    conc, tied, comp = concordance_counts([1.0, 2.0], [1, 1], [0.5, 0.1])
    assert isinstance(conc, int)
    assert isinstance(tied, int)
    assert isinstance(comp, int)


# Small integer times and scores make tied times and tied scores common.
cohorts = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )
)


@settings(max_examples=200, deadline=None)
@given(cohorts)
def test_concordance_properties(cohort):
    times, events, scores = (np.asarray(c, dtype=float) for c in cohort)
    conc, tied, comp = concordance_counts(times, events, scores)
    # reversing the scores swaps concordant and discordant comparable pairs
    conc_rev, tied_rev, comp_rev = concordance_counts(times, events, -scores)
    assert (tied_rev, comp_rev) == (tied, comp)
    assert conc + tied + conc_rev == comp
    # a strictly increasing map, exact on small integers, changes no count
    assert concordance_counts(times, events, 3.0 * scores + 7.0) == (conc, tied, comp)


@settings(max_examples=100, deadline=None)
@given(cohorts, st.data())
def test_weighted_counts_equal_expanded_sample(cohort, data):
    times, events, scores = (np.asarray(c, dtype=float) for c in cohort)
    n = len(times)
    weights = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=4
            )
        ),
        dtype=float,
    )
    conc, tied, comp = concordance_counts(times, events, scores, weights=weights)
    for r, row in enumerate(weights.astype(int)):
        # copies of one subject are never comparable with each other
        idx = np.repeat(np.arange(n), row)
        want = slow_concordance(times[idx], events[idx], scores[idx]) if len(idx) else (0, 0, 0)
        assert (conc[r], tied[r], comp[r]) == want


def row_of_ones(times, events, scores):
    """The weighted path's counts for the sample itself, as Python ints."""
    weighted = concordance_counts(times, events, scores, weights=np.ones((1, len(times))))
    return tuple(int(c[0]) for c in weighted)


@st.composite
def edge_cohorts(draw):
    """Cohorts at the edges of the sorted count: heavy time and score ties,
    no event, a single event, n = 1, signed zeros and infinite scores."""
    n = draw(st.integers(1, 40))
    times = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.5, np.inf]),
                          min_size=n, max_size=n))
    kind = draw(st.sampled_from(["random", "none", "one", "all"]))
    if kind == "random":
        events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        events = [kind == "all"] * n
        if kind == "one":
            events[draw(st.integers(0, n - 1))] = True
    scores = draw(st.lists(st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 0.5, 1.0, np.inf]),
                           min_size=n, max_size=n))
    return np.array(times), np.array(events), np.array(scores)


@settings(max_examples=300, deadline=None)
@given(edge_cohorts())
def test_sorted_counts_equal_the_pairs_and_the_weighted_row(cohort):
    times, events, scores = cohort
    got = concordance_counts(times, events, scores)
    assert all(type(c) is int for c in got)
    assert got == slow_concordance(times, events, scores)
    assert got == row_of_ones(times, events, scores)


def test_sorted_counts_run_every_merge_level():
    """n = 5003 is odd, so at every merge level the last pair of blocks is ragged."""
    rng = np.random.default_rng(5)
    times, events, scores = random_survival(rng, 5003, tie_prob=0.5)
    scores = np.round(scores, 1)
    # tied event times and tied scores, so the closed-form subtraction runs
    assert np.unique(times[events == 1.0], return_counts=True)[1].max() >= 2
    got = concordance_counts(times, events, scores)
    assert got[1] > 0
    assert got == row_of_ones(times, events, scores)


@pytest.mark.parametrize("weights", [None, np.ones((1, 3))])
def test_concordance_rejects_nan_times_and_scores(weights):
    with pytest.raises(ValueError, match="NaN"):
        concordance_counts([1.0, np.nan, 2.0], [1, 1, 0], [0.0, 1.0, 2.0], weights=weights)
    with pytest.raises(ValueError, match="NaN"):
        concordance_counts([1.0, 3.0, 2.0], [1, 1, 0], [0.0, np.nan, 2.0], weights=weights)
