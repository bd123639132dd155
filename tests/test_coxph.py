"""Cox model tests: partial likelihood, penalized fitting, inference, baseline."""

import dataclasses

import numpy as np
import pytest

from survkit import coxph
from survkit._kernels import efron_ties
from survkit.coxph import (
    _efron_information,
    breslow_from_scores,
    fit_coxph,
    neg_log_partial_likelihood,
    predict_survival,
    wald_stats,
)
from survkit.errors import ComputationError, DataError, ScalingWarning
from survkit.impute import nelson_aalen


def exponential_cohort(rng, beta, n, censor_scale=None):
    """Exponential event times with hazard proportional to exp(x . beta)."""
    beta = np.asarray(beta, dtype=float)
    x = rng.normal(0.0, 1.0, (n, len(beta)))
    eta = x @ beta
    t_event = rng.exponential(1.0, n) / np.exp(eta)
    if censor_scale is None:
        return x, t_event, np.ones(n)
    c = rng.exponential(censor_scale, n)
    times = np.minimum(t_event, c)
    events = (t_event <= c).astype(float)
    return x, times, events


# -- partial likelihood ----------------------------------------------------------


def test_nlpl_at_zero_is_log_riskset_sizes():
    # with beta = 0 every subject has unit hazard: value = log 3 + log 2 + log 1
    x = np.array([[0.5], [-0.2], [0.9]])
    value, grad = neg_log_partial_likelihood(
        np.zeros(1), x, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
    )
    assert value == pytest.approx(np.log(6.0), abs=1e-12)
    # chain rule: d/dbeta = x^T d/deta with d/deta = (-2/3, -1/6, 5/6)
    expected = x[:, 0] @ np.array([-2 / 3, -1 / 6, 5 / 6])
    assert grad[0] == pytest.approx(expected, abs=1e-12)


def test_nlpl_gradient_finite_differences():
    rng = np.random.default_rng(2)
    x, t, e = exponential_cohort(rng, [0.5, -0.3], 40, censor_scale=2.0)
    t = np.round(t, 1) + 0.1  # force some ties
    beta = rng.normal(0.0, 0.5, 2)
    _, grad = neg_log_partial_likelihood(beta, x, t, e)
    eps = 1e-6
    for j in range(2):
        hi, lo = beta.copy(), beta.copy()
        hi[j] += eps
        lo[j] -= eps
        fd = (
            neg_log_partial_likelihood(hi, x, t, e)[0]
            - neg_log_partial_likelihood(lo, x, t, e)[0]
        ) / (2 * eps)
        assert grad[j] == pytest.approx(fd, abs=1e-6)


# -- fitting ----------------------------------------------------------------------


def test_fit_recovers_binary_log_hazard_ratio():
    """Two exponential groups with true hazard ratio 2 (log HR 0.693)."""
    rng = np.random.default_rng(42)
    n = 5000
    g = (rng.random(n) < 0.5).astype(float)
    t = rng.exponential(1.0, n) / np.exp(np.log(2.0) * g)
    model = fit_coxph(g[:, None], t, np.ones(n), names=["group"])
    assert model.converged
    assert 0.62 <= model.beta[0] <= 0.77


def test_fit_matches_grid_search_oracle():
    """1-D maximizer agrees with a dense scan of the raw partial likelihood."""
    rng = np.random.default_rng(5)
    x, t, e = exponential_cohort(rng, [0.6], 300, censor_scale=2.0)
    model = fit_coxph(x, t, e)
    grid = np.arange(0.0, 1.2001, 1e-4)
    vals = [neg_log_partial_likelihood(np.array([b]), x, t, e)[0] for b in grid]
    best = grid[int(np.argmin(vals))]
    assert abs(model.beta[0] - best) < 2e-4


def test_objective_decreases_monotonically():
    """The fit checks every accepted step and raises ComputationError
    ("objective increased") on an increase, so a penalized fit that returns
    converged descended monotonically."""
    rng = np.random.default_rng(7)
    x, t, e = exponential_cohort(rng, [0.4, -0.4, 0.2], 200, censor_scale=3.0)
    model = fit_coxph(x, t, e, l1=0.01, l2=0.01)
    assert model.converged
    assert model.n_iter > 1


def test_translation_invariance_of_coefficients():
    # shifting a covariate column leaves the partial-likelihood maximizer alone
    rng = np.random.default_rng(11)
    x, t, e = exponential_cohort(rng, [0.5, -0.2], 250, censor_scale=2.0)
    m0 = fit_coxph(x, t, e)
    with pytest.warns(ScalingWarning):
        m1 = fit_coxph(x + 7.0, t, e)
    np.testing.assert_allclose(m1.beta, m0.beta, atol=2e-6)


def test_huge_l1_zeroes_everything():
    rng = np.random.default_rng(3)
    x, t, e = exponential_cohort(rng, [0.7, -0.5], 150, censor_scale=2.0)
    model = fit_coxph(x, t, e, l1=10.0)
    np.testing.assert_array_equal(model.beta, np.zeros(2))
    assert model.converged


def test_penalties_shrink_toward_zero():
    rng = np.random.default_rng(13)
    x, t, e = exponential_cohort(rng, [0.8, -0.6], 400, censor_scale=2.0)
    free = fit_coxph(x, t, e)
    l2fit = fit_coxph(x, t, e, l2=0.5)
    l1fit = fit_coxph(x, t, e, l1=0.05)
    assert np.linalg.norm(l2fit.beta) < np.linalg.norm(free.beta)
    assert np.abs(l1fit.beta).sum() < np.abs(free.beta).sum()
    assert np.all(np.abs(l2fit.beta) > 0)  # ridge shrinks but keeps support


def test_final_nlpl_is_raw_likelihood_at_solution():
    rng = np.random.default_rng(17)
    x, t, e = exponential_cohort(rng, [0.5], 120, censor_scale=2.0)
    model = fit_coxph(x, t, e, l2=0.1)
    raw, _ = neg_log_partial_likelihood(model.beta, x, t, e)
    assert model.final_nlpl == pytest.approx(raw, rel=1e-12)


def test_separation_is_detected(monkeypatch):
    """A separating covariate on a tiny scale walks beta past the bound.

    With a 0.01-scale group indicator the optimizer needs |beta| in the
    thousands, so it crosses the +/-50 separation bound while the objective
    is still falling instead of flattening out numerically first.
    """
    t = np.r_[np.arange(1.0, 11.0), np.arange(100.0, 110.0)]
    e = np.ones(20)
    g = np.r_[np.ones(10), np.zeros(10)] * 0.01
    monkeypatch.setattr(coxph, "MAX_ITER", 20000)
    with pytest.warns(UserWarning, match="separation"):
        model = fit_coxph(g[:, None], t, e)
    assert model.separation
    assert not model.converged
    assert model.baseline is None


def test_input_validation():
    x = np.array([[1.0], [2.0]])
    with pytest.raises(DataError):
        fit_coxph(x, [1.0], [1.0, 0.0])
    with pytest.raises(DataError):
        fit_coxph(x, [1.0, 2.0], [1.0, 0.0], l1=-0.1)
    with pytest.raises(DataError):
        fit_coxph(x, [1.0, 2.0], [1.0, 0.0], names=["a", "b"])
    with pytest.raises(DataError):
        fit_coxph(np.array([[np.nan], [1.0]]), [1.0, 2.0], [1.0, 0.0])
    with pytest.raises(DataError):
        fit_coxph(np.empty((2, 0)), [1.0, 2.0], [1.0, 0.0])


# -- Wald inference ----------------------------------------------------------------


def test_wald_matches_numeric_information():
    """Standard errors agree with a finite-difference observed information."""
    rng = np.random.default_rng(23)
    x, t, e = exponential_cohort(rng, [0.6, -0.4], 500, censor_scale=2.0)
    model = fit_coxph(x, t, e)
    rows = wald_stats(model)

    eps = 1e-5
    p = 2
    hess = np.empty((p, p))
    for j in range(p):
        hi, lo = model.beta.copy(), model.beta.copy()
        hi[j] += eps
        lo[j] -= eps
        g_hi = neg_log_partial_likelihood(hi, x, t, e)[1]
        g_lo = neg_log_partial_likelihood(lo, x, t, e)[1]
        hess[:, j] = (g_hi - g_lo) / (2 * eps)
    se_fd = np.sqrt(np.diag(np.linalg.inv((hess + hess.T) / 2)))
    for j, row in enumerate(rows):
        assert row.se == pytest.approx(se_fd[j], rel=1e-4)
        assert row.hr == pytest.approx(np.exp(row.beta))
        assert row.hr_low == pytest.approx(np.exp(row.beta - 1.96 * row.se))
        assert row.hr_high == pytest.approx(np.exp(row.beta + 1.96 * row.se))
        assert 0.0 <= row.p_value <= 1.0
    # a strong true effect at n=500 should be decisively significant
    assert rows[0].p_value < 1e-6


def test_wald_p_values_equal_scipy_stats():
    """Wald p-values come from scipy.special.ndtr; they must equal
    2 * scipy.stats.norm.sf(|z|) bit for bit, from z = 0 through the
    underflowing tail to an infinite z (a zero standard error)."""
    from scipy import stats

    rng = np.random.default_rng(41)
    x, t, e = exponential_cohort(rng, [0.6, -0.4], 400, censor_scale=2.0)
    fitted = fit_coxph(x, t, e)
    beta = np.concatenate([fitted.beta, [0.0, -0.0, 1e-300, 3.0, -40.0, 2.5],
                           rng.normal(0.0, 5.0, 200)])
    se = np.concatenate([np.sqrt(np.diag(fitted.covariance)), [1.0, 1.0, 1.0, 0.0, 1.0, 1e-3],
                         rng.uniform(0.1, 2.0, 200)])
    model = dataclasses.replace(fitted, beta=beta, names=[f"x{j}" for j in range(len(beta))],
                                covariance=np.diag(se ** 2))
    rows = wald_stats(model)
    assert rows[0].p_value < 1e-6 and rows[5].p_value == 0.0 and rows[6].p_value == 0.0
    for row in rows:
        assert row.p_value == float(2.0 * stats.norm.sf(abs(row.z)))


def loop_information(beta, x, times, events):
    """Observed information by the textbook per-event loop: running risk-set
    sums from the last time back, one Efron term per tied event."""
    order = np.argsort(times, kind="stable")
    ts = times[order]
    es = events[order].astype(bool)
    xs = x[order]
    eta = xs @ beta
    phi = np.exp(eta - eta.max())
    starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
    ends = np.r_[starts[1:], len(ts)]
    p = x.shape[1]
    hess = np.zeros((p, p))
    risk_phi, risk_phi_x, risk_phi_xx = 0.0, np.zeros(p), np.zeros((p, p))
    for g in range(len(starts) - 1, -1, -1):
        sl = slice(starts[g], ends[g])
        phi_g, x_g = phi[sl], xs[sl]
        risk_phi += phi_g.sum()
        risk_phi_x += phi_g @ x_g
        risk_phi_xx += np.einsum("i,ij,ik->jk", phi_g, x_g, x_g)
        ev = es[sl]
        d = int(ev.sum())
        tie_phi = phi_g[ev].sum()
        tie_phi_x = phi_g[ev] @ x_g[ev]
        tie_phi_xx = np.einsum("i,ij,ik->jk", phi_g[ev], x_g[ev], x_g[ev])
        for ell in range(d):
            c = ell / d
            denom = risk_phi - c * tie_phi
            z = risk_phi_x - c * tie_phi_x
            hess += (risk_phi_xx - c * tie_phi_xx) / denom - np.outer(z, z) / denom**2
    return hess


def test_information_matches_per_event_loop():
    """The closed-form information equals the per-event loop on tied,
    censored cohorts, all-event tie groups and single events included."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(250):
        n = int(rng.integers(2, 60))
        p = int(rng.integers(1, 5))
        x = rng.normal(0.0, 1.0, (n, p))
        times = rng.integers(0, int(rng.integers(1, 12)), n).astype(float)
        events = (rng.random(n) < rng.uniform(0.2, 1.0)).astype(float)
        events[rng.integers(n)] = 1.0
        beta = rng.normal(0.0, 0.7, p)
        want = loop_information(beta, x, times, events)
        got = _efron_information(beta, x, efron_ties(times, events))
        np.testing.assert_array_equal(got, got.T)
        scale = np.abs(want).max()
        if scale > 0:
            worst = max(worst, np.abs(got - want).max() / scale)
        else:
            assert np.abs(got).max() < 1e-300
    assert worst < 1e-12


def test_information_matches_gradient_differences():
    rng = np.random.default_rng(37)
    x, t, e = exponential_cohort(rng, [0.5, -0.3, 0.2], 200, censor_scale=2.0)
    t = np.round(t, 1) + 0.1  # heavy ties
    beta = rng.normal(0.0, 0.4, 3)
    info = _efron_information(beta, x, efron_ties(t, e))
    eps = 1e-6
    for j in range(3):
        hi, lo = beta.copy(), beta.copy()
        hi[j] += eps
        lo[j] -= eps
        fd = (neg_log_partial_likelihood(hi, x, t, e)[1]
              - neg_log_partial_likelihood(lo, x, t, e)[1]) / (2 * eps)
        np.testing.assert_allclose(info[:, j], fd, rtol=1e-6, atol=1e-6)


def test_wald_refuses_penalized_fits():
    rng = np.random.default_rng(29)
    x, t, e = exponential_cohort(rng, [0.5], 100, censor_scale=2.0)
    model = fit_coxph(x, t, e, l1=0.01)
    with pytest.raises(ComputationError):
        wald_stats(model)


@pytest.mark.filterwarnings("ignore::survkit.errors.ScalingWarning")
@pytest.mark.parametrize("value", [0.0, 0.1, 1.0, 100.0, 12345.678])
def test_a_constant_covariate_leaves_no_covariance(value):
    """The information of a constant column is rounding noise of the size
    of its value squared, whose inverse is a huge variance of either sign.
    Whatever the value, the fit names the column and stores no covariance,
    and Wald inference refuses it."""
    rng = np.random.default_rng(31)
    x, t, e = exponential_cohort(rng, [0.5, -0.3], 200, censor_scale=2.0)
    x = np.column_stack([x[:, 0], np.full(len(x), value), x[:, 1]])
    with pytest.warns(UserWarning, match=r"singular in \['c'\]"):
        model = fit_coxph(x, t, e, names=["a", "c", "b"])
    assert model.converged
    assert model.aliased == ["c"]
    assert model.covariance is None
    with pytest.raises(ComputationError, match="singular"):
        wald_stats(model)


def test_aliased_covariates_are_named_and_the_others_are_not():
    rng = np.random.default_rng(37)
    x, t, e = exponential_cohort(rng, [0.5, -0.3, 0.2], 300, censor_scale=2.0)
    x = np.column_stack([x, x[:, 0] - 2.0 * x[:, 1]])
    with pytest.warns(UserWarning, match="singular"):
        model = fit_coxph(x, t, e, names=["a", "b", "c", "a_2b"])
    assert model.aliased == ["a", "b", "a_2b"]
    assert model.covariance is None


@pytest.mark.filterwarnings("ignore::survkit.errors.ScalingWarning")
def test_a_regular_information_is_stored_as_its_inverse(monkeypatch):
    """A full-rank fit stores np.linalg.inv of its information, bit for bit,
    also with badly scaled columns."""
    rng = np.random.default_rng(41)
    x, t, e = exponential_cohort(rng, [0.5, -0.3], 300, censor_scale=2.0)
    x = x * [1e-3, 1e3]
    monkeypatch.setattr(coxph, "MAX_ITER", 5000)
    model = fit_coxph(x, t, e)
    assert model.converged and model.aliased == []
    info = _efron_information(model.beta, x, efron_ties(t, e))
    assert model.covariance.tobytes() == np.linalg.inv(info).tobytes()


# -- baseline and prediction ---------------------------------------------------------


def test_breslow_at_zero_scores_is_nelson_aalen():
    rng = np.random.default_rng(31)
    t = np.round(rng.exponential(10.0, 60), 0) + 1.0
    e = (rng.random(60) < 0.6).astype(float)
    bres = breslow_from_scores(t, e, np.zeros(60))
    na = nelson_aalen(t, e)
    np.testing.assert_array_equal(bres.knots, na.knots)
    np.testing.assert_allclose(bres.values, na.values, rtol=1e-14)


def test_breslow_matches_the_definition_on_tied_censored_cohorts():
    """H0 at each distinct event time u sums d_u / sum(exp(eta) over t >= u)."""
    rng = np.random.default_rng(47)
    for case in range(200):
        n = int(rng.integers(1, 40))
        t = rng.integers(1, 9, n).astype(float)
        e = (rng.random(n) < 0.6).astype(float)
        eta = rng.normal(0.0, 3.0 if case % 2 else 0.5, n)
        h = breslow_from_scores(t, e, eta)
        knots = np.unique(t[e == 1.0])
        values = np.cumsum([e[t == u].sum() / np.exp(eta[t >= u]).sum() for u in knots])
        np.testing.assert_array_equal(h.knots, knots)
        np.testing.assert_allclose(h.values, values, rtol=1e-12, atol=0.0)


def test_heavy_ridge_baseline_matches_nelson_aalen():
    # l2 large enough pins beta at ~0, so the fitted baseline is Nelson-Aalen
    rng = np.random.default_rng(37)
    x, t, e = exponential_cohort(rng, [0.5], 80, censor_scale=2.0)
    model = fit_coxph(x, t, e, l2=1e12)
    assert abs(model.beta[0]) < 1e-8
    na = nelson_aalen(t, e)
    np.testing.assert_allclose(model.baseline.values, na.values, rtol=1e-6)


def test_breslow_underflow_reports_error():
    with pytest.raises(ComputationError):
        breslow_from_scores(
            np.array([1.0, 2.0, 3.0]),
            np.array([0.0, 1.0, 1.0]),
            np.array([800.0, -800.0, -800.0]),
        )


def test_breslow_overflow_reports_error():
    # every score below about -709: exp(-max score) overflows, and the
    # baseline hazard past the first event is not representable
    with pytest.raises(ComputationError, match="overflowed"):
        breslow_from_scores([1.0, 2.0], [1.0, 1.0], [-800.0, -800.0])
    # each increment finite, their sum not
    with pytest.raises(ComputationError, match="overflowed"):
        breslow_from_scores([1.0, 2.0], [1.0, 1.0], [-709.5, -709.5])


def test_fit_sorts_once_and_its_baseline_is_breslow_at_the_fitted_beta(monkeypatch):
    """The fit builds its baseline from its own tie structure: one
    efron_ties call per fit, and the baseline bits of breslow_from_scores."""
    rng = np.random.default_rng(53)
    x, t, e = exponential_cohort(rng, [0.5, -0.3], 120, censor_scale=2.0)
    t = np.round(t, 1) + 0.1  # tied event groups
    calls = []

    def counted(times, events):
        calls.append(len(times))
        return efron_ties(times, events)

    monkeypatch.setattr(coxph, "efron_ties", counted)
    model = fit_coxph(x, t, e)
    assert calls == [120]
    want = breslow_from_scores(t, e, x @ model.beta)
    assert model.baseline.knots.tobytes() == want.knots.tobytes()
    assert model.baseline.values.tobytes() == want.values.tobytes()


def test_predict_survival_values_and_shape():
    rng = np.random.default_rng(41)
    x, t, e = exponential_cohort(rng, [0.5], 100, censor_scale=2.0)
    model = fit_coxph(x, t, e)
    times = np.array([0.1, 0.5, 1.0, 2.0])
    curves = predict_survival(model, x[:5], times)
    assert len(curves) == 5
    h0 = model.baseline(times)
    for i, c in enumerate(curves):
        risk = np.exp(model.beta[0] * x[i, 0])
        np.testing.assert_allclose(np.asarray(c(times)), np.exp(-h0 * risk), rtol=1e-12)
        vals = np.asarray(c(times))
        assert np.all(np.diff(vals) <= 0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
    with pytest.raises(DataError):
        predict_survival(model, x[:2], times[::-1])
