import io
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from vardtf import (
    autocov,
    counterexample_model,
    fit_var,
    make_var,
    residual_whiteness,
    sample_autocov,
    simulate,
    whiteness_stats,
)
from vardtf.estimate import Trajectory, read_trajectory, write_trajectory
from vardtf.exceptions import RankDeficientRegressors, ShapeMismatch

from helpers import dense_stable_model, random_stable_model, simulate_reference

# Lengths around the simulator's 64-step blocks. A 64-step burn-in keeps each
# at the same offset in its last block; 40, the floor for order 4, leaves the
# shortest run inside one block.
LENGTHS = [1, 63, 64, 65, 5000]
BURN_INS = [40, 64]


class TestSimulate:
    def test_deterministic(self):
        m = random_stable_model(0)
        a = simulate(m, 500, seed=42)
        b = simulate(m, 500, seed=42)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_seed_changes_draws(self):
        m = random_stable_model(0)
        a = simulate(m, 500, seed=1)
        b = simulate(m, 500, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_white_noise_covariance(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        traj = simulate(make_var([], sigma), 100_000, seed=3, burn_in=0)
        sampled = traj.samples.T @ traj.samples / traj.length
        assert np.linalg.norm(sampled - sigma) / np.linalg.norm(sigma) < 0.03

    def test_counterexample_lag1_crosscov(self):
        traj = simulate(counterexample_model(1.0, 1.0), 1_000_000, seed=7)
        sampled = sample_autocov(traj.samples, maxlag=1)
        assert sampled.gammas[1][0, 1] == pytest.approx(1.0, abs=0.01)

    def test_singular_sigma_supported(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        traj = simulate(make_var([], sigma), 2000, seed=5, burn_in=0)
        assert_allclose(traj.samples[:, 0], traj.samples[:, 1], atol=1e-12)

    def test_burn_in_floor(self):
        m = random_stable_model(0, order=2)
        with pytest.raises(ShapeMismatch):
            simulate(m, 100, seed=0, burn_in=10)

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatch):
            simulate(random_stable_model(0), 0, seed=0)

    def test_recursion_kernels_agree(self):
        # the counterexample's entries are sums of at most two nonzero
        # products, so the blocked kernel reproduces the loop bit for bit
        m = counterexample_model(0.7, -1.3)
        for length, burn_in in itertools.product(LENGTHS, BURN_INS):
            got = simulate(m, length, seed=3, burn_in=burn_in).samples
            want = simulate_reference(m, length, 3, burn_in)
            assert np.array_equal(got, want), (length, burn_in)

    @pytest.mark.parametrize("burn_in", BURN_INS)
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize(
        "model",
        [
            dense_stable_model(4, dim=3, order=4),
            random_stable_model(5, dim=12, order=4, radius=0.95),
            random_stable_model(6, dim=2, order=1, radius=0.999),
        ],
        ids=["dense_d3_p4", "d12_p4_r0.95", "d2_p1_r0.999"],
    )
    def test_matches_reference_loop(self, model, length, burn_in):
        got = simulate(model, length, seed=8, burn_in=burn_in).samples
        want = simulate_reference(model, length, 8, burn_in)
        assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_order_above_block_length(self):
        # the state before a block then reaches back over more than one block
        m = random_stable_model(7, dim=1, order=70, radius=0.9)
        got = simulate(m, 300, seed=11, burn_in=700).samples
        want = simulate_reference(m, 300, 11, 700)
        assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_order_zero_is_the_innovations(self):
        m = make_var([], np.array([[2.0, 0.6], [0.6, 1.0]]))
        got = simulate(m, 65, seed=10, burn_in=0)
        assert np.array_equal(got.samples, simulate_reference(m, 65, 10, 0))

    def test_convergence_rate_of_sample_autocov(self):
        # sampling error should shrink like 1/sqrt(T)
        m = random_stable_model(21, dim=2, order=2, radius=0.6)
        exact = autocov(m, maxlag=3).gammas
        errs = {}
        for t_len in (10_000, 1_000_000):
            acc = 0.0
            for seed in range(5):
                traj = simulate(m, t_len, seed=seed)
                acc += np.linalg.norm(
                    sample_autocov(traj.samples, maxlag=3).gammas - exact
                )
            errs[t_len] = acc / 5
        ratio = errs[10_000] / errs[1_000_000]
        assert 3.0 < ratio < 33.0


class TestFitVar:
    def test_scalar_ar1_recovery(self):
        m = make_var([[[0.5]]], [[1.0]])
        traj = simulate(m, 1_000_000, seed=11)
        fit = fit_var(traj, 1)
        a_hat = fit.model.coeffs[0][0, 0]
        se = fit.stderr[0, 0, 0]
        assert abs(a_hat - 0.5) < 3 * se
        assert se == pytest.approx(np.sqrt((1 - 0.25) / traj.length), rel=0.1)

    def test_counterexample_structural_zero(self):
        traj = simulate(counterexample_model(1.0, 1.0), 1_000_000, seed=13)
        fit = fit_var(traj, 2)
        for u in range(2):
            assert abs(fit.model.coeffs[u][0, 1]) < 3 * fit.stderr[u, 0, 1]
        assert abs(fit.model.coeffs[0][1, 2] - 1.0) < 3 * fit.stderr[0, 1, 2]
        assert abs(fit.model.coeffs[1][0, 2] - 1.0) < 3 * fit.stderr[1, 0, 2]

    def test_bivariate_fit_recovers_marginal_coefficient(self):
        traj = simulate(counterexample_model(1.0, 1.0), 1_000_000, seed=17)
        sub = Trajectory(samples=traj.samples[:, [0, 1]], seed=17)
        fit = fit_var(sub, 4)
        assert abs(fit.model.coeffs[0][0, 1] - 0.5) < 3 * fit.stderr[0, 0, 1]
        assert abs(fit.model.coeffs[0][1, 0]) < 3 * fit.stderr[0, 1, 0]

    def test_sigma_is_residual_covariance(self):
        traj = simulate(random_stable_model(19), 20_000, seed=19)
        fit = fit_var(traj, 2)
        dof = fit.nobs - 3 * 2
        assert_allclose(
            fit.model.sigma, fit.residuals.T @ fit.residuals / dof, atol=1e-12
        )

    def test_stderr_layout(self):
        # stderr[u-1, j, k]^2 = Sigma[j, j] * (X'X)^-1 at the lag-u, channel-k column
        traj = simulate(random_stable_model(19), 2000, seed=19)
        fit = fit_var(traj, 2)
        x = traj.samples
        design = np.hstack([x[2 - u : len(x) - u] for u in (1, 2)])
        g = np.diag(np.linalg.inv(design.T @ design))
        s = fit.model.sigma
        want = [
            [[np.sqrt(s[j, j] * g[u * 3 + k]) for k in range(3)] for j in range(3)]
            for u in range(2)
        ]
        assert_allclose(fit.stderr, want, rtol=1e-10)

    def test_recovery_frequency(self):
        # every coefficient within 3 standard errors, nearly always
        m = random_stable_model(29, dim=2, order=1, radius=0.6)
        truth = np.stack(m.coeffs)
        total, hits = 0, 0
        for seed in range(100):
            traj = simulate(m, 100_000, seed=seed, burn_in=100)
            fit = fit_var(traj, 1)
            dev = np.abs(np.stack(fit.model.coeffs) - truth)
            within = dev <= 3.0 * fit.stderr
            hits += int(within.sum())
            total += within.size
        assert hits / total >= 0.99

    def test_rank_deficient(self):
        samples = np.zeros((500, 2))
        samples[:, 0] = np.random.default_rng(0).normal(size=500)
        traj = Trajectory(samples=samples, seed=0)
        with pytest.raises(RankDeficientRegressors):
            fit_var(traj, 1)

    def test_too_short(self):
        samples = np.random.default_rng(0).normal(size=(5, 2))
        traj = Trajectory(samples=samples, seed=0)
        with pytest.raises(ShapeMismatch):
            fit_var(traj, 2)


class TestResidualWhiteness:
    def test_correct_fit_passes(self):
        m = random_stable_model(31, dim=2, order=2, radius=0.6)
        traj = simulate(m, 100_000, seed=31)
        fit = fit_var(traj, 2)
        report = residual_whiteness(fit, maxlag=10)
        assert np.all(report.lag_norms < 4.0 / np.sqrt(fit.nobs))
        assert report.p_value > 1e-3

    def test_underfit_fails(self):
        m = random_stable_model(33, dim=2, order=2, radius=0.7)
        traj = simulate(m, 100_000, seed=33)
        fit = fit_var(traj, 1)
        report = residual_whiteness(fit, maxlag=10)
        assert report.p_value < 1e-6

    def _counterexample_innovations(self, alpha, beta, t_len, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((t_len + 2, 3)), alpha, beta

    def test_reduction_error_is_not_white(self):
        # construct e'_1 = e1 + a e3(t-2), e'_2 = e2 + b e3(t-1) directly
        eps, alpha, beta = self._counterexample_innovations(1.0, 1.0, 200_000, 41)
        err1 = eps[2:, 0] + alpha * eps[:-2, 2]
        err2 = eps[2:, 1] + beta * eps[1:-1, 2]
        resid = np.column_stack([err1, err2])
        sampled = sample_autocov(resid, maxlag=1)
        assert sampled.gammas[1][0, 1] == pytest.approx(alpha * beta, abs=0.02)
        report = whiteness_stats(resid, maxlag=5)
        assert report.p_value < 1e-10

    def test_marginal_innovations_are_white(self):
        # construct the projection residuals e~ and verify they pass
        eps, alpha, beta = self._counterexample_innovations(1.0, 1.0, 200_000, 43)
        c = alpha * beta / (1 + beta**2)
        d = alpha / (1 + beta**2)
        err1 = eps[2:, 0] - c * eps[1:-1, 1] + d * eps[:-2, 2]
        err2 = eps[2:, 1] + beta * eps[1:-1, 2]
        resid = np.column_stack([err1, err2])
        sampled = sample_autocov(resid, maxlag=1)
        assert sampled.gammas[1][0, 1] == pytest.approx(0.0, abs=0.02)
        report = whiteness_stats(resid, maxlag=5)
        assert report.p_value > 1e-3

    def test_maxlag_validation(self):
        with pytest.raises(ShapeMismatch):
            whiteness_stats(np.zeros((10, 2)), maxlag=10)

    @pytest.mark.parametrize("maxlag,df_model", [(0, 0), (0, 2), (1, 2), (2, 2)])
    def test_maxlag_must_exceed_the_fitted_order(self, maxlag, df_model):
        # with maxlag <= df_model the chi-square reference has no degrees of freedom
        with pytest.raises(ShapeMismatch, match=f"maxlag must exceed the fitted order {df_model}"):
            whiteness_stats(np.ones((50, 2)), maxlag, df_model)

    def test_degrees_of_freedom_follow_the_order(self):
        residuals = np.random.default_rng(4).normal(size=(200, 2))
        assert whiteness_stats(residuals, 3, df_model=2).df == 4

    @pytest.mark.parametrize("maxlag", [-1, -5])
    def test_negative_maxlag_rejected(self, maxlag):
        with pytest.raises(ShapeMismatch, match="maxlag must be non-negative"):
            sample_autocov(np.ones((10, 2)), maxlag)

    def test_p_value_is_the_chi_square_tail(self):
        rng = np.random.default_rng(3)
        for maxlag, residuals in ((2, rng.normal(size=(300, 2))), (12, rng.normal(size=(80, 3)))):
            rep = whiteness_stats(residuals, maxlag)
            assert rep.p_value == float(stats.chi2.sf(rep.statistic, rep.df))


class TestTrajectoryIo:
    def test_round_trip(self):
        traj = simulate(random_stable_model(1), 50, seed=9)
        buf = io.StringIO()
        write_trajectory(traj, buf)
        buf.seek(0)
        back = read_trajectory(buf)
        assert back.dim == traj.dim
        assert back.length == traj.length
        assert np.array_equal(back.samples, traj.samples)

    def test_header_validation(self):
        with pytest.raises(ShapeMismatch):
            read_trajectory(io.StringIO("x,ch1\n0,1.0\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ShapeMismatch):
            read_trajectory(io.StringIO("t,ch1,ch2\n0,1.0\n"))

    def test_blank_lines_skipped(self):
        back = read_trajectory(io.StringIO("t,ch1\n0,1.5\n\n  \n1,2.5\n\n"))
        assert back.length == 2
        assert np.array_equal(back.samples, [[1.5], [2.5]])

    @pytest.mark.parametrize(
        "text",
        [
            "t\n0\n",
            "t,ch1,ch2\n",
            "t,ch1\n\n  \n",
            "t,ch1,ch2\n0,1.0,2.0\n1,3.0\n",
            "t,ch1\n0,1.0,2.0\n1,3.0,4.0\n",
            "t,ch1\n0,abc\n",
        ],
        ids=["no_channels", "header_only", "only_blank_rows", "ragged",
             "wider_than_header", "non_numeric"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ShapeMismatch):
            read_trajectory(io.StringIO(text))

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeMismatch):
            Trajectory(samples=np.array([[1.0], [np.nan]]), seed=0)
