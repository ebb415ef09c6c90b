import io
import itertools
import tracemalloc
import warnings
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
from vardtf import jsonio
from vardtf.estimate import Trajectory, read_trajectory, write_trajectory
from vardtf.exceptions import RankDeficientRegressors, ShapeMismatch, SingularToeplitz, UnstableFit

from helpers import (
    companion_radius,
    dense_stable_model,
    ols_reference,
    random_stable_model,
    sample_autocov_reference,
    simulate_reference,
)

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

    @pytest.mark.parametrize("t_len,dim,maxlag", [(1, 1, 0), (7, 2, 6), (500, 3, 40), (20_000, 4, 12)])
    def test_sample_autocov_is_the_lag_loop(self, t_len, dim, maxlag):
        samples = np.random.default_rng(t_len).normal(loc=3.0, size=(t_len, dim))
        got = sample_autocov(samples, maxlag).gammas
        assert np.array_equal(got, sample_autocov_reference(samples, maxlag))


#: Allowed difference between fit_var and the design-matrix reference, per
#: unit of the Gram matrix's condition number, relative to each quantity's
#: scale.
OLS_REL_TOL = 1e-12


class TestFitVar:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        order=st.integers(1, 8),
        extra=st.integers(1, 300),
        seed=st.integers(0, 10_000),
    )
    def test_matches_design_matrix_reference(self, dim, order, extra, seed):
        # from one row above the d*q + q floor to a few hundred rows
        t_len = dim * order + order + extra
        traj = simulate(random_stable_model(seed, dim=dim, order=order), t_len, seed=seed)
        coeffs, sigma, stderr, residuals, cond = ols_reference(traj.samples, order)
        try:
            fit = fit_var(traj, order)
        except UnstableFit:
            # an over-fitted estimate can be explosive: the reference agrees
            assert companion_radius(list(coeffs)) > 1.0 - 1e-6
            return
        tol = OLS_REL_TOL * cond
        scale = np.max(np.abs(traj.samples))
        dof = fit.nobs - dim * order
        assert_allclose(fit.model.coeffs, coeffs, rtol=0, atol=tol * max(1.0, np.max(np.abs(coeffs))))
        assert_allclose(fit.residuals, residuals, rtol=0, atol=tol * scale)
        assert_allclose(fit.model.sigma, sigma, rtol=0, atol=tol * scale**2 * fit.nobs / dof)
        assert_allclose(fit.stderr, stderr, rtol=tol)

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_zero_channel_is_rank_deficient(self, channel, order):
        samples = np.random.default_rng(channel).normal(size=(400, 3))
        samples[:, channel] = 0.0
        with pytest.raises(RankDeficientRegressors):
            fit_var(Trajectory(samples=samples, seed=0), order)

    def test_peak_allocation_is_of_order_t_d(self):
        # the (T - q) x dq design matrix alone would take 38 MB here
        traj = simulate(counterexample_model(1.0, 1.0), 50_000, seed=2)
        path_bytes = traj.samples.nbytes
        tracemalloc.start()
        try:
            fit = fit_var(traj, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.nobs == 50_000 - 32
        assert peak < 4 * path_bytes

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

    @pytest.mark.parametrize("exponent", [500, -500, 1000, -1000])
    def test_residuals_near_the_double_limit_keep_their_statistics(self, exponent):
        # the variances are near 2^(2 exponent), so their products leave the
        # double range unless scaled; scaling by a power of two is exact
        residuals = np.random.default_rng(6).normal(size=(500, 3))
        base = whiteness_stats(residuals, 12, df_model=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = whiteness_stats(np.ldexp(residuals, exponent), 12, df_model=1)
        assert np.array_equal(scaled.lag_norms, base.lag_norms)
        assert (scaled.statistic, scaled.p_value) == (base.statistic, base.p_value)

    def test_zero_residual_channel_is_a_singular_covariance(self):
        residuals = np.random.default_rng(6).normal(size=(500, 3))
        residuals[:, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularToeplitz, match="residual covariance"):
                whiteness_stats(residuals, 12, df_model=1)

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


def _read_cells(cells, chunk_chars=None, monkeypatch=None):
    """Read one channel of the given cell texts through read_trajectory."""
    text = "t,ch1\n" + "".join(f"{i},{cell}\n" for i, cell in enumerate(cells))
    if chunk_chars is not None:
        monkeypatch.setattr(jsonio, "CSV_CHUNK_CHARS", chunk_chars)
    return read_trajectory(io.StringIO(text)).samples[:, 0]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


#: Finite doubles of every kind: +-0, subnormals, integers, 1e+-300.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**64), 2**64).map(float),
    st.floats(1e299, 1e300),
    st.floats(-1e-299, -1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]),
)


@st.composite
def decimal_texts(draw):
    """Decimal cells: 1-25 digits, leading zeros, the point anywhere or
    nowhere, an optional sign and an optional exponent."""
    digits = draw(st.text(st.sampled_from("00123456789"), min_size=1, max_size=25))
    point = draw(st.none() | st.integers(0, len(digits)))
    body = digits if point is None else digits[:point] + "." + digits[point:]
    sign = draw(st.sampled_from(["", "-", "+"]))
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        exponent += str(draw(st.integers(-40, 40)))
    return sign + body + exponent


def _midpoint_texts(x: float) -> list:
    """The decimal midpoint between x > 0 and the next double up, and its
    roundings down and up to 16-19 significant digits, in fixed notation."""
    with localcontext() as ctx:
        ctx.prec = 2000
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
        texts = [format(mid, "f")]
        for digits in (16, 17, 18, 19):
            unit = Decimal(1).scaleb(mid.adjusted() - digits + 1)
            texts += [format(mid.quantize(unit, rounding=r), "f") for r in (ROUND_FLOOR, ROUND_CEILING)]
    return texts


class TestTrajectoryReader:
    """read_trajectory returns float() of every cell, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 3)), elements=FINITE))
    def test_round_trip_is_bitwise(self, samples):
        buf = io.StringIO()
        write_trajectory(Trajectory(samples, seed=0), buf)
        buf.seek(0)
        assert np.array_equal(_bits(read_trajectory(buf).samples), _bits(samples))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(decimal_texts(), min_size=1, max_size=30))
    def test_decimal_cells_read_as_float(self, cells):
        assert np.array_equal(_bits(_read_cells(cells)), _bits([float(c) for c in cells]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(1e-4, 1e17, allow_subnormal=False)
        | st.integers(2**53, 10**18).map(float)
    )
    def test_cells_at_and_next_to_rounding_midpoints(self, x):
        cells = _midpoint_texts(x)
        assert np.array_equal(_bits(_read_cells(cells)), _bits([float(c) for c in cells]))

    @pytest.mark.parametrize(
        "cell",
        [
            "9007199254740993",  # 2^53 + 1, the midpoint of 2^53 and 2^53 + 2
            "9007199254740993.0",
            "9007199254740995",  # midpoint, ties to the even 2^53 + 4
            "9007199254740992.5",
            "0.1",
            "0.30000000000000004",
            "-0",
            "-0.0",
            "5e-324",
            "2.4703282292062328e-324",
            "2.2250738585072011e-308",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "999999999999999999",
            "1000000000000000000",
            "9223372036854775807",
            "9223372036854775808",
            "123456789.12345678",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "00000000000000000000000001.5",
            "1e22",
            "1e23",
            ".5",
            "5.",
            "-.5",
            "+1.5",
            "1E3",
        ],
    )
    def test_edge_cells(self, cell):
        assert _bits(_read_cells([cell]))[0] == _bits(float(cell))

    @pytest.mark.parametrize("chunk_chars", [1, 7, 64])
    def test_chunk_size_does_not_change_the_result(self, chunk_chars, monkeypatch):
        cells = ["1.5", "-0.25", "1e-05", " 2 ", "7", "0.1", "-12.345678901234567", "3.0"]
        expected = _read_cells(cells)
        assert np.array_equal(_bits(_read_cells(cells, chunk_chars, monkeypatch)), _bits(expected))
        text = "t,ch1,ch2\n\n0,1.5,2\r\n  \n1,3,-4.5\n\n\n2,5,6"
        back = read_trajectory(io.StringIO(text)).samples
        assert np.array_equal(back, [[1.5, 2.0], [3.0, -4.5], [5.0, 6.0]])

    def test_reader_holds_the_samples_and_one_chunk(self, tmp_path):
        samples = np.random.default_rng(5).standard_normal((200_000, 3))
        path = tmp_path / "trajectory.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_trajectory(Trajectory(samples, seed=0), fh)
        with open(path, encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                back = read_trajectory(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(back.samples, samples)
        # the array grows by a quarter at a time; a chunk needs about 0.25 MB
        assert peak < 1.25 * samples.nbytes + 2e6


#: The reader's contract on unusual files: today's values, or ShapeMismatch
#: (None). Every row but the two "#" ones is what np.loadtxt gave.
MALFORMED = {
    "blank_lines": ("t,ch1\n\n0,1.5\n\n\n1,2.5\n\n", [1.5, 2.5]),
    "whitespace_lines": ("t,ch1\n \t\n0,1.5\n\x0c\n\u2028\n1,2.5\n", [1.5, 2.5]),
    "crlf": ("t,ch1\r\n0,1.5\r\n\r\n1,2\r\n", [1.5, 2.0]),
    "no_final_newline": ("t,ch1\n0,1.5\n1,2.5", [1.5, 2.5]),
    "ragged": ("t,ch1,ch2\n0,1.0,2.0\n1,3.0\n", None),
    "too_wide": ("t,ch1\n0,1.0,2.0\n1,3.0,4.0\n", None),
    "trailing_comma": ("t,ch1\n0,1.0,\n", None),
    "empty_cell": ("t,ch1\n0,\n", None),
    "abc": ("t,ch1\n0,abc\n", None),
    "underscore": ("t,ch1\n0,1_0\n", None),
    "nan": ("t,ch1\n0,nan\n", None),
    "inf": ("t,ch1\n0,inf\n", None),
    "minus_inf": ("t,ch1\n0,-Infinity\n", None),
    "nan_time": ("t,ch1\nnan,1.5\n", [1.5]),
    "leading_whitespace": ("t,ch1\n  0, 1.5\n", [1.5]),
    "trailing_whitespace": ("t,ch1\n0,1.5 \t\n", [1.5]),
    "plus": ("t,ch1\n0,+1.5\n", [1.5]),
    "upper_exponent": ("t,ch1\n0,1E3\n", [1000.0]),
    "leading_point": ("t,ch1\n0,.5\n", [0.5]),
    "trailing_point": ("t,ch1\n0,5.\n", [5.0]),
    "lone_point": ("t,ch1\n0,.\n", None),
    "lone_minus": ("t,ch1\n0,-\n", None),
    "double_minus": ("t,ch1\n0,--1\n", None),
    "two_points": ("t,ch1\n0,1.2.3\n", None),
    "embedded_space": ("t,ch1\n0,1 2\n", None),
    "hex": ("t,ch1\n0,0x10\n", None),
    "quoted": ('t,ch1\n0,"1"\n', None),
    "arabic_digit": ("t,ch1\n0,\u0661\n", None),
    "no_break_space": ("t,ch1\n0,1\xa0\n", [1.0]),
    "overflow": ("t,ch1\n0,1e400\n", None),
    "underflow": ("t,ch1\n0,1e-400\n", [0.0]),
    # np.loadtxt dropped "#" comments; the reader refuses them
    "comment_line": ("t,ch1\n# note\n0,1\n", None),
    "trailing_comment": ("t,ch1\n0,1.5 # note\n", None),
}


@pytest.mark.parametrize("text,expected", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_contract(text, expected):
    if expected is None:
        with pytest.raises(ShapeMismatch):
            read_trajectory(io.StringIO(text))
    else:
        assert np.array_equal(_bits(read_trajectory(io.StringIO(text)).samples[:, 0]), _bits(expected))


def test_crlf_file_and_invalid_utf8(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"t,ch1\r\n0,1.5\r\n1,-2\r\n")
    with open(path, encoding="utf-8") as fh:
        assert np.array_equal(read_trajectory(fh).samples, [[1.5], [-2.0]])
    path.write_bytes(b"t,ch1\n0,1.5\xff\n")
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError):
        read_trajectory(fh)
