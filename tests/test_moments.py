import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from vardtf import (
    ChannelPair,
    autocov,
    block_toeplitz,
    companion_matrix,
    counterexample_model,
    default_grid,
    make_var,
    sample_autocov,
    simulate,
    spectral_density,
    subprocess_autocov,
)
from vardtf.exceptions import NoConvergence, ShapeMismatch
from vardtf.moments import _frobenius, _solve_lyapunov_doubling

from helpers import block_toeplitz_reference, random_stable_model


class TestAutocov:
    def test_white_noise(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        seq = autocov(make_var([], sigma), maxlag=4)
        assert_allclose(seq.gammas[0], sigma)
        assert np.all(seq.gammas[1:] == 0.0)

    def test_scalar_ar1_closed_form(self):
        seq = autocov(make_var([[[0.5]]], [[1.0]]), maxlag=3)
        assert seq.gammas[0, 0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert seq.gammas[1, 0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert seq.gammas[2, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -0.5)])
    def test_counterexample_closed_form(self, alpha, beta):
        # hand expansion of X1 = e1 + a e3(t-2), X2 = e2 + b e3(t-1), X3 = e3
        seq = autocov(counterexample_model(alpha, beta), maxlag=4)
        expected0 = np.diag([1 + alpha**2, 1 + beta**2, 1.0])
        assert_allclose(seq.gammas[0], expected0, atol=1e-12)
        expected1 = np.zeros((3, 3))
        expected1[0, 1] = alpha * beta  # E[X1(t) X2(t-1)]
        expected1[1, 2] = beta  # E[X2(t) X3(t-1)]
        assert_allclose(seq.gammas[1], expected1, atol=1e-12)
        expected2 = np.zeros((3, 3))
        expected2[0, 2] = alpha
        assert_allclose(seq.gammas[2], expected2, atol=1e-12)
        assert np.all(np.abs(seq.gammas[3:]) < 1e-12)

    def test_default_maxlag(self):
        assert autocov(random_stable_model(0)).maxlag == 50
        assert autocov(random_stable_model(0, order=2), maxlag=7).maxlag == 7

    def test_rejects_negative_maxlag(self):
        with pytest.raises(ShapeMismatch):
            autocov(random_stable_model(0), maxlag=-1)

    def test_matches_simulation(self):
        m = random_stable_model(11, dim=3, order=2, radius=0.6)
        exact = autocov(m, maxlag=5)
        traj = simulate(m, 1_000_000, seed=3, burn_in=1000)
        sampled = sample_autocov(traj.samples, maxlag=5)
        err = np.linalg.norm(sampled.gammas - exact.gammas)
        assert err / np.linalg.norm(exact.gammas) < 0.02

    @pytest.mark.parametrize("seed", range(6))
    def test_block_toeplitz_psd(self, seed):
        m = random_stable_model(seed, dim=3, order=2, radius=0.8)
        seq = autocov(m, maxlag=12)
        eigs = np.linalg.eigvalsh(block_toeplitz(seq))
        assert eigs.min() >= -1e-8

    @pytest.mark.parametrize("nblocks", [0, 1, 2, 5, 9])
    def test_block_toeplitz_matches_double_loop(self, nblocks):
        seq = autocov(random_stable_model(11, dim=3, order=4), maxlag=8)
        got = block_toeplitz(seq, nblocks)
        assert got.shape == (3 * nblocks, 3 * nblocks)
        assert np.array_equal(got, block_toeplitz_reference(seq.gammas, nblocks))

    def test_block_toeplitz_rejects_too_many_blocks(self):
        seq = autocov(random_stable_model(11, dim=3, order=4), maxlag=8)
        with pytest.raises(ShapeMismatch):
            block_toeplitz(seq, 10)
        with pytest.raises(ShapeMismatch):
            block_toeplitz(seq, -1)

    @pytest.mark.parametrize("seed", range(4))
    def test_geometric_decay(self, seed):
        m = random_stable_model(seed, dim=3, order=2, radius=0.7)
        seq = autocov(m, maxlag=30)
        norm0 = np.linalg.norm(seq.gammas[0])
        for h in (10, 20, 30):
            bound = 100.0 * norm0 * m.spectral_radius**h
            assert np.linalg.norm(seq.gammas[h]) <= bound


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.8),
)
def test_lag_zero_is_the_integrated_spectrum(seed, dim, order, radius):
    # Gamma(0) = int_{-pi}^{pi} f = 2 Re int_0^pi f, since f(-l) = conj f(l).
    # The integrand is smooth and periodic, so Simpson's rule on 4097
    # points is exact to rounding: over 6000 random models the worst
    # error was 7.3e-15 of max |Gamma(0)|.
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    grid = default_grid(4097)
    gamma0 = autocov(m, maxlag=0).gammas[0]
    integral = 2.0 * simpson(spectral_density(m, grid).values, x=grid.points, axis=0).real
    assert np.max(np.abs(integral - gamma0)) <= 1e-14 * np.max(np.abs(gamma0))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.8),
)
def test_every_lag_is_a_fourier_coefficient_of_the_spectrum(seed, dim, order, radius):
    # Gamma(h) = int_{-pi}^{pi} f(l) exp(i h l) dl for h = 0..16, by the
    # inverse real FFT of f on 4097 points of [0, pi] (period 8192). The
    # sequence decays geometrically, so aliasing from lags near 8192 is far
    # below rounding: over 1000 random models the worst error was 5.3e-16
    # of max |Gamma(0)|.
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    density = spectral_density(m, default_grid(4097)).values
    fourier = 2.0 * np.pi * np.fft.irfft(density, n=8192, axis=0)[:17]
    gammas = autocov(m, 16).gammas
    assert np.max(np.abs(fourier - gammas)) <= 1e-14 * np.max(np.abs(gammas[0]))


class TestLyapunovSolvers:
    @pytest.mark.parametrize("n", [4, 12, 70])
    def test_doubling_vs_scipy(self, n):
        rng = np.random.default_rng(n)
        comp = rng.normal(size=(n, n))
        comp *= 0.7 / np.max(np.abs(np.linalg.eigvals(comp)))
        w = rng.normal(size=(n, n))
        rhs = w @ w.T
        doubled = _solve_lyapunov_doubling(comp, rhs)
        reference = scipy.linalg.solve_discrete_lyapunov(comp, rhs)
        assert_allclose(doubled, reference, rtol=1e-9, atol=1e-9)
        resid = np.linalg.norm(comp @ doubled @ comp.T + rhs - doubled)
        assert resid < 1e-9 * np.linalg.norm(doubled)

    def test_autocov_large_companion_vs_scipy(self):
        # dim * order = 72: autocov end to end on a large companion matrix
        m = random_stable_model(2, dim=9, order=8, radius=0.5)
        seq = autocov(m, maxlag=3)
        comp = companion_matrix(m)
        rhs = np.zeros_like(comp)
        rhs[:9, :9] = m.sigma
        reference = scipy.linalg.solve_discrete_lyapunov(comp, rhs)
        assert_allclose(seq.gammas[0], reference[:9, :9], rtol=1e-9, atol=1e-10)

    def test_overflowing_state_covariance_is_no_convergence(self):
        # var X1 = 1 + alpha^2 is beyond the largest double
        with pytest.raises(NoConvergence, match="overflows"):
            autocov(counterexample_model(1e200, 1.0), maxlag=2)

    @pytest.mark.parametrize("root", [1 - 1e-7, -(1 - 1e-7)])
    def test_near_unit_root(self, root):
        # companion dimension 12; the slow root must pass the 1e-10 residual
        # gate and give the closed-form variance 1 / (1 - root^2)
        m = make_var([np.diag([root] + [0.3] * 5), np.zeros((6, 6))], np.eye(6))
        seq = autocov(m, maxlag=2)
        expected = 1.0 / ((1.0 - root) * (1.0 + root))
        assert seq.gammas[0, 0, 0] == pytest.approx(expected, rel=1e-9)
        assert_allclose(np.diag(seq.gammas[0])[1:], 1.0 / (1.0 - 0.09), rtol=1e-12)


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        order=st.integers(1, 3),
        radius=st.floats(0.05, 0.95),
        power=st.integers(-200, 200),
    )
    def test_autocov_scales_exactly_with_sigma(self, seed, dim, order, radius, power):
        # the doubling's stop rule and the residual gate are relative, so
        # Sigma 2^k gives Gamma 2^k bit for bit, however small or large
        m = random_stable_model(seed, dim=dim, order=order, radius=radius)
        scaled = make_var(m.coeffs, np.ldexp(m.sigma, power))
        expected = np.ldexp(autocov(m, maxlag=8).gammas, power)
        assert np.array_equal(autocov(scaled, maxlag=8).gammas, expected)

    def test_zero_sigma_gives_zero_autocovariances(self):
        m = random_stable_model(3, dim=3, order=2, radius=0.9)
        seq = autocov(make_var(m.coeffs, np.zeros((3, 3))), maxlag=4)
        assert np.array_equal(seq.gammas, np.zeros((5, 3, 3)))


class TestSubprocess:
    def test_counterexample_pair(self):
        seq = autocov(counterexample_model(1.0, 1.0), maxlag=3)
        sub = subprocess_autocov(seq, ChannelPair(target=0, source=1))
        assert sub.dim == 2
        assert_allclose(sub.gammas[0], np.diag([2.0, 2.0]), atol=1e-12)
        assert_allclose(sub.gammas[1], [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_identity_selection(self):
        seq = autocov(random_stable_model(1, dim=2, order=2), maxlag=4)
        sub = subprocess_autocov(seq, (0, 1))
        assert_allclose(sub.gammas, seq.gammas)

    def test_order_swap_permutes(self):
        seq = autocov(random_stable_model(1, dim=3, order=2), maxlag=4)
        ab = subprocess_autocov(seq, (0, 2))
        ba = subprocess_autocov(seq, (2, 0))
        assert_allclose(ab.gammas[:, 0, 1], ba.gammas[:, 1, 0])

    def test_independent_channels_diagonal(self):
        m = make_var(
            [np.diag([0.5, -0.3, 0.2]), np.diag([0.1, 0.2, -0.1])], np.eye(3)
        )
        sub = subprocess_autocov(autocov(m, maxlag=6), (0, 2))
        assert np.all(np.abs(sub.gammas[:, 0, 1]) < 1e-12)
        assert np.all(np.abs(sub.gammas[:, 1, 0]) < 1e-12)

    def test_selection_is_exact(self):
        seq = autocov(random_stable_model(11, dim=4, order=4), maxlag=6)
        sub = subprocess_autocov(seq, (3, 1))
        want = np.stack([g[np.ix_((3, 1), (3, 1))] for g in seq.gammas])
        assert np.array_equal(sub.gammas, want)

    def test_rejects_bad_channels(self):
        seq = autocov(random_stable_model(1), maxlag=2)
        with pytest.raises(ShapeMismatch):
            subprocess_autocov(seq, (0, 5))
        with pytest.raises(ShapeMismatch):
            subprocess_autocov(seq, (1, 1))


@pytest.mark.parametrize("seed", range(4))
def test_autocov_scales_exactly_by_a_power_of_two(seed):
    # Sigma * 2^990 puts P's entries past 1e154, where the Frobenius norms of
    # the residual check would overflow; the check scales them by a power of
    # two, so the solve is the unscaled one times 2^990 and warns of nothing
    m = random_stable_model(seed, dim=3, order=2, radius=0.8)
    big = make_var(list(m.coeffs), np.ldexp(m.sigma, 990))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = autocov(big).gammas
    assert np.abs(scaled).max() > 1e154
    assert np.array_equal(scaled, np.ldexp(autocov(m).gammas, 990))


def test_a_norm_beyond_the_double_range_reads_inf():
    # each entry is finite, but the norm, 2e308, is not: it reads inf, which
    # every residual gate refuses, with no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = _frobenius(np.full((2, 2), 1e308))
    assert norm == np.inf
