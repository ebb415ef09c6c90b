import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from vardtf import (
    ChannelPair,
    char_polynomial,
    counterexample_model,
    default_grid,
    error_autocov,
    error_spectral_matrix,
    innovation_whiteness_check,
    is_white,
    kaminski_error_lag_crosscov,
    make_var,
    marginal_representation,
    reduce_pair,
    reduced_polynomial,
    spectral,
    transfer_function,
    whiteness_deficit,
)
from vardtf.exceptions import DimensionTooSmall, ShapeMismatch, SingularAtFrequency
from vardtf.reduction import ReducedRepresentation, _pair_residual, whiteness
from vardtf.spectral import (
    FrequencyGrid,
    FrequencyMatrix,
    _join,
    grid_blocks,
    lag_polynomial,
    spectral_density,
    transfer_blocks,
)

from helpers import (
    block_diagonal_model,
    block_substitution_reference,
    companion_radius,
    random_stable_model,
    singular_removed_block_model,
)

PAIR12 = ChannelPair(target=0, source=1)


def counterexample_error_taps(alpha, beta):
    """MA weights of the reduction error, by substituting channel 3 away.

    X3(t) = e3(t), so the reduced system I * X_S = E' has
    e'_1(t) = e1(t) + alpha e3(t-2) and e'_2(t) = e2(t) + beta e3(t-1).
    """
    e1, e2, e3 = np.eye(3)
    return (
        {0: e1, 2: alpha * e3},
        {0: e2, 1: beta * e3},
    )


def reduction_error_taps(model, pair):
    """MA weights of the reduction error on unit white noise w, with e = L w.

    Sigma = L L' is whitened by its Cholesky factor. With no lags among the
    removed channels R, A_RR(lambda) = I and the error is
    e'_a(t) = e_a(t) + sum_u A(u)[a, R] e_R(t-u) for each retained a.
    """
    chol = np.linalg.cholesky(model.sigma)
    removed = [ch for ch in range(model.dim) if ch not in pair.channels]
    taps = []
    for a in pair.channels:
        weights = {0: chol[a]}
        for u, coeff in enumerate(model.coeffs, start=1):
            weights[u] = coeff[a, removed] @ chol[removed]
        taps.append(weights)
    return taps


def ma_cross_covariance(taps, lag_range=4):
    """Brute-force C(h)[a, b] = E[x_a(t+h) x_b(t)] for MA weight dicts."""
    nchan = len(taps)
    out = {}
    for h in range(-lag_range, lag_range + 1):
        c = np.zeros((nchan, nchan))
        for a in range(nchan):
            for b in range(nchan):
                for v, wb in taps[b].items():
                    wa = taps[a].get(h + v)
                    if wa is not None:
                        c[a, b] += float(wa @ wb)
        out[h] = c
    return out


def ma_spectral_matrix(taps, lams, lag_range=4):
    """Fourier sum f(lambda) = (1/2pi) sum_h C(h) exp(-i h lambda)."""
    cross = ma_cross_covariance(taps, lag_range)
    values = np.zeros((lams.size, len(taps), len(taps)), dtype=complex)
    for h, c in cross.items():
        values += c * np.exp(-1j * h * lams)[:, None, None]
    return values / (2.0 * np.pi)


class TestReducePair:
    def test_dim_too_small(self):
        m = make_var([], np.eye(2))
        with pytest.raises(DimensionTooSmall):
            reduce_pair(m, PAIR12, transfer_function(m, default_grid(5)))

    def test_singular_removed_block(self):
        m = singular_removed_block_model()
        h = transfer_function(m, default_grid())
        with pytest.raises(SingularAtFrequency, match="A_RR") as exc:
            reduce_pair(m, PAIR12, [h])
        assert exc.value.frequency == 0.0
        # A_RR(lambda) = 1 - exp(-i lambda) vanishes only at lambda = 0
        off_zero = FrequencyGrid(np.linspace(0.01, np.pi, 33))
        red = reduce_pair(m, PAIR12, [transfer_function(m, off_zero)])
        assert np.all(np.isfinite(red.reduced_poly.values))

    @pytest.mark.parametrize("first,second", [(100, 1500), (1500, 100)])
    def test_first_bad_point_in_grid_order_is_named(self, first, second):
        # a NaN point (a residual failure) and an exactly singular H_SS, in
        # different grid_blocks blocks of 2000 points and in either order:
        # the first in grid order is the one reported
        m = make_var([], np.eye(3))
        grid = default_grid(2000)
        values = np.broadcast_to(np.eye(3, dtype=complex), (len(grid), 3, 3)).copy()
        values[first, :2, :2] = np.nan
        values[second, :2, :2] = 0.0
        blocks = list(grid_blocks(grid))
        assert len(blocks) == 4
        cuts = np.cumsum([len(b) for b in blocks])[:-1]
        with pytest.raises(SingularAtFrequency, match="A_RR") as exc:
            reduce_pair(m, PAIR12, map(FrequencyMatrix, blocks, np.split(values, cuts)))
        assert exc.value.frequency == grid.points[min(first, second)]

    def test_block_whose_inverse_overflows_is_singular(self):
        # H_SS = diag(1, 1e-320) has a finite determinant but an inverse out
        # of the double range: singular, with no numpy warning on the way
        m = make_var([], np.eye(3))
        grid = default_grid(5)
        values = np.broadcast_to(np.eye(3, dtype=complex), (len(grid), 3, 3)).copy()
        values[2, 1, 1] = 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularAtFrequency, match="A_RR") as exc:
                reduce_pair(m, PAIR12, [FrequencyMatrix(grid, values)])
        assert exc.value.frequency == grid.points[2]


class TestReducedPolynomial:
    def test_counterexample_identity(self):
        g = reduced_polynomial(counterexample_model(1.0, 1.0), PAIR12, default_grid(33))
        assert_allclose(g.values, np.broadcast_to(np.eye(2), (33, 2, 2)), atol=1e-14)

    def test_white_noise_identity(self):
        g = reduced_polynomial(make_var([], np.eye(4)), PAIR12, default_grid(9))
        assert_allclose(g.values, np.broadcast_to(np.eye(2), (9, 2, 2)))

    def test_isolated_pair_reduces_to_own_block(self):
        m = block_diagonal_model(3, block_dims=(2, 2))
        grid = default_grid(33)
        g = reduced_polynomial(m, PAIR12, grid)
        a_ss = char_polynomial(m, grid).values[:, :2, :2]
        assert_allclose(g.values, a_ss, atol=1e-14)


class TestErrorSpectralMatrix:
    def test_white_noise_constant(self):
        sigma = np.diag([2.0, 1.0, 0.5, 1.5])
        f = error_spectral_matrix(make_var([], sigma), PAIR12, default_grid(9))
        assert_allclose(
            f.values, np.broadcast_to(sigma[:2, :2] / (2 * np.pi), (9, 2, 2))
        )

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -3.0), (0.5, 2.0)])
    def test_matches_time_domain_oracle(self, alpha, beta):
        grid = default_grid(33)
        f = error_spectral_matrix(counterexample_model(alpha, beta), PAIR12, grid)
        oracle = ma_spectral_matrix(counterexample_error_taps(alpha, beta), grid.points)
        assert_allclose(f.values, oracle, atol=1e-12)

    def test_counterexample_entries(self):
        grid = default_grid(33)
        lam = grid.points
        f = error_spectral_matrix(counterexample_model(1.0, 1.0), PAIR12, grid)
        scaled = 2.0 * np.pi * f.values
        assert_allclose(scaled[:, 0, 0].real, 2.0, atol=1e-12)
        assert_allclose(scaled[:, 1, 1].real, 2.0, atol=1e-12)
        # off-diagonal has constant modulus but drifting phase
        assert_allclose(np.abs(scaled[:, 0, 1]), 1.0, atol=1e-12)
        assert_allclose(scaled[:, 0, 1], np.exp(-1j * lam), atol=1e-12)
        assert_allclose(scaled[:, 1, 0], np.exp(1j * lam), atol=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -3.0)])
    def test_inverse_fourier_recovers_lag0_covariance(self, alpha, beta):
        # integral of f over [-pi, pi] (even extension) against the exact
        # lag-0 covariance of the error moving average
        grid = default_grid()
        f = error_spectral_matrix(counterexample_model(alpha, beta), PAIR12, grid)
        integral = 2.0 * simpson(f.values.real, x=grid.points, axis=0)
        lag0 = ma_cross_covariance(counterexample_error_taps(alpha, beta))[0]
        assert_allclose(integral, lag0, atol=1e-6)


class TestWhitenessDeficit:
    def test_white_pair_near_zero(self):
        f = error_spectral_matrix(make_var([], np.eye(3)), PAIR12, default_grid())
        assert whiteness_deficit(f) < 1e-12
        assert is_white(f)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -3.0), (0.5, 0.5)])
    def test_counterexample_deficit(self, alpha, beta):
        grid = default_grid()
        f = error_spectral_matrix(counterexample_model(alpha, beta), PAIR12, grid)
        deficit = whiteness_deficit(f)
        # independent evaluation from the closed form of the scaled spectrum
        lam = grid.points
        off = alpha * beta * np.exp(-1j * lam)
        scaled = np.zeros((lam.size, 2, 2), dtype=complex)
        scaled[:, 0, 0] = 1 + alpha**2
        scaled[:, 1, 1] = 1 + beta**2
        scaled[:, 0, 1] = off
        scaled[:, 1, 0] = off.conj()
        expected = np.max(
            np.linalg.norm(scaled - scaled.mean(axis=0), axis=(1, 2))
        )
        assert deficit == pytest.approx(expected, rel=1e-12)
        assert deficit >= np.sqrt(2.0) * abs(alpha * beta) * 0.9
        assert not is_white(f)

    @pytest.mark.parametrize("power", [0, 600, 1000, 1015, 1020, -600, -1000])
    def test_power_of_two_scaling_is_exact(self, power):
        # 2^1000 puts the spectrum near 1e301: finite, but its squares are not
        f = error_spectral_matrix(counterexample_model(0.7, -1.3), PAIR12, default_grid())
        big = FrequencyMatrix(f.grid, f.values * 2.0**power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert whiteness_deficit(big) == np.ldexp(whiteness_deficit(f), power)
            assert not is_white(big) and not is_white(f)
            white = error_spectral_matrix(make_var([], np.eye(3)), PAIR12, default_grid())
            assert is_white(FrequencyMatrix(white.grid, white.values * 2.0**power))

    @pytest.mark.parametrize("seed", range(5))
    def test_uncoupled_pair_stays_white(self, seed):
        # A_SR == 0 at all lags: the pair receives nothing from outside,
        # so the reduction error is exactly the pair's own innovations
        rng = np.random.default_rng(seed)
        coeffs = [rng.normal(scale=0.3, size=(4, 4)) for _ in range(2)]
        for a in coeffs:
            a[:2, 2:] = 0.0
        m = make_var([0.5 * a for a in coeffs], np.eye(4))
        f = error_spectral_matrix(m, PAIR12, default_grid(65))
        assert whiteness_deficit(f) < 1e-10

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -3.0), (0.5, 0.5)])
    def test_grid_refinement_stable(self, alpha, beta):
        m = counterexample_model(alpha, beta)
        d257 = whiteness_deficit(error_spectral_matrix(m, PAIR12, default_grid(257)))
        d1025 = whiteness_deficit(error_spectral_matrix(m, PAIR12, default_grid(1025)))
        assert abs(d257 - d1025) / d1025 < 0.01


class TestKaminskiCrossCovariance:
    @pytest.mark.parametrize("alpha", [-2.0, 0.5, 3.0])
    @pytest.mark.parametrize("beta", [-3.0, 1.0, 2.0])
    def test_equals_product(self, alpha, beta):
        value = kaminski_error_lag_crosscov(counterexample_model(alpha, beta))
        assert value == pytest.approx(alpha * beta, abs=1e-12)

    def test_zero_alpha_decouples(self):
        assert kaminski_error_lag_crosscov(counterexample_model(0.0, 5.0)) == 0.0

    def test_matches_brute_force_oracle(self):
        # same number out of the generic MA cross-covariance enumeration
        cross = ma_cross_covariance(counterexample_error_taps(2.0, -3.0))
        assert kaminski_error_lag_crosscov(
            counterexample_model(2.0, -3.0)
        ) == pytest.approx(cross[1][0, 1], abs=1e-14)

    def test_rejects_other_models(self):
        with pytest.raises(ShapeMismatch):
            kaminski_error_lag_crosscov(random_stable_model(0))
        with pytest.raises(ShapeMismatch):
            kaminski_error_lag_crosscov(make_var([], np.eye(3)))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 6),
    order=st.integers(1, 4),
    maxlag=st.integers(0, 9),
    data=st.data(),
)
def test_error_autocov_matches_ma_oracle(seed, dim, order, maxlag, data):
    # the removed block has no lags, so the error is MA(order) and its
    # covariances come from the weights alone; over 300 such models the
    # worst difference was 4.4e-16 of max |Gamma(0)|
    target, source = data.draw(st.permutations(range(dim)))[:2]
    pair = ChannelPair(target=target, source=source)
    removed = [ch for ch in range(dim) if ch not in pair.channels]
    m = random_stable_model(seed, dim=dim, order=order, lagless=removed)
    cross = ma_cross_covariance(reduction_error_taps(m, pair), maxlag)
    expected = np.array([cross[h] for h in range(maxlag + 1)])
    seq = error_autocov(m, pair, maxlag)
    assert (seq.dim, seq.maxlag) == (2, maxlag)
    assert np.max(np.abs(seq.gammas - expected)) <= 1e-14 * np.max(np.abs(expected[0]))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 6),
    order=st.integers(1, 4),
    radius=st.floats(0.1, 0.7),
    maxlag=st.integers(0, 9),
    data=st.data(),
)
def test_error_autocov_matches_fourier_coefficients(seed, dim, order, radius, maxlag, data):
    # the removed block lags among themselves, so e' is not a finite MA;
    # its covariances are the Fourier coefficients int f exp(i h lambda) of
    # the error spectrum, here by an inverse FFT on 4097 points of [0, pi],
    # whose aliasing from lags 8192 apart is below rounding for an A_RR
    # root radius up to 0.95; over 300 models the worst difference was
    # 4.2e-16 of max |Gamma(0)|
    target, source = data.draw(st.permutations(range(dim)))[:2]
    pair = ChannelPair(target=target, source=source)
    removed = [ch for ch in range(dim) if ch not in pair.channels]
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    assume(companion_radius([a[np.ix_(removed, removed)] for a in m.coeffs]) <= 0.95)
    spectrum = error_spectral_matrix(m, pair, default_grid(4097)).values
    expected = 2.0 * np.pi * np.fft.irfft(spectrum, n=8192, axis=0)[: maxlag + 1]
    seq = error_autocov(m, pair, maxlag)
    assert (seq.dim, seq.maxlag) == (2, maxlag)
    assert np.max(np.abs(seq.gammas - expected)) <= 1e-13 * np.max(np.abs(expected[0]))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 6),
    order=st.integers(1, 4),
    radius=st.floats(0.1, 0.95),
    lagless=st.booleans(),
    data=st.data(),
)
def test_reduce_pair_matches_block_substitution(seed, dim, order, radius, lagless, data):
    # G = H_SS^-1 and the density of G H_S. against the Schur complement and
    # the Sigma block algebra on A(lambda); the removed block is lagged
    # unless ``lagless``
    target, source = data.draw(st.permutations(range(dim)))[:2]
    pair = ChannelPair(target=target, source=source)
    removed = [ch for ch in range(dim) if ch not in pair.channels]
    m = random_stable_model(
        seed, dim=dim, order=order, radius=radius, lagless=removed if lagless else ()
    )
    grid = default_grid(65)
    red = reduce_pair(m, pair, [transfer_function(m, grid)])
    g, f = block_substitution_reference(m, pair, grid.points)
    assert np.max(np.abs(red.reduced_poly.values - g)) <= 1e-11 * np.max(np.abs(g))
    assert np.max(np.abs(red.error_spectrum.values - f)) <= 1e-11 * np.max(np.abs(f))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 8),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.9),
    data=st.data(),
)
def test_swapped_pair_reduction_is_exact(seed, dim, order, radius, data):
    # G = H_SS^-1 and G H_S. come from the entry-by-entry 2x2 kernel, whose
    # determinant takes each complex product in both orders, so (b, a)'s
    # polynomial, error spectrum and deficit are (a, b)'s swapped, bit for bit
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    a, b = data.draw(st.permutations(range(dim)))[:2]
    transfer = [transfer_function(m, default_grid(65))]
    ab, ba = (
        reduce_pair(m, ChannelPair(target=t, source=s), transfer) for t, s in ((a, b), (b, a))
    )
    swap = (slice(None), slice(None, None, -1), slice(None, None, -1))
    assert np.array_equal(ba.reduced_poly.values, ab.reduced_poly.values[swap])
    assert np.array_equal(ba.error_spectrum.values, ab.error_spectrum.values[swap])
    assert whiteness(ba.error_spectrum) == whiteness(ab.error_spectrum)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 8),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.9),
    data=st.data(),
)
def test_pair_residual_contract(seed, dim, order, radius, data):
    # the one residual body of reduce_pair and innovation_whiteness_check, fed H whole as
    # [h], as transfer_blocks on a grid of three blocks and as a random consecutive cut into
    # blocks of at least 2 points: the identity filter leaves the pair's 2x2 block of the
    # spectral density (over 360 seeded cases the worst relative difference was 6.7e-16),
    # and a swapped pair filtered by the swapped Phi(lambda) gets the swapped (F, f) bit
    # for bit, as does H by either set of blocks H whole's (F, f)
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    a, b = data.draw(st.permutations(range(dim)))[:2]
    ab, ba = ChannelPair(target=a, source=b), ChannelPair(target=b, source=a)
    grid = default_grid(1201)
    phis = np.random.default_rng(seed).standard_normal((data.draw(st.integers(0, 3)), 2, 2))
    swap = (slice(None), slice(None, None, -1), slice(None, None, -1))

    def residual(pair, transfer, pair_filter) -> list:  # the yielded blocks' (F, f), joined
        blocks = zip(*_pair_residual(m, pair, transfer, pair_filter))
        return [_join(fms).values for fms in blocks]

    def identity(block):
        return np.broadcast_to(np.eye(2, dtype=complex), block.values.shape)

    def phi(coeffs):
        return lambda block: lag_polynomial(coeffs, block.grid).values

    whole = transfer_function(m, grid)
    cuts = np.cumsum(data.draw(st.lists(st.integers(2, 600), max_size=6)), dtype=int)
    cuts = cuts[cuts <= len(grid) - 2]
    pieces = zip(np.split(grid.points, cuts), np.split(whole.values, cuts))
    cut = [FrequencyMatrix(FrequencyGrid(points), values) for points, values in pieces]
    expected = spectral_density(m, grid).values[:, [a, b]][:, :, [a, b]]
    filtered = residual(ab, [whole], phi(phis))
    for transfer in (lambda: [whole], lambda: transfer_blocks(m, grid), lambda: cut):
        f = residual(ab, transfer(), identity)[1]
        assert np.max(np.abs(f - expected)) <= 1e-14 * np.max(np.abs(expected))
        assert all(map(np.array_equal, residual(ab, transfer(), phi(phis)), filtered))
        swapped = residual(ba, transfer(), phi(phis[:, ::-1, ::-1]))
        assert all(np.array_equal(x, y[swap]) for x, y in zip(swapped, filtered))


@pytest.mark.parametrize("reader", ["reduce_pair", "innovation_whiteness_check"])
def test_a_bare_frequency_matrix_is_refused_before_any_block(reader, monkeypatch):
    # the pair readers take an iterable of blocks ([h] for an H held whole); a bare
    # FrequencyMatrix is none, and fails at the call, before any block's density is taken
    m = counterexample_model(1.0, 1.0)
    h, rep = transfer_function(m, default_grid(65)), marginal_representation(m, PAIR12)
    calls = []
    monkeypatch.setattr(spectral, "density_from_transfer", lambda *args: calls.append(args))
    readers = {
        "reduce_pair": lambda: reduce_pair(m, PAIR12, h),
        "innovation_whiteness_check": lambda: innovation_whiteness_check(m, PAIR12, rep, h),
    }
    with pytest.raises(TypeError, match="not iterable"):
        readers[reader]()
    assert calls == []


class TestErrorAutocov:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -3.0), (0.5, 2.0)])
    def test_counterexample_closed_form(self, alpha, beta):
        # e'_1 = e1 + alpha e3(t-2), e'_2 = e2 + beta e3(t-1): the only
        # covariance at a nonzero lag is E[e'_1(t) e'_2(t-1)] = alpha beta
        seq = error_autocov(counterexample_model(alpha, beta), PAIR12, 4)
        expected = np.zeros((5, 2, 2))
        expected[0] = np.diag([1 + alpha**2, 1 + beta**2])
        expected[1, 0, 1] = alpha * beta
        assert_allclose(seq.gammas, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_lags_beyond_order_vanish(self, seed):
        pair = ChannelPair(target=2, source=0)
        m = random_stable_model(seed, dim=4, order=2, lagless=[1, 3])
        gammas = error_autocov(m, pair, 8).gammas
        scale = np.max(np.abs(gammas[0]))
        assert np.max(np.abs(gammas[2])) > 1e-3 * scale
        assert np.max(np.abs(gammas[3:])) <= 1e-14 * scale

    def test_white_noise_is_sigma_at_lag_zero(self):
        sigma = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
        gammas = error_autocov(make_var([], sigma), PAIR12, 3).gammas
        assert_allclose(gammas[0], sigma[:2, :2], rtol=0, atol=1e-15)
        assert np.max(np.abs(gammas[1:])) <= 1e-15

    def test_rejects_unstable_removed_block(self):
        # A_RR(lambda) = 1 - exp(-i lambda) has its root on the unit circle,
        # so e' = E_S - A_SR A_RR^-1 E_R is not stationary
        with pytest.raises(ShapeMismatch, match="A_RR"):
            error_autocov(singular_removed_block_model(), PAIR12, 3)

    def test_rejects_negative_maxlag(self):
        with pytest.raises(ShapeMismatch):
            error_autocov(counterexample_model(1.0, 1.0), PAIR12, -1)

    def test_dim_too_small(self):
        with pytest.raises(DimensionTooSmall):
            error_autocov(make_var([], np.eye(2)), PAIR12, 1)


class TestReducedRepresentation:
    def test_bundle(self):
        m = counterexample_model(1.0, 1.0)
        grid = default_grid(17)
        red = reduce_pair(m, PAIR12, [transfer_function(m, grid)])
        assert_allclose(
            red.reduced_poly.values,
            reduced_polynomial(m, PAIR12, grid).values,
        )
        assert_allclose(
            red.error_spectrum.values,
            error_spectral_matrix(m, PAIR12, grid).values,
        )

    def test_rejects_mismatched_grids(self):
        m = counterexample_model(1.0, 1.0)
        poly = reduced_polynomial(m, PAIR12, default_grid(17))
        err = error_spectral_matrix(m, PAIR12, default_grid(33))
        with pytest.raises(ShapeMismatch):
            ReducedRepresentation(pair=PAIR12, reduced_poly=poly, error_spectrum=err)

    def test_rejects_non_hermitian_spectrum(self):
        grid = default_grid(5)
        vals = np.zeros((5, 2, 2), dtype=complex)
        vals[:, 0, 1] = 1.0j
        vals[:, 1, 0] = 1.0j  # conj would be -1j
        bad = FrequencyMatrix(grid, vals)
        good = FrequencyMatrix(grid, np.broadcast_to(np.eye(2), (5, 2, 2)).astype(complex))
        with pytest.raises(ShapeMismatch):
            ReducedRepresentation(pair=PAIR12, reduced_poly=good, error_spectrum=bad)
