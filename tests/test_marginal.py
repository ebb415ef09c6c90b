import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vardtf import (
    ChannelPair,
    autocov,
    block_toeplitz,
    counterexample_model,
    default_grid,
    error_spectral_matrix,
    fit_var,
    full_report,
    innovation_whiteness_check,
    make_var,
    marginal_representation,
    simulate,
    spectral_density,
    subprocess_autocov,
    transfer_function,
    whittle_recursion,
)
from vardtf.estimate import Trajectory
from vardtf.exceptions import (
    NotConverged,
    NumericalBreakdown,
    ShapeMismatch,
    SingularToeplitz,
    VardtfError,
)
from vardtf.marginal import (
    MarginalAR,
    Q_MAX_CAP,
    _levinson_whittle,
    _order_schedule,
    marginal_representations,
)
from vardtf.moments import AutocovSequence
from vardtf.spectral import lag_polynomial

from helpers import (
    block_diagonal_model,
    direct_yule_walker,
    random_stable_model,
    riccati_innovation_cov,
)

PAIR12 = ChannelPair(target=0, source=1)


def implied_prediction_error_cov(gammas, phis):
    """E[e e'] for an arbitrary coefficient set, from the autocovariances."""
    q, d = phis.shape[0], phis.shape[1]

    def gamma(h):
        return gammas[h] if h >= 0 else gammas[-h].T

    v = gamma(0).copy()
    for u in range(1, q + 1):
        v -= gamma(u) @ phis[u - 1].T
        v -= phis[u - 1] @ gamma(u).T
        for w in range(1, q + 1):
            v += phis[u - 1] @ gamma(w - u) @ phis[w - 1].T
    return v


class TestWhittleRecursion:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("q", [1, 2, 5, 10])
    def test_matches_direct_yule_walker(self, seed, q):
        m = random_stable_model(seed, dim=4, order=2, radius=0.7)
        sub = subprocess_autocov(autocov(m, maxlag=q), (0, 1))
        rep = whittle_recursion(sub, q)
        phis, v = direct_yule_walker(sub.gammas, q)
        assert_allclose(rep.phis, phis, atol=1e-10)
        assert_allclose(rep.innov_cov, v, atol=1e-10)

    def test_white_noise_trivial(self):
        sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
        seq = autocov(make_var([], sigma), maxlag=6)
        rep = whittle_recursion(seq, 5)
        assert np.all(np.abs(rep.phis) < 1e-14)
        assert_allclose(rep.innov_cov, sigma, atol=1e-14)

    @pytest.mark.parametrize("q", [2, 4])
    def test_counterexample_closed_form(self, q):
        sub = subprocess_autocov(autocov(counterexample_model(1.0, 1.0), maxlag=q), PAIR12)
        rep = whittle_recursion(sub, q)
        assert_allclose(rep.phis[0], [[0.0, 0.5], [0.0, 0.0]], atol=1e-10)
        assert np.all(np.linalg.norm(rep.phis[1:], axis=(1, 2)) < 1e-8)
        assert_allclose(rep.innov_cov, np.diag([1.5, 2.0]), atol=1e-10)

    def test_scalar_ar1_embedded(self):
        # AR(1) channel next to an independent white channel: the pair's
        # representation is the model itself
        m = make_var([np.array([[0.5, 0.0], [0.0, 0.0]])], np.eye(2))
        sub = subprocess_autocov(autocov(m, maxlag=4), (0, 1))
        rep = whittle_recursion(sub, 3)
        assert rep.phis[0][0, 0] == pytest.approx(0.5, abs=1e-10)
        assert abs(rep.phis[0][0, 1]) < 1e-10
        assert np.all(np.abs(rep.phis[1:]) < 1e-10)

    def test_innovation_trace_non_increasing(self):
        m = random_stable_model(9, dim=3, order=2, radius=0.8)
        sub = subprocess_autocov(autocov(m, maxlag=12), (0, 2))
        traces = [
            float(np.trace(whittle_recursion(sub, q).innov_cov)) for q in range(0, 12)
        ]
        diffs = np.diff(traces)
        assert np.all(diffs <= 1e-12)

    def test_order_zero_returns_lag0(self):
        sub = subprocess_autocov(autocov(counterexample_model(1.0, 1.0), maxlag=2), PAIR12)
        rep = whittle_recursion(sub, 0)
        assert rep.phis.shape == (0, 2, 2)
        assert_allclose(rep.innov_cov, sub.gammas[0])
        assert not rep.convergence.converged

    def test_optimality_first_order(self):
        # perturbing any single coefficient entry cannot reduce the trace of
        # the implied one-step prediction error covariance
        m = random_stable_model(4, dim=3, order=2, radius=0.7)
        sub = subprocess_autocov(autocov(m, maxlag=6), (0, 1))
        rep = whittle_recursion(sub, 4)
        base = float(np.trace(implied_prediction_error_cov(sub.gammas, rep.phis)))
        for u in range(4):
            for j in range(2):
                for k in range(2):
                    for eps in (1e-3, -1e-3):
                        perturbed = rep.phis.copy()
                        perturbed[u, j, k] += eps
                        t = float(
                            np.trace(
                                implied_prediction_error_cov(sub.gammas, perturbed)
                            )
                        )
                        assert t >= base - 1e-12

    def test_toeplitz_condition_reported(self):
        sub = subprocess_autocov(autocov(counterexample_model(1.0, 1.0), maxlag=4), PAIR12)
        rep = whittle_recursion(sub, 3)
        assert np.isfinite(rep.toeplitz_cond)
        assert rep.toeplitz_cond >= 1.0

    def test_singular_toeplitz(self):
        gammas = np.ones((3, 2, 2))
        seq = AutocovSequence(gammas=gammas)
        with pytest.raises(SingularToeplitz):
            whittle_recursion(seq, 2)

    def test_numerical_breakdown_on_invalid_acov(self):
        gammas = np.array([[[1.0]], [[0.9]], [[0.2]]])
        seq = AutocovSequence(gammas=gammas)
        with pytest.raises(NumericalBreakdown):
            whittle_recursion(seq, 2)

    def test_failures_leave_the_batch_one_by_one(self):
        # a singular, a valid and an indefinite sequence in one batch: each
        # gets exactly what a recursion of its own gives
        valid = subprocess_autocov(autocov(counterexample_model(1.0, 1.0), maxlag=2), PAIR12)
        indefinite = np.zeros((3, 2, 2))
        indefinite[:, 0, 0] = (1.0, 0.9, 0.2)
        indefinite[0, 1, 1] = 1.0
        stack = np.stack((np.ones((3, 2, 2)), valid.gammas, indefinite))
        results = _levinson_whittle(stack, (2,), 1e-8, (None,) * 3)
        assert [type(r) for r in results] == [SingularToeplitz, MarginalAR, NumericalBreakdown]
        for gammas, result in zip(stack, results):
            try:
                alone = whittle_recursion(AutocovSequence(gammas), 2)
            except (SingularToeplitz, NumericalBreakdown) as exc:
                assert str(result) == str(exc)
            else:
                _assert_same_predictor(result, alone)

    def test_order_beyond_lags_rejected(self):
        seq = autocov(make_var([], np.eye(2)), maxlag=3)
        with pytest.raises(ShapeMismatch):
            whittle_recursion(seq, 5)


class TestOrderSchedule:
    def test_doubling(self):
        assert _order_schedule(128) == [4, 8, 16, 32, 64, 128]
        assert _order_schedule(10) == [4, 8, 10]
        assert _order_schedule(4) == [4]
        assert _order_schedule(3) == [3]
        assert _order_schedule(1) == [1]


class TestMarginalRepresentation:
    @pytest.mark.parametrize("alpha", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    def test_counterexample_family(self, alpha, beta):
        rep = marginal_representation(counterexample_model(alpha, beta), PAIR12)
        assert rep.convergence.converged
        expected = alpha * beta / (1 + beta**2)
        assert rep.phis[0][0, 1] == pytest.approx(expected, abs=1e-6)
        assert abs(rep.phis[0][1, 0]) < 1e-6
        assert abs(rep.innov_cov[0, 1]) < 1e-6
        assert rep.innov_cov[0, 0] == pytest.approx(
            1 + alpha**2 / (1 + beta**2), abs=1e-6
        )
        assert rep.innov_cov[1, 1] == pytest.approx(1 + beta**2, abs=1e-6)

    def test_converges_at_small_order(self):
        rep = marginal_representation(counterexample_model(1.0, 1.0), PAIR12)
        assert rep.order_used == 4
        assert rep.pair == PAIR12

    def test_white_noise_pair(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        rep = marginal_representation(make_var([], sigma), PAIR12)
        assert np.all(np.abs(rep.phis) < 1e-12)
        assert_allclose(rep.innov_cov, np.diag([1.0, 2.0]), atol=1e-12)

    def test_alpha_zero_severs_path(self):
        rep = marginal_representation(counterexample_model(0.0, 1.5), PAIR12)
        assert np.all(np.abs(rep.phis) < 1e-8)
        assert_allclose(rep.innov_cov, np.diag([1.0, 1.0 + 1.5**2]), atol=1e-8)

    def test_not_converged_carries_best(self):
        coeffs = [np.zeros((3, 3)) for _ in range(1)]
        coeffs[0][2, 2] = 0.97
        coeffs[0][0, 2] = 0.5
        m = make_var(coeffs, np.eye(3))
        with pytest.raises(NotConverged) as exc:
            marginal_representation(m, PAIR12, q_max=16)
        best = exc.value.best
        assert best is not None
        assert best.order_used == 16
        assert not best.convergence.converged
        assert 16 in exc.value.diagnostics

    @pytest.mark.parametrize("dim,seed", [(3, 123), (4, 124)])
    def test_matches_ols_fit(self, dim, seed):
        m = random_stable_model(seed, dim=dim, order=2, radius=0.5)
        rep = marginal_representation(m, PAIR12)
        traj = simulate(m, 200_000, seed=5, burn_in=1000)
        sub = Trajectory(samples=traj.samples[:, [0, 1]], seed=traj.seed)
        fit = fit_var(sub, rep.order_used)
        dev = np.abs(np.stack(fit.model.coeffs) - rep.phis)
        within = dev <= 4.0 * fit.stderr
        assert within.mean() > 0.9


def _recomputed(model, pair, q_max, order):
    """The order-``order`` predictor by a fresh whittle_recursion call."""
    return whittle_recursion(subprocess_autocov(autocov(model, q_max), pair), order)


def _assert_same_predictor(rep, ref):
    assert rep.order_used == ref.order_used
    assert np.array_equal(rep.phis, ref.phis)
    assert np.array_equal(rep.innov_cov, ref.innov_cov)
    assert rep.convergence == ref.convergence
    assert rep.toeplitz_cond == ref.toeplitz_cond


class TestSinglePass:
    """The one-pass driver returns exactly what a restart at its order gives."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("q_max", [3, 16, 128])
    def test_matches_whittle_recursion(self, seed, q_max):
        m = random_stable_model(seed, dim=4, order=3, radius=0.8)
        for pair in (PAIR12, ChannelPair(target=3, source=1)):
            try:
                rep = marginal_representation(m, pair, q_max=q_max)
            except NotConverged as exc:
                rep = exc.best
            assert rep.pair == pair
            _assert_same_predictor(rep, _recomputed(m, pair, q_max, rep.order_used))

    def test_not_converged_best_and_diagnostics(self):
        coeffs = [np.zeros((3, 3))]
        coeffs[0][2, 2] = 0.95
        coeffs[0][0, 2] = 0.5
        m = make_var(coeffs, np.eye(3))
        with pytest.raises(NotConverged) as exc:
            marginal_representation(m, PAIR12, q_max=24)
        _assert_same_predictor(exc.value.best, _recomputed(m, PAIR12, 24, 24))
        assert list(exc.value.diagnostics) == [4, 8, 16, 24]
        for q, diag in exc.value.diagnostics.items():
            conv = _recomputed(m, PAIR12, 24, q).convergence
            assert diag == {"tail_norm": conv.tail_norm, "v_delta": conv.v_delta}

    def test_order_cap_beyond_lags_rejected(self):
        with pytest.raises(ShapeMismatch):
            marginal_representation(counterexample_model(1.0, 1.0), PAIR12, q_max=0)

    @pytest.mark.parametrize(
        "q_max,tol", [(0, 1e-8), (-1, 1e-8), (8, 0.0), (8, -1.0), (8, np.nan), (8, np.inf)]
    )
    def test_invalid_settings_rejected(self, q_max, tol):
        with pytest.raises(ShapeMismatch):
            marginal_representations(
                counterexample_model(1.0, 1.0), [PAIR12], q_max=q_max, tol=tol
            )

    def test_order_cap_is_accepted_up_to_the_limit(self):
        assert Q_MAX_CAP == 1024
        rep = marginal_representation(counterexample_model(1.0, 1.0), PAIR12, q_max=Q_MAX_CAP)
        assert rep.order_used == 4


def _mixed_outcome_model(seed, dim, order, radius, zero_channel, loading):
    """A random model on ``dim`` channels, plus optional extra channels.

    An extra zero channel has neither innovation nor input, so it is
    identically zero and every pair with it is a deterministic subprocess.
    An extra slow channel, 0.999 X(t-1) + e(t), loads ``loading`` into
    channels 1 and 2 at lag 1; their pair's coefficients decay slowly.
    """
    base = random_stable_model(seed, dim=dim, order=order, radius=radius)
    total = dim + zero_channel + (loading is not None)
    coeffs = np.zeros((order, total, total))
    coeffs[:, :dim, :dim] = base.coeffs
    sigma = np.zeros((total, total))
    sigma[:dim, :dim] = base.sigma
    if loading is not None:
        slow = total - 1
        coeffs[0, slow, slow] = 0.999
        coeffs[0, 0, slow] = coeffs[0, 1, slow] = loading
        sigma[slow, slow] = 1.0
    return make_var(coeffs, sigma)


def _assert_batch_matches_each_pair_alone(m, q_max):
    """Every pair of one full_report batch against marginal_representation on its own."""
    report = full_report(m, default_grid(33), q_max=q_max)
    acov = autocov(m, q_max)
    outcomes = set()
    for v in report.pairs:
        pair = ChannelPair(target=v.target, source=v.source)
        try:
            alone, error = marginal_representation(m, pair, q_max=q_max), None
        except VardtfError as exc:
            alone, error = getattr(exc, "best", None), exc
        assert type(v.failure) is type(error)
        assert v.error == (None if error is None else str(error))
        outcomes.add(type(error))
        batched = v.marginal if error is None else getattr(v.failure, "best", None)
        if isinstance(error, NotConverged):
            assert v.failure.diagnostics == error.diagnostics
        if alone is None:
            assert batched is None
            continue
        assert batched.pair == pair
        _assert_same_predictor(batched, alone)
        # the 2-norm condition number, as an SVD gives it: both carry an
        # error of order eps ||T|| in the smallest value, so beyond a
        # condition number of about 4500 they agree to eps * cond only
        toeplitz = block_toeplitz(subprocess_autocov(acov, pair), max(alone.order_used, 1))
        expected = np.linalg.cond(toeplitz)
        rel = abs(batched.toeplitz_cond - expected) / expected
        assert rel <= max(1e-12, np.finfo(float).eps * expected)
    return outcomes


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.8),
    zero_channel=st.booleans(),
    loading=st.one_of(st.none(), st.floats(0.05, 0.5)),
    q_max=st.sampled_from([16, 64]),
)
def test_batched_pass_matches_each_pair_alone(
    seed, dim, order, radius, zero_channel, loading, q_max
):
    # converged, SingularToeplitz and NotConverged pairs leave one batch at
    # their own orders; each gets the bits its own recursion gives
    extra = zero_channel + (loading is not None)
    assume(dim - extra >= 2)
    m = _mixed_outcome_model(seed, dim - extra, order, radius, zero_channel, loading)
    _assert_batch_matches_each_pair_alone(m, q_max)


def test_one_batch_holds_all_three_outcomes():
    m = _mixed_outcome_model(1, 2, 1, 0.5, zero_channel=True, loading=0.3)
    outcomes = _assert_batch_matches_each_pair_alone(m, 16)
    assert outcomes == {type(None), SingularToeplitz, NotConverged}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.8),
    data=st.data(),
)
def test_swapped_pair_symmetry(seed, dim, order, radius, data):
    # (a, b) and (b, a) marginalize the same subprocess in swapped channel
    # order, so every output is the other's with rows and columns swapped
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    a, b = data.draw(st.permutations(range(dim)))[:2]
    ab = marginal_representation(m, ChannelPair(target=a, source=b))
    ba = marginal_representation(m, ChannelPair(target=b, source=a))
    swap = [1, 0]
    assert ab.order_used == ba.order_used
    assert_allclose(ab.innov_cov, ba.innov_cov[np.ix_(swap, swap)], rtol=0, atol=1e-12)
    assert_allclose(ab.phis, ba.phis[:, swap][:, :, swap], rtol=0, atol=1e-12)


class TestInnovationWhiteness:
    def test_counterexample_representation_is_white(self):
        m = counterexample_model(1.0, 1.0)
        rep = marginal_representation(m, PAIR12)
        deficit = innovation_whiteness_check(m, PAIR12, rep, transfer_function(m, default_grid()))
        assert deficit < 1e-6

    def test_truncated_representation_fails(self):
        m = counterexample_model(1.0, 1.0)
        sub = subprocess_autocov(autocov(m, maxlag=2), PAIR12)
        stub = whittle_recursion(sub, 0)
        deficit = innovation_whiteness_check(m, PAIR12, stub, transfer_function(m, default_grid()))
        assert deficit > 0.01 * np.linalg.norm(stub.innov_cov)

    def test_white_noise_model(self):
        m = make_var([], np.eye(3))
        rep = marginal_representation(m, PAIR12)
        deficit = innovation_whiteness_check(m, PAIR12, rep, transfer_function(m, default_grid()))
        assert deficit < 1e-12

    def test_pair_mismatch_rejected(self):
        m = counterexample_model(1.0, 1.0)
        rep = marginal_representation(m, PAIR12)
        with pytest.raises(ShapeMismatch):
            innovation_whiteness_check(
                m, ChannelPair(target=0, source=2), rep, transfer_function(m, default_grid(9))
            )

    def test_differs_from_reduction_error_spectrum(self):
        # when the reduction's error spectrum is far from white, the true
        # residual spectrum cannot agree with it
        m = counterexample_model(1.0, 1.0)
        grid = default_grid()
        rep = marginal_representation(m, PAIR12)
        phi = lag_polynomial(rep.phis, grid).values
        full = spectral_density(m, grid).values
        f_s = full[np.ix_(range(len(grid)), [0, 1], [0, 1])]
        marginal_spectrum = phi @ f_s @ phi.conj().transpose(0, 2, 1)
        reduction_spectrum = error_spectral_matrix(m, PAIR12, grid).values
        gap = np.max(np.linalg.norm(marginal_spectrum - reduction_spectrum, axis=(1, 2)))
        assert gap > 0.05


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 5),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.9),
)
def test_converged_pairs_leave_white_residuals(seed, dim, order, radius):
    # a converged representation is the projection up to its tail, so
    # Phi H_S. filters the pair down to white noise: over 618 pairs the
    # worst deficit was 1.7e-8 of ||V||_F
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    report = full_report(m)
    for v in report.pairs:
        rep = v.marginal
        if rep is None or not rep.convergence.converged:
            continue
        deficit = innovation_whiteness_check(m, rep.pair, rep, report.transfer)
        assert deficit <= 1e-6 * np.linalg.norm(rep.innov_cov, "fro")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from([((2, 1), 0), ((1, 2), 1), ((2, 2), 2), ((1, 2, 3), 1)]),
    order=st.integers(1, 4),
    radius=st.floats(0.1, 0.9),
    swapped=st.booleans(),
)
def test_isolated_block_pair_recovers_its_own_model(seed, layout, order, radius, swapped):
    # the channels of an isolated 2x2 block form a VAR(p) of their own, so
    # its marginal representation is that block's A(1..p), zeros beyond p
    # and that block of sigma, in either channel order: over 1920 pairs at
    # radius 0.9 the worst difference was 1.1e-13 of max(1, max |A|)
    block_dims, start = layout
    m = block_diagonal_model(seed, block_dims=block_dims, order=order, radius=radius)
    channels = [start + 1, start] if swapped else [start, start + 1]
    pair = ChannelPair(target=channels[0], source=channels[1])
    rep = marginal_representation(m, pair)
    own = np.stack(m.coeffs)[:, channels][:, :, channels]
    expected = np.zeros_like(rep.phis)
    expected[:order] = own
    scale = max(1.0, np.max(np.abs(own)))
    assert rep.convergence.converged and rep.order_used >= order
    assert np.max(np.abs(rep.phis - expected)) <= 1e-10 * scale
    assert np.max(np.abs(rep.innov_cov - m.sigma[np.ix_(channels, channels)])) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    order=st.integers(1, 4),
    radius=st.floats(0.1, 0.7),
)
def test_innovation_covariance_matches_riccati_oracle(seed, dim, order, radius):
    # the pair is a state-space process, whose innovation covariance one
    # discrete algebraic Riccati equation gives with no order cap; over 700
    # pairs the worst difference was 1.1e-15 of max |V|
    m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    for v in full_report(m).pairs:
        expected = riccati_innovation_cov(m, v.marginal.pair)
        assert np.max(np.abs(v.marginal.innov_cov - expected)) <= 1e-10 * np.max(np.abs(expected))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.sampled_from([None, (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 2), (2, 3)]),
    dim=st.integers(2, 5),
    order=st.integers(1, 3),
    radius=st.floats(0.1, 0.7),
)
def test_bivariate_verdict_matches_geweke_ratio(seed, blocks, dim, order, radius):
    # the source Granger-causes the target in the pair exactly when its
    # past lowers the target's prediction error: Geweke's log ratio of the
    # target's innovation variance alone and in the pair, both from the
    # Riccati oracle, is positive. Over 1220 pairs, flagged pairs had a log
    # ratio >= 3.3e-6 and unflagged pairs <= 8.9e-16
    if blocks is None:
        m = random_stable_model(seed, dim=dim, order=order, radius=radius)
    else:
        m = block_diagonal_model(seed, block_dims=blocks, order=order, radius=radius)
    for v in full_report(m).pairs:
        if v.marginal is None:
            continue
        alone = riccati_innovation_cov(m, (v.target,))[0, 0]
        in_pair = riccati_innovation_cov(m, (v.target, v.source))[0, 0]
        assert v.bivariate_gc == bool(np.log(alone / in_pair) > 1e-10)


def _slow_removed_root_model(loading):
    """Channel 3 = 0.999 X3(t-1) + e3 drives channels 1 and 2 at lag 1; sigma = I."""
    a = np.zeros((3, 3))
    a[2, 2] = 0.999
    a[0, 2] = a[1, 2] = loading
    return make_var([a], np.eye(3))


class TestSlowRemovedRoot:
    """The pair's tail follows its spectral-factor zero, not the removed root.

    (1 - 0.999 L)(X1 + X2) is an MA(1) whose zero theta sets the decay of
    the pair's marginal coefficients: theta = 0.4998 at loading 0.5 and
    0.9317 at loading 0.05, against the removed root 0.999.
    """

    def test_strong_loading_converges_at_32(self):
        for pair in (PAIR12, ChannelPair(target=1, source=0)):
            rep = marginal_representation(_slow_removed_root_model(0.5), pair)
            assert rep.convergence.converged and rep.order_used == 32

    def test_weak_loading_leaves_the_pair_not_converged(self):
        report = full_report(_slow_removed_root_model(0.05))
        for v in report.pairs:
            if {v.target, v.source} == {0, 1}:
                assert isinstance(v.failure, NotConverged)
                assert v.failure.best.order_used == 128
                assert list(v.failure.diagnostics) == [4, 8, 16, 32, 64, 128]
            else:
                assert v.failure is None and v.marginal.order_used == 4
