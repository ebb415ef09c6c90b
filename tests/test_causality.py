import dataclasses
import tracemalloc

import numpy as np
import pytest

from vardtf import (
    ChannelPair,
    bivariate_gc,
    counterexample_model,
    default_grid,
    dtf,
    full_report,
    make_var,
    marginal_representation,
    multivariate_gc,
    transfer_function,
)
from vardtf import moments
from vardtf.causality import GC_REL_THRESHOLD
from vardtf.exceptions import NoConvergence, NotConverged, ShapeMismatch, SingularToeplitz
from vardtf.spectral import dtf_from_transfer

from helpers import block_diagonal_model, dense_stable_model, random_stable_model


def _verdict(report, target, source):
    for v in report.pairs:
        if v.target == target and v.source == source:
            return v
    raise AssertionError(f"pair {target}<-{source} missing")


class TestMultivariateGc:
    def test_counterexample_pairs(self):
        m = counterexample_model(1.0, 1.0)
        flag, evidence = multivariate_gc(m, ChannelPair(target=0, source=1))
        assert not flag and evidence == 0.0
        flag, evidence = multivariate_gc(m, ChannelPair(target=0, source=2))
        assert flag and evidence == 1.0
        flag, _ = multivariate_gc(m, ChannelPair(target=1, source=2))
        assert flag

    def test_white_noise_all_false(self):
        m = make_var([], np.eye(3))
        for t in range(3):
            for s in range(3):
                if s != t:
                    flag, _ = multivariate_gc(m, ChannelPair(target=t, source=s))
                    assert not flag

    def test_exact_zero_threshold(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1e-300
        m = make_var([a], np.eye(2))
        flag, _ = multivariate_gc(m, ChannelPair(target=0, source=1))
        assert flag

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_symmetry(self, seed):
        m = random_stable_model(seed, dim=4, order=2)
        rng = np.random.default_rng(seed + 100)
        perm = rng.permutation(4)
        pmat = np.eye(4)[perm]
        permuted = make_var(
            [pmat @ a @ pmat.T for a in m.coeffs], pmat @ m.sigma @ pmat.T
        )
        inv = np.argsort(perm)
        for t in range(4):
            for s in range(4):
                if t == s:
                    continue
                orig, _ = multivariate_gc(m, ChannelPair(target=t, source=s))
                perm_flag, _ = multivariate_gc(
                    permuted,
                    ChannelPair(target=int(inv[t]), source=int(inv[s])),
                )
                assert orig == perm_flag


class TestBivariateGc:
    def test_counterexample_positive(self):
        m = counterexample_model(1.0, 1.0)
        flag, evidence = bivariate_gc(m, ChannelPair(target=0, source=1))
        assert flag
        assert evidence == pytest.approx(0.5, abs=1e-8)

    def test_counterexample_reverse_negative(self):
        m = counterexample_model(1.0, 1.0)
        flag, evidence = bivariate_gc(m, ChannelPair(target=1, source=0))
        assert not flag
        assert evidence < 1e-8

    def test_white_noise_negative(self):
        m = make_var([], np.eye(3))
        flag, _ = bivariate_gc(m, ChannelPair(target=2, source=0))
        assert not flag

    @pytest.mark.parametrize("seed", range(4))
    def test_isolated_pair_matches_multivariate(self, seed):
        # no edges in or out of the pair: marginalization cannot create or
        # destroy causality between its channels
        m = block_diagonal_model(seed, block_dims=(2, 2))
        for target, source in [(0, 1), (1, 0)]:
            pair = ChannelPair(target=target, source=source)
            multi, _ = multivariate_gc(m, pair)
            biv, _ = bivariate_gc(m, pair)
            assert biv == multi


class TestFullReport:
    def test_counterexample_headline(self):
        report = full_report(counterexample_model(1.0, 1.0))
        contras = report.contradictions
        assert len(contras) == 1
        v = contras[0]
        assert (v.target, v.source) == (0, 1)
        assert v.dtf_zero
        assert v.bivariate_gc
        assert not v.multivariate_gc
        assert v.max_phi == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("coupling,flagged", [(3e-3, True), (1e-3, False)])
    def test_weak_coupling_threshold(self, coupling, flagged):
        # with alpha = beta = c the true coefficient phi(1)[1,2] is
        # c^2 / (1 + c^2), structurally nonzero; it is flagged only above
        # GC_REL_THRESHOLD * sqrt(||V||_F), about 1.19e-6 here
        v = _verdict(full_report(counterexample_model(coupling, coupling)), 0, 1)
        assert v.max_phi == pytest.approx(coupling**2 / (1 + coupling**2), rel=1e-6)
        threshold = GC_REL_THRESHOLD * np.sqrt(np.linalg.norm(v.marginal.innov_cov, "fro"))
        assert threshold == pytest.approx(1.19e-6, rel=1e-2)
        assert v.dtf_zero and not v.multivariate_gc
        assert v.bivariate_gc is flagged
        assert v.contradiction is flagged

    def test_counterexample_all_pairs(self):
        report = full_report(counterexample_model(1.0, 1.0))
        expected = {
            (0, 1): (True, True, False),
            (0, 2): (False, True, True),
            (1, 0): (True, False, False),
            (1, 2): (False, True, True),
            (2, 0): (True, False, False),
            (2, 1): (True, False, False),
        }
        assert len(report.pairs) == 6
        for (t, s), (dtf_zero, biv, multi) in expected.items():
            v = _verdict(report, t, s)
            assert v.dtf_zero == dtf_zero
            assert v.bivariate_gc == biv
            assert v.multivariate_gc == multi

    def test_white_noise_no_flags(self):
        report = full_report(make_var([], np.eye(3)), default_grid(33))
        assert len(report.pairs) == 6
        for v in report.pairs:
            assert v.dtf_zero  # identity transfer: off-diagonal DTF all vanish
            assert not v.bivariate_gc
            assert not v.multivariate_gc
            assert not v.contradiction

    def test_deterministic_ordering(self):
        report = full_report(counterexample_model(0.5, 2.0))
        keys = [(v.target, v.source) for v in report.pairs]
        assert keys == sorted(keys)

    def test_dtf_zero_iff_transfer_entry_zero(self):
        m = counterexample_model(1.0, 1.0)
        grid = default_grid()
        report = full_report(m, grid)
        h = transfer_function(m, grid)
        raw = dtf(m, grid, normalized=False)
        norm = dtf(m, grid, normalized=True)
        for v in report.pairs:
            entry_zero = bool(np.all(h.values[:, v.target, v.source] == 0.0))
            assert v.dtf_zero == entry_zero
            assert v.dtf_zero == bool(np.all(raw[:, v.target, v.source] == 0.0))
            assert v.dtf_zero == bool(np.all(norm[:, v.target, v.source] == 0.0))

    def test_dense_models_have_no_dtf_zeros(self):
        grid = default_grid(65)
        hits = 0
        trials = 0
        for seed in range(100):
            m = dense_stable_model(seed, dim=3, order=2)
            vals = dtf(m, grid)
            for t in range(3):
                for s in range(3):
                    if t == s:
                        continue
                    trials += 1
                    if vals[:, t, s].max() < 1e-10:
                        hits += 1
        assert trials == 600
        assert hits == 0

    def test_per_pair_errors_do_not_abort(self):
        coeffs = [np.zeros((3, 3))]
        coeffs[0][2, 2] = 0.97
        coeffs[0][0, 2] = 0.5
        m = make_var(coeffs, np.eye(3))
        report = full_report(m, default_grid(33), q_max=8)
        assert len(report.pairs) == 6
        errored = [v for v in report.pairs if v.error is not None]
        clean = [v for v in report.pairs if v.error is None]
        assert errored, "expected at least one non-converged pair"
        assert clean, "expected at least one clean pair"
        for v in errored:
            assert v.bivariate_gc is None
            assert v.max_phi is None
            assert isinstance(v.multivariate_gc, bool)

    def test_rank_deficient_sigma(self):
        # sigma = diag(1, 1, 0) makes channel 3 identically zero: every pair
        # with it is a deterministic subprocess, the others stay white noise
        m = make_var(counterexample_model(1.0, 1.0).coeffs, np.diag([1.0, 1.0, 0.0]))
        report = full_report(m)
        for target, source in ((0, 2), (1, 2), (2, 0), (2, 1)):
            pair = ChannelPair(target=target, source=source)
            with pytest.raises(SingularToeplitz) as exc:
                marginal_representation(m, pair)
            v = _verdict(report, target, source)
            assert v.error == str(exc.value)
            assert v.bivariate_gc is None
        v = _verdict(report, 0, 1)
        assert v.error is None
        assert v.bivariate_gc is False
        assert not v.contradiction

    def test_one_autocov_solve_per_model(self, monkeypatch):
        calls = []
        solve = moments.autocov

        def counting(model, maxlag=None):
            calls.append(maxlag)
            return solve(model, maxlag)

        monkeypatch.setattr(moments, "autocov", counting)
        report = full_report(random_stable_model(3, dim=4, order=2), q_max=64)
        assert len(report.pairs) == 12
        assert calls == [64]

    def test_report_carries_its_transfer_function(self):
        m = random_stable_model(2, dim=3, order=2)
        grid = default_grid(65)
        report = full_report(m, grid)
        assert np.array_equal(report.transfer.values, transfer_function(m, grid).values)
        norm = dtf_from_transfer(report.transfer)
        for v in report.pairs:
            assert v.max_dtf == float(np.max(norm[:, v.target, v.source]))
        # the array is left out of comparisons
        assert dataclasses.replace(report, transfer=None) == report

    @pytest.mark.parametrize(
        "q_max,tol", [(0, 1e-8), (-1, 1e-8), (64, 0.0), (64, -1.0), (64, np.nan), (64, np.inf)]
    )
    def test_invalid_settings_rejected_before_any_pair(self, q_max, tol, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "autocov", lambda *a, **k: calls.append(a))
        with pytest.raises(ShapeMismatch):
            full_report(counterexample_model(1.0, 1.0), default_grid(33), q_max=q_max, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("q_max", [1025, 10**8])
    def test_order_cap_above_the_limit_rejected_before_any_pair(self, q_max, monkeypatch):
        # Gamma(0..q_max) is sized by q_max, so the cap must come first
        calls = []
        monkeypatch.setattr(moments, "autocov", lambda *a, **k: calls.append(a))
        with pytest.raises(ShapeMismatch, match="q_max <= 1024"):
            full_report(counterexample_model(1.0, 1.0), default_grid(33), q_max=q_max)
        assert calls == []

    def test_allocation_stays_small(self):
        # the condition numbers' Toeplitz matrices go through eigvalsh one at
        # a time, so the peak stays near the recursion's: about 3.0 MB here
        m = random_stable_model(3, dim=12, order=4, radius=0.7)
        tracemalloc.start()
        try:
            full_report(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_verdicts_carry_the_representations(self):
        m = random_stable_model(4, dim=3, order=2, radius=0.7)
        for v in full_report(m).pairs:
            pair = ChannelPair(target=v.target, source=v.source)
            rep = marginal_representation(m, pair)
            assert v.failure is None and v.marginal.pair == pair
            assert np.array_equal(v.marginal.phis, rep.phis)
            assert np.array_equal(v.marginal.innov_cov, rep.innov_cov)
            assert v.marginal.toeplitz_cond == rep.toeplitz_cond
            assert (v.bivariate_gc, v.max_phi) == bivariate_gc(m, pair)

    def test_verdicts_carry_the_failures(self):
        coeffs = [np.zeros((3, 3))]
        coeffs[0][2, 2] = 0.97
        coeffs[0][0, 2] = 0.5
        report = full_report(make_var(coeffs, np.eye(3)), default_grid(33), q_max=8)
        for v in report.pairs:
            if v.error is None:
                assert v.failure is None and v.marginal is not None
            else:
                assert isinstance(v.failure, NotConverged) and v.marginal is None
                assert v.error == str(v.failure)

    def test_failed_solve_fails_every_pair(self, monkeypatch):
        def stalled(model, maxlag=None):
            raise NoConvergence("doubling iteration for the Lyapunov equation stalled")

        monkeypatch.setattr(moments, "autocov", stalled)
        report = full_report(counterexample_model(1.0, 1.0), default_grid(33))
        for v in report.pairs:
            assert v.error == "doubling iteration for the Lyapunov equation stalled"
            assert v.bivariate_gc is None and v.max_phi is None
            assert isinstance(v.failure, NoConvergence)


@pytest.mark.parametrize("seed", range(12))
def test_channel_permutation_permutes_the_verdicts(seed):
    # relabelling the channels relabels every pair and changes no verdict;
    # over these 12 models (152 pairs) the magnitudes agreed to 1.1e-15
    dim = 3 + seed % 3
    m = random_stable_model(seed, dim=dim, order=1 + seed % 2, radius=0.7)
    perm = np.random.default_rng(seed + 100).permutation(dim)
    pmat = np.eye(dim)[perm]
    permuted = make_var([pmat @ a @ pmat.T for a in m.coeffs], pmat @ m.sigma @ pmat.T)
    inv = np.argsort(perm)
    relabelled = {(v.target, v.source): v for v in full_report(permuted).pairs}
    for v in full_report(m).pairs:
        w = relabelled[(int(inv[v.target]), int(inv[v.source]))]
        flags = ("dtf_zero", "bivariate_gc", "multivariate_gc", "contradiction", "error")
        assert [getattr(v, f) for f in flags] == [getattr(w, f) for f in flags]
        assert abs(v.max_dtf - w.max_dtf) <= 1e-12
        assert abs(v.max_phi - w.max_phi) <= 1e-12
        assert abs(v.max_coeff - w.max_coeff) <= 1e-12
