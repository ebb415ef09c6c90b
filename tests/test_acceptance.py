"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavy simulation-backed criteria (7-9) dominate the runtime.
"""

import time

import numpy as np
import pytest

from vardtf import (
    ChannelPair,
    autocov,
    counterexample_model,
    default_grid,
    dtf,
    error_spectral_matrix,
    fit_var,
    full_report,
    innovation_whiteness_check,
    kaminski_error_lag_crosscov,
    marginal_representation,
    sample_autocov,
    simulate,
    spectral_density,
    transfer_function,
    whiteness_deficit,
)
from vardtf.estimate import Trajectory
from vardtf.spectral import FrequencyGrid

from helpers import fourier_subgrid, random_stable_model, smoothed_periodogram

PAIR12 = ChannelPair(target=0, source=1)
PARAM_GRID = [(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]


def check(num, desc, cond):
    print(f"[{'PASS' if cond else 'FAIL'}] criterion {num}: {desc}")
    assert cond, f"criterion {num}: {desc}"


def test_criterion_1_counterexample_dtf_zero():
    grid = default_grid(257)
    start = time.perf_counter()
    sups = [
        dtf(counterexample_model(a, b), grid, normalized=True)[:, 0, 1].max()
        for a, b in PARAM_GRID
    ]
    elapsed = time.perf_counter() - start
    worst = max(sups)
    check(
        1,
        f"sup normalized DTF(1<-2) = {worst:.3g} < 1e-12 over 9 parameter "
        f"combinations ({elapsed:.2f}s < 1s)",
        worst < 1e-12 and elapsed < 1.0,
    )


def _marginal_reps():
    return {
        (a, b): marginal_representation(counterexample_model(a, b), PAIR12)
        for a, b in PARAM_GRID
    }


def test_criterion_2_bivariate_coefficient():
    start = time.perf_counter()
    reps = _marginal_reps()
    elapsed = time.perf_counter() - start
    coef_err = 0.0
    other_max = 0.0
    for (a, b), rep in reps.items():
        expected = a * b / (1 + b**2)
        coef_err = max(coef_err, abs(rep.phis[0][0, 1] - expected))
        others = rep.phis.copy()
        others[0, 0, 1] = 0.0
        other_max = max(other_max, float(np.max(np.abs(others))))
    check(
        2,
        f"phi(1)[1,2] matches ab/(1+b^2) to {coef_err:.3g} and all other "
        f"entries <= {other_max:.3g} < 1e-6 ({elapsed:.2f}s < 5s)",
        coef_err < 1e-6 and other_max < 1e-6 and elapsed < 5.0,
    )


def test_criterion_3_innovation_covariance():
    reps = _marginal_reps()
    diag_err = 0.0
    off_max = 0.0
    for (a, b), rep in reps.items():
        expected = np.diag([1 + a**2 / (1 + b**2), 1 + b**2])
        diag_err = max(diag_err, float(np.max(np.abs(np.diag(rep.innov_cov) - np.diag(expected)))))
        off_max = max(off_max, abs(rep.innov_cov[0, 1]))
    check(
        3,
        f"V diagonal matches diag(1+a^2/(1+b^2), 1+b^2) to {diag_err:.3g}, "
        f"|V12| <= {off_max:.3g} < 1e-6",
        diag_err < 1e-6 and off_max < 1e-6,
    )


def test_criterion_4_reduction_non_whiteness():
    model = counterexample_model(1.0, 1.0)
    grid = default_grid(257)
    deficit = whiteness_deficit(error_spectral_matrix(model, PAIR12, grid))
    rep = marginal_representation(model, PAIR12)
    marginal_deficit = innovation_whiteness_check(
        model, PAIR12, rep, [transfer_function(model, grid)]
    )
    check(
        4,
        f"reduction error deficit {deficit:.4g} > 1.0 while marginal "
        f"residual deficit {marginal_deficit:.3g} < 1e-6",
        deficit > 1.0 and marginal_deficit < 1e-6,
    )


def test_criterion_5_error_lag_crosscov():
    worst = 0.0
    for a in (-2.0, 0.5, 3.0):
        for b in (-3.0, 1.0, 2.0):
            value = kaminski_error_lag_crosscov(counterexample_model(a, b))
            worst = max(worst, abs(value - a * b))
    check(
        5,
        f"lag-1 error cross-covariance equals alpha*beta to {worst:.3g} "
        "over 9 combinations",
        worst < 1e-12,
    )


def test_criterion_6_contradiction_verdict():
    report = full_report(counterexample_model(1.0, 1.0))
    contras = report.contradictions
    ok = (
        len(contras) == 1
        and contras[0].target == 0
        and contras[0].source == 1
        and contras[0].multivariate_gc is False
        and contras[0].dtf_zero
        and contras[0].bivariate_gc is True
    )
    check(
        6,
        f"exactly one contradiction flagged, pair 1<-2 with "
        f"multivariate_gc=false (found {len(contras)})",
        ok,
    )


def test_criterion_7_marginal_vs_ols():
    start = time.perf_counter()
    hits = 0
    total = 0
    for i in range(25):
        model = random_stable_model(1000 + i, dim=3, order=2, radius=0.5)
        rep = marginal_representation(model, PAIR12)
        traj = simulate(model, 1_000_000, seed=2000 + i, burn_in=1000)
        sub = Trajectory(samples=traj.samples[:, [0, 1]], seed=traj.seed)
        fit = fit_var(sub, rep.order_used)
        dev = np.abs(np.stack(fit.model.coeffs) - rep.phis)
        within = dev <= 3.0 * fit.stderr
        hits += int(within.sum())
        total += within.size
    elapsed = time.perf_counter() - start
    frac = hits / total
    check(
        7,
        f"{frac:.1%} of {total} marginal coefficients within 3 OLS standard "
        f"errors over 25 models ({elapsed:.0f}s < 300s)",
        frac >= 0.95 and elapsed < 300.0,
    )


def test_criterion_8_moments_oracle():
    worst = 0.0
    for i in range(5):
        model = random_stable_model(3000 + i, dim=3, order=2, radius=0.6)
        exact = autocov(model, maxlag=5).gammas
        traj = simulate(model, 1_000_000, seed=4000 + i, burn_in=1000)
        sampled = sample_autocov(traj.samples, maxlag=5).gammas
        rel = np.linalg.norm(sampled - exact) / np.linalg.norm(exact)
        worst = max(worst, rel)
    check(
        8,
        f"Lyapunov autocovariances match sample autocovariances (lags 0..5, "
        f"T=1e6) to {worst:.2%} < 2% on 5 models",
        worst < 0.02,
    )


def test_criterion_9_spectral_oracle():
    worst = 0.0
    for i in range(3):
        model = random_stable_model(5000 + i, dim=3, order=2, radius=0.55)
        traj = simulate(model, 200_000, seed=6000 + i, burn_in=1000)
        freqs, smoothed = smoothed_periodogram(traj.samples, half_width=1000)
        ks = fourier_subgrid(traj.length)
        grid = FrequencyGrid(freqs[ks])
        exact = spectral_density(model, grid).values
        rel = np.linalg.norm(smoothed[ks] - exact, axis=(1, 2)) / np.linalg.norm(
            exact, axis=(1, 2)
        )
        worst = max(worst, float(rel.mean()))
    check(
        9,
        f"smoothed periodogram matches spectral density to {worst:.2%} < 5% "
        "grid-averaged relative error on 3 models (T=2e5)",
        worst < 0.05,
    )
