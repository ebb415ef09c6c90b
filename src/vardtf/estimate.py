"""Simulation and data-driven cross-checks for VAR models.

This module is the empirical oracle for the exact computations elsewhere:
trajectories simulated from a known model should reproduce its moments and
spectra, least-squares fits should recover its coefficients, and residuals
of a correctly specified fit should pass whiteness diagnostics.

Simulation uses a counter-based generator (Philox) so trajectories are
reproducible across platforms for a given seed. The recursion runs in
blocks of 64 steps: x(t0+i) is the block's forced response (its own
innovations convolved with the MA taps Psi_0..Psi_i) plus the top block row
of C^(i+1), C the companion matrix, applied to the state that the previous
block left. The forced responses of all blocks are stepped through the 64
block positions at once; only the free responses go block by block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from .exceptions import RankDeficientRegressors, ShapeMismatch
from .jsonio import write_csv
from .model import VarModel, companion_matrix
from .moments import AutocovSequence


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sample path with its provenance.

    ``samples`` is a (length, dim) array, one row per time point; ``length``
    and ``dim`` are read off it. ``seed`` is the generator seed of a
    simulated path, 0 for a path read from CSV.
    """

    samples: np.ndarray
    seed: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ShapeMismatch(f"samples has shape {samples.shape}, expected (length, dim)")
        if not np.all(np.isfinite(samples)):
            raise ShapeMismatch("trajectory contains non-finite values")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Least-squares VAR fit: model, per-coefficient standard errors, residuals.

    ``stderr[u-1, j, k]`` is the standard error of the lag-u coefficient of
    channel k in channel j's equation; ``nobs``, the number of regression
    rows, is read off the (nobs, d) residual array.
    """

    model: VarModel
    stderr: np.ndarray
    residuals: np.ndarray

    @property
    def nobs(self) -> int:
        return self.residuals.shape[0]


@dataclass(frozen=True, eq=False)
class WhitenessReport:
    """Residual cross-correlation diagnostics and a portmanteau statistic.

    ``lag_norms[l-1]`` is the largest absolute entry of the lag-l
    correlation matrix of the residuals. The statistic is the
    small-sample multivariate portmanteau aggregate, chi-square with ``df``
    degrees of freedom under whiteness.
    """

    lag_norms: np.ndarray
    statistic: float
    df: int
    p_value: float


#: Steps per block of the simulator kernel.
_BLOCK = 64


def _recurse(comp: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """x(t) = sum_u A(u) x(t-u) + eps(t) from a zero state; ``comp`` is C."""
    n, d = eps.shape
    p = comp.shape[0] // d
    blocks = -(-n // _BLOCK)
    padded = np.zeros((blocks * _BLOCK, d))
    padded[:n] = eps
    # forced[i, b]: position i of block b; tops[i]: top block row of C^(i+1).
    forced = padded.reshape(blocks, _BLOCK, d).transpose(1, 0, 2).copy()
    tops = np.empty((_BLOCK, d, d * p))
    tops[0] = comp[:d]
    for i in range(1, _BLOCK):
        tops[i] = tops[i - 1] @ comp
        for u in range(min(p, i)):
            forced[i] += forced[i - 1 - u] @ comp[:d, u * d : (u + 1) * d].T
    # out keeps p leading zero rows: the state before the first block.
    out = np.zeros((p + blocks * _BLOCK, d))
    out[p:].reshape(blocks, _BLOCK, d)[...] = forced.transpose(1, 0, 2)
    free = tops.reshape(_BLOCK * d, d * p)
    for t0 in range(p, p + blocks * _BLOCK, _BLOCK):
        state = out[t0 - p : t0][::-1].ravel()
        out[t0 : t0 + _BLOCK] += (free @ state).reshape(_BLOCK, d)
    return out[p : p + n]


def _innovation_factor(sigma: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        # PSD but singular: factor through the eigendecomposition.
        w, u = np.linalg.eigh(sigma)
        return u * np.sqrt(np.clip(w, 0.0, None))


def simulate(
    model: VarModel, length: int, seed: int, burn_in: int = 1000
) -> Trajectory:
    """Simulate a trajectory with Gaussian innovations.

    Starts from zero initial conditions, runs ``burn_in`` extra steps to
    wash out the start, and keeps the last ``length`` samples. Deterministic
    for a given seed.
    """
    if length < 1:
        raise ShapeMismatch("length must be positive")
    if burn_in < 10 * model.order:
        raise ShapeMismatch(
            f"burn_in {burn_in} below 10 * order = {10 * model.order}"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    total = burn_in + length
    eps = rng.standard_normal((total, model.dim)) @ _innovation_factor(model.sigma).T
    if model.order == 0:
        samples = eps[burn_in:]
    else:
        samples = _recurse(companion_matrix(model), eps)[burn_in:]
    return Trajectory(samples, seed)


def sample_autocov(samples: np.ndarray, maxlag: int) -> AutocovSequence:
    """Sample autocovariances Gamma_hat(0..maxlag) of a (T, d) array."""
    samples = np.asarray(samples, dtype=float)
    t_len, d = samples.shape
    if maxlag < 0:
        raise ShapeMismatch("maxlag must be non-negative")
    if maxlag >= t_len:
        raise ShapeMismatch("maxlag must be below the sample length")
    centered = samples - samples.mean(axis=0)
    gammas = np.empty((maxlag + 1, d, d))
    for h in range(maxlag + 1):
        gammas[h] = centered[h:].T @ centered[: t_len - h] / t_len
    return AutocovSequence(gammas)


def _lag_matrix(samples: np.ndarray, order: int) -> np.ndarray:
    t_len, d = samples.shape
    cols = [samples[order - u : t_len - u] for u in range(1, order + 1)]
    return np.concatenate(cols, axis=1)


def fit_var(traj: Trajectory, order: int) -> FitResult:
    """Ordinary least squares fit of a VAR(order), one regression per equation.

    All equations share the lagged-regressor matrix, so a single
    decomposition serves every channel. Standard errors come from the
    regression information matrix with degrees-of-freedom-corrected residual
    covariance.

    Raises
    ------
    RankDeficientRegressors
        The lag matrix does not have full column rank.
    """
    if order < 1:
        raise ShapeMismatch("fit order must be at least 1")
    samples = traj.samples
    t_len, d = samples.shape
    ncoef = d * order
    if t_len - order <= ncoef:
        raise ShapeMismatch(
            f"trajectory too short ({t_len}) for order {order} fit"
        )
    design = _lag_matrix(samples, order)
    response = samples[order:]
    gram = design.T @ design
    try:
        chol = linalg.cho_factor(gram)
    except np.linalg.LinAlgError:
        raise RankDeficientRegressors(
            f"lag matrix gram ({ncoef} columns) is not positive definite"
        ) from None
    coef = linalg.cho_solve(chol, design.T @ response)
    residuals = response - design @ coef
    dof = response.shape[0] - ncoef
    sigma = residuals.T @ residuals / dof

    gram_inv = linalg.cho_solve(chol, np.eye(ncoef))
    # coef[(u-1)*d + k, j] is the lag-u weight of channel k in equation j.
    coeffs = coef.reshape(order, d, d).transpose(0, 2, 1)
    stderr = np.sqrt(
        sigma.diagonal()[None, :, None] * np.diag(gram_inv).reshape(order, 1, d)
    )

    return FitResult(model=VarModel(coeffs, sigma), stderr=stderr, residuals=residuals)


def whiteness_stats(
    residuals: np.ndarray, maxlag: int, df_model: int = 0
) -> WhitenessReport:
    """Portmanteau whiteness diagnostics of a residual array.

    ``df_model`` is the fitted VAR order; it reduces the chi-square degrees
    of freedom to d^2 (maxlag - df_model), so ``maxlag`` must exceed it: with
    no degrees of freedom left the test has no reference distribution.
    Correct white residuals give each lag correlation entries of size
    O(1/sqrt(T)).
    """
    if 0 <= maxlag <= df_model:  # a negative maxlag gets sample_autocov's message
        raise ShapeMismatch(f"maxlag must exceed the fitted order {df_model}, got {maxlag}")
    acov = sample_autocov(residuals, maxlag)
    t_len, d = np.shape(residuals)
    c0_inv = np.linalg.solve(acov.gammas[0], np.eye(d))
    c0 = acov.gammas[0]
    corr = acov.gammas[1:] / np.sqrt(np.outer(np.diag(c0), np.diag(c0)))
    statistic = 0.0
    for lag in range(1, maxlag + 1):
        c = acov.gammas[lag]
        term = c.T @ c0_inv @ c @ c0_inv
        statistic += float(np.trace(term)) / (t_len - lag)
    statistic *= t_len * t_len
    df = d * d * (maxlag - df_model)
    p_value = float(special.chdtrc(df, statistic))
    return WhitenessReport(
        lag_norms=np.max(np.abs(corr), axis=(1, 2)),
        statistic=statistic,
        df=df,
        p_value=p_value,
    )


def residual_whiteness(fit: FitResult, maxlag: int) -> WhitenessReport:
    """Whiteness diagnostics of a fit's residuals (see ``whiteness_stats``)."""
    return whiteness_stats(fit.residuals, maxlag, df_model=fit.model.order)


def write_trajectory(traj: Trajectory, fh) -> None:
    """Write a trajectory as CSV with header ``t,ch1..chd``."""
    header = ["t"] + [f"ch{j}" for j in range(1, traj.dim + 1)]
    write_csv(fh, header, np.arange(traj.length), traj.samples)


def read_trajectory(fh) -> Trajectory:
    """Read a trajectory from the CSV format written by ``write_trajectory``."""
    header = fh.readline().strip().split(",")
    if not header or header[0] != "t":
        raise ShapeMismatch("trajectory CSV must start with a 't' column")
    dim = len(header) - 1
    if dim < 1:
        raise ShapeMismatch("trajectory CSV has no channel columns")
    with warnings.catch_warnings():
        # loadtxt warns on a header-only file; that case is raised below.
        warnings.simplefilter("ignore", UserWarning)
        try:
            data = np.loadtxt(
                (line for line in fh if line.strip()), delimiter=",", ndmin=2
            )
        except ValueError as exc:
            raise ShapeMismatch(f"malformed trajectory CSV: {exc}") from None
    if data.shape[0] == 0:
        raise ShapeMismatch("trajectory CSV has no rows")
    if data.shape[1] != dim + 1:
        raise ShapeMismatch(f"trajectory rows have {data.shape[1]} cells, not {dim + 1}")
    return Trajectory(data[:, 1:], seed=0)
