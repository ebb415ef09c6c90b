"""Partitioned two-channel reduction of a VAR and its non-white error process.

Eliminating the unretained channels R from the frequency-domain system
A(lambda) X(lambda) = E(lambda) by block substitution leaves

    G(lambda) = A_SS - A_SR A_RR^-1 A_RS

acting on the retained channels S, driven by the error process

    E'(lambda) = E_S(lambda) - A_SR(lambda) A_RR(lambda)^-1 E_R(lambda).

E' is generally NOT white: its spectral matrix depends on frequency, so G is
not a valid autoregressive representation of the subprocess and causal
conclusions drawn from it are unfounded. The whiteness deficit below
quantifies exactly that failure; the true representation lives in
:mod:`vardtf.marginal`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionTooSmall, ShapeMismatch
from .model import ChannelPair, VarModel
from .spectral import FrequencyGrid, FrequencyMatrix, char_polynomial, invert_pointwise

#: Relative whiteness-deficit threshold for the boolean "is white" verdict.
WHITE_REL_TOL = 0.01


@dataclass(frozen=True, eq=False)
class ReducedRepresentation:
    """Reduced 2x2 polynomial and the spectral matrix of its error process.

    ``reduced_poly`` holds G(lambda); ``error_spectrum`` holds the spectral
    density f(lambda) of the error process e'(t) (the frequency-domain
    correction display divided by 2 pi). Row/column 0 is the pair's target
    channel, 1 the source channel.
    """

    pair: ChannelPair
    reduced_poly: FrequencyMatrix
    error_spectrum: FrequencyMatrix

    def __post_init__(self):
        if self.reduced_poly.grid is not self.error_spectrum.grid and not np.array_equal(
            self.reduced_poly.grid.points, self.error_spectrum.grid.points
        ):
            raise ShapeMismatch("polynomial and error spectrum use different grids")
        herm = self.error_spectrum.values - self.error_spectrum.values.conj().transpose(
            0, 2, 1
        )
        if np.max(np.abs(herm)) > 1e-10:
            raise ShapeMismatch("error spectrum is not Hermitian")


def _split_indices(dim: int, pair: ChannelPair) -> tuple:
    pair.check_dim(dim)
    if dim < 3:
        raise DimensionTooSmall(
            "reduction needs at least one channel to marginalize (dim >= 3)"
        )
    retained = list(pair.channels)
    removed = [ch for ch in range(dim) if ch not in retained]
    return retained, removed


def partition_blocks(charpoly: FrequencyMatrix, pair: ChannelPair) -> tuple:
    """Split A(lambda) into the S/R blocks used by the reduction.

    Returns (A_SS, A_SR, A_RS, A_RR) as FrequencyMatrix objects, with S the
    pair's channels (target first) and R the remaining channels in ascending
    order.
    """
    dim = charpoly.dim
    retained, removed = _split_indices(dim, pair)
    vals = charpoly.values
    grid = charpoly.grid
    a_ss = FrequencyMatrix(grid, vals[np.ix_(range(len(grid)), retained, retained)])
    a_sr = FrequencyMatrix(grid, vals[np.ix_(range(len(grid)), retained, removed)])
    a_rs = FrequencyMatrix(grid, vals[np.ix_(range(len(grid)), removed, retained)])
    a_rr = FrequencyMatrix(grid, vals[np.ix_(range(len(grid)), removed, removed)])
    return a_ss, a_sr, a_rs, a_rr


def reduced_polynomial(
    model: VarModel, pair: ChannelPair, grid: FrequencyGrid
) -> FrequencyMatrix:
    """G(lambda) = A_SS - A_SR A_RR^-1 A_RS on the grid.

    Raises
    ------
    SingularAtFrequency
        If the marginalized block A_RR(lambda) cannot be inverted.
    DimensionTooSmall
        If the model has no channels beyond the pair.
    """
    return reduce_pair(model, pair, grid).reduced_poly


def error_spectral_matrix(
    model: VarModel, pair: ChannelPair, grid: FrequencyGrid
) -> FrequencyMatrix:
    """Spectral density of the reduction's error process e'(t).

    With M = A_SR A_RR^-1 and Sigma partitioned into S/R blocks,

        2 pi f(lambda) = Sigma_SS - M Sigma_RS - (M Sigma_RS)* + M Sigma_RR M*.

    The returned matrix is f itself (the display divided by 2 pi). When the
    pair receives no input from the other channels (A_SR identically zero)
    this is the constant Sigma_SS / 2 pi, i.e. e' is white; otherwise it
    generally varies with frequency.
    """
    return reduce_pair(model, pair, grid).error_spectrum


def reduce_pair(
    model: VarModel, pair: ChannelPair, grid: FrequencyGrid
) -> ReducedRepresentation:
    """Reduced polynomial and error spectrum for a pair, from one A_RR inversion."""
    retained, removed = _split_indices(model.dim, pair)
    a_ss, a_sr, a_rs, a_rr = partition_blocks(char_polynomial(model, grid), pair)
    rr_inv = invert_pointwise(a_rr, "marginalized block A_RR").values
    coupling = a_sr.values @ rr_inv
    sigma = model.sigma
    sig_ss = sigma[np.ix_(retained, retained)]
    sig_rs = sigma[np.ix_(removed, retained)]
    sig_rr = sigma[np.ix_(removed, removed)]
    cross = coupling @ sig_rs
    f = (
        sig_ss
        - cross
        - cross.conj().transpose(0, 2, 1)
        + coupling @ sig_rr @ coupling.conj().transpose(0, 2, 1)
    )
    f = 0.5 * (f + f.conj().transpose(0, 2, 1)) / (2.0 * np.pi)
    return ReducedRepresentation(
        pair=pair,
        reduced_poly=FrequencyMatrix(grid, a_ss.values - coupling @ a_rs.values),
        error_spectrum=FrequencyMatrix(grid, f),
    )


def whiteness_deficit(spectrum: FrequencyMatrix) -> float:
    """Sup-norm deviation of a spectral matrix from its frequency average.

    Returns max over the grid of ||2 pi f(lambda) - Mbar||_F, where Mbar is
    the grid average of 2 pi f(lambda). Zero exactly when the spectrum is
    constant, i.e. when the underlying process is white. The full complex
    matrix enters the norm, so an off-diagonal entry of constant modulus but
    drifting phase is correctly flagged as non-white.
    """
    scaled = 2.0 * np.pi * spectrum.values
    mean = scaled.mean(axis=0)
    return float(np.max(np.linalg.norm(scaled - mean, axis=(1, 2))))


def is_white(spectrum: FrequencyMatrix, rel_tol: float = WHITE_REL_TOL) -> bool:
    """Boolean whiteness verdict: deficit relative to the mean within rel_tol."""
    scaled = 2.0 * np.pi * spectrum.values
    scale = np.linalg.norm(scaled.mean(axis=0), "fro")
    if scale == 0.0:
        return True
    return whiteness_deficit(spectrum) / scale <= rel_tol


def _lagged_ma_crosscov(taps_a: dict, taps_b: dict, lag: int, sigma: np.ndarray) -> float:
    """E[a(t) b(t-lag)] for scalar moving averages a, b of one white process.

    ``taps_a[u]`` is the weight vector applied to e(t-u).
    """
    total = 0.0
    for u, wa in taps_a.items():
        wb = taps_b.get(u - lag)
        if wb is not None:
            total += float(wa @ sigma @ wb)
    return total


def kaminski_error_lag_crosscov(model: VarModel) -> float:
    """Lag-one cross-covariance of the counterexample's reduction error.

    For the trivariate counterexample model, substituting the third channel
    away gives the error process

        e'_1(t) = e_1(t) + alpha e_3(t-2),
        e'_2(t) = e_2(t) + beta  e_3(t-1),

    whose lag-one cross-covariance E[e'_1(t) e'_2(t-1)] equals alpha * beta.
    A white error process would have zero cross-covariance at every nonzero
    lag, so any nonzero value disqualifies the reduction as an
    autoregressive representation.

    Only counterexample-shaped models are accepted (d=3, the two known
    couplings, identity innovation covariance).
    """
    alpha, beta = _counterexample_params(model)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    taps_1 = {0: e1, 2: alpha * e3}
    taps_2 = {0: e2, 1: beta * e3}
    return _lagged_ma_crosscov(taps_1, taps_2, 1, model.sigma)


def _counterexample_params(model: VarModel) -> tuple:
    if model.dim != 3 or model.order != 2:
        raise ShapeMismatch("expected the trivariate lag-2 counterexample model")
    a1, a2 = model.coeffs
    beta = a1[1, 2]
    alpha = a2[0, 2]
    mask1 = np.zeros((3, 3), dtype=bool)
    mask1[1, 2] = True
    mask2 = np.zeros((3, 3), dtype=bool)
    mask2[0, 2] = True
    if np.any(a1[~mask1] != 0.0) or np.any(a2[~mask2] != 0.0):
        raise ShapeMismatch("model has couplings beyond the counterexample's")
    if not np.array_equal(model.sigma, np.eye(3)):
        raise ShapeMismatch("counterexample requires identity innovation covariance")
    return float(alpha), float(beta)
