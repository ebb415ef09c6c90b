"""Partitioned two-channel reduction of a VAR and its non-white error process.

Eliminating the unretained channels R from the frequency-domain system
A(lambda) X(lambda) = E(lambda) by block substitution leaves

    G(lambda) = A_SS - A_SR A_RR^-1 A_RS

acting on the retained channels S, driven by the error process

    E'(lambda) = E_S(lambda) - A_SR(lambda) A_RR(lambda)^-1 E_R(lambda).

Both are read off the transfer function H = A^-1: G is the Schur
complement of A_RR, so G = H_SS^-1, and E' = G X_S = G H_S. E.

E' is generally NOT white: its spectral matrix depends on frequency, so G is
not a valid autoregressive representation of the subprocess and causal
conclusions drawn from it are unfounded. The whiteness deficit below
quantifies exactly that failure; the true representation lives in
:mod:`vardtf.marginal`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import moments, spectral
from .exceptions import DimensionTooSmall, ShapeMismatch, Unstable
from .model import ChannelPair, VarModel, counterexample_model
from .moments import AutocovSequence, subprocess_autocov
from .spectral import FrequencyGrid, FrequencyMatrix, invert_pointwise

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
        if not np.array_equal(self.reduced_poly.grid.points, self.error_spectrum.grid.points):
            raise ShapeMismatch("polynomial and error spectrum use different grids")
        herm = self.error_spectrum.values - self.error_spectrum.values.conj().transpose(
            0, 2, 1
        )
        if np.max(np.abs(herm)) > 1e-10:
            raise ShapeMismatch("error spectrum is not Hermitian")


def _split_indices(dim: int, pair: ChannelPair) -> list:
    pair.check_dim(dim)
    if dim < 3:
        raise DimensionTooSmall(
            "reduction needs at least one channel to marginalize (dim >= 3)"
        )
    return list(pair.channels)


def reduced_polynomial(
    model: VarModel, pair: ChannelPair, grid: FrequencyGrid
) -> FrequencyMatrix:
    """G(lambda) = A_SS - A_SR A_RR^-1 A_RS on the grid.

    Raises
    ------
    SingularAtFrequency
        If the marginalized block A_RR(lambda) is singular, so that G is
        not defined there, or if A(lambda) itself cannot be inverted.
    DimensionTooSmall
        If the model has no channels beyond the pair.
    """
    return reduce_pair(model, pair, spectral.transfer_function(model, grid)).reduced_poly


def error_spectral_matrix(
    model: VarModel, pair: ChannelPair, grid: FrequencyGrid
) -> FrequencyMatrix:
    """Spectral density of the reduction's error process e'(t).

    e' = G H_S. E with G = H_SS^-1, so f is the density of G H_S. driven by
    Sigma (see ``reduce_pair``). When the pair receives no input from the
    other channels (A_SR identically zero) this is the constant
    Sigma_SS / 2 pi, i.e. e' is white; otherwise it generally varies with
    frequency.
    """
    return reduce_pair(model, pair, spectral.transfer_function(model, grid)).error_spectrum


def reduce_pair(
    model: VarModel, pair: ChannelPair, transfer: FrequencyMatrix
) -> ReducedRepresentation:
    """Reduced polynomial and error spectrum for a pair, from the model's H.

    ``transfer`` is the model's transfer function H(lambda) on the grid of
    the result. The retained rows satisfy X_S = H_S. E, and the Schur
    complement G is the inverse of the 2x2 block H_SS, so the error is
    E' = G X_S = G H_S. E, whose spectrum is the density of G H_S. .

    Raises
    ------
    SingularAtFrequency
        Where H_SS is singular, i.e. where A_RR(lambda) is.
    """
    retained = _split_indices(model.dim, pair)
    rows = transfer.values[:, retained]
    g = invert_pointwise(
        FrequencyMatrix(transfer.grid, rows[:, :, retained]),
        "transfer-function block H_SS; the removed block A_RR is singular",
    )
    return ReducedRepresentation(
        pair=pair,
        reduced_poly=g,
        error_spectrum=spectral.density_from_transfer(
            FrequencyMatrix(transfer.grid, g.values @ rows), model.sigma
        ),
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


def is_white(spectrum: FrequencyMatrix) -> bool:
    """Boolean whiteness verdict: deficit relative to the mean within WHITE_REL_TOL."""
    scaled = 2.0 * np.pi * spectrum.values
    scale = np.linalg.norm(scaled.mean(axis=0), "fro")
    if scale == 0.0:
        return True
    return whiteness_deficit(spectrum) / scale <= WHITE_REL_TOL


def error_autocov(model: VarModel, pair: ChannelPair, maxlag: int) -> AutocovSequence:
    """Autocovariances E[e'(t) e'(t-h)'], h = 0..maxlag, of the reduction error.

    e' is a subprocess of the "cut" model, the copy of the model in which
    the retained channels S drive nothing: A(u)[:, S] = 0 at every lag. Its
    lag polynomial is [[I, A_SR], [0, A_RR]] in S/R blocks, so its retained
    channels are X_S = E_S - A_SR A_RR^-1 E_R = e', whose autocovariances
    the cut model's Lyapunov solve gives exactly. A removed block whose own
    lag polynomial A_RR is not stable (e' is then not stationary) raises
    ShapeMismatch, as does a negative ``maxlag``.
    """
    retained = _split_indices(model.dim, pair)
    coeffs = model.coeffs.copy()
    coeffs[:, :, retained] = 0.0
    try:
        cut = VarModel(coeffs, model.sigma)
    except Unstable as exc:
        raise ShapeMismatch(
            f"removed block A_RR is not stable (spectral radius {exc.spectral_radius:.6g})"
        ) from None
    return subprocess_autocov(moments.autocov(cut, maxlag), pair)


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

    Only counterexample models are accepted: d=3, p=2, the two known
    couplings and identity innovation covariance.
    """
    if (model.dim, model.order) != (3, 2) or model.to_dict() != counterexample_model(
        model.coeffs[1][0, 2], model.coeffs[0][1, 2]
    ).to_dict():
        raise ShapeMismatch("expected the counterexample model, with nothing else coupled")
    return float(error_autocov(model, ChannelPair(target=0, source=1), 1).gammas[1, 0, 1])
