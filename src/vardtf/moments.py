"""Exact second-order moments of a stable VAR process.

The autocovariance sequence Gamma(h) = E[X(t) X(t-h)'] is obtained from the
companion-form state covariance, which solves the discrete Lyapunov equation
P = C P C' + S, and is then extended to higher lags with the Yule-Walker
recursion Gamma(h) = sum_u A(u) Gamma(h-u).

The Lyapunov equation is solved by doubling, P = sum_k C^k S C'^k summed in
squared blocks: O(n^3) per step for a companion dimension n, with quadratic
convergence, and residuals at rounding level even for roots near the unit
circle. Every solve is checked against the equation it solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoConvergence, ShapeMismatch
from .model import ChannelPair, VarModel, _read_only, companion_matrix

#: Acceptable relative residual of the Lyapunov solve.
LYAPUNOV_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class AutocovSequence:
    """Autocovariances Gamma(0..maxlag), with Gamma(-h) = Gamma(h)' implied.

    ``gammas[h]`` is the real d-by-d matrix E[X(t) X(t-h)']; ``dim`` (d)
    and ``maxlag`` are read off the (maxlag + 1, d, d) array.
    """

    gammas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        if g.ndim != 3 or g.shape[0] < 1 or g.shape[1] != g.shape[2]:
            raise ShapeMismatch(f"gammas has shape {g.shape}, expected (maxlag + 1, d, d)")
        object.__setattr__(self, "gammas", _read_only(g))

    @property
    def dim(self) -> int:
        return self.gammas.shape[1]

    @property
    def maxlag(self) -> int:
        return self.gammas.shape[0] - 1


@np.errstate(over="raise", invalid="raise")
def _solve_lyapunov_doubling(comp: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # After k steps p = sum_{j < 2^k} C^j S C'^j and m = C^(2^k), so the
    # omitted tail is m p m', at most ||m||^2 ||p|| in norm: the loop stops
    # once that is below rounding relative to p, whatever the scale of S.
    # A root at 1 - 1e-7 needs about 30 steps.
    p, m = rhs, comp
    try:
        for _ in range(200):
            p = p + m @ p @ m.T
            m = m @ m
            if np.linalg.norm(m, "fro") ** 2 < 1e-16:
                return p
    except FloatingPointError:
        raise NoConvergence("state covariance overflows in the Lyapunov doubling") from None
    raise NoConvergence("doubling iteration for the Lyapunov equation stalled")


def _scaled(a: np.ndarray, axis=(-2, -1)) -> tuple:
    """(a * s, s), s = 2^-k over ``axis`` (kept), k the exponent of the largest real or
    imaginary part of ``a`` but at least -1021: s is finite, and the product exact."""
    parts = np.maximum(np.abs(a.real), np.abs(a.imag)) if np.iscomplexobj(a) else np.abs(a)
    exponent = np.frexp(parts.max(axis=axis, keepdims=True, initial=0.0))[1]
    del parts  # so that the product can reuse its memory: a fresh array costs page faults
    scale = np.ldexp(1.0, -np.maximum(exponent, -1021))
    return a * scale, scale


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix over the last two axes, on the matrix ``_scaled``: no
    square overflows and no norm below 1e-154 reads 0. The diagonal's and off-diagonal's
    squares are summed apart, so a matrix and its channel swap get the same bits."""
    scaled, scale = _scaled(m)
    square, eye = scaled.real**2 + scaled.imag**2, np.eye(m.shape[-1], dtype=bool)
    norm = np.sqrt(square[..., eye].sum(-1) + square[..., ~eye].sum(-1))
    with np.errstate(over="ignore"):  # a norm beyond the double range reads inf
        return norm / scale[..., 0, 0]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, a 1x1 or 2x2: c_ij = a_i0 b_0j + a_i1 b_1j."""
    c = a[..., :, :1] * b[..., :1, :]
    return c if a.shape[-1] == 1 else c + a[..., :, 1:] * b[..., 1:, :]


def _inverse(a: np.ndarray) -> tuple:
    """(inverse, singular) of real or complex 1x1 or 2x2 blocks: the adjugate over the
    determinant of each block ``_scaled``, singular where it is 0 or not finite. As complex
    products need not commute bitwise, each is taken in both orders: a swap only reorders sums."""
    a, scale = _scaled(a)
    adj, det = np.ones_like(a), a
    if a.shape[-1] == 2:  # [[a11, -a01], [-a10, a00]]; det a00 a11 - a01 a10
        adj = np.swapaxes(a[..., ::-1, ::-1], -1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        p, q, r, t = a[..., :1, :1], a[..., 1:, 1:], a[..., :1, 1:], a[..., 1:, :1]
        det = 0.5 * ((p * q + q * p) - (r * t + t * r))
    singular = (det == 0) | ~np.isfinite(det)
    return adj / np.where(singular, 1.0, det) * scale, singular[..., 0, 0]


def autocov(model: VarModel, maxlag: int | None = None) -> AutocovSequence:
    """Autocovariance sequence Gamma(0..maxlag) of a stable model.

    ``maxlag`` defaults to max(2 * order, 50), the lags ``vardtf moments``
    writes without ``--maxlag``; ``marginal_representations`` and
    ``error_autocov`` pass their own.

    Raises
    ------
    NoConvergence
        The iterative Lyapunov solve stalled or its residual exceeded
        1e-10 relative to the state covariance.
    """
    if maxlag is None:
        maxlag = max(2 * model.order, 50)
    if maxlag < 0:
        raise ShapeMismatch("maxlag must be non-negative")
    d, p = model.dim, model.order

    gammas = np.zeros((maxlag + 1, d, d))
    if p == 0:
        gammas[0] = model.sigma
        return AutocovSequence(gammas)

    comp = companion_matrix(model)
    rhs = np.zeros_like(comp)
    rhs[:d, :d] = model.sigma
    state_cov = _solve_lyapunov_doubling(comp, rhs)
    state_cov = 0.5 * (state_cov + state_cov.T)

    residual = _frobenius(comp @ state_cov @ comp.T + rhs - state_cov)
    if not residual <= LYAPUNOV_RESIDUAL_TOL * _frobenius(state_cov):
        raise NoConvergence(
            f"Lyapunov residual {residual:.3g} exceeds tolerance"
        )

    # Companion state is (X(t), .., X(t-p+1)): its covariance holds
    # Gamma(0..p-1) in the top block row.
    for h in range(min(p, maxlag + 1)):
        gammas[h] = state_cov[:d, h * d : (h + 1) * d]
    for h in range(p, maxlag + 1):
        acc = np.zeros((d, d))
        for u in range(1, p + 1):
            acc += model.coeffs[u - 1] @ gammas[h - u]
        gammas[h] = acc
    return AutocovSequence(gammas)


def subprocess_autocov(seq: AutocovSequence, pair) -> AutocovSequence:
    """Marginal autocovariances of a channel subset.

    ``pair`` may be a ChannelPair (retained order: target first, then
    source) or any sequence of distinct channel indices. Selecting channels
    from Gamma(h) is exact: the subprocess moments need no new solve.
    """
    channels = pair.channels if isinstance(pair, ChannelPair) else tuple(pair)
    if len(set(channels)) != len(channels):
        raise ShapeMismatch("subprocess channels must be distinct")
    for ch in channels:
        if not 0 <= ch < seq.dim:
            raise ShapeMismatch(f"channel {ch} out of range for dim {seq.dim}")
    rows, cols = np.ix_(channels, channels)
    return AutocovSequence(seq.gammas[:, rows, cols])


def block_toeplitz(seq: AutocovSequence, nblocks: int | None = None) -> np.ndarray:
    """Block-Toeplitz covariance of the stacked vector (X(t), .., X(t-n+1)).

    Block (a, b) is Gamma(b - a). This matrix is the Gram matrix of the
    predictor problem; it is PSD for every valid autocovariance sequence.
    """
    n = seq.maxlag + 1 if nblocks is None else nblocks
    if n - 1 > seq.maxlag:
        raise ShapeMismatch(f"need lags up to {n - 1}, have {seq.maxlag}")
    if n < 0:
        raise ShapeMismatch("block count must be non-negative")
    d = seq.dim
    # lagged[k] is Gamma(k - n + 1): Gamma(-h) = Gamma(h)' first, then h >= 0.
    lagged = np.concatenate(
        (seq.gammas[1:n][::-1].transpose(0, 2, 1), seq.gammas[:n])
    )
    index = np.arange(n)[None, :] - np.arange(n)[:, None] + n - 1
    return lagged[index].transpose(0, 2, 1, 3).reshape(n * d, n * d)
