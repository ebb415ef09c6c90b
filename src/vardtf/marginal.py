"""Exact autoregressive representation of a channel pair.

Keeping two channels of a larger VAR and projecting each on the pair's own
past yields the best linear predictor; its coefficients solve the block
Yule-Walker equations in the pair's autocovariances, and its residual is
white by construction. That projection is computed here with the
multichannel Levinson-Whittle recursion, which also produces the innovation
covariance at every intermediate order.

Marginal representations are generically of infinite order with
geometrically decaying tails, so the driver grows the order until the last
coefficient block and the innovation-trace decrement both fall below a
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    NotConverged,
    NumericalBreakdown,
    ShapeMismatch,
    SingularToeplitz,
)
from .model import ChannelPair, VarModel
from .moments import AutocovSequence, autocov, block_toeplitz, subprocess_autocov
from .reduction import whiteness_deficit
from .spectral import FrequencyGrid, FrequencyMatrix, lag_polynomial, spectral_density

#: Eigenvalue floor below which an innovation covariance is declared broken.
INNOV_PSD_FLOOR = -1e-8

#: Default cap for the predictor order and default tail tolerance.
DEFAULT_Q_MAX = 128
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ConvergenceInfo:
    """Tail diagnostics of a predictor recursion.

    ``tail_norm`` is the Frobenius norm of the last coefficient block,
    ``v_delta`` the innovation-covariance trace decrement of the final
    order step.
    """

    tail_norm: float
    v_delta: float
    converged: bool


@dataclass(frozen=True, eq=False)
class MarginalAR:
    """Autoregressive representation of a retained channel pair.

    ``phis[u-1]`` is the coefficient matrix at lag u; row/column 0 is the
    pair's target channel and 1 its source channel (positional when ``pair``
    is None, e.g. straight out of the recursion). ``innov_cov`` is the
    one-step prediction error covariance.
    """

    pair: ChannelPair | None
    order_used: int
    phis: np.ndarray
    innov_cov: np.ndarray
    convergence: ConvergenceInfo
    toeplitz_cond: float

    def __post_init__(self):
        phis = np.asarray(self.phis, dtype=float)
        v = np.asarray(self.innov_cov, dtype=float)
        d = v.shape[0]
        if phis.shape != (self.order_used, d, d):
            raise ShapeMismatch(
                f"phis shape {phis.shape} inconsistent with order {self.order_used}"
            )
        if np.max(np.abs(v - v.T), initial=0.0) > 1e-10:
            raise ShapeMismatch("innovation covariance must be symmetric")
        phis.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "innov_cov", v)


def whittle_recursion(acov: AutocovSequence, q: int, tol: float = DEFAULT_TOL) -> MarginalAR:
    """Forward predictor of order ``q`` from autocovariances, by Levinson-Whittle.

    Solves the block Yule-Walker system

        Gamma(v) = sum_u Phi(u) Gamma(v - u),   v = 1..q,

    recursively in the order, maintaining forward and backward predictors
    and their error covariances. The innovation covariance is

        V = Gamma(0) - sum_u Phi(u) Gamma(u)'

    and its trace is non-increasing in q.

    Parameters
    ----------
    acov : AutocovSequence
        Autocovariances up to at least lag ``q``.
    q : int
        Predictor order (0 returns the trivial predictor).
    tol : float
        Tail tolerance used only to fill the convergence record.

    Raises
    ------
    SingularToeplitz
        A prediction-error covariance became singular (deterministic
        subprocess).
    NumericalBreakdown
        The innovation covariance lost positive semi-definiteness beyond
        the -1e-8 eigenvalue floor.
    """
    if q < 0:
        raise ShapeMismatch("order must be non-negative")
    if q > acov.maxlag:
        raise ShapeMismatch(f"order {q} exceeds available lags {acov.maxlag}")
    d = acov.dim
    gam = acov.gammas

    v = gam[0].copy()  # forward error covariance
    w = gam[0].copy()  # backward error covariance
    fwd: list[np.ndarray] = []
    bwd: list[np.ndarray] = []
    tail_norm = np.inf
    v_delta = np.inf

    for n in range(q):
        delta = gam[n + 1].copy()
        for u in range(1, n + 1):
            delta -= fwd[u - 1] @ gam[n + 1 - u]
        try:
            gain_f = np.linalg.solve(w.T, delta.T).T
            gain_b = np.linalg.solve(v.T, delta).T
        except np.linalg.LinAlgError:
            raise SingularToeplitz(
                f"prediction-error covariance singular at order {n + 1}"
            ) from None

        new_fwd = [fwd[u - 1] - gain_f @ bwd[n - u] for u in range(1, n + 1)]
        new_bwd = [bwd[u - 1] - gain_b @ fwd[n - u] for u in range(1, n + 1)]
        new_fwd.append(gain_f)
        new_bwd.append(gain_b)
        fwd, bwd = new_fwd, new_bwd

        v_next = v - gain_f @ delta.T
        w_next = w - gain_b @ delta
        v_next = 0.5 * (v_next + v_next.T)
        w_next = 0.5 * (w_next + w_next.T)
        eig_min = float(np.linalg.eigvalsh(v_next)[0])
        if eig_min < INNOV_PSD_FLOOR:
            raise NumericalBreakdown(
                f"innovation covariance eigenvalue {eig_min:.3g} at order {n + 1}"
            )
        v_delta = abs(float(np.trace(v)) - float(np.trace(v_next)))
        v, w = v_next, w_next
        tail_norm = float(np.linalg.norm(gain_f, "fro"))

    phis = np.stack(fwd) if fwd else np.zeros((0, d, d))
    cond = float(np.linalg.cond(block_toeplitz(acov, max(q, 1))))
    converged = bool(q > 0 and tail_norm < tol and v_delta < tol)
    return MarginalAR(
        pair=None,
        order_used=q,
        phis=phis,
        innov_cov=v,
        convergence=ConvergenceInfo(
            tail_norm=tail_norm, v_delta=v_delta, converged=converged
        ),
        toeplitz_cond=cond,
    )


def _order_schedule(q_max: int) -> list:
    if q_max < 4:
        return [max(q_max, 1)]
    qs = [4]
    while qs[-1] * 2 <= q_max:
        qs.append(qs[-1] * 2)
    if qs[-1] != q_max:
        qs.append(q_max)
    return qs


def marginal_representation(
    model: VarModel,
    pair: ChannelPair,
    q_max: int = DEFAULT_Q_MAX,
    tol: float = DEFAULT_TOL,
) -> MarginalAR:
    """True bivariate AR representation of a channel pair of a stable model.

    Computes the pair's exact autocovariances, then runs the predictor
    recursion with the order doubling from 4 up to ``q_max`` until the last
    coefficient block has Frobenius norm below ``tol`` and the innovation
    trace has stabilized to within ``tol``.

    Raises
    ------
    NotConverged
        Tolerance not reached by ``q_max``; the exception carries the best
        representation (``best``) and per-order diagnostics.
    """
    pair.check_dim(model.dim)
    seq = subprocess_autocov(autocov(model, maxlag=q_max), pair)
    diagnostics: dict = {}
    rep = None
    for q in _order_schedule(q_max):
        rep = whittle_recursion(seq, q, tol)
        rep = replace(rep, pair=pair)
        diagnostics[q] = {
            "tail_norm": rep.convergence.tail_norm,
            "v_delta": rep.convergence.v_delta,
        }
        if rep.convergence.converged:
            return rep
    raise NotConverged(
        f"marginal representation not converged by order {q_max} "
        f"(tail {rep.convergence.tail_norm:.3g}, "
        f"v_delta {rep.convergence.v_delta:.3g})",
        best=rep,
        diagnostics=diagnostics,
    )


def innovation_whiteness_check(
    model: VarModel,
    pair: ChannelPair,
    rep: MarginalAR,
    grid: FrequencyGrid,
) -> float:
    """Whiteness deficit of the residual spectrum implied by a representation.

    Filters the pair's exact spectral density by the representation's
    coefficient polynomial Phi(lambda) = I - sum_u Phi(u) exp(-i u lambda),
    giving Phi(lambda) f_S(lambda) Phi(lambda)*. If the
    representation is the true projection, the result is the constant
    V / 2 pi and the deficit is numerically zero; a truncated or otherwise
    invalid representation leaves frequency structure behind and scores a
    large deficit.
    """
    if rep.pair is not None and rep.pair != pair:
        raise ShapeMismatch("representation was computed for a different pair")
    pair.check_dim(model.dim)
    channels = pair.channels
    full = spectral_density(model, grid)
    f_s = full.values[np.ix_(range(len(grid)), channels, channels)]
    phi = lag_polynomial(rep.phis, grid).values
    resid = phi @ f_s @ phi.conj().transpose(0, 2, 1)
    resid = 0.5 * (resid + resid.conj().transpose(0, 2, 1))
    return whiteness_deficit(FrequencyMatrix(grid=grid, values=resid))
