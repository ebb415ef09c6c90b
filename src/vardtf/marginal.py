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
tolerance. ``marginal_representations`` solves a model's autocovariances
once and selects each pair's from them; one recursion pass per pair is
checked for convergence at the orders 4, 8, .., and the block-Toeplitz
condition number is taken only at the order returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import moments
from .exceptions import (
    NotConverged,
    NumericalBreakdown,
    ShapeMismatch,
    SingularToeplitz,
    VardtfError,
)
from .model import ChannelPair, VarModel
from .moments import AutocovSequence, block_toeplitz, subprocess_autocov
from .reduction import whiteness_deficit
from .spectral import FrequencyMatrix, density_from_transfer, lag_polynomial

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

    ``phis`` is the (order_used, d, d) coefficient array, ``phis[u-1]`` the
    matrix at lag u, and ``order_used`` is read off it; row/column 0 is the
    pair's target channel and 1 its source channel (positional when ``pair``
    is None, e.g. straight out of the recursion). ``innov_cov`` is the
    one-step prediction error covariance.
    """

    pair: ChannelPair | None
    phis: np.ndarray
    innov_cov: np.ndarray
    convergence: ConvergenceInfo
    toeplitz_cond: float

    def __post_init__(self):
        phis = np.asarray(self.phis, dtype=float)
        v = np.asarray(self.innov_cov, dtype=float)
        if np.max(np.abs(v - v.T), initial=0.0) > 1e-10:
            raise ShapeMismatch("innovation covariance must be symmetric")
        phis.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "innov_cov", v)

    @property
    def order_used(self) -> int:
        return self.phis.shape[0]


def _levinson_whittle(
    acov: AutocovSequence, orders: Sequence[int], tol: float, pair: ChannelPair | None = None
) -> tuple:
    """Run the recursion to ``orders[-1]``; stop at the first listed order that converges.

    At each order of the increasing sequence ``orders`` the step's tail,
    {tail_norm, v_delta}, is recorded, and the first order where both fall
    below ``tol`` ends the recursion. Returns (the MarginalAR at the order
    where it stopped, the records by order); the block-Toeplitz condition
    number is taken only at that order.

    Forward and backward quantities are stacked, so each step updates both
    predictors at every lag, and both error covariances, in single array
    operations; ``delta`` subtracts the lag terms from Gamma(n+1) in lag
    order.
    """
    if orders[-1] < 0:
        raise ShapeMismatch("order must be non-negative")
    if orders[-1] > acov.maxlag:
        raise ShapeMismatch(f"order {orders[-1]} exceeds available lags {acov.maxlag}")
    d = acov.dim
    gam = acov.gammas

    # pred[0, u-1], pred[1, u-1]: forward and backward coefficients at lag u;
    # cov[0], cov[1]: forward and backward error covariances.
    pred = np.zeros((2, 0, d, d))
    cov = np.array((gam[0], gam[0]))
    trace_v = float(np.trace(cov[0]))
    tail_norm = v_delta = np.inf
    diagnostics: dict = {}

    for n in range(orders[-1]):
        delta = np.subtract.reduce(
            np.concatenate((gam[n + 1][None], pred[0] @ gam[n:0:-1])), axis=0
        )
        rhs = np.array((delta.T, delta))
        try:
            # forward gain delta w^-1, backward gain delta' v^-1
            gains = np.linalg.solve(cov[::-1].transpose(0, 2, 1), rhs).transpose(0, 2, 1)
        except np.linalg.LinAlgError:
            raise SingularToeplitz(
                f"prediction-error covariance singular at order {n + 1}"
            ) from None

        pred = np.concatenate(
            (pred - gains[:, None] @ pred[::-1, ::-1], gains[:, None]), axis=1
        )
        cov = cov - gains @ rhs
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        eig_min = float(np.linalg.eigvalsh(cov[0])[0])
        if eig_min < INNOV_PSD_FLOOR:
            raise NumericalBreakdown(
                f"innovation covariance eigenvalue {eig_min:.3g} at order {n + 1}"
            )
        trace_next = float(np.trace(cov[0]))
        tail_norm = float(np.linalg.norm(gains[0], "fro"))
        v_delta = abs(trace_v - trace_next)
        trace_v = trace_next
        if n + 1 in orders:
            diagnostics[n + 1] = {"tail_norm": tail_norm, "v_delta": v_delta}
            if tail_norm < tol and v_delta < tol:
                break

    q = pred.shape[1]
    rep = MarginalAR(
        pair=pair,
        phis=pred[0].copy(),  # not a view: the backward coefficients can be freed
        innov_cov=cov[0],
        convergence=ConvergenceInfo(
            tail_norm=tail_norm,
            v_delta=v_delta,
            converged=bool(tail_norm < tol and v_delta < tol),
        ),
        toeplitz_cond=float(np.linalg.cond(block_toeplitz(acov, max(q, 1)))),
    )
    return rep, diagnostics


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
    return _levinson_whittle(acov, (q,), tol)[0]


def _order_schedule(q_max: int) -> list:
    if q_max < 4:
        return [max(q_max, 1)]
    qs = [4]
    while qs[-1] * 2 <= q_max:
        qs.append(qs[-1] * 2)
    if qs[-1] != q_max:
        qs.append(q_max)
    return qs


def marginal_representations(
    model: VarModel,
    pairs: Sequence[ChannelPair],
    q_max: int = DEFAULT_Q_MAX,
    tol: float = DEFAULT_TOL,
) -> list:
    """Each pair's MarginalAR or the VardtfError that replaced it, aligned with ``pairs``.

    One autocovariance solve to lag ``q_max`` serves every pair; a failed
    solve is every pair's failure, and a pair not converged by ``q_max``
    gets a NotConverged carrying ``best`` and per-order ``diagnostics``.
    Settings other than ``q_max >= 1`` and a finite ``tol > 0``, and a pair
    out of range, raise ShapeMismatch before the solve.
    """
    if q_max < 1 or not (np.isfinite(tol) and tol > 0.0):
        raise ShapeMismatch(f"need q_max >= 1 and a finite tol > 0, got {q_max} and {tol:g}")
    for pair in pairs:
        pair.check_dim(model.dim)
    try:
        acov = moments.autocov(model, maxlag=q_max)
    except VardtfError as exc:
        return [exc] * len(pairs)
    orders = _order_schedule(q_max)
    results = []
    for pair in pairs:
        try:
            rep, diagnostics = _levinson_whittle(subprocess_autocov(acov, pair), orders, tol, pair)
            conv = rep.convergence
            if not conv.converged:
                raise NotConverged(
                    f"marginal representation not converged by order {q_max} "
                    f"(tail {conv.tail_norm:.3g}, v_delta {conv.v_delta:.3g})",
                    best=rep,
                    diagnostics=diagnostics,
                )
        except VardtfError as exc:
            rep = exc
        results.append(rep)
    return results


def marginal_representation(
    model: VarModel,
    pair: ChannelPair,
    q_max: int = DEFAULT_Q_MAX,
    tol: float = DEFAULT_TOL,
) -> MarginalAR:
    """True bivariate AR representation of a channel pair of a stable model.

    The one-pair case of ``marginal_representations``, raising the pair's
    error. The recursion stops at the first of the orders 4, 8, .., ``q_max``
    where the last coefficient block has Frobenius norm below ``tol`` and the
    innovation trace has stabilized to within ``tol``; ``NotConverged``, if
    none does, carries the best representation and per-order diagnostics.
    """
    (result,) = marginal_representations(model, [pair], q_max, tol)
    if isinstance(result, VardtfError):
        raise result
    return result


def innovation_whiteness_check(
    model: VarModel,
    pair: ChannelPair,
    rep: MarginalAR,
    transfer: FrequencyMatrix,
) -> float:
    """Whiteness deficit of the residual spectrum implied by a representation.

    Filters the pair's rows H_S. of the model's transfer function by the
    representation's coefficient polynomial
    Phi(lambda) = I - sum_u Phi(u) exp(-i u lambda): the residual is
    Phi H_S. E, whose spectrum is the density of Phi H_S. on the grid of
    ``transfer``. If the representation is the true projection, that is
    the constant V / 2 pi and the deficit is numerically zero; a truncated
    or otherwise invalid representation leaves frequency structure behind
    and scores a large deficit.
    """
    if rep.pair is not None and rep.pair != pair:
        raise ShapeMismatch("representation was computed for a different pair")
    pair.check_dim(model.dim)
    phi = lag_polynomial(rep.phis, transfer.grid).values
    filtered = FrequencyMatrix(transfer.grid, phi @ transfer.values[:, list(pair.channels)])
    return whiteness_deficit(density_from_transfer(filtered, model.sigma))
