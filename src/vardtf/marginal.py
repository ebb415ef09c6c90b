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
once, stacks the requested pairs' subprocess autocovariances and runs one
recursion over the stack, checked for convergence at the orders 4, 8, ..:
each pair leaves the batch at its first converging order, or at the order
where it fails, and its block-Toeplitz condition number is taken only at
the order returned.
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
from .moments import AutocovSequence, block_toeplitz
from .reduction import whiteness_deficit
from .spectral import FrequencyMatrix, density_from_transfer, lag_polynomial

#: Eigenvalue floor below which an innovation covariance is declared broken.
INNOV_PSD_FLOOR = -1e-8

#: Default cap for the predictor order and default tail tolerance.
DEFAULT_Q_MAX = 128
DEFAULT_TOL = 1e-8

#: Largest accepted order cap. Gamma(0..q_max), and each pair's copy of it,
#: are allocated before the recursion starts, so the cap bounds that memory.
Q_MAX_CAP = 1024


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
        phis.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "innov_cov", v)

    @property
    def order_used(self) -> int:
        return self.phis.shape[0]


def _levinson_whittle(gams: np.ndarray, orders: Sequence[int], tol: float, pairs) -> list:
    """Run the recursion on a stack of sequences; each stops at its first converging order.

    ``gams`` is a (P, maxlag + 1, d, d) stack of autocovariance sequences,
    recursed together along a leading batch axis; each step reads the running
    sequences' Gamma from ``gams`` through their indices. At each of the
    increasing ``orders`` each running sequence's {tail_norm, v_delta} is
    recorded; those with both below ``tol`` leave the batch, and at
    ``orders[-1]`` the rest. A singular prediction-error covariance (its
    system is then solved alone, and the sequence gets a zero gain), or an
    innovation covariance below the PSD floor, takes only its own sequence
    out, at the end of that step. Returns, aligned with ``gams``, the
    MarginalAR of ``pairs[k]`` where it stopped, a NotConverged carrying it
    and the records by order, or the error.

    Forward and backward quantities are stacked, so each step updates both
    predictors at every lag, and both error covariances, in single array
    operations; ``delta`` subtracts the lag terms from Gamma(n+1) in lag
    order. Every operation acts on each sequence's own matrices, so a
    sequence gets the same bits in any batch, alone included.
    """
    if orders[-1] < 0:
        raise ShapeMismatch("order must be non-negative")
    if orders[-1] > gams.shape[1] - 1:
        raise ShapeMismatch(f"order {orders[-1]} exceeds available lags {gams.shape[1] - 1}")
    count, d = gams.shape[0], gams.shape[2]
    results: list = [None] * count
    diagnostics: list = [{} for _ in range(count)]

    # The running sequences: active[i] indexes gams; pred[i, 0, u-1] and
    # pred[i, 1, u-1] are its forward and backward coefficients at lag u,
    # cov[i, 0] and cov[i, 1] its forward and backward error covariances.
    active = np.arange(count)
    pred = np.zeros((count, 2, 0, d, d))
    cov = np.stack((gams[:, 0], gams[:, 0]), axis=1)

    def stop(i, tail) -> None:  # the running sequence i stops at this order
        k = active[i]
        # the block-Toeplitz matrix is symmetric PSD, so its singular values
        # are its |eigenvalues|: eigvalsh gives the SVD's condition number
        toeplitz = block_toeplitz(AutocovSequence(gams[k]), max(pred.shape[2], 1))
        eig = np.abs(np.linalg.eigvalsh(toeplitz))
        cond = float(eig.max() / eig.min()) if eig.min() > 0 else np.inf
        # copies, not views, so that the batch's arrays can be freed
        rep = MarginalAR(pairs[k], pred[i, 0].copy(), cov[i, 0].copy(), tail, cond)
        results[k] = rep if tail.converged else NotConverged(
            f"marginal representation not converged by order {orders[-1]} "
            f"(tail {tail.tail_norm:.3g}, v_delta {tail.v_delta:.3g})",
            best=rep,
            diagnostics=diagnostics[k],
        )

    for n in range(orders[-1]):
        terms = np.concatenate((gams[active, n + 1, None], pred[:, 0] @ gams[active, n:0:-1]), 1)
        delta = np.subtract.reduce(terms, axis=1)
        rhs = np.stack((delta.transpose(0, 2, 1), delta), axis=1)
        lhs = cov[:, ::-1].transpose(0, 1, 3, 2)
        leave = np.zeros(active.size, bool)  # the sequences that stop at this order
        try:
            # forward gain delta w^-1, backward gain delta' v^-1
            gains = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:  # one singular system fails the whole batch
            gains = np.zeros_like(rhs)  # a zero gain leaves a singular sequence as it was
            for i in range(active.size):
                try:
                    gains[i] = np.linalg.solve(lhs[i], rhs[i])
                except np.linalg.LinAlgError:
                    leave[i] = True
                    results[active[i]] = SingularToeplitz(
                        f"prediction-error covariance singular at order {n + 1}"
                    )
        gains = gains.transpose(0, 1, 3, 2)

        pred = np.concatenate(
            (pred - gains[:, :, None] @ pred[:, ::-1, ::-1], gains[:, :, None]), axis=2
        )
        trace_v = np.trace(cov[:, 0], axis1=1, axis2=2)
        cov = cov - gains @ rhs
        cov = 0.5 * (cov + cov.transpose(0, 1, 3, 2))
        eig_min = np.linalg.eigvalsh(cov[:, 0])[:, 0]
        v_delta = np.abs(trace_v - np.trace(cov[:, 0], axis1=1, axis2=2))
        broken = (eig_min < INNOV_PSD_FLOOR) & ~leave
        for k, eig in zip(active[broken], eig_min[broken]):
            results[k] = NumericalBreakdown(
                f"innovation covariance eigenvalue {eig:.3g} at order {n + 1}"
            )
        leave |= broken
        if n + 1 in orders:
            for i in np.flatnonzero(~leave):
                # the norm of one 2-D block, as a recursion of one takes it
                tail_norm = float(np.linalg.norm(gains[i, 0], "fro"))
                tail = ConvergenceInfo(
                    tail_norm, float(v_delta[i]), bool(tail_norm < tol and v_delta[i] < tol)
                )
                diagnostics[active[i]][n + 1] = {"tail_norm": tail_norm, "v_delta": tail.v_delta}
                if tail.converged or n + 1 == orders[-1]:
                    stop(i, tail)
                    leave[i] = True
        active, pred, cov = (x[~leave] for x in (active, pred, cov))
        if not active.size:
            break
    for i in range(active.size):  # left running only at order 0: no step was taken
        stop(i, ConvergenceInfo(np.inf, np.inf, False))
    return results


def whittle_recursion(acov: AutocovSequence, q: int, tol: float = DEFAULT_TOL) -> MarginalAR:
    """Forward predictor of order ``q`` from autocovariances, by Levinson-Whittle.

    Solves the block Yule-Walker system Gamma(v) = sum_u Phi(u) Gamma(v - u),
    v = 1..q, recursively in the order; the innovation covariance
    V = Gamma(0) - sum_u Phi(u) Gamma(u)' has a trace non-increasing in q.
    ``q`` = 0 gives the trivial predictor, and ``tol`` only fills the
    convergence record. This is the one-sequence batch of the recursion
    that ``marginal_representations`` runs over all pairs.

    Raises SingularToeplitz if a prediction-error covariance becomes
    singular (a deterministic subprocess), and NumericalBreakdown if the
    innovation covariance falls below the -1e-8 eigenvalue floor.
    """
    (result,) = _levinson_whittle(acov.gammas[None], (q,), tol, (None,))
    if isinstance(result, NotConverged):
        return result.best
    if isinstance(result, VardtfError):
        raise result
    return result


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

    One autocovariance solve to lag ``q_max`` serves every pair, and one
    batched recursion runs them all; a failed solve is every pair's
    failure, and a pair not converged by ``q_max`` gets a NotConverged
    carrying ``best`` and per-order ``diagnostics``. Settings other than
    ``1 <= q_max <= Q_MAX_CAP`` and a finite ``tol > 0``, and a pair out of
    range, raise ShapeMismatch before anything is solved or allocated.
    """
    if not 1 <= q_max <= Q_MAX_CAP or not (np.isfinite(tol) and tol > 0.0):
        raise ShapeMismatch(
            f"need 1 <= q_max <= {Q_MAX_CAP} and a finite tol > 0, got {q_max} and {tol:g}"
        )
    for pair in pairs:
        pair.check_dim(model.dim)
    try:
        acov = moments.autocov(model, maxlag=q_max)
    except VardtfError as exc:
        return [exc] * len(pairs)
    # gams[k, h] is Gamma(h) of pairs[k]'s channels, target first
    gams = np.array([moments.subprocess_autocov(acov, pair).gammas for pair in pairs])
    gams = gams.reshape(-1, q_max + 1, 2, 2)  # no pairs: an empty stack
    return _levinson_whittle(gams, _order_schedule(q_max), tol, pairs)


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
