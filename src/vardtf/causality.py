"""Directed-influence verdicts per ordered channel pair.

Three population-level notions are evaluated side by side for each ordered
pair (target <- source):

* DTF nullity: the transfer-function entry H[target, source] vanishes on
  the whole grid.
* Multivariate Granger causality: some full-model lag coefficient
  A[target, source](u) is nonzero (exact structural check).
* Bivariate Granger causality: the pair's exact marginal representation has
  a nonzero coefficient of the source in the target's equation.

These can disagree: a pair may have identically zero DTF while the source
bivariately Granger-causes the target, and a nonzero DTF does not require a
multivariate causal link. Such pairs carry a contradiction flag. All
verdicts are computed from the known model, never from data, because the
question is about the measures themselves rather than estimation error.

A report makes one walk of the transfer function's blocks and one call of
``marginal.marginal_representations`` (one autocovariance solve, one
batched recursion over the unordered pairs) per model, and only assembles
the verdicts. It keeps H's blocks, and each pair's representation (or the
error that replaced it) on the verdict, so callers reuse them instead of
computing them again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .exceptions import VardtfError
from .marginal import (
    DEFAULT_Q_MAX,
    DEFAULT_TOL,
    MarginalAR,
    marginal_representation,
    marginal_representations,
)
from .model import ChannelPair, VarModel
from .moments import _frobenius
from .spectral import FrequencyGrid, default_grid, dtf_from_transfer

#: Absolute threshold on normalized DTF below which a pair's DTF is "zero";
#: structural zeros compute to machine epsilon, orders of magnitude lower.
DTF_ZERO_TOL = 1e-10

#: Marginal coefficients count as nonzero when they exceed this times the
#: square root of the innovation-covariance norm; separates structural zeros
#: from truncation residue.
GC_REL_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PairVerdict:
    """All verdicts for a single ordered pair, with supporting magnitudes.

    ``contradiction`` is set when DTF is zero yet the source bivariately
    Granger-causes the target, or when DTF is nonzero without a
    multivariate causal link. ``error`` carries a message when the
    bivariate verdict could not be computed; the remaining fields are still
    filled. ``marginal`` is the pair's representation and ``failure`` the
    exception that replaced it; both are left out of comparisons.
    """

    target: int
    source: int
    dtf_zero: bool
    bivariate_gc: bool | None
    multivariate_gc: bool
    contradiction: bool
    max_dtf: float
    max_phi: float | None
    max_coeff: float
    error: str | None = None
    marginal: MarginalAR | None = field(default=None, compare=False, repr=False)
    failure: VardtfError | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CausalityReport:
    """Per-pair verdicts for every ordered channel pair, sorted by (target, source).

    ``transfer`` is the transfer function the DTF verdicts were read from, as the tuple of
    its ``spectral.transfer_blocks``; it is left out of comparisons.
    """

    dim: int
    pairs: tuple
    transfer: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def contradictions(self) -> tuple:
        return tuple(p for p in self.pairs if p.contradiction)


def multivariate_gc(model: VarModel, pair: ChannelPair) -> tuple:
    """Does the source channel Granger-cause the target within the full model?

    Exact structural check: true iff some lag coefficient
    A[target, source](u) is nonzero. Coefficients are user-specified, so no
    tolerance is applied. Returns (flag, max absolute coefficient).
    """
    pair.check_dim(model.dim)
    top = float(np.max(np.abs(model.coeffs[:, pair.target, pair.source]), initial=0.0))
    return top != 0.0, top


def bivariate_gc(
    model: VarModel,
    pair: ChannelPair,
    q_max: int = DEFAULT_Q_MAX,
    tol: float = DEFAULT_TOL,
) -> tuple:
    """Does the source Granger-cause the target in the pair's own representation?

    Runs the exact marginal representation of the pair and tests the
    (target, source) coefficient entries against the significance
    threshold. Returns (flag, max absolute coefficient entry).
    """
    return _gc_verdict(marginal_representation(model, pair, q_max=q_max, tol=tol))


def _gc_verdict(rep: MarginalAR) -> tuple:
    """(flag, max |Phi(u)[target, source]|) of a pair's representation."""
    top = 0.0
    if rep.order_used > 0:
        top = float(np.max(np.abs(rep.phis[:, 0, 1])))
    threshold = GC_REL_THRESHOLD * np.sqrt(max(_frobenius(rep.innov_cov), np.finfo(float).tiny))
    return bool(top > threshold), top


def full_report(
    model: VarModel,
    grid: FrequencyGrid | None = None,
    q_max: int = DEFAULT_Q_MAX,
    tol: float = DEFAULT_TOL,
) -> CausalityReport:
    """All three verdicts for every ordered pair of distinct channels.

    Every pair's representation comes from one ``marginal_representations``
    call, in which (b, a) gets the exact swap of (a, b). Per-pair numerical
    failures (e.g. a non-converged marginalization) are recorded in that
    pair's ``error`` field without aborting the remaining pairs; a failed
    solve is every pair's failure. Settings other than ``q_max >= 1`` and a
    finite ``tol > 0`` raise ShapeMismatch before any pair runs.
    """
    pairs = [
        ChannelPair(source=source, target=target)
        for target, source in itertools.permutations(range(model.dim), 2)
    ]
    marginals = marginal_representations(model, pairs, q_max, tol)
    if grid is None:
        grid = default_grid()
    transfer = tuple(spectral.transfer_blocks(model, grid))
    dtf_max = np.max([dtf_from_transfer(h).max(axis=0) for h in transfer], axis=0)
    verdicts = []
    for pair, result in zip(pairs, marginals):
        max_dtf = float(dtf_max[pair.target, pair.source])
        dtf_zero = max_dtf < DTF_ZERO_TOL
        mv_flag, max_coeff = multivariate_gc(model, pair)
        failed = isinstance(result, VardtfError)
        bi_flag, max_phi = (None, None) if failed else _gc_verdict(result)
        verdicts.append(
            PairVerdict(
                target=pair.target,
                source=pair.source,
                dtf_zero=dtf_zero,
                bivariate_gc=bi_flag,
                multivariate_gc=mv_flag,
                contradiction=(dtf_zero and bi_flag is True) or (not dtf_zero and not mv_flag),
                max_dtf=max_dtf,
                max_phi=max_phi,
                max_coeff=max_coeff,
                error=str(result) if failed else None,
                marginal=None if failed else result,
                failure=result if failed else None,
            )
        )
    return CausalityReport(dim=model.dim, pairs=tuple(verdicts), transfer=transfer)
