"""Stationary VAR(p) process definitions and validation.

A model is the tuple (coefficient matrices, innovation covariance). With
``coeffs[u-1][j, k]`` the weight of channel ``k`` at lag ``u`` in the equation
of channel ``j``, the process is

    X(t) = sum_u coeffs[u-1] X(t-u) + e(t),    var(e(t)) = sigma.

Channel indices are 0-based throughout the library; the CLI renders them
1-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import (
    NotPositiveSemiDefinite,
    OrderZero,
    ShapeMismatch,
    Unstable,
)
from .jsonio import canonical_json, removed_on_failure

#: Stability margin: models with companion spectral radius >= 1 - this are
#: rejected, because the Lyapunov moment solve needs strict stability.
STABILITY_MARGIN = 1e-10

#: Largest allowed deviation of sigma from its symmetric part.
SYMMETRY_TOL = 1e-12

#: Eigenvalue floor when checking sigma for positive semi-definiteness.
PSD_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class VarModel:
    """Validated stationary VAR(p) model, ``VarModel(coeffs, sigma)``.

    Attributes
    ----------
    coeffs : np.ndarray
        The (p, d, d) lag coefficient array, ``coeffs[u-1]`` = A(u); a
        sequence of p d-by-d matrices is stacked into it, and p = 0
        (shape (0, d, d)) is white noise.
    sigma : np.ndarray
        Real symmetric PSD d-by-d innovation covariance.
    spectral_radius : float
        Largest eigenvalue modulus of the companion matrix (derived, not
        an init argument).

    ``dim`` (d) and ``order`` (p) are read off ``sigma`` and ``coeffs``.
    Instances are immutable (arrays kept by ``_read_only``) and safe to share
    across threads.
    """

    coeffs: np.ndarray
    sigma: np.ndarray
    spectral_radius: float = field(init=False, compare=False)

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ShapeMismatch(f"sigma has shape {sigma.shape}, expected a square matrix")
        d = sigma.shape[0]
        mats = [np.asarray(a, dtype=float) for a in self.coeffs]
        for u, a in enumerate(mats, start=1):
            if a.shape != (d, d):
                raise ShapeMismatch(
                    f"coefficient matrix for lag {u} has shape {a.shape}, expected ({d}, {d})"
                )
            if not np.all(np.isfinite(a)):
                raise ShapeMismatch(f"coefficient matrix for lag {u} is not finite")
        _check_covariance(sigma)
        coeffs = np.array(mats or np.empty((0, d, d)))

        rho = 0.0
        if mats:
            rho = float(np.max(np.abs(np.linalg.eigvals(_companion(coeffs)))))
            if rho >= 1.0 - STABILITY_MARGIN:
                raise Unstable(rho)

        object.__setattr__(self, "coeffs", _read_only(coeffs))
        object.__setattr__(self, "sigma", _read_only(sigma))
        object.__setattr__(self, "spectral_radius", rho)

    @property
    def dim(self) -> int:
        """Number of channels d."""
        return self.sigma.shape[0]

    @property
    def order(self) -> int:
        """Autoregressive order p (0 means white noise)."""
        return self.coeffs.shape[0]

    def to_dict(self) -> dict:
        """Plain-data form with keys dim, order, coeffs, sigma."""
        return {
            "dim": self.dim,
            "order": self.order,
            "coeffs": self.coeffs.tolist(),
            "sigma": self.sigma.tolist(),
        }


@dataclass(frozen=True)
class ChannelPair:
    """Ordered channel pair for directed questions, 0-based.

    ``source`` is the candidate cause, ``target`` the candidate effect
    ("target <- source"). In 2-channel objects derived for a pair
    (marginal representations, reductions), row/column 0 is the target
    channel and row/column 1 the source channel.
    """

    source: int
    target: int

    def __post_init__(self):
        if self.source < 0 or self.target < 0:
            raise ShapeMismatch("channel indices must be non-negative")
        if self.source == self.target:
            raise ShapeMismatch("source and target channels must differ")

    def check_dim(self, dim: int) -> None:
        if self.source >= dim or self.target >= dim:
            raise ShapeMismatch(
                f"pair ({self.target}<-{self.source}) out of range for dim {dim}"
            )

    @property
    def channels(self) -> tuple:
        """Retained channels in output order (target first)."""
        return (self.target, self.source)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` as every value object keeps an array, read-only: an array that owns its memory is
    frozen in place, a read-only view of read-only numpy memory is kept as it is, and any other
    view (one another array can write through, or of memory numpy does not own) is copied."""
    kept = isinstance(a.base, np.ndarray) and a.base.flags.owndata and not a.base.flags.writeable
    if not (a.flags.owndata or kept):
        a = a.copy()
    a.setflags(write=False)
    return a


def _check_covariance(sigma: np.ndarray) -> None:
    if not np.all(np.isfinite(sigma)):
        raise NotPositiveSemiDefinite("sigma is not finite")
    asym = float(np.max(np.abs(sigma - sigma.T))) if sigma.size else 0.0
    if asym >= SYMMETRY_TOL:
        raise NotPositiveSemiDefinite(
            f"sigma deviates from symmetry by {asym:.3g}"
        )
    eigs = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    if eigs.size and float(eigs[0]) < PSD_FLOOR:
        raise NotPositiveSemiDefinite(
            f"sigma has eigenvalue {eigs[0]:.3g} below {PSD_FLOOR}"
        )


def _companion(coeffs: np.ndarray) -> np.ndarray:
    p, d = coeffs.shape[0], coeffs.shape[1]
    comp = np.zeros((d * p, d * p))
    comp[:d] = coeffs.transpose(1, 0, 2).reshape(d, d * p)
    if p > 1:
        comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    return comp


def make_var(coeffs: Sequence, sigma) -> VarModel:
    """Build and validate a VAR model from lag matrices and innovation covariance.

    ``VarModel(coeffs, sigma)`` with scalars promoted to 1-by-1 matrices.

    Parameters
    ----------
    coeffs : sequence of array_like
        Lag coefficient matrices A(1)..A(p), each d-by-d, or a (p, d, d)
        array. An empty sequence defines a white-noise process.
    sigma : array_like
        Innovation covariance, d-by-d symmetric positive semi-definite.

    Raises
    ------
    ShapeMismatch
        Inconsistent array shapes, or a coefficient that is not finite.
    NotPositiveSemiDefinite
        ``sigma`` not finite, asymmetric, or with eigenvalues below the
        tolerance floor.
    Unstable
        Companion spectral radius at or above one.
    """
    return VarModel([np.atleast_2d(a) for a in coeffs], np.atleast_2d(sigma))


def counterexample_model(alpha: float, beta: float) -> VarModel:
    """Trivariate model where the transfer function and causal structure disagree.

    Channel 3 drives channel 1 with weight ``alpha`` at lag 2 and channel 2
    with weight ``beta`` at lag 1; there are no other couplings and the
    innovation covariance is the identity:

        X1(t) = alpha X3(t-2) + e1(t)
        X2(t) = beta  X3(t-1) + e2(t)
        X3(t) = e3(t)

    The companion matrix is nilpotent, so the model is stable for every real
    ``alpha`` and ``beta``.
    """
    a1 = np.zeros((3, 3))
    a1[1, 2] = beta
    a2 = np.zeros((3, 3))
    a2[0, 2] = alpha
    return make_var([a1, a2], np.eye(3))


def companion_matrix(model: VarModel) -> np.ndarray:
    """First-order state-space lift: block rows [A(1)..A(p)] over a shifted identity.

    Raises
    ------
    OrderZero
        For white-noise models (p = 0) there is no companion form.
    """
    if model.order == 0:
        raise OrderZero("companion matrix undefined for order-0 models")
    return _companion(model.coeffs)


def write_model(model: VarModel, path) -> None:
    """Write a model as JSON (keys dim, order, coeffs, sigma); a failed write leaves no file."""
    with removed_on_failure(open(path, "w", encoding="utf-8")) as fh:
        fh.write(canonical_json(model.to_dict()))


def model_from_dict(doc: dict) -> VarModel:
    """Validate a plain-data model document (as produced by ``to_dict``)."""
    for key in ("dim", "order", "coeffs", "sigma"):
        if key not in doc:
            raise ShapeMismatch(f"model document missing field '{key}'")
    dim, order = doc["dim"], doc["order"]
    for key, value in (("dim", dim), ("order", order)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ShapeMismatch(f"model document field '{key}' must be an integer, got {value!r}")
    if not isinstance(doc["coeffs"], list):
        raise ShapeMismatch("model document field 'coeffs' must be a list of lag matrices")
    coeffs = [np.array(a, dtype=float) for a in doc["coeffs"]]
    sigma = np.array(doc["sigma"], dtype=float)
    if len(coeffs) != order:
        raise ShapeMismatch(
            f"model document declares order {order} but has {len(coeffs)} "
            "coefficient matrices"
        )
    model = make_var(coeffs, sigma)
    if model.dim != dim:
        raise ShapeMismatch(
            f"model document declares dim {dim} but sigma is "
            f"{model.dim}-dimensional"
        )
    return model


def read_model(path) -> VarModel:
    """Read a model from the JSON document format written by ``write_model``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ShapeMismatch("model file must contain a JSON object")
    return model_from_dict(doc)
