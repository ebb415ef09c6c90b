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
from .jsonio import canonical_json

#: Stability margin: models with companion spectral radius >= 1 - this are
#: rejected, because the Lyapunov moment solve needs strict stability.
STABILITY_MARGIN = 1e-10

#: Largest allowed deviation of sigma from its symmetric part.
SYMMETRY_TOL = 1e-12

#: Eigenvalue floor when checking sigma for positive semi-definiteness.
PSD_FLOOR = -1e-10


@dataclass(frozen=True, eq=False)
class VarModel:
    """Validated stationary VAR(p) model.

    Attributes
    ----------
    dim : int
        Number of channels d.
    order : int
        Autoregressive order p (0 means white noise).
    coeffs : tuple of np.ndarray
        p real d-by-d lag coefficient matrices, lag 1 first.
    sigma : np.ndarray
        Real symmetric PSD d-by-d innovation covariance.
    spectral_radius : float
        Largest eigenvalue modulus of the companion matrix (derived, not
        an init argument).

    Instances are immutable (arrays are write-protected) and safe to share
    across threads.
    """

    dim: int
    order: int
    coeffs: tuple
    sigma: np.ndarray
    spectral_radius: float = field(init=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(np.array(a, dtype=float) for a in self.coeffs)
        sigma = np.array(self.sigma, dtype=float)
        if sigma.shape != (self.dim, self.dim):
            raise ShapeMismatch(
                f"sigma has shape {sigma.shape}, expected ({self.dim}, {self.dim})"
            )
        if len(coeffs) != self.order:
            raise ShapeMismatch(
                f"got {len(coeffs)} coefficient matrices for order {self.order}"
            )
        for u, a in enumerate(coeffs, start=1):
            if a.shape != (self.dim, self.dim):
                raise ShapeMismatch(
                    f"coefficient matrix for lag {u} has shape {a.shape}, "
                    f"expected ({self.dim}, {self.dim})"
                )
            if not np.all(np.isfinite(a)):
                raise ShapeMismatch(f"coefficient matrix for lag {u} is not finite")
        _check_covariance(sigma)

        rho = 0.0
        if self.order > 0:
            comp = _companion(coeffs, self.dim)
            rho = float(np.max(np.abs(np.linalg.eigvals(comp))))
            if rho >= 1.0 - STABILITY_MARGIN:
                raise Unstable(rho)

        for a in coeffs:
            a.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "spectral_radius", rho)

    def to_dict(self) -> dict:
        """Plain-data form with keys dim, order, coeffs, sigma."""
        return {
            "dim": self.dim,
            "order": self.order,
            "coeffs": [a.tolist() for a in self.coeffs],
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


def _companion(coeffs: Sequence[np.ndarray], dim: int) -> np.ndarray:
    p = len(coeffs)
    comp = np.zeros((dim * p, dim * p))
    comp[:dim] = np.hstack(coeffs)
    if p > 1:
        comp[dim:, : dim * (p - 1)] = np.eye(dim * (p - 1))
    return comp


def make_var(coeffs: Sequence, sigma) -> VarModel:
    """Build and validate a VAR model from lag matrices and innovation covariance.

    Parameters
    ----------
    coeffs : sequence of array_like
        Lag coefficient matrices A(1)..A(p), each d-by-d. An empty sequence
        defines a white-noise process.
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
    sigma = np.atleast_2d(np.array(sigma, dtype=float))
    dim = sigma.shape[0]
    coeffs = tuple(np.atleast_2d(np.array(a, dtype=float)) for a in coeffs)
    return VarModel(dim=dim, order=len(coeffs), coeffs=coeffs, sigma=sigma)


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
    return _companion(model.coeffs, model.dim)


def write_model(model: VarModel, path) -> None:
    """Write a model to a JSON document with keys dim, order, coeffs, sigma."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(model.to_dict()))


def model_from_dict(doc: dict) -> VarModel:
    """Validate a plain-data model document (as produced by ``to_dict``)."""
    for key in ("dim", "order", "coeffs", "sigma"):
        if key not in doc:
            raise ShapeMismatch(f"model document missing field '{key}'")
    dim = int(doc["dim"])
    order = int(doc["order"])
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
