"""Frequency-domain machinery for stationary VAR processes.

Everything here is sampled on a grid of angular frequencies lambda in
[0, pi] (radians per sample). The central objects are the characteristic
matrix polynomial

    A(lambda) = I - sum_u A(u) exp(-i u lambda),

its inverse H(lambda) (the transfer function), the spectral density
f(lambda) = H(lambda) Sigma H(lambda)* / (2 pi), and the directed transfer
function built from |H_jk|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateRow, ShapeMismatch, SingularAtFrequency
from .jsonio import write_csv
from .model import VarModel

#: Number of grid points used when no grid is given: odd, so the midpoint
#: pi/2 is on the grid, and dense enough for the whiteness metrics.
DEFAULT_GRID_COUNT = 257

#: Frobenius residual of H(lambda) A(lambda) - I beyond which the inversion
#: is reported as singular.
INVERSION_RESIDUAL_TOL = 1e-10

#: Grid points per block of the pointwise inversion and its residual check,
#: so that their temporaries stay small next to the matrices themselves.
RESIDUAL_CHUNK = 512


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing frequencies in [0, pi], radians per sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ShapeMismatch("grid needs at least two frequency points")
        if not np.all(np.isfinite(pts)):
            raise ShapeMismatch("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ShapeMismatch("grid points must be strictly increasing")
        if pts[0] < 0.0 or pts[-1] > np.pi + 1e-12:
            raise ShapeMismatch("grid points must lie in [0, pi]")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def default_grid(
    count: int = DEFAULT_GRID_COUNT, lo: float = 0.0, hi: float = np.pi
) -> FrequencyGrid:
    """Equally spaced grid on [lo, hi] inclusive, by default [0, pi]."""
    if count < 2:  # before np.linspace, which has its own message for count < 0
        raise ShapeMismatch("grid needs at least two frequency points")
    return FrequencyGrid(np.linspace(lo, hi, count))


@dataclass(frozen=True, eq=False)
class FrequencyMatrix:
    """Complex matrix-valued function sampled on a frequency grid.

    ``values[m]`` is the matrix at ``grid.points[m]``. Blocks cut out of a
    square matrix are supported, so values may be rectangular.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 3:
            raise ShapeMismatch("values must be a (points, rows, cols) array")
        if vals.shape[0] != len(self.grid):
            raise ShapeMismatch(
                f"{vals.shape[0]} matrices for {len(self.grid)} grid points"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def lag_polynomial(coeffs: np.ndarray, grid: FrequencyGrid) -> FrequencyMatrix:
    """I - sum_u C(u) exp(-i u lambda) on the grid, for a (p, d, d) lag array.

    ``coeffs[u-1]`` is C(u); p = 0 yields the identity at every frequency.
    """
    lams = grid.points
    p, d = coeffs.shape[0], coeffs.shape[1]
    values = np.broadcast_to(np.eye(d, dtype=complex), (lams.size, d, d)).copy()
    phases = np.exp(-1j * np.outer(lams, np.arange(1, p + 1)))  # (n, p)
    values -= np.einsum("np,pjk->njk", phases, coeffs)
    return FrequencyMatrix(grid=grid, values=values)


def char_polynomial(model: VarModel, grid: FrequencyGrid) -> FrequencyMatrix:
    """Characteristic matrix polynomial A(lambda) sampled on the grid.

    A(0) equals I minus the sum of all lag matrices; a white-noise model
    yields the identity at every frequency.
    """
    return lag_polynomial(model.coeffs, grid)


def transfer_function(model: VarModel, grid: FrequencyGrid) -> FrequencyMatrix:
    """Transfer function H(lambda) = A(lambda)^-1 on the grid.

    Inversion is pivoted-LU per frequency point, with a residual check
    ||H A - I||_F < 1e-10 at every point.

    Raises
    ------
    SingularAtFrequency
        If A(lambda) is singular or the inversion residual exceeds the
        tolerance; this signals a model numerically too close to the unit
        circle.
    """
    return invert_pointwise(char_polynomial(model, grid))


def invert_pointwise(fm: FrequencyMatrix, detail: str = "") -> FrequencyMatrix:
    """Inverse of a square FrequencyMatrix at every grid point.

    Blocks of RESIDUAL_CHUNK points are inverted and gated in grid order.

    Raises
    ------
    SingularAtFrequency
        In the first block with a point where the matrix is singular or the
        residual ||inv A - I||_F reaches 1e-10: at its first singular point,
        else its first residual failure; ``detail`` names the matrix.
    """
    values = fm.values
    eye = np.eye(values.shape[1])
    inv = np.empty_like(values)
    for start in range(0, values.shape[0], RESIDUAL_CHUNK):
        block = slice(start, start + RESIDUAL_CHUNK)
        try:
            inv[block] = np.linalg.inv(values[block])
        except np.linalg.LinAlgError:  # one singular matrix fails the whole block
            for m in range(*block.indices(values.shape[0])):
                try:
                    inv[m] = np.linalg.inv(values[m])
                except np.linalg.LinAlgError:
                    raise SingularAtFrequency(fm.grid.points[m], detail) from None
        residual = np.linalg.norm(inv[block] @ values[block] - eye, axis=(1, 2))
        bad = np.nonzero(~(residual < INVERSION_RESIDUAL_TOL))[0]  # NaN fails too
        if bad.size:
            raise SingularAtFrequency(
                fm.grid.points[start + bad[0]],
                detail or f"inversion residual {residual[bad[0]]:.3g}",
            )
    return FrequencyMatrix(grid=fm.grid, values=inv)


def spectral_density(model: VarModel, grid: FrequencyGrid) -> FrequencyMatrix:
    """Spectral density matrix f(lambda) = H Sigma H* / (2 pi).

    Values are exactly Hermitian (enforced by symmetrization) and positive
    semi-definite up to rounding. For a white-noise model this is the
    constant Sigma / (2 pi).
    """
    return density_from_transfer(transfer_function(model, grid), model.sigma)


def density_from_transfer(h: FrequencyMatrix, sigma: np.ndarray) -> FrequencyMatrix:
    """Spectral density of an already-computed transfer function."""
    hv = h.values
    f = hv @ sigma @ hv.conj().transpose(0, 2, 1)
    f = 0.5 * (f + f.conj().transpose(0, 2, 1)) / (2.0 * np.pi)
    return FrequencyMatrix(grid=h.grid, values=f)


def dtf(model: VarModel, grid: FrequencyGrid, normalized: bool = True) -> np.ndarray:
    """Directed transfer function on the grid.

    Returns a real array of shape ``(len(grid), d, d)`` whose ``[m, j, k]``
    entry is the influence of channel ``k`` on channel ``j`` at frequency
    ``grid.points[m]``: the squared transfer-function modulus |H_jk|^2, or,
    when ``normalized``, that quantity divided by the row sum
    sum_m |H_jm|^2 so values lie in [0, 1].

    Normalization never moves a zero: an entry vanishes exactly when
    H_jk(lambda) does, or when its modulus is below about 2^-537 times
    its row's largest, where its square underflows.

    Raises
    ------
    DegenerateRow
        If a whole row of H vanishes at some frequency, so the row cannot
        be normalized.
    """
    return dtf_from_transfer(transfer_function(model, grid), normalized)


def dtf_from_transfer(h: FrequencyMatrix, normalized: bool = True) -> np.ndarray:
    """Directed transfer function of an already-computed transfer function."""
    modulus = np.abs(h.values)
    if not normalized:
        return modulus**2
    # Scaling a row by a power of two is exact, so the ratios are those of |H|^2;
    # by 2^-k, k the exponent of the row's largest modulus, no square overflows.
    exponent = np.frexp(modulus.max(axis=2, keepdims=True))[1]
    power = np.ldexp(modulus, -exponent) ** 2
    row_power = power.sum(axis=2, keepdims=True)
    degenerate = np.nonzero(row_power[:, :, 0] <= 0.0)
    if degenerate[0].size:
        m, j = degenerate[0][0], degenerate[1][0]
        raise DegenerateRow(
            f"row {j + 1} of H vanishes at frequency {h.grid.points[m]:.6g}"
        )
    return power / row_power


def frequency_matrix_to_csv(fm: FrequencyMatrix, fh) -> None:
    """Write a FrequencyMatrix as CSV.

    Header: ``lambda`` followed by ``re_j_k,im_j_k`` for every entry in
    row-major order, channel indices 1-based.
    """
    n, rows, cols = fm.values.shape
    header = ["lambda"]
    for j in range(1, rows + 1):
        for k in range(1, cols + 1):
            header += [f"re_{j}_{k}", f"im_{j}_{k}"]
    # Viewing complex entries as float pairs interleaves re and im in place.
    cells = np.ascontiguousarray(fm.values).reshape(n, -1).view(float)
    write_csv(fh, header, fm.grid.points, cells)
