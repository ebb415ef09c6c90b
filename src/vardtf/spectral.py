"""Frequency-domain machinery for stationary VAR processes.

Everything here is sampled on a grid of angular frequencies lambda in
[0, pi] (radians per sample). The central objects are the characteristic
matrix polynomial

    A(lambda) = I - sum_u A(u) exp(-i u lambda),

its inverse H(lambda) (the transfer function), the spectral density
f(lambda) = H(lambda) Sigma H(lambda)* / (2 pi), and the directed transfer
function built from |H_jk|^2.

Grids are walked one ``grid_blocks`` block at a time. A walk of several blocks
may have a helper thread beside the caller (numpy's inversions and CSV writes
release the GIL): H of a model of at least PAIR_MIN_DIM channels is computed two
blocks at a time, and a table of several blocks still being computed is written
one block behind the caller. Each such walk makes its own helper, whose thread
has ended once the walk finishes, fails or is dropped; a walk of one block, or a
table of blocks already held, makes none. Every block goes through the same
numpy calls, so results keep their bits.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateRow, ShapeMismatch, SingularAtFrequency, SpectrumOverflow
from .jsonio import write_csv
from .model import VarModel, _read_only
from .moments import _scaled

#: Number of grid points used when no grid is given: odd, so the midpoint
#: pi/2 is on the grid, and dense enough for the whiteness metrics.
DEFAULT_GRID_COUNT = 257

#: Frobenius residual of H(lambda) A(lambda) - I beyond which the inversion
#: is reported as singular.
INVERSION_RESIDUAL_TOL = 1e-10

#: Most grid points per block of ``grid_blocks``, the one place a grid is cut.
RESIDUAL_CHUNK = 512

#: Fewest channels for which ``transfer_blocks`` walks H two blocks at a time. Each point's
#: inverse is a few LAPACK calls, and two threads' calls on smaller matrices slow each
#: other more than they overlap (at 16385 points: d=3 about 25 -> 40 ms, d=12 205 -> 140 ms).
PAIR_MIN_DIM = 8


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing frequencies in [0, pi], radians per sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.flags.writeable:  # a caller's points, which it may write later
            pts = pts.copy()
        if pts.ndim != 1 or pts.size < 2:
            raise ShapeMismatch("grid needs at least two frequency points")
        if not np.all(np.isfinite(pts)):
            raise ShapeMismatch("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ShapeMismatch("grid points must be strictly increasing")
        if pts[0] < 0.0 or pts[-1] > np.pi + 1e-12:
            raise ShapeMismatch("grid points must lie in [0, pi]")
        object.__setattr__(self, "points", _read_only(pts))

    def __len__(self) -> int:
        return self.points.size


@contextlib.contextmanager
def _helper():
    """One walk's helper thread, as its ``submit(fn, *args)``: each task runs in the caller's
    context (its ``np.errstate``), and the thread, started by the first task, is joined when
    the ``with`` block ends. Only a walk that starts a thread imports ``concurrent.futures``."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="vardtf-spectral") as pool:
        yield lambda fn, *args: pool.submit(contextvars.copy_context().run, fn, *args)


def _in_pairs(step, items):
    """``step`` on each of ``items``, yielded in order: item 2k in the caller while item
    2k+1 runs on the walk's helper, and a last odd item in the caller alone. If an item of
    a pair fails, the other is waited for, the earlier failure is raised and no later item
    starts; the helper's thread has ended when the walk ends or is dropped."""
    items = iter(items)
    with _helper() as submit:
        for item in items:
            following = next(items, None)
            other = None if following is None else submit(step, following)
            yield step(item)
            if other is not None:
                yield other.result()


def grid_blocks(grid: FrequencyGrid):
    """The grid in order as ceil(n / RESIDUAL_CHUNK) sub-grids of near-equal size,
    2 to RESIDUAL_CHUNK points each; a grid of at most that is one block."""
    return (FrequencyGrid(points) for points in _cut(grid.points))


def _join(blocks) -> FrequencyMatrix:
    """A list of consecutive blocks of one grid as one FrequencyMatrix on their joined grid."""
    grid = FrequencyGrid(np.concatenate([b.grid.points for b in blocks]))
    return FrequencyMatrix(grid, np.concatenate([b.values for b in blocks]))


def _cut(array: np.ndarray) -> list:
    """Views of ``array`` on the ``grid_blocks`` blocks of its first axis."""
    return np.array_split(array, -(-len(array) // RESIDUAL_CHUNK))


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
        object.__setattr__(self, "values", _read_only(vals))


def lag_polynomial(coeffs: np.ndarray, grid: FrequencyGrid) -> FrequencyMatrix:
    """I - sum_u C(u) exp(-i u lambda) on the grid, for a (p, d, d) lag array.

    ``coeffs[u-1]`` is C(u); p = 0 yields the identity at every frequency.
    """
    lams = grid.points
    p, d = coeffs.shape[0], coeffs.shape[1]
    phases = np.exp(-1j * np.outer(lams, np.arange(1, p + 1)))  # (n, p)
    values = np.eye(d, dtype=complex) - np.einsum("np,pjk->njk", phases, coeffs)
    return FrequencyMatrix(grid=grid, values=values)


def char_polynomial(model: VarModel, grid: FrequencyGrid) -> FrequencyMatrix:
    """Characteristic matrix polynomial A(lambda) sampled on the grid.

    A(0) equals I minus the sum of all lag matrices; a white-noise model
    yields the identity at every frequency.
    """
    return lag_polynomial(model.coeffs, grid)


def transfer_function(model: VarModel, grid: FrequencyGrid) -> FrequencyMatrix:
    """Transfer function H(lambda) = A(lambda)^-1 on the grid.

    On a grid of one ``grid_blocks`` block this is ``invert_pointwise`` of A(lambda). A
    larger grid's H is one array filled from ``transfer_blocks``, which the commands read
    instead, block by block.

    Raises
    ------
    SingularAtFrequency
        At the first grid point where A(lambda) is singular or the inversion
        residual reaches the tolerance; this signals a model too close to the unit circle.
    """
    if len(grid) <= RESIDUAL_CHUNK:
        return invert_pointwise(char_polynomial(model, grid))
    values = np.empty((len(grid), model.dim, model.dim), dtype=complex)
    for out, block in zip(_cut(values), transfer_blocks(model, grid)):
        out[...] = block.values
    return FrequencyMatrix(grid=grid, values=values)


def transfer_blocks(model: VarModel, grid: FrequencyGrid):
    """``transfer_function`` on each ``grid_blocks`` block of ``grid``, in order, computed as
    the walk reaches them: two at a time (``_in_pairs``) for a model of at least PAIR_MIN_DIM
    channels on a grid of several blocks, else one at a time in the caller (``map``). An
    iterator, so each walk over the blocks needs its own."""
    walk = _in_pairs if model.dim >= PAIR_MIN_DIM and len(grid) > RESIDUAL_CHUNK else map
    return walk(lambda block: transfer_function(model, block), grid_blocks(grid))


def invert_pointwise(fm: FrequencyMatrix) -> FrequencyMatrix:
    """Inverse of a square FrequencyMatrix at every grid point, the one inverse and gate.

    All of ``fm`` is inverted and gated at once (cut a large grid with ``grid_blocks``);
    with a singular point it is inverted point by point, leaving NaN at each singular one.

    Raises
    ------
    SingularAtFrequency
        At the first grid point where the residual ||inv A - I||_F is not
        below 1e-10 (a singular point's reads nan).
    """
    values = fm.values
    try:
        inv = np.linalg.inv(values)
    except np.linalg.LinAlgError:  # one singular matrix fails the whole call
        inv = np.full_like(values, np.nan)
        for m in range(values.shape[0]):
            try:
                inv[m] = np.linalg.inv(values[m])
            except np.linalg.LinAlgError:
                pass
    residual = (inv @ values).reshape(len(values), -1)  # X A - I, one row per point
    residual[:, :: values.shape[1] + 1] -= 1.0
    cells = residual.view(float)
    _refuse(np.sqrt(np.einsum("ij,ij->i", cells, cells)), fm.grid)
    return FrequencyMatrix(grid=fm.grid, values=inv)


def _refuse(residual: np.ndarray, grid: FrequencyGrid, detail: str = "") -> None:
    """SingularAtFrequency at the first grid point whose inversion residual is not below
    INVERSION_RESIDUAL_TOL, NaN included; ``detail`` replaces the residual in its message."""
    bad = np.flatnonzero(~(residual < INVERSION_RESIDUAL_TOL))
    if bad.size:
        at = bad[0]
        raise SingularAtFrequency(grid.points[at], detail or f"inversion residual {residual[at]:.3g}")


def spectral_density(model: VarModel, grid: FrequencyGrid) -> FrequencyMatrix:
    """Spectral density matrix f(lambda) = H Sigma H* / (2 pi).

    Values are exactly Hermitian (enforced by symmetrization) and positive
    semi-definite up to rounding. For a white-noise model this is the
    constant Sigma / (2 pi).
    """
    return density_from_transfer(transfer_function(model, grid), model.sigma)


def density_from_transfer(h: FrequencyMatrix, sigma: np.ndarray) -> FrequencyMatrix:
    """Spectral density of an already-computed transfer function; SpectrumOverflow
    at the first frequency where it leaves the double range."""
    hv = h.values
    with np.errstate(over="ignore", invalid="ignore"):
        f = hv @ sigma @ hv.conj().transpose(0, 2, 1)
        f = 0.5 * (f + f.conj().transpose(0, 2, 1)) / (2.0 * np.pi)
    return FrequencyMatrix(grid=h.grid, values=_check_finite(f, h.grid, "spectral density"))


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
    SpectrumOverflow
        If, not normalized, some |H_jk|^2 exceeds the largest double.
    """
    return dtf_from_transfer(transfer_function(model, grid), normalized)


def dtf_from_transfer(h: FrequencyMatrix, normalized: bool = True) -> np.ndarray:
    """Directed transfer function of an already-computed transfer function."""
    modulus = np.abs(h.values)
    if not normalized:
        with np.errstate(over="ignore"):
            return _check_finite(modulus**2, h.grid, "|H|^2")
    # Each row ``_scaled``: exact, so the ratios are those of |H|^2, and no square overflows.
    power = _scaled(modulus, axis=2)[0] ** 2
    row_power = power.sum(axis=2, keepdims=True)
    degenerate = np.nonzero(row_power[:, :, 0] <= 0.0)
    if degenerate[0].size:
        m, j = degenerate[0][0], degenerate[1][0]
        raise DegenerateRow(
            f"row {j + 1} of H vanishes at frequency {h.grid.points[m]:.6g}"
        )
    return power / row_power


def _check_finite(values: np.ndarray, grid: FrequencyGrid, what: str) -> np.ndarray:
    """``values`` (one array per grid point), or SpectrumOverflow where first not finite."""
    bad = np.flatnonzero(~np.isfinite(values).reshape(len(grid), -1).all(axis=1))
    if bad.size:
        at = grid.points[bad[0]]
        raise SpectrumOverflow(f"{what} overflows at frequency {at:.6g} rad/sample")
    return values


def frequency_matrix_to_csv(fm: FrequencyMatrix, fh, header: bool = True) -> None:
    """Write a FrequencyMatrix as CSV.

    Header: ``lambda`` followed by ``re_j_k,im_j_k`` for every entry in
    row-major order, channel indices 1-based. Without ``header`` only the
    rows are written, so successive blocks of one grid continue one table.
    """
    n, rows, cols = fm.values.shape
    names = ["lambda"]
    for j in range(1, rows + 1):
        for k in range(1, cols + 1):
            names += [f"re_{j}_{k}", f"im_{j}_{k}"]
    # Viewing complex entries as float pairs interleaves re and im in place.
    cells = np.ascontiguousarray(fm.values).reshape(n, -1).view(float)
    write_csv(fh, names if header else [], fm.grid.points, cells)


def frequency_table_to_csv(blocks, fh) -> None:
    """Write consecutive blocks of one grid as one CSV table. Blocks already held (a list or
    tuple) are written in the caller. Of lazy ``blocks`` the first, with the header, is
    written in the caller, and a second starts a helper, which writes it and each later
    block while the caller computes the next, once the one before is written. A failed
    write is raised here, ahead of a failure computing the next block, and every write has
    ended, with the helper's thread, when this returns or raises."""
    if isinstance(blocks, (list, tuple)):
        for m, fm in enumerate(blocks):
            frequency_matrix_to_csv(fm, fh, m == 0)
        return
    blocks = iter(blocks)
    for fm in itertools.islice(blocks, 1):
        frequency_matrix_to_csv(fm, fh)
    second = next(blocks, None)
    if second is None:
        return
    with _helper() as submit:
        writing = submit(frequency_matrix_to_csv, second, fh, False)
        try:
            for fm in blocks:
                writing.result()
                writing = submit(frequency_matrix_to_csv, fm, fh, False)
        finally:
            writing.result()
