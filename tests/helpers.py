"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
Yule-Walker solve uses a dense stacked system instead of the order
recursion, the reduction is block substitution on A(lambda) instead of
the inverse of a block of H(lambda), the spectral oracle is a smoothed
periodogram of simulated data, the CSV reference formats one row at
a time with Python's ``%``, and the least-squares VAR fit solves through
the SVD of an explicit design matrix instead of lag products. The
whole-grid references for the commands that walk the grid in blocks
(``dtf``, ``reduce``, ``marginalize``) evaluate H, the reduction and the
marginal residual's density on the whole grid at once, as those commands
did before they worked in blocks.
"""

import io

import numpy as np
from scipy.linalg import solve_discrete_are

from vardtf import ChannelPair, companion_matrix, make_var
from vardtf.moments import _inverse, _mul
from vardtf.reduction import ReducedRepresentation, whiteness_deficit
from vardtf.spectral import (
    FrequencyMatrix,
    density_from_transfer,
    dtf,
    frequency_matrix_to_csv,
    lag_polynomial,
    transfer_function,
)


def random_stable_model(seed, dim=3, order=2, radius=0.6, sigma="random", lagless=()):
    """Random VAR with companion spectral radius rescaled to ``radius``.

    Rescaling lag u by s**u multiplies every companion eigenvalue by s, so
    the target radius is hit exactly. The channels in ``lagless`` get no
    lagged terms among themselves: A(u)[lagless, lagless] = 0 at every lag.
    """
    rng = np.random.default_rng(seed)
    coeffs = [rng.normal(scale=0.4, size=(dim, dim)) for _ in range(order)]
    block = np.ix_(list(lagless), list(lagless))
    for a in coeffs:
        a[block] = 0.0
    rho = companion_radius(coeffs)
    if rho > 0:
        scale = radius / rho
        coeffs = [a * scale ** (u + 1) for u, a in enumerate(coeffs)]
    if sigma == "identity":
        sig = np.eye(dim)
    else:
        w = rng.normal(size=(dim, 2 * dim)) / np.sqrt(2 * dim)
        sig = w @ w.T + 0.1 * np.eye(dim)
    return make_var(coeffs, sig)


def singular_removed_block_model():
    """Stable d=3 model (radius about 0.707) with A_RR(0) = 0 for pair (1, 2).

    A(1)[2, 2] = 1 makes A_RR(lambda) = 1 - exp(-i lambda), which vanishes
    at lambda = 0 only; A(1)[0, 2] = 1 and A(1)[2, 0] = -0.5 keep the
    companion radius at 1/sqrt(2).
    """
    a = np.zeros((3, 3))
    a[0, 2], a[2, 0], a[2, 2] = 1.0, -0.5, 1.0
    return make_var([a], np.eye(3))


def dense_stable_model(seed, dim=3, order=2, radius=0.6):
    """Random stable VAR with every coefficient entry bounded away from zero."""
    rng = np.random.default_rng(seed)
    coeffs = [
        rng.uniform(0.2, 0.8, size=(dim, dim)) * rng.choice([-1.0, 1.0], size=(dim, dim))
        for _ in range(order)
    ]
    rho = companion_radius(coeffs)
    scale = radius / rho
    coeffs = [a * scale ** (u + 1) for u, a in enumerate(coeffs)]
    return make_var(coeffs, np.eye(dim))


def block_diagonal_model(seed, block_dims=(2, 2), order=2, radius=0.6):
    """Stable VAR made of causally isolated channel blocks."""
    rng = np.random.default_rng(seed)
    dim = sum(block_dims)
    coeffs = [np.zeros((dim, dim)) for _ in range(order)]
    start = 0
    for bd in block_dims:
        stop = start + bd
        for a in coeffs:
            a[start:stop, start:stop] = rng.normal(scale=0.4, size=(bd, bd))
        start = stop
    rho = companion_radius(coeffs)
    if rho > 0:
        scale = radius / rho
        coeffs = [a * scale ** (u + 1) for u, a in enumerate(coeffs)]
    return make_var(coeffs, np.eye(dim))


def companion_radius(coeffs):
    """Largest eigenvalue modulus of the companion matrix of a list of lag matrices."""
    p, dim = len(coeffs), coeffs[0].shape[0]
    comp = np.zeros((dim * p, dim * p))
    comp[:dim] = np.hstack(coeffs)
    if p > 1:
        comp[dim:, : dim * (p - 1)] = np.eye(dim * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def direct_yule_walker(gammas, q):
    """Order-q predictor by solving the stacked block Yule-Walker system.

    ``gammas[h]`` is Gamma(h) = E[X(t) X(t-h)']. Returns (phis, v) with
    ``phis`` of shape (q, d, d). Independent oracle for the order
    recursion: one dense solve, no recursion.
    """
    d = gammas.shape[1]

    def gamma(h):
        return gammas[h] if h >= 0 else gammas[-h].T

    big = np.zeros((q * d, q * d))
    rhs = np.zeros((d, q * d))
    for u in range(1, q + 1):
        rhs[:, (u - 1) * d : u * d] = gamma(u)
        for v in range(1, q + 1):
            big[(u - 1) * d : u * d, (v - 1) * d : v * d] = gamma(v - u)
    stacked = np.linalg.solve(big.T, rhs.T).T
    phis = np.stack([stacked[:, (u - 1) * d : u * d] for u in range(1, q + 1)])
    v = gamma(0).copy()
    for u in range(1, q + 1):
        v -= phis[u - 1] @ gamma(u).T
    return phis, 0.5 * (v + v.T)


def block_substitution_reference(model, pair, lams):
    """Reduced polynomial G and error spectrum f of a pair, by block substitution.

    A(lambda) = I - sum_u A(u) exp(-i u lambda) is summed lag by lag; with
    S the pair's channels, R the others and M = A_SR A_RR^-1,

        G = A_SS - M A_RS,
        2 pi f = Sigma_SS - M Sigma_RS - (M Sigma_RS)* + M Sigma_RR M*.

    Kept as the reference for the library's reduction, which reads both off
    the transfer function instead. Returns (G, f) as (points, 2, 2) arrays.
    """
    s = list(pair.channels)
    r = [ch for ch in range(model.dim) if ch not in s]
    a = np.broadcast_to(np.eye(model.dim, dtype=complex), (lams.size, model.dim, model.dim))
    for u, coeff in enumerate(model.coeffs, start=1):
        a = a - coeff * np.exp(-1j * u * lams)[:, None, None]

    def block(rows, cols):
        return a[:, rows][:, :, cols]

    # M' = A_RR^-T A_SR' solves M A_RR = A_SR
    m = np.linalg.solve(
        block(r, r).transpose(0, 2, 1), block(s, r).transpose(0, 2, 1)
    ).transpose(0, 2, 1)
    sig = model.sigma
    cross = m @ sig[np.ix_(r, s)]
    f = (
        sig[np.ix_(s, s)]
        - cross
        - cross.conj().transpose(0, 2, 1)
        + m @ sig[np.ix_(r, r)] @ m.conj().transpose(0, 2, 1)
    )
    return block(s, s) - m @ block(r, s), f / (2.0 * np.pi)


def riccati_innovation_cov(model, pair):
    """Innovation covariance of a channel subset from a discrete Riccati equation.

    ``pair`` is a ChannelPair (target first, then source) or any sequence
    of distinct channel indices, as for ``subprocess_autocov``.

    The state z(t) = [x(t-1); ..; x(t-p)] follows z(t+1) = F z(t) + G e(t)
    with F the companion matrix and G = [I; 0], and the channels are
    observed as y(t) = C z(t+1) = C F z(t) + C G e(t), C selecting them. With
    Q = G Sigma G', R = C Q C' and S = Q C', the Kalman filter's predicted
    state covariance P solves the DARE and V = (C F) P (C F)' + R, with no
    truncation of the subprocess's infinite-order representation.
    """
    d, p = model.dim, model.order
    channels = list(pair.channels) if isinstance(pair, ChannelPair) else list(pair)
    f = companion_matrix(model)
    g = np.zeros((d * p, d))
    g[:d] = np.eye(d)
    c = np.zeros((len(channels), d * p))
    c[range(len(channels)), channels] = 1.0
    h = c @ f
    q = g @ model.sigma @ g.T
    r = c @ q @ c.T
    state_cov = solve_discrete_are(f.T, h.T, q, r, s=q @ c.T)
    return h @ state_cov @ h.T + r


def block_toeplitz_reference(gammas, n):
    """Block-Toeplitz matrix with block (a, b) = Gamma(b - a), block by block.

    Plain double loop over the blocks, kept as the reference for the
    library's index-array construction.
    """
    d = gammas.shape[1]
    out = np.zeros((n * d, n * d))
    for a in range(n):
        for b in range(n):
            block = gammas[b - a] if b >= a else gammas[a - b].T
            out[a * d : (a + 1) * d, b * d : (b + 1) * d] = block
    return out


def write_csv_reference(fh, header, first, rest):
    """``vardtf.jsonio.write_csv`` one row at a time with Python's ``%``.

    Every cell is ``"%.17g" % x``; kept as the reference for the library's
    vectorized formatter.
    """
    fh.write(",".join(header) + "\n")
    fmt = ",".join(["%.17g"] * (1 + rest.shape[1])) + "\n"
    for row in np.column_stack((first, rest)).tolist():
        fh.write(fmt % tuple(row))


def frequency_csv(fm):
    """``frequency_matrix_to_csv`` of ``fm`` as a string."""
    buf = io.StringIO()
    frequency_matrix_to_csv(fm, buf)
    return buf.getvalue()


def dtf_csv_reference(model, grid, normalized=True):
    """``dtf.csv`` from the whole grid's DTF, cast to complex as one table."""
    return frequency_csv(FrequencyMatrix(grid, dtf(model, grid, normalized).astype(complex)))


def reduction_reference(model, pair, grid):
    """The reduction in one step over the whole grid: G = H_SS^-1 and the density
    of G H_S. from the whole grid's H, with the library's 2x2 kernel."""
    rows = transfer_function(model, grid).values[:, list(pair.channels)]
    g = _inverse(rows[:, :, list(pair.channels)])[0]
    error = density_from_transfer(FrequencyMatrix(grid, _mul(g, rows)), model.sigma)
    return ReducedRepresentation(pair, FrequencyMatrix(grid, g), error)


def residual_deficit_reference(model, pair, rep, grid):
    """The marginal residual's whiteness deficit from one ``lag_polynomial`` and one
    density over the whole grid: the density of Phi H_S. for the whole grid's H."""
    phi = lag_polynomial(rep.phis, grid).values
    rows = transfer_function(model, grid).values[:, list(pair.channels)]
    density = density_from_transfer(FrequencyMatrix(grid, _mul(phi, rows)), model.sigma)
    return whiteness_deficit(density)


def simulate_reference(model, length, seed, burn_in):
    """Samples of ``simulate(model, length, seed, burn_in)``, one step at a time.

    Draws the same Philox innovations times the Cholesky factor of Sigma and
    runs x(t) = e(t) + sum_u A(u) x(t-u) from zero initial conditions in a
    plain loop over t; kept as the reference for the library's blocked
    kernel.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    eps = rng.standard_normal((burn_in + length, model.dim))
    eps = eps @ np.linalg.cholesky(model.sigma).T
    out = np.zeros_like(eps)
    for t in range(len(eps)):
        acc = eps[t].copy()
        for u in range(min(model.order, t)):
            acc += model.coeffs[u] @ out[t - 1 - u]
        out[t] = acc
    return out[burn_in:]


def smoothed_periodogram(samples, half_width):
    """Boxcar-smoothed periodogram matrices at the Fourier frequencies.

    Returns (freqs, values) where ``freqs[k] = 2 pi k / T`` for
    k = 0..T//2 and ``values[k]`` is the (d, d) Hermitian estimate of
    f(freqs[k]). Edges are handled by reflecting with the conjugate
    symmetry f(-lambda) = conj(f(lambda)).
    """
    samples = np.asarray(samples, dtype=float)
    t_len, d = samples.shape
    centered = samples - samples.mean(axis=0)
    spec = np.fft.rfft(centered, axis=0)  # (K, d)
    raw = np.einsum("kj,kl->kjl", spec, spec.conj()) / (2.0 * np.pi * t_len)
    k_count = raw.shape[0]
    m = half_width
    pre = raw[1 : m + 1][::-1].conj()
    post = raw[k_count - m - 1 : k_count - 1][::-1].conj()
    padded = np.concatenate([pre, raw, post], axis=0)
    csum = np.cumsum(padded, axis=0)
    width = 2 * m + 1
    smoothed = np.empty_like(raw)
    smoothed[0] = csum[width - 1] / width
    smoothed[1:] = (csum[width:] - csum[: k_count - 1]) / width
    freqs = 2.0 * np.pi * np.arange(k_count) / t_len
    return freqs, smoothed


def fourier_subgrid(t_len, count=257):
    """Fourier-frequency indices closest to an even grid over (0, pi)."""
    targets = np.linspace(0.0, np.pi, count)[1:-1]
    ks = np.unique(np.round(targets * t_len / (2.0 * np.pi)).astype(int))
    ks = ks[(ks >= 1) & (ks < t_len // 2)]
    return ks


def ols_reference(samples, order):
    """Least-squares VAR(order) fit from the explicit design matrix.

    Builds the (T - order, d * order) lag matrix D, row t holding
    x(t-1), .., x(t-order), and solves through the SVD of D instead of the
    normal equations. Returns ``(coeffs, sigma, stderr, residuals, cond)``
    in the layouts of ``FitResult``; ``cond`` is the condition number of
    D^T D.
    """
    x = np.asarray(samples, dtype=float)
    t_len, d = x.shape
    design = np.hstack([x[order - u : t_len - u] for u in range(1, order + 1)])
    response = x[order:]
    left, s, vt = np.linalg.svd(design, full_matrices=False)
    coef = vt.T @ ((left.T @ response) / s[:, None])
    residuals = response - design @ coef
    sigma = residuals.T @ residuals / (t_len - order - d * order)
    gram_inv_diag = np.sum((vt / s[:, None]) ** 2, axis=0)
    stderr = np.sqrt(np.diag(sigma)[None, :, None] * gram_inv_diag.reshape(order, 1, d))
    coeffs = coef.reshape(order, d, d).transpose(0, 2, 1)
    return coeffs, sigma, stderr, residuals, (s[0] / s[-1]) ** 2


def sample_autocov_reference(samples, maxlag):
    """Gamma_hat(0..maxlag) by a loop over lags of centered products / T."""
    samples = np.asarray(samples, dtype=float)
    t_len, d = samples.shape
    centered = samples - samples.mean(axis=0)
    gammas = np.empty((maxlag + 1, d, d))
    for h in range(maxlag + 1):
        gammas[h] = centered[h:].T @ centered[: t_len - h] / t_len
    return gammas
