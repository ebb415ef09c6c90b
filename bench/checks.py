"""Correctness checks of CLI outputs, made apart from the program.

Every expected value here is computed by code that shares nothing with
``vardtf``: transfer functions come from a pointwise linear solve instead of
the program's inversion, autocovariances from
``scipy.linalg.solve_discrete_lyapunov``, marginal predictors from a dense
block Yule-Walker solve instead of the order recursion. The remaining checks
are properties the method must have (closed forms of the counterexample,
swapped-pair symmetry, white marginal residuals, isolated channel blocks).
None compares against a stored copy of earlier output.

Each check returns a list of problem strings; an empty list means the output
passed. A check may raise on output it cannot read; ``check_pass`` records
that as a problem too.
"""

from __future__ import annotations

import json
from itertools import islice, zip_longest
from pathlib import Path

import numpy as np
import scipy.linalg

#: Rows parsed at a time from a frequency CSV, so the checker's own memory
#: stays far below the program's.
CSV_CHUNK_ROWS = 2048

#: Largest accepted error of a value that is exact up to rounding.
EXACT_TOL = 1e-8
#: Largest accepted error of a bivariate coefficient read at the converged
#: order, against the dense solve at the order cap.
TRUNCATION_TOL = 1e-6
#: Marginal residual whiteness deficit must stay below this.
WHITENESS_TOL = 1e-6
#: Normalized DTF below this counts as zero (structural zeros are ~1e-30).
DTF_ZERO = 1e-10
#: Fraction of true coefficients that must lie within 3 standard errors.
COVERAGE = 0.95
#: Sample autocovariances may differ from the exact ones by this many units
#: of max|Gamma(0)| / sqrt(T).
ACOV_SCALED_TOL = 12.0
ACOV_LAGS = 5
#: The CLI's marginalization order cap, at which the dense solve is made.
Q_MAX = 128


# ---------------------------------------------------------------- oracles


def lag_polynomial(model, lams: np.ndarray) -> np.ndarray:
    """A(lambda) = I - sum_u A(u) exp(-i u lambda), one lag at a time."""
    a = np.zeros((lams.size, model.dim, model.dim), dtype=complex)
    a[:] = np.eye(model.dim)
    for u, coeff in enumerate(model.coeffs, start=1):
        a -= np.exp(-1j * u * lams)[:, None, None] * coeff
    return a


def transfer(model, lams: np.ndarray) -> np.ndarray:
    """H(lambda) by solving A(lambda) H = I at every point."""
    a = lag_polynomial(model, lams)
    eye = np.broadcast_to(np.eye(model.dim, dtype=complex), a.shape)
    return np.linalg.solve(a, eye)


def normalized_dtf(h: np.ndarray) -> np.ndarray:
    power = np.abs(h) ** 2
    return power / power.sum(axis=2, keepdims=True)


def spectral_density(model, h: np.ndarray) -> np.ndarray:
    return h @ model.sigma @ h.conj().transpose(0, 2, 1) / (2.0 * np.pi)


def exact_autocov(model, maxlag: int) -> np.ndarray:
    """Gamma(0..maxlag) from the companion Lyapunov equation (scipy's solver)."""
    d, p = model.dim, model.order
    comp = np.zeros((d * p, d * p))
    comp[:d] = np.hstack(model.coeffs)
    comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    rhs = np.zeros_like(comp)
    rhs[:d, :d] = model.sigma
    state = scipy.linalg.solve_discrete_lyapunov(comp, rhs)
    gammas = np.zeros((maxlag + 1, d, d))
    for h in range(min(p, maxlag + 1)):
        gammas[h] = state[:d, h * d : (h + 1) * d]
    for h in range(p, maxlag + 1):
        gammas[h] = sum(model.coeffs[u - 1] @ gammas[h - u] for u in range(1, p + 1))
    return gammas


def yule_walker(gammas: np.ndarray, q: int) -> tuple:
    """Order-q predictor (Phi(1..q), V) from one dense block Yule-Walker solve.

    Solves Gamma(v) = sum_u Phi(u) Gamma(v - u), v = 1..q, as a single
    (qd)-by-(qd) system; V = Gamma(0) - sum_u Phi(u) Gamma(u)'.
    """
    d = gammas.shape[1]
    if q == 0:
        return np.zeros((0, d, d)), gammas[0].copy()
    lagged = np.concatenate([gammas[q:0:-1].transpose(0, 2, 1), gammas[: q + 1]])
    lag = np.arange(q)[None, :] - np.arange(q)[:, None]
    toeplitz = lagged[lag + q].transpose(0, 2, 1, 3).reshape(q * d, q * d)
    rhs = gammas[1 : q + 1].transpose(1, 0, 2).reshape(d, q * d)
    phi = np.linalg.solve(toeplitz.T, rhs.T).T
    phis = phi.reshape(d, q, d).transpose(1, 0, 2)
    v = gammas[0] - np.einsum("ujk,ulk->jl", phis, gammas[1 : q + 1])
    return phis, v


def pair_autocov(gammas: np.ndarray, target: int, source: int) -> np.ndarray:
    """Autocovariances of the (target, source) subprocess, 1-based channels."""
    idx = [target - 1, source - 1]
    return gammas[:, idx][:, :, idx]


# ---------------------------------------------------------------- readers


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def frequency_chunks(path: Path):
    """Yield (lambdas, complex values) of a frequency CSV, chunk by chunk."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        _, rows, cols = header[-1].split("_")
        rows, cols = int(rows), int(cols)
        if len(header) != 1 + 2 * rows * cols:
            raise ValueError(f"header has {len(header)} cells")
        while True:
            lines = list(islice(fh, CSV_CHUNK_ROWS))
            if not lines:
                return
            data = np.loadtxt(lines, delimiter=",", ndmin=2)
            if data.shape[1] != len(header):
                raise ValueError(f"row of {data.shape[1]} cells")
            values = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, rows, cols)
            yield data[:, 0], values


class _MaxError:
    """Running maximum of a named error, compared to a tolerance at the end."""

    def __init__(self, what: str, tol: float):
        self.what, self.tol, self.value = what, tol, 0.0

    def add(self, err) -> None:
        self.value = max(self.value, float(np.max(err, initial=0.0)))

    def problems(self) -> list:
        if not self.value <= self.tol:
            return [f"{self.what}: error {self.value:.3g} above {self.tol:.3g}"]
        return []


def _check_frequency_csv(path: Path, grid: int, checks) -> list:
    """Read a frequency CSV once, feeding each chunk to every ``checks`` entry.

    ``checks`` maps a _MaxError to a function (lams, values) -> error array.
    """
    expected = np.linspace(0.0, np.pi, grid)
    seen = 0
    for lams, values in frequency_chunks(path):
        stop = seen + lams.size
        if stop > grid or np.max(np.abs(lams - expected[seen:stop])) > 1e-15:
            return [f"{path.name}: frequency column is not the {grid}-point grid"]
        for err, fn in checks.items():
            err.add(fn(lams, values))
        seen = stop
    if seen != grid:
        return [f"{path.name}: {seen} rows, expected {grid}"]
    return [p for err in checks for p in err.problems()]


def _rel(err: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return np.abs(err) / np.maximum(1.0, np.abs(scale))


# ---------------------------------------------------------------- spectra


def check_transfer_csv(path: Path, model, grid: int) -> list:
    err = _MaxError(f"{path.name} vs solved H", EXACT_TOL)
    return _check_frequency_csv(
        path, grid, {err: lambda lams, vals: _rel(vals - transfer(model, lams), vals)}
    )


def check_dtf_csv(path: Path, model, grid: int) -> list:
    """Normalized DTF equals |H|^2 / row sum of the solved H; rows sum to 1."""
    match = _MaxError(f"{path.name} vs DTF of solved H", EXACT_TOL)
    imag = _MaxError(f"{path.name} imaginary part", 0.0)
    rows = _MaxError(f"{path.name} row sums", 1e-12)
    return _check_frequency_csv(path, grid, {
        match: lambda lams, vals: np.abs(vals.real - normalized_dtf(transfer(model, lams))),
        imag: lambda lams, vals: np.abs(vals.imag),
        rows: lambda lams, vals: np.abs(vals.real.sum(axis=2) - 1.0),
    })


def check_density_csv(path: Path, model, grid: int) -> list:
    err = _MaxError(f"{path.name} vs H Sigma H* / 2pi", EXACT_TOL)

    def fn(lams, vals):
        return _rel(vals - spectral_density(model, transfer(model, lams)), vals)

    return _check_frequency_csv(path, grid, {err: fn})


def check_reduction_dir(out: Path, model, pair: tuple, grid: int) -> list:
    """Schur identity G H_SS = I, error spectrum G f_SS G*, and its deficit."""
    idx = [pair[0] - 1, pair[1] - 1]
    schur = _MaxError("reduced_polynomial.csv: G H_SS - I", EXACT_TOL)
    error = _MaxError("error_spectrum.csv vs G f_SS G*", EXACT_TOL)
    expected = np.linspace(0.0, np.pi, grid)
    scaled = []
    seen = 0
    chunks = zip_longest(
        frequency_chunks(out / "reduced_polynomial.csv"),
        frequency_chunks(out / "error_spectrum.csv"),
    )
    for poly_chunk, error_chunk in chunks:
        if poly_chunk is None or error_chunk is None:
            return ["reduction CSVs: row counts differ"]
        (lams, g), (lams_e, f_e) = poly_chunk, error_chunk
        stop = seen + lams.size
        if (stop > grid or not np.array_equal(lams, lams_e)
                or np.max(np.abs(lams - expected[seen:stop])) > 1e-15):
            return ["reduction CSVs: frequency column is not the grid"]
        h = transfer(model, lams)
        h_ss = h[:, idx][:, :, idx]
        f_ss = spectral_density(model, h)[:, idx][:, :, idx]
        schur.add(np.abs(g @ h_ss - np.eye(2)))
        error.add(_rel(f_e - g @ f_ss @ g.conj().transpose(0, 2, 1), f_e))
        scaled.append(2.0 * np.pi * f_e)
        seen = stop
    if seen != grid:
        return [f"reduction CSVs: {seen} rows, expected {grid}"]
    problems = schur.problems() + error.problems()
    scaled = np.concatenate(scaled)
    deficit = float(np.max(np.linalg.norm(scaled - scaled.mean(axis=0), axis=(1, 2))))
    doc = _json(out / "reduction.json")
    if doc["pair"] != {"target": pair[0], "source": pair[1]}:
        problems.append(f"reduction.json: pair {doc['pair']} is not {pair}")
    if not abs(doc["whiteness_deficit"] - deficit) <= EXACT_TOL * max(1.0, deficit):
        problems.append(
            f"reduction.json: deficit {doc['whiteness_deficit']} but error_spectrum.csv gives {deficit:.17g}"
        )
    return problems


# ---------------------------------------------------------------- verdicts


def _block_of(model, ch: int) -> int:
    for b, (lo, hi) in enumerate(model.blocks):
        if lo <= ch < hi:
            return b
    raise ValueError(f"channel {ch} in no block")


def check_report(doc, model, grid: int = 257) -> list:
    """Per-pair verdicts against the model, the solved H and dense Yule-Walker.

    Checks every ordered pair is present once and without error;
    ``multivariate_gc`` equals "some lag coefficient nonzero"; ``max_dtf``
    and ``dtf_zero`` match the solved H; ``max_phi`` and ``bivariate_gc``
    match the dense solve at the order cap; the contradiction flag follows
    its definition; cross-block pairs of an isolated-block model are DTF-zero
    with neither kind of Granger causality.
    """
    problems: list = []
    d = model.dim
    pairs = doc["pairs"]
    order = [(p.get("target"), p.get("source")) for p in pairs]
    want = [(t, s) for t in range(1, d + 1) for s in range(1, d + 1) if t != s]
    if doc.get("dim") != d or order != want:
        return [f"report: pairs {order} are not every ordered pair of {d} channels"]
    lams = np.linspace(0.0, np.pi, grid)
    dtf_max = normalized_dtf(transfer(model, lams)).max(axis=0)
    coeffs = np.abs(np.stack(model.coeffs))
    gammas = exact_autocov(model, Q_MAX)
    for p in pairs:
        t, s = p["target"], p["source"]
        label = f"{t}<-{s}"
        if p.get("error") is not None:
            problems.append(f"{label}: error {p['error']!r}")
            continue
        mv = bool(np.any(coeffs[:, t - 1, s - 1] != 0.0))
        if p["multivariate_gc"] != mv or p["max_coeff"] != float(coeffs[:, t - 1, s - 1].max()):
            problems.append(f"{label}: multivariate_gc {p['multivariate_gc']} but coefficients say {mv}")
        want_dtf = float(dtf_max[t - 1, s - 1])
        if abs(p["max_dtf"] - want_dtf) > EXACT_TOL or p["dtf_zero"] != (want_dtf < DTF_ZERO):
            problems.append(f"{label}: max_dtf {p['max_dtf']} but solved H gives {want_dtf:.17g}")
        phis, v = yule_walker(pair_autocov(gammas, t, s), Q_MAX)
        want_phi = float(np.max(np.abs(phis[:, 0, 1])))
        threshold = 1e-6 * np.sqrt(np.linalg.norm(v, "fro"))
        if p["max_phi"] is None or abs(p["max_phi"] - want_phi) > TRUNCATION_TOL:
            problems.append(f"{label}: max_phi {p['max_phi']} but dense solve gives {want_phi:.17g}")
        elif p["bivariate_gc"] != (want_phi > threshold):
            problems.append(f"{label}: bivariate_gc {p['bivariate_gc']} disagrees with dense solve")
        contradiction = (p["dtf_zero"] and p["bivariate_gc"] is True) or (
            not p["dtf_zero"] and not p["multivariate_gc"]
        )
        if p["contradiction"] != contradiction:
            problems.append(f"{label}: contradiction flag {p['contradiction']} breaks its definition")
        if _block_of(model, t - 1) != _block_of(model, s - 1) and (
            not p["dtf_zero"] or p["bivariate_gc"] is not False or p["multivariate_gc"]
        ):
            problems.append(f"{label}: isolated blocks but pair shows influence")
    return problems


def check_marginal(doc, gammas: np.ndarray, target: int, source: int) -> list:
    """A marginal.json entry against the dense Yule-Walker solve at its order."""
    label = f"{target}<-{source}"
    q = int(doc["order_used"])
    phis = np.asarray(doc["phis"], dtype=float).reshape(q, 2, 2)
    v = np.asarray(doc["innov_cov"], dtype=float).reshape(2, 2)
    deficit = float(doc["whiteness_deficit"])
    problems = []
    if doc.get("pair", {"target": target, "source": source}) != {"target": target, "source": source}:
        problems.append(f"marginal {label}: labelled as pair {doc.get('pair')}")
    want_phis, want_v = yule_walker(pair_autocov(gammas, target, source), q)
    err_v = float(np.max(_rel(v - want_v, want_v)))
    err_phi = float(np.max(np.abs(phis - want_phis), initial=0.0))
    if not err_v <= EXACT_TOL or not err_phi <= EXACT_TOL:
        problems.append(
            f"marginal {label}: differs from dense Yule-Walker (V {err_v:.3g}, phi {err_phi:.3g})"
        )
    if not deficit < WHITENESS_TOL:
        problems.append(f"marginal {label}: residual whiteness deficit {deficit:.3g}")
    return problems


# ---------------------------------------------------------------- commands


def check_counterexample(out: Path, model, alpha: float, beta: float, grid: int) -> list:
    """Closed forms of the trivariate counterexample plus its generic checks."""
    report = _json(out / "report.json")
    problems = check_report(report, model, grid)
    contra = [(p["target"], p["source"], p["multivariate_gc"]) for p in report["pairs"] if p["contradiction"]]
    if contra != [(1, 2, False)]:
        problems.append(f"report.json: contradictions {contra}, expected only 1<-2 without multivariate GC")
    marg = _json(out / "marginal.json")
    problems += check_marginal(marg, exact_autocov(model, Q_MAX), 1, 2)
    phi = marg["phis"][0][0][1]
    want_phi = alpha * beta / (1.0 + beta**2)
    want_v = np.diag([1.0 + alpha**2 / (1.0 + beta**2), 1.0 + beta**2])
    if not abs(phi - want_phi) <= EXACT_TOL:
        problems.append(f"marginal.json: phi(1)[1,2] = {phi}, closed form {want_phi:.17g}")
    if not np.max(np.abs(np.asarray(marg["innov_cov"], dtype=float) - want_v)) <= EXACT_TOL:
        problems.append(f"marginal.json: innov_cov {marg['innov_cov']}, closed form {want_v.tolist()}")
    red = _json(out / "reduction.json")
    phase = np.exp(-1j * np.linspace(0.0, np.pi, grid))
    want = float(np.max(np.sqrt(2.0) * abs(alpha * beta) * np.abs(phase - phase.mean())))
    if not abs(red["whiteness_deficit"] - want) <= EXACT_TOL * max(1.0, want):
        problems.append(f"reduction.json: deficit {red['whiteness_deficit']}, closed form {want:.17g}")
    if red["is_white"] is not False:
        problems.append("reduction.json: reduction error reported white")
    problems += check_transfer_csv(out / "transfer_function.csv", model, grid)
    problems += check_reduction_dir(out, model, (1, 2), grid)
    return problems


def check_analyze(out: Path, model, grid: int) -> list:
    problems = check_report(_json(out / "report.json"), model, grid)
    problems += check_dtf_csv(out / "dtf.csv", model, grid)
    problems += check_density_csv(out / "spectral_density.csv", model, grid)
    marginals = _json(out / "marginals.json")
    d = model.dim
    want = {f"{t}<-{s}" for t in range(1, d + 1) for s in range(1, d + 1) if t != s}
    if set(marginals) != want:
        return problems + [f"marginals.json: pairs {sorted(marginals)} are not every ordered pair"]
    gammas = exact_autocov(model, Q_MAX)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for label, doc in marginals.items():
        t, s = (int(c) for c in label.split("<-"))
        marginal_problems = check_marginal(doc, gammas, t, s)
        problems += marginal_problems
        if t > s or marginal_problems:
            continue
        v = np.asarray(doc["innov_cov"], dtype=float)
        v_swapped = np.asarray(marginals[f"{s}<-{t}"]["innov_cov"], dtype=float).reshape(2, 2)
        if not np.max(_rel(swap @ v @ swap - v_swapped, v)) <= EXACT_TOL:
            problems.append(f"marginals.json: V of {label} and {s}<-{t} are not swapped copies")
    return problems


def check_trajectory(path: Path, model, seed: int, length: int, burn_in: int) -> list:
    """The CSV holds the model's recursion driven by the seeded innovations.

    With innovations e(t) = Philox(seed) normals times the Cholesky factor
    of Sigma, every row from the order-th on must satisfy
    x(t) - sum_u A(u) x(t-u) = e(burn_in + t); the sample autocovariances
    must be near the exact ones.
    """
    d, p = model.dim, model.order
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    want_header = ",".join(["t"] + [f"ch{j}" for j in range(1, d + 1)])
    if header != want_header or data.shape != (length, d + 1):
        return [f"{path.name}: header {header!r}, shape {data.shape}, expected {want_header!r}, {(length, d + 1)}"]
    problems = []
    if not np.array_equal(data[:, 0], np.arange(length)):
        problems.append(f"{path.name}: time column is not 0..{length - 1}")
    x = data[:, 1:]
    rng = np.random.Generator(np.random.Philox(seed))
    eps = rng.standard_normal((burn_in + length, d)) @ np.linalg.cholesky(model.sigma).T
    resid = x[p:].copy()
    for u, coeff in enumerate(model.coeffs, start=1):
        resid -= x[p - u : length - u] @ coeff.T
    err = float(np.max(np.abs(resid - eps[burn_in + p :])))
    if not err <= EXACT_TOL * max(1.0, float(np.max(np.abs(x)))):
        problems.append(f"{path.name}: recursion residual differs from seeded innovations by {err:.3g}")
    exact = exact_autocov(model, ACOV_LAGS)
    centered = x - x.mean(axis=0)
    sample = np.stack(
        [centered[h:].T @ centered[: length - h] / length for h in range(ACOV_LAGS + 1)]
    )
    tol = ACOV_SCALED_TOL * float(np.max(np.abs(exact[0]))) / np.sqrt(length)
    acov_err = float(np.max(np.abs(sample - exact)))
    if not acov_err <= tol:
        problems.append(f"{path.name}: sample autocovariance off by {acov_err:.3g} (tolerance {tol:.3g})")
    return problems


def fit_coverage(out: Path, model, order: int, length: int) -> tuple:
    """Problems, and (inside, total) counts of true coefficients within 3 SE.

    At lags beyond the model's order the true coefficient is zero.
    """
    fitted = _json(out / "fitted_model.json")
    diag = _json(out / "fit_diagnostics.json")
    d = model.dim
    est = np.asarray(fitted["coeffs"], dtype=float).reshape(order, d, d)
    se = np.asarray(diag["stderr"], dtype=float).reshape(order, d, d)
    problems = []
    if fitted["order"] != order or diag["nobs"] != length - order:
        problems.append(f"fit order {order}: reports order {fitted['order']}, nobs {diag['nobs']}")
    truth = np.zeros((order, d, d))
    k = min(order, model.order)
    truth[:k] = np.stack(model.coeffs)[:k]
    inside = int(np.sum(np.abs(est - truth) <= 3.0 * se))
    return problems, inside, truth.size


def _check_op(op, stdouts: dict) -> list:
    prm = op.params
    if op.kind == "counterexample":
        return check_counterexample(op.out, prm["model"], prm["alpha"], prm["beta"], prm["grid"])
    if op.kind == "analyze":
        return check_analyze(op.out, prm["model"], prm["grid"])
    if op.kind == "granger":
        return check_report(json.loads(stdouts[op.label]), prm["model"], prm["grid"])
    if op.kind == "dtf":
        return check_dtf_csv(op.out / "dtf.csv", prm["model"], prm["grid"])
    if op.kind == "reduce":
        return check_reduction_dir(op.out, prm["model"], prm["pair"], prm["grid"])
    if op.kind == "simulate":
        return check_trajectory(
            op.out / "trajectory.csv", prm["model"], prm["seed"], prm["length"], prm["burn_in"]
        )
    raise RuntimeError(f"no check for {op.kind!r}")


def check_pass(ops, stdouts: dict) -> dict:
    """Check every op of a pass; returns {label: problems}.

    Output that is missing or too malformed for a check to read is a
    problem of that op. Fit
    coverage is pooled over all fits of the pass, since a single low-order
    fit has too few coefficients for a 95% share to be stable; when the
    pooled share fails, every fit of the pass fails.
    """
    results: dict = {}
    inside = total = 0
    for op in ops:
        try:
            if op.kind == "fit":
                prm = op.params
                problems, n_in, n = fit_coverage(op.out, prm["model"], prm["order"], prm["length"])
                inside += n_in
                total += n
            else:
                problems = _check_op(op, stdouts)
        except (OSError, IndexError, KeyError, TypeError, ValueError) as exc:
            problems = [f"output missing or malformed ({exc!r})"]
        results[op.label] = problems
    if total and inside < COVERAGE * total:
        for op in ops:
            if op.kind == "fit":
                results[op.label].append(
                    f"only {inside} of {total} true coefficients within 3 standard errors"
                )
    return results
