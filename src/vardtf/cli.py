"""Command-line front end.

Subcommands: counterexample, analyze, dtf, reduce, marginalize, granger,
moments, simulate, fit. Channel indices are 1-based in all user-facing
input and output. Frequencies are radians per sample by default; passing
``--fs`` (a sampling rate in Hz, optionally with ``--band LO,HI`` in Hz)
converts a Hz band to the internal radian grid.

Model files are JSON objects with exactly these keys: ``dim`` (channel
count) and ``order`` (lag count p), both integers, ``coeffs`` (list of p
row-major d-by-d arrays, lag 1 first), ``sigma`` (row-major d-by-d
innovation covariance).

Exit codes: 0 success, 1 numerical failure (a ``NumericalError``, e.g. a
non-converged marginalization), 2 usage / IO / parse error. Every error
path prints a single ``error[kind]: message`` line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import causality, estimate, marginal, moments, reduction, spectral
from .exceptions import NotConverged, NumericalError, VardtfError
from .jsonio import canonical_json, removed_on_failure, write_csv
from .model import ChannelPair, VarModel, counterexample_model, read_model


def _parse_pair(text: str) -> ChannelPair:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--pair expects 'A,B', got '{text}'")
    a, b = (int(p) for p in parts)
    if a < 1 or b < 1:
        raise ValueError("channel indices are 1-based")
    return ChannelPair(target=a - 1, source=b - 1)


def _load_model(args) -> VarModel:
    path = getattr(args, "model", None)
    if path is not None and (args.alpha is not None or args.beta is not None):
        raise ValueError("give either --model or --alpha/--beta, not both")
    if path is not None:
        return read_model(path)
    if args.alpha is None or args.beta is None:
        raise ValueError("need --model FILE, or both --alpha and --beta")
    return counterexample_model(args.alpha, args.beta)


def _make_grid(args) -> spectral.FrequencyGrid:
    count = args.grid
    if args.fs is None:
        if args.band:
            raise ValueError("--band needs --fs")
        return spectral.default_grid(count)
    fs = args.fs
    if not (np.isfinite(fs) and fs > 0):
        raise ValueError("--fs must be positive and finite")
    if not args.band:  # [0, fs/2] Hz is [0, pi] rad, whatever the rate
        return spectral.default_grid(count)
    parts = args.band.split(",")
    if len(parts) != 2:
        raise ValueError(f"--band expects 'LO,HI' in Hz, got '{args.band}'")
    lo, hi = float(parts[0]), float(parts[1])
    if not 0.0 <= lo < hi <= fs / 2.0:
        raise ValueError("--band must satisfy 0 <= LO < HI <= fs/2")
    return spectral.default_grid(count, 2.0 * np.pi * (lo / fs), 2.0 * np.pi * (hi / fs))


def _resolve(args) -> argparse.Namespace:
    """Replace flag text with what it names: pair, output directory, model, grid."""
    if "pair" in args:
        args.pair = _parse_pair(args.pair)
    if args.out is not None:
        args.out = Path(args.out)
        args.out.mkdir(parents=True, exist_ok=True)
    if "alpha" in args:
        args.model = _load_model(args)
    if "grid" in args:
        args.grid = _make_grid(args)
    return args


def _output(args, name: str):
    """The file ``name`` in ``args.out``, or else stdout. Every file a command writes is
    opened here and removed if the command fails, so a failed command leaves no file."""
    if args.out is None:
        return contextlib.nullcontext(sys.stdout)
    fh = open(args.out / name, "w", encoding="utf-8")
    return args.written.enter_context(removed_on_failure(fh))


def _write_csv(args, name: str, blocks) -> None:
    with _output(args, name) as fh:
        spectral.frequency_table_to_csv(blocks, fh)


def _write_json(args, name: str, doc) -> None:
    with _output(args, name) as fh:
        fh.write(canonical_json(doc))


def _pair_label(verdict) -> str:
    return f"{verdict.target + 1}<-{verdict.source + 1}"


def _pair_doc(record) -> dict:
    """A ChannelPair's or PairVerdict's compared fields, with 1-based channels."""
    doc = {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.compare}
    return {**doc, "target": record.target + 1, "source": record.source + 1}


def _report_doc(report: causality.CausalityReport) -> dict:
    return {"dim": report.dim, "pairs": [_pair_doc(v) for v in report.pairs]}


def _report_table(report: causality.CausalityReport) -> str:
    lines = [
        f"{'pair':8}{'dtf_zero':10}{'biv_gc':8}{'multi_gc':10}"
        f"{'contradiction':15}{'max_dtf':12}{'max_phi':12}"
    ]
    for v in report.pairs:
        flag = "YES" if v.contradiction else "-"
        biv = "?" if v.bivariate_gc is None else ("yes" if v.bivariate_gc else "no")
        phi = "-" if v.max_phi is None else format(v.max_phi, ".3g")
        lines.append(
            f"{_pair_label(v):8}{'yes' if v.dtf_zero else 'no':10}{biv:8}"
            f"{'yes' if v.multivariate_gc else 'no':10}{flag:15}"
            f"{format(v.max_dtf, '.3g'):12}{phi:12}"
        )
    return "\n".join(lines)


def _write_reduction(args, red: reduction.ReducedRepresentation) -> tuple:
    """Write a reduction's spectra and reduction.json; returns (deficit, is_white)."""
    _write_csv(args, "reduced_polynomial.csv", [red.reduced_poly])
    _write_csv(args, "error_spectrum.csv", [red.error_spectrum])
    deficit, white = reduction.whiteness(red.error_spectrum)
    doc = {"pair": _pair_doc(red.pair), "whiteness_deficit": deficit, "is_white": white}
    _write_json(args, "reduction.json", doc)
    return deficit, white


def _marginal_doc(rep, deficit: float, cond: float) -> dict:
    """A pair's representation, with its residual whiteness deficit and Toeplitz condition."""
    return {
        "order_used": rep.order_used,
        "phis": rep.phis.tolist(),
        "innov_cov": rep.innov_cov.tolist(),
        "convergence": dataclasses.asdict(rep.convergence),
        "toeplitz_cond": cond,
        "whiteness_deficit": deficit,
        "pair": _pair_doc(rep.pair),
    }


def _failure_doc(exc: VardtfError) -> dict:
    """A pair's failed marginalization as JSON: the message, plus each order tried."""
    doc = {"error": str(exc)}
    if isinstance(exc, NotConverged):
        doc["diagnostics"] = [{"order": q, **d} for q, d in exc.diagnostics.items()]
    return doc


def cmd_counterexample(args) -> int:
    """Full demonstration run on the built-in trivariate model."""
    model, grid = args.model, args.grid
    pair = ChannelPair(target=0, source=1)
    report = causality.full_report(model, grid, q_max=args.qmax, tol=args.tol)
    _write_csv(args, "transfer_function.csv", report.transfer)
    deficit, _ = _write_reduction(args, reduction.reduce_pair(model, pair, report.transfer))
    verdict = next(v for v in report.pairs if (v.target, v.source) == pair.channels)
    if verdict.failure is not None:
        raise verdict.failure
    rep = verdict.marginal
    rep_deficit = marginal.innovation_whiteness_check(model, pair, rep, report.transfer)
    _write_json(args, "marginal.json", _marginal_doc(rep, rep_deficit, rep.toeplitz_cond))
    _write_json(args, "report.json", _report_doc(report))

    print(f"alpha={args.alpha:g} beta={args.beta:g}")
    print(_report_table(report))
    print(f"reduction whiteness deficit: {deficit:.6g}")
    print(f"marginal residual whiteness deficit: {rep_deficit:.6g}")
    print(f"contradictions: {len(report.contradictions)}")
    return 0


def cmd_analyze(args) -> int:
    """Causality report plus per-pair marginalizations and spectra."""
    model, grid = args.model, args.grid
    report = causality.full_report(model, grid, q_max=args.qmax, tol=args.tol)
    _write_json(args, "report.json", _report_doc(report))
    h_blocks = report.transfer
    density = (spectral.density_from_transfer(h, model.sigma) for h in h_blocks)
    _write_csv(args, "spectral_density.csv", density)
    dtf = (spectral.dtf_from_transfer(h, normalized=not args.raw) for h in h_blocks)
    _write_csv(args, "dtf.csv", map(spectral.FrequencyMatrix, (h.grid for h in h_blocks), dtf))

    # (b, a)'s residual deficit and condition number are (a, b)'s: once per unordered pair
    marginals, taken = {}, {}
    for v in report.pairs:
        rep = v.marginal
        if rep is None:
            marginals[_pair_label(v)] = _failure_doc(v.failure)
            continue
        key = frozenset(rep.pair.channels)
        if key not in taken:
            deficit = marginal.innovation_whiteness_check(model, rep.pair, rep, report.transfer)
            taken[key] = deficit, rep.toeplitz_cond
        marginals[_pair_label(v)] = _marginal_doc(rep, *taken[key])
    _write_json(args, "marginals.json", marginals)

    print(_report_table(report))
    return 0


def cmd_dtf(args) -> int:
    grids = list(spectral.grid_blocks(args.grid))
    dtf = (spectral.dtf(args.model, b, normalized=not args.raw) for b in grids)
    _write_csv(args, "dtf.csv", map(spectral.FrequencyMatrix, grids, dtf))
    return 0


def cmd_reduce(args) -> int:
    transfer = spectral.transfer_blocks(args.model, args.grid)
    deficit, white = _write_reduction(args, reduction.reduce_pair(args.model, args.pair, transfer))
    print(f"whiteness_deficit={deficit:.6g} is_white={white}")
    return 0


def cmd_marginalize(args) -> int:
    rep = marginal.marginal_representation(args.model, args.pair, q_max=args.qmax, tol=args.tol)
    transfer = spectral.transfer_blocks(args.model, args.grid)
    deficit = marginal.innovation_whiteness_check(args.model, args.pair, rep, transfer)
    if args.out is not None:
        _write_json(args, "marginal.json", _marginal_doc(rep, deficit, rep.toeplitz_cond))
    print(f"pair {args.pair.target + 1}<-{args.pair.source + 1}")
    print(f"order_used: {rep.order_used}  converged: {rep.convergence.converged}")
    print(f"innov_cov:\n{rep.innov_cov}")
    if rep.order_used > 0:
        print(f"phi(1):\n{rep.phis[0]}")
    print(f"residual whiteness deficit: {deficit:.6g}")
    return 0


def cmd_granger(args) -> int:
    report = causality.full_report(args.model, args.grid, q_max=args.qmax, tol=args.tol)
    if args.out is not None:
        _write_json(args, "report.json", _report_doc(report))
    if args.json:
        print(canonical_json(_report_doc(report)), end="")
    else:
        print(_report_table(report))
    return 0


def cmd_moments(args) -> int:
    seq = moments.autocov(args.model, maxlag=args.maxlag)
    d = seq.dim
    header = ["lag"] + [f"g_{j}_{k}" for j in range(1, d + 1) for k in range(1, d + 1)]
    with _output(args, "moments.csv") as fh:
        write_csv(fh, header, np.arange(seq.maxlag + 1), seq.gammas.reshape(-1, d * d))
    return 0


def cmd_simulate(args) -> int:
    traj = estimate.simulate(args.model, args.length, args.seed, burn_in=args.burn_in)
    with _output(args, "trajectory.csv") as fh:
        estimate.write_trajectory(traj, fh)
    print(f"wrote {traj.length} samples of {traj.dim} channels (seed {traj.seed})")
    return 0


def cmd_fit(args) -> int:
    with open(args.data, "r", encoding="utf-8") as fh:
        traj = estimate.read_trajectory(fh)
    fit = estimate.fit_var(traj, args.order)
    white = estimate.residual_whiteness(fit, maxlag=args.maxlag)
    if args.out is not None:
        _write_json(args, "fitted_model.json", fit.model.to_dict())
        _write_json(args, "fit_diagnostics.json", {
            "stderr": fit.stderr.tolist(),
            "nobs": fit.nobs,
            "portmanteau": {"statistic": white.statistic, "df": white.df, "p_value": white.p_value},
            "lag_norms": white.lag_norms.tolist(),
        })
    print(f"fitted VAR({args.order}) on {fit.nobs} observations")
    print(f"portmanteau p-value (L={args.maxlag}): {white.p_value:.4g}")
    return 0


# Argument groups, as (flag, add_argument keywords) pairs.
_MODEL = (
    ("--model", {"default": None, "help": "model JSON file"}),
    ("--alpha", {"type": float, "default": None, "help": "builtin counterexample alpha"}),
    ("--beta", {"type": float, "default": None, "help": "builtin counterexample beta"}),
)
_BUILTIN = (
    ("--alpha", {"type": float, "required": True, "help": "counterexample alpha"}),
    ("--beta", {"type": float, "required": True, "help": "counterexample beta"}),
)
_GRID = (
    ("--grid", {"type": int, "default": spectral.DEFAULT_GRID_COUNT,
                "help": "number of frequency points (default 257)"}),
    ("--fs", {"type": float, "default": None,
              "help": "sampling rate in Hz; switches --band to Hz input"}),
    ("--band", {"default": None, "help": "frequency band 'LO,HI' in Hz (needs --fs)"}),
)
_MARGINAL = (
    ("--qmax", {"type": int, "default": marginal.DEFAULT_Q_MAX,
                "help": "marginalization order cap (default 128)"}),
    ("--tol", {"type": float, "default": marginal.DEFAULT_TOL,
               "help": "marginalization tail tolerance (default 1e-8)"}),
)
_PAIR = ("--pair", {"required": True, "help": "channel pair 'A,B', 1-based"})
_RAW = ("--raw", {"action": "store_true", "help": "non-normalized DTF"})
_OUT = ("--out", {"required": True, "help": "output directory"})
_OUT_OPTIONAL = ("--out", {"default": None, "help": "output directory"})

#: Every subcommand: name, handler, help line and the arguments it takes.
COMMANDS = (
    ("counterexample", cmd_counterexample,
     "demonstrate the DTF/causality disagreement on the builtin model",
     (*_BUILTIN, *_GRID, *_MARGINAL, _OUT)),
    ("analyze", cmd_analyze, "full report, spectra and marginalizations",
     (*_MODEL, *_GRID, *_MARGINAL, _OUT, _RAW)),
    ("dtf", cmd_dtf, "directed transfer function on the grid",
     (*_MODEL, *_GRID, _OUT_OPTIONAL, _RAW)),
    ("reduce", cmd_reduce, "partitioned reduction of a channel pair",
     (*_MODEL, *_GRID, _PAIR, _OUT)),
    ("marginalize", cmd_marginalize, "exact AR representation of a pair",
     (*_MODEL, *_GRID, *_MARGINAL, _PAIR, _OUT_OPTIONAL)),
    ("granger", cmd_granger, "three-way causality verdicts per pair",
     (*_MODEL, *_GRID, *_MARGINAL, _OUT_OPTIONAL,
      ("--json", {"action": "store_true", "help": "print JSON instead of table"}))),
    ("moments", cmd_moments, "autocovariance sequence as CSV",
     (*_MODEL, ("--maxlag", {"type": int, "default": None}), _OUT_OPTIONAL)),
    ("simulate", cmd_simulate, "simulate a trajectory to CSV",
     (*_MODEL, ("--length", {"type": int, "required": True}),
      ("--seed", {"type": int, "default": 0}),
      ("--burn-in", {"type": int, "default": 1000}), _OUT)),
    ("fit", cmd_fit, "least-squares VAR fit of a trajectory CSV",
     (("--data", {"required": True, "help": "trajectory CSV file"}),
      ("--order", {"type": int, "required": True}),
      ("--maxlag", {"type": int, "default": 12, "help": "whiteness lags"}),
      _OUT_OPTIONAL)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vardtf",
        description="Directed transfer function vs Granger causality for VAR models",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag, spec in arguments:
            sub.add_argument(flag, **spec)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with contextlib.ExitStack() as args.written:  # the files written, removed on failure
            return args.func(_resolve(args))
    except NumericalError as exc:
        # One line: the message, then a NotConverged's tail diagnostics at each order tried.
        tried = exc.diagnostics if isinstance(exc, NotConverged) else {}
        history = [
            f"order {q}: tail_norm {d['tail_norm']:.3g}, v_delta {d['v_delta']:.3g}"
            for q, d in tried.items()
        ]
        print(f"error[numerical]: {'; '.join([str(exc), *history])}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except (VardtfError, ValueError, MemoryError) as exc:  # MemoryError: a size too large
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
