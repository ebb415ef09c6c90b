"""Seeded inputs and the command list of one pass for each workload.

Every input is drawn from the workload seed alone, so a seed fixes the
models, the counterexample parameters, the reduced pairs and the simulation
seeds. The program only ever sees the files written here and the CLI
arguments built here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seed used when none is given. Seed 7 is kept for confirming claims.
DEFAULT_SEED = 1

ORDER = 4
#: Companion spectral radius of every random model. At 0.9 some pairs of the
#: d=8 model need more than the CLI's order cap of 128 and fail to converge;
#: 0.7 converges for every pair on every seed tried.
RADIUS = 0.7
#: Channel blocks of the d=8 model: causally isolated, innovations
#: uncorrelated across blocks.
D8_BLOCKS = ((0, 4), (4, 8))
FINE_GRID = 16385
SIM_LENGTH = 200_000
SIM_BURN_IN = 1000
FIT_HIGH_ORDER = 32
FIT_MAXLAG = 40
REDUCED_PAIRS = 3
SMALL_SIM_LENGTH = 2000
#: Order of the small fit: 144 coefficients, enough for a stable 95% share.
SMALL_FIT_ORDER = 16

COMMANDS = ("counterexample", "analyze", "granger", "dtf", "reduce", "simulate", "fit")

WORKLOADS = ("pairwise-analysis", "fine-grid-spectra", "simulate-fit")


@dataclass(frozen=True)
class Model:
    """A VAR model as plain arrays, plus the blocks it was built from."""

    coeffs: tuple
    sigma: np.ndarray
    blocks: tuple

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dim": self.dim,
                "order": self.order,
                "coeffs": [a.tolist() for a in self.coeffs],
                "sigma": self.sigma.tolist(),
            }
        )


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against.

    ``metric`` names the per-command time the invocation adds to; ``kind``
    selects the check; ``params`` carries what the check needs.
    """

    label: str
    metric: str
    kind: str
    argv: tuple
    out: Path | None
    params: dict


def counterexample(alpha: float, beta: float) -> Model:
    a1 = np.zeros((3, 3))
    a1[1, 2] = beta
    a2 = np.zeros((3, 3))
    a2[0, 2] = alpha
    return Model(coeffs=(a1, a2), sigma=np.eye(3), blocks=((0, 3),))


def random_model(rng: np.random.Generator, dim: int, blocks=None) -> Model:
    """Random VAR(ORDER) with companion spectral radius exactly RADIUS.

    Rescaling lag u by s**u multiplies every companion eigenvalue by s.
    Coefficients and innovation covariance are zero across blocks.
    """
    blocks = tuple(blocks or ((0, dim),))
    mask = np.zeros((dim, dim))
    for lo, hi in blocks:
        mask[lo:hi, lo:hi] = 1.0
    coeffs = [rng.normal(scale=0.4, size=(dim, dim)) * mask for _ in range(ORDER)]
    comp = np.zeros((dim * ORDER, dim * ORDER))
    comp[:dim] = np.hstack(coeffs)
    comp[dim:, : dim * (ORDER - 1)] = np.eye(dim * (ORDER - 1))
    scale = RADIUS / np.max(np.abs(np.linalg.eigvals(comp)))
    coeffs = tuple(a * scale ** (u + 1) for u, a in enumerate(coeffs))
    w = rng.normal(size=(dim, 2 * dim)) / np.sqrt(2 * dim)
    sigma = (w @ w.T) * mask + 0.1 * np.eye(dim)
    return Model(coeffs=coeffs, sigma=sigma, blocks=blocks)


def make_inputs(seed: int) -> dict:
    """All seeded inputs; each comes from its own stream of the seed."""

    def stream(tag: int) -> np.random.Generator:
        return np.random.default_rng([seed, tag])

    alpha, beta = stream(0).uniform(0.5, 1.5, size=2)
    pair_rng = stream(4)
    pairs = []
    while len(pairs) < REDUCED_PAIRS:
        pair = tuple(int(c) + 1 for c in pair_rng.choice(12, size=2, replace=False))
        if pair not in pairs:
            pairs.append(pair)
    sim_seeds = stream(5).integers(0, 2**31, size=2)
    return {
        "alpha": float(alpha),
        "beta": float(beta),
        "ce": counterexample(float(alpha), float(beta)),
        "d3": random_model(stream(1), 3),
        "d8": random_model(stream(2), 8, D8_BLOCKS),
        "d12": random_model(stream(3), 12),
        "reduce_pairs": pairs,
        "sim_seeds": [int(s) for s in sim_seeds],
    }


def write_models(inputs: dict, indir: Path) -> None:
    indir.mkdir(parents=True, exist_ok=True)
    for name in ("d3", "d8", "d12"):
        (indir / f"{name}.json").write_text(inputs[name].to_json(), encoding="utf-8")


def _ce_args(inputs: dict) -> tuple:
    return ("--alpha", repr(inputs["alpha"]), "--beta", repr(inputs["beta"]))


def _op(label: str, kind: str, argv: tuple, out: Path | None, **params) -> Op:
    return Op(label, f"{kind}_s", kind, (kind, *argv), out, params)


def small_ops(kinds, inputs: dict, outdir: Path) -> list:
    """One small invocation of each command kind, on the counterexample model.

    A pass includes these for the commands its workload does not otherwise
    run, so every layer and every per-command time is measured, non-zero,
    on every workload; set-up runs all of them as its warm-up.
    """
    ce = _ce_args(inputs)
    model = {"model": inputs["ce"], "grid": 257}
    traj = outdir / "small_simulate" / "trajectory.csv"
    argv = {
        "counterexample": (ce, {"alpha": inputs["alpha"], "beta": inputs["beta"]}),
        "analyze": (ce, {}),
        "granger": ((*ce, "--json"), {}),
        "dtf": (ce, {}),
        "reduce": ((*ce, "--pair", "1,2"), {"pair": (1, 2)}),
        "simulate": (
            (*ce, "--length", str(SMALL_SIM_LENGTH), "--seed", str(inputs["sim_seeds"][0]),
             "--burn-in", str(SIM_BURN_IN)),
            {"seed": inputs["sim_seeds"][0], "length": SMALL_SIM_LENGTH, "burn_in": SIM_BURN_IN},
        ),
        "fit": (
            ("--data", str(traj), "--order", str(SMALL_FIT_ORDER), "--maxlag", str(FIT_MAXLAG)),
            {"order": SMALL_FIT_ORDER, "length": SMALL_SIM_LENGTH},
        ),
    }
    ops = []
    for kind in kinds:
        args, params = argv[kind]
        out = None if kind == "granger" else outdir / f"small_{kind}"
        if out is not None:
            args = (*args, "--out", str(out))
        ops.append(_op(f"small_{kind}", kind, args, out, **model, **params))
    return ops


def pass_ops(workload: str, inputs: dict, indir: Path, outdir: Path) -> list:
    """The CLI invocations of one pass, in order."""
    ce = _ce_args(inputs)
    ce_params = {"model": inputs["ce"], "alpha": inputs["alpha"], "beta": inputs["beta"]}

    def model_file(name: str) -> tuple:
        return ("--model", str(indir / f"{name}.json"))

    if workload == "pairwise-analysis":
        ops = [_op("counterexample", "counterexample", (*ce, "--out", str(outdir / "ce")),
                   outdir / "ce", **ce_params, grid=257)]
        for name in ("d3", "d8"):
            out = outdir / f"analyze_{name}"
            ops.append(_op(f"analyze_{name}", "analyze", (*model_file(name), "--out", str(out)),
                           out, model=inputs[name], grid=257))
        ops.append(_op("granger_d12", "granger", (*model_file("d12"), "--json"),
                       None, model=inputs["d12"], grid=257))
    elif workload == "fine-grid-spectra":
        grid = ("--grid", str(FINE_GRID))
        d12 = {"model": inputs["d12"], "grid": FINE_GRID}
        ops = [_op("dtf_d12", "dtf", (*model_file("d12"), *grid, "--out", str(outdir / "dtf")),
                   outdir / "dtf", **d12)]
        for a, b in inputs["reduce_pairs"]:
            out = outdir / f"reduce_{a}_{b}"
            ops.append(_op(f"reduce_{a}_{b}", "reduce",
                           (*model_file("d12"), "--pair", f"{a},{b}", *grid, "--out", str(out)),
                           out, **d12, pair=(a, b)))
        ops.append(_op("counterexample", "counterexample", (*ce, *grid, "--out", str(outdir / "ce")),
                       outdir / "ce", **ce_params, grid=FINE_GRID))
    elif workload == "simulate-fit":
        sims = [("ce", ce, inputs["ce"]), ("d3", model_file("d3"), inputs["d3"])]
        ops = []
        for (name, model_args, model), seed in zip(sims, inputs["sim_seeds"]):
            out = outdir / f"sim_{name}"
            ops.append(_op(f"simulate_{name}", "simulate",
                           (*model_args, "--length", str(SIM_LENGTH), "--seed", str(seed),
                            "--burn-in", str(SIM_BURN_IN), "--out", str(out)),
                           out, model=model, seed=seed, length=SIM_LENGTH, burn_in=SIM_BURN_IN))
        for name, _, model in sims:
            for order in (model.order, FIT_HIGH_ORDER):
                out = outdir / f"fit_{name}_{order}"
                ops.append(_op(f"fit_{name}_{order}", "fit",
                               ("--data", str(outdir / f"sim_{name}" / "trajectory.csv"),
                                "--order", str(order), "--maxlag", str(FIT_MAXLAG),
                                "--out", str(out)),
                               out, model=model, order=order, length=SIM_LENGTH))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    missing = [kind for kind in COMMANDS if kind not in {op.kind for op in ops}]
    return ops + small_ops(missing, inputs, outdir)
