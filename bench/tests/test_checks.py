"""Every benchmark check passes on real CLI output and fails on a planted error.

Run from the repository root with ``python -m pytest bench/tests -q``. The
outputs come from the CLI on small inputs; each test copies them, plants one
wrong value (a coefficient off by 1e-3, a dropped CSV row, a swapped pair, ...)
and expects the check to report it.
"""

import json
import shutil

import numpy as np
import pytest

import checks
import workloads
from vardtf.cli import main

GRID = 65
LENGTH = 5000
ALPHA, BETA = 0.8, 1.3


def _run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """CLI outputs of every command kind, made once."""
    root = tmp_path_factory.mktemp("outputs")
    rng = np.random.default_rng(3)
    models = {
        "ce": workloads.counterexample(ALPHA, BETA),
        "blocks": workloads.random_model(rng, 4, ((0, 2), (2, 4))),
        "d3": workloads.random_model(rng, 3),
    }
    for name in ("blocks", "d3"):
        (root / f"{name}.json").write_text(models[name].to_json())
    ce = ("--alpha", ALPHA, "--beta", BETA)
    _run("counterexample", *ce, "--grid", GRID, "--out", root / "ce")
    _run("analyze", "--model", root / "blocks.json", "--grid", GRID, "--out", root / "analyze")
    _run("dtf", "--model", root / "d3.json", "--grid", GRID, "--out", root / "dtf")
    _run("reduce", "--model", root / "blocks.json", "--pair", "1,3", "--grid", GRID,
         "--out", root / "reduce")
    _run("simulate", *ce, "--length", LENGTH, "--seed", 11, "--out", root / "sim")
    for order in (2, 8):
        _run("fit", "--data", root / "sim" / "trajectory.csv", "--order", order,
             "--out", root / f"fit{order}")
    return root, models


@pytest.fixture
def outputs(made, tmp_path):
    root, models = made
    copy = tmp_path / "outputs"
    shutil.copytree(root, copy)
    return copy, models


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _drop_row(path, row):
    lines = path.read_text().splitlines(keepends=True)
    del lines[1 + row]
    path.write_text("".join(lines))


def _shift_cell(path, row, col, delta):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1 + row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[1 + row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _swap_columns(path):
    lines = path.read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        t, a, b, *rest = line.split(",")
        rows.append(",".join([t, b, a, *rest]))
    path.write_text("\n".join(rows) + "\n")


def _ops(kind, root, models):
    """The ops whose outputs the fixture made, as the benchmark describes them."""
    ce, blocks = models["ce"], models["blocks"]
    Op = workloads.Op
    if kind == "counterexample":
        return [Op("ce", "", kind, (), root / "ce",
                   {"model": ce, "alpha": ALPHA, "beta": BETA, "grid": GRID})]
    if kind == "analyze":
        return [Op("analyze", "", kind, (), root / "analyze", {"model": blocks, "grid": GRID})]
    if kind == "dtf":
        return [Op("dtf", "", kind, (), root / "dtf", {"model": models["d3"], "grid": GRID})]
    if kind == "reduce":
        return [Op("reduce", "", kind, (), root / "reduce",
                   {"model": blocks, "grid": GRID, "pair": (1, 3)})]
    if kind == "simulate":
        return [Op("sim", "", kind, (), root / "sim",
                   {"model": ce, "seed": 11, "length": LENGTH, "burn_in": 1000})]
    if kind == "fit":
        return [Op(f"fit{order}", "", kind, (), root / f"fit{order}",
                   {"model": ce, "order": order, "length": LENGTH}) for order in (2, 8)]
    raise ValueError(kind)


def _check(kind, root, models):
    results = checks.check_pass(_ops(kind, root, models), {})
    return [p for problems in results.values() for p in problems]


def test_granger_stdout_is_checked(made):
    root, models = made
    report = (root / "analyze" / "report.json").read_text()
    op = workloads.Op("granger", "", "granger", (), None, {"model": models["blocks"], "grid": GRID})
    assert checks.check_pass([op], {"granger": report}) == {"granger": []}
    wrong = report.replace('"multivariate_gc": true', '"multivariate_gc": false', 1)
    assert checks.check_pass([op], {"granger": wrong})["granger"] != []
    assert checks.check_pass([op], {"granger": "not json"})["granger"] != []


KINDS = ("counterexample", "analyze", "dtf", "reduce", "simulate", "fit")


@pytest.mark.parametrize("kind", KINDS)
def test_unchanged_output_passes(outputs, kind):
    assert _check(kind, *outputs) == []


def _set_phi(doc):
    doc["phis"][0][0][1] += 1e-3


def _set_v(doc):
    doc["innov_cov"][1][1] += 1e-3


def _swap_contradiction(doc):
    for p in doc["pairs"]:
        if (p["target"], p["source"]) in ((1, 2), (2, 1)):
            p["contradiction"] = not p["contradiction"]


def _reduction_deficit(doc):
    doc["whiteness_deficit"] *= 1 + 1e-6


def _swap_marginal_pair(doc):
    doc["1<-2"], doc["2<-1"] = doc["2<-1"], doc["1<-2"]


def _swap_v_entries(doc):
    v = doc["1<-2"]["innov_cov"]
    v[0][0], v[1][1] = v[1][1], v[0][0]


def _marginal_deficit(doc):
    doc["3<-4"]["whiteness_deficit"] = 1e-3


def _flip_multivariate(doc):
    doc["pairs"][0]["multivariate_gc"] = not doc["pairs"][0]["multivariate_gc"]


def _cross_block_gc(doc):
    for p in doc["pairs"]:
        if (p["target"], p["source"]) == (1, 3):
            p["bivariate_gc"] = True
            p["contradiction"] = True


def _max_phi(doc):
    doc["pairs"][1]["max_phi"] += 1e-3


def _max_dtf(doc):
    doc["pairs"][0]["max_dtf"] += 1e-3


def _drop_pair(doc):
    del doc["pairs"][2]


def _swap_report_pairs(doc):
    a, b = doc["pairs"][0], doc["pairs"][1]
    a["source"], b["source"] = b["source"], a["source"]


def _fit_coeffs(doc):
    doc["coeffs"] = (np.asarray(doc["coeffs"]) + 0.1).tolist()


def _fit_nobs(doc):
    doc["nobs"] += 1


PLANTS = {
    "phi off by 1e-3": ("counterexample", lambda r: _edit_json(r / "ce" / "marginal.json", _set_phi)),
    "V off by 1e-3": ("counterexample", lambda r: _edit_json(r / "ce" / "marginal.json", _set_v)),
    "contradiction on the swapped pair": (
        "counterexample", lambda r: _edit_json(r / "ce" / "report.json", _swap_contradiction)),
    "reduction deficit off the closed form": (
        "counterexample", lambda r: _edit_json(r / "ce" / "reduction.json", _reduction_deficit)),
    "reduction reported white": (
        "counterexample",
        lambda r: _edit_json(r / "ce" / "reduction.json", lambda d: d.update(is_white=True))),
    "dropped transfer-function row": (
        "counterexample", lambda r: _drop_row(r / "ce" / "transfer_function.csv", 10)),
    "transfer function entry off": (
        "counterexample", lambda r: _shift_cell(r / "ce" / "transfer_function.csv", 5, 3, 1e-6)),
    "counterexample G entry off": (
        "counterexample", lambda r: _shift_cell(r / "ce" / "reduced_polynomial.csv", 7, 1, 1e-6)),
    "swapped marginal pair": (
        "analyze", lambda r: _edit_json(r / "analyze" / "marginals.json", _swap_marginal_pair)),
    "V of one pair not the swap of its mirror": (
        "analyze", lambda r: _edit_json(r / "analyze" / "marginals.json", _swap_v_entries)),
    "marginal residual not white": (
        "analyze", lambda r: _edit_json(r / "analyze" / "marginals.json", _marginal_deficit)),
    "dropped DTF row in analyze": ("analyze", lambda r: _drop_row(r / "analyze" / "dtf.csv", 0)),
    "spectral density entry off": (
        "analyze", lambda r: _shift_cell(r / "analyze" / "spectral_density.csv", 3, 5, 1e-6)),
    "multivariate verdict flipped": (
        "analyze", lambda r: _edit_json(r / "analyze" / "report.json", _flip_multivariate)),
    "cross-block pair with bivariate GC": (
        "analyze", lambda r: _edit_json(r / "analyze" / "report.json", _cross_block_gc)),
    "max_phi off by 1e-3": ("analyze", lambda r: _edit_json(r / "analyze" / "report.json", _max_phi)),
    "max_dtf off": ("analyze", lambda r: _edit_json(r / "analyze" / "report.json", _max_dtf)),
    "missing pair": ("analyze", lambda r: _edit_json(r / "analyze" / "report.json", _drop_pair)),
    "swapped pair labels": (
        "analyze", lambda r: _edit_json(r / "analyze" / "report.json", _swap_report_pairs)),
    "dropped DTF row": ("dtf", lambda r: _drop_row(r / "dtf" / "dtf.csv", 30)),
    "DTF entry off": ("dtf", lambda r: _shift_cell(r / "dtf" / "dtf.csv", 9, 1, 1e-6)),
    "DTF imaginary part": ("dtf", lambda r: _shift_cell(r / "dtf" / "dtf.csv", 9, 2, 1e-6)),
    "reduced polynomial entry off": (
        "reduce", lambda r: _shift_cell(r / "reduce" / "reduced_polynomial.csv", 4, 3, 1e-6)),
    "error spectrum entry off": (
        "reduce", lambda r: _shift_cell(r / "reduce" / "error_spectrum.csv", 4, 1, 1e-6)),
    "dropped error-spectrum row": ("reduce", lambda r: _drop_row(r / "reduce" / "error_spectrum.csv", 64)),
    "reduction deficit off the spectrum": (
        "reduce", lambda r: _edit_json(r / "reduce" / "reduction.json", _reduction_deficit)),
    "reduction labelled with the swapped pair": (
        "reduce",
        lambda r: _edit_json(r / "reduce" / "reduction.json",
                             lambda d: d.update(pair={"target": 3, "source": 1}))),
    "dropped trajectory row": ("simulate", lambda r: _drop_row(r / "sim" / "trajectory.csv", 2500)),
    "trajectory sample off": ("simulate", lambda r: _shift_cell(r / "sim" / "trajectory.csv", 77, 2, 1e-3)),
    "swapped trajectory channels": ("simulate", lambda r: _swap_columns(r / "sim" / "trajectory.csv")),
    "fitted coefficients off": ("fit", lambda r: _edit_json(r / "fit8" / "fitted_model.json", _fit_coeffs)),
    "fit nobs wrong": ("fit", lambda r: _edit_json(r / "fit2" / "fit_diagnostics.json", _fit_nobs)),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_error_fails(outputs, plant):
    root, models = outputs
    kind, edit = PLANTS[plant]
    edit(root)
    assert _check(kind, root, models) != []


@pytest.mark.parametrize("kind", KINDS)
def test_missing_output_fails(outputs, kind):
    root, models = outputs
    for op in _ops(kind, root, models):
        shutil.rmtree(op.out)
    assert _check(kind, root, models) != []


def test_malformed_output_fails(outputs):
    root, models = outputs
    _edit_json(root / "ce" / "marginal.json", lambda d: d.update(phis=[]))
    assert _check("counterexample", root, models) != []


def test_wrong_simulation_seed_fails(outputs):
    root, models = outputs
    problems = checks.check_trajectory(root / "sim" / "trajectory.csv", models["ce"], 12, LENGTH, 1000)
    assert problems != []


def test_scaled_trajectory_fails_the_autocovariance_check(outputs):
    root, models = outputs
    path = root / "sim" / "trajectory.csv"
    lines = path.read_text().splitlines()
    rows = [lines[0]] + [
        ",".join([cells[0]] + [repr(float(c) * 1.2) for c in cells[1:]])
        for cells in (line.split(",") for line in lines[1:])
    ]
    path.write_text("\n".join(rows) + "\n")
    problems = checks.check_trajectory(path, models["ce"], 11, LENGTH, 1000)
    assert any("autocovariance" in p for p in problems)
