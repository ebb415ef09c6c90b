import errno
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vardtf
from vardtf import (
    ChannelPair,
    counterexample_model,
    exceptions,
    make_var,
    marginal,
    marginal_representation,
    moments,
    read_model,
    reduction,
    spectral,
    write_model,
)
from vardtf.cli import main
from vardtf.exceptions import NoConvergence, NotConverged, NumericalError, VardtfError
from vardtf.jsonio import canonical_json

from helpers import random_stable_model, singular_removed_block_model


def run(*argv):
    return main([str(a) for a in argv])


class TestCounterexampleCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("counterexample", "--alpha", 1, "--beta", 1, "--out", out) == 0
        for name in (
            "transfer_function.csv",
            "reduced_polynomial.csv",
            "error_spectrum.csv",
            "reduction.json",
            "marginal.json",
            "report.json",
        ):
            assert (out / name).exists(), name
        captured = capsys.readouterr().out
        assert "contradictions: 1" in captured

        report = json.loads((out / "report.json").read_text())
        flagged = [p for p in report["pairs"] if p["contradiction"]]
        assert len(flagged) == 1
        assert flagged[0]["target"] == 1 and flagged[0]["source"] == 2
        assert flagged[0]["multivariate_gc"] is False

        marg = json.loads((out / "marginal.json").read_text())
        assert marg["phis"][0][0][1] == pytest.approx(0.5, abs=1e-8)
        assert marg["convergence"]["converged"] is True

        red = json.loads((out / "reduction.json").read_text())
        assert red["is_white"] is False
        assert red["whiteness_deficit"] > 1.0

    def test_no_contradictions_when_alpha_zero(self, tmp_path):
        out = tmp_path / "run"
        assert run("counterexample", "--alpha", 0, "--beta", 1, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(not p["contradiction"] for p in report["pairs"])

    def test_unwritable_outdir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run(
            "counterexample", "--alpha", 1, "--beta", 1, "--out", blocker / "sub"
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error[")


class TestAnalyzeCommand:
    def test_model_file(self, tmp_path):
        model_path = tmp_path / "model.json"
        write_model(random_stable_model(5, dim=4, order=2, radius=0.5), model_path)
        out = tmp_path / "out"
        assert run("analyze", "--model", model_path, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dim"] == 4
        assert len(report["pairs"]) == 12
        assert (out / "spectral_density.csv").exists()
        assert (out / "dtf.csv").exists()
        marginals = json.loads((out / "marginals.json").read_text())
        assert len(marginals) == 12

    def test_one_residual_check_per_unordered_pair(self, tmp_path, monkeypatch):
        checked = []
        check = marginal.innovation_whiteness_check
        monkeypatch.setattr(
            marginal,
            "innovation_whiteness_check",
            lambda model, pair, *a: checked.append(pair.channels) or check(model, pair, *a),
        )
        model_path = tmp_path / "model.json"
        write_model(random_stable_model(5, dim=4, order=2, radius=0.5), model_path)
        assert run("analyze", "--model", model_path, "--out", tmp_path / "out") == 0
        assert len(checked) == 6
        assert len({frozenset(channels) for channels in checked}) == 6

    def test_byte_identical_reruns(self, tmp_path):
        model_path = tmp_path / "model.json"
        write_model(random_stable_model(5, dim=3, order=2, radius=0.5), model_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("analyze", "--model", model_path, "--out", out_a) == 0
        assert run("analyze", "--model", model_path, "--out", out_b) == 0
        for name in ("report.json", "marginals.json", "spectral_density.csv", "dtf.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_marginals_match_marginalize(self, tmp_path):
        model_path = tmp_path / "model.json"
        write_model(random_stable_model(7, dim=3, order=2, radius=0.7), model_path)
        assert run("analyze", "--model", model_path, "--out", tmp_path / "all") == 0
        marginals = json.loads((tmp_path / "all" / "marginals.json").read_text())
        assert len(marginals) == 6
        for label, entry in marginals.items():
            target, source = label.split("<-")
            out = tmp_path / label.replace("<-", "_")
            assert run(
                "marginalize", "--model", model_path, "--pair", f"{target},{source}",
                "--out", out,
            ) == 0
            assert canonical_json(entry) == (out / "marginal.json").read_text()

    def test_each_unordered_pair_has_one_toeplitz_condition(self, tmp_path):
        model_path = tmp_path / "model.json"
        write_model(random_stable_model(11, dim=4, order=2, radius=0.7), model_path)
        assert run("analyze", "--model", model_path, "--out", tmp_path / "all") == 0
        marginals = json.loads((tmp_path / "all" / "marginals.json").read_text())
        for a, b in itertools.combinations(range(1, 5), 2):
            out = tmp_path / f"{a}_{b}"
            pair = f"{a},{b}"
            assert run("marginalize", "--model", model_path, "--pair", pair, "--out", out) == 0
            cond = json.loads((out / "marginal.json").read_text())["toeplitz_cond"]
            assert marginals[f"{a}<-{b}"]["toeplitz_cond"] == cond
            assert marginals[f"{b}<-{a}"]["toeplitz_cond"] == cond

    def test_not_converged_pairs_keep_diagnostics(self, tmp_path):
        coeffs = [np.zeros((3, 3))]
        coeffs[0][2, 2] = 0.95
        coeffs[0][0, 2] = 0.5
        model = make_var(coeffs, np.eye(3))
        model_path = tmp_path / "slow.json"
        write_model(model, model_path)
        out = tmp_path / "out"
        assert run("analyze", "--model", model_path, "--qmax", 8, "--out", out) == 0
        marginals = json.loads((out / "marginals.json").read_text())
        failed = {label: e for label, e in marginals.items() if "error" in e}
        assert failed and len(failed) < len(marginals)
        for label, entry in failed.items():
            target, source = (int(c) - 1 for c in label.split("<-"))
            with pytest.raises(NotConverged) as exc:
                marginal_representation(
                    model, ChannelPair(target=target, source=source), q_max=8
                )
            assert entry["error"] == str(exc.value)
            assert entry["diagnostics"] == [
                {"order": q, "tail_norm": d["tail_norm"], "v_delta": d["v_delta"]}
                for q, d in exc.value.diagnostics.items()
            ]
            assert [d["order"] for d in entry["diagnostics"]] == [4, 8]

    def test_failed_solve_is_every_pair_error(self, tmp_path, monkeypatch):
        def stalled(model, maxlag=None):
            raise NoConvergence("doubling iteration for the Lyapunov equation stalled")

        monkeypatch.setattr(moments, "autocov", stalled)
        out = tmp_path / "out"
        assert run("analyze", "--alpha", 1, "--beta", 1, "--out", out) == 0
        marginals = json.loads((out / "marginals.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert len(marginals) == 6
        for entry in marginals.values():
            assert entry == {"error": "doubling iteration for the Lyapunov equation stalled"}
        assert all(p["error"] == entry["error"] for p in report["pairs"])

    def test_builtin_equivalence_with_counterexample_command(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("counterexample", "--alpha", 1, "--beta", 1, "--out", out_a) == 0
        assert run("analyze", "--alpha", 1, "--beta", 1, "--out", out_b) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_malformed_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "order": 0, "coeffs": []}')
        assert run("analyze", "--model", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error[usage]")
        assert "sigma" in err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("analyze", "--model", bad, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("error[parse]")

    def test_missing_model_file(self, tmp_path, capsys):
        assert run("analyze", "--model", tmp_path / "nope.json", "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("error[io]")

    def test_model_and_builtin_conflict(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        write_model(counterexample_model(1, 1), model_path)
        code = run(
            "analyze", "--model", model_path, "--alpha", 1, "--beta", 1,
            "--out", tmp_path / "o",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error[usage]")


class TestOtherCommands:
    def test_dtf_stdout(self, capsys):
        assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 9) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("lambda,re_1_1")
        assert len(lines) == 10

    def test_dtf_hz_grid(self, capsys):
        assert run(
            "dtf", "--alpha", 1, "--beta", 1, "--grid", 9, "--fs", 200,
            "--band", "10,50",
        ) == 0
        first = capsys.readouterr().out.strip().split("\n")[1]
        lam0 = float(first.split(",")[0])
        assert lam0 == pytest.approx(2 * np.pi * 10 / 200)

    def test_bad_band(self, capsys):
        assert run(
            "dtf", "--alpha", 1, "--beta", 1, "--fs", 100, "--band", "60,80"
        ) == 2
        assert capsys.readouterr().err.startswith("error[usage]")

    def test_band_without_fs(self, capsys):
        assert run(
            "dtf", "--alpha", 1, "--beta", 1, "--grid", 3, "--band", "0.1,0.2"
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[usage]: --band needs --fs")
        assert captured.err.count("\n") == 1

    def test_reduce(self, tmp_path):
        out = tmp_path / "red"
        assert run(
            "reduce", "--alpha", 1, "--beta", 1, "--pair", "1,2", "--out", out
        ) == 0
        verdict = json.loads((out / "reduction.json").read_text())
        assert verdict["whiteness_deficit"] > 1.0
        assert verdict["is_white"] is False

    def test_reduce_computes_the_whiteness_deficit_once(self, tmp_path, monkeypatch):
        calls = []
        whiteness = reduction.whiteness
        monkeypatch.setattr(
            reduction, "whiteness", lambda spectrum: calls.append(1) or whiteness(spectrum)
        )
        args = ("--alpha", 1, "--beta", 1, "--pair", "1,2", "--out", tmp_path / "red")
        assert run("reduce", *args) == 0
        assert len(calls) == 1

    def test_reduce_rejects_small_model(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        write_model(random_stable_model(1, dim=2, order=1, radius=0.5), model_path)
        assert run(
            "reduce", "--model", model_path, "--pair", "1,2", "--out", tmp_path / "o"
        ) == 2
        assert capsys.readouterr().err.startswith("error[usage]")

    def test_marginalize_stdout(self, capsys):
        assert run("marginalize", "--alpha", 1, "--beta", 1, "--pair", "1,2") == 0
        out = capsys.readouterr().out
        assert "order_used: 4" in out
        assert "converged: True" in out

    def test_marginalize_not_converged_exit_code(self, tmp_path, capsys):
        coeffs = [np.zeros((3, 3))]
        coeffs[0][2, 2] = 0.97
        coeffs[0][0, 2] = 0.5
        model_path = tmp_path / "slow.json"
        write_model(make_var(coeffs, np.eye(3)), model_path)
        code = run(
            "marginalize", "--model", model_path, "--pair", "1,2", "--qmax", 8
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error[numerical]")

    def test_marginalize_not_converged_reports_orders(self, tmp_path, capsys):
        coeffs = [np.zeros((3, 3))]
        coeffs[0][2, 2] = 0.95
        coeffs[0][0, 2] = 0.5
        model = make_var(coeffs, np.eye(3))
        assert model.spectral_radius == pytest.approx(0.95)
        model_path = tmp_path / "slow.json"
        write_model(model, model_path)
        code = run(
            "marginalize", "--model", model_path, "--pair", "1,2", "--qmax", 8
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error[numerical]")
        for order in (4, 8):
            assert f"order {order}: tail_norm " in err
        assert err.count("v_delta") == 3

    def test_granger_json_rank_deficient_sigma(self, tmp_path, capsys):
        model_path = tmp_path / "degenerate.json"
        coeffs = counterexample_model(1.0, 1.0).coeffs
        write_model(make_var(coeffs, np.diag([1.0, 1.0, 0.0])), model_path)
        assert run("granger", "--model", model_path, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert sum(p["error"] is not None for p in doc["pairs"]) == 4

    def test_granger_json(self, capsys):
        assert run("granger", "--alpha", 1, "--beta", 1, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 3

    def test_moments_stdout(self, capsys):
        assert run("moments", "--alpha", 1, "--beta", 1, "--maxlag", 3) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("lag,g_1_1")
        assert len(lines) == 5

    def test_simulate_then_fit(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run(
            "simulate", "--alpha", 1, "--beta", 1, "--length", 20000,
            "--seed", 3, "--out", out,
        ) == 0
        assert run(
            "fit", "--data", out / "trajectory.csv", "--order", 2,
            "--out", tmp_path / "fit",
        ) == 0
        fitted = read_model(tmp_path / "fit" / "fitted_model.json")
        assert fitted.dim == 3
        assert abs(fitted.coeffs[0][1, 2] - 1.0) < 0.05
        diag = json.loads((tmp_path / "fit" / "fit_diagnostics.json").read_text())
        assert diag["portmanteau"]["p_value"] >= 0.0

    def test_simulate_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(
                "simulate", "--alpha", 1, "--beta", 1, "--length", 1000,
                "--seed", 7, "--out", out,
            ) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (
            out_b / "trajectory.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ("moments", "--grid", 9),
            ("simulate", "--length", 10, "--out", "sim", "--tol", 1e-6),
            ("dtf", "--qmax", 8),
            ("reduce", "--pair", "1,2", "--out", "red", "--tol", 1e-6),
        ],
    )
    def test_rejects_flags_the_command_ignores(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv[0], "--alpha", 1, "--beta", 1, *argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pair_validation(self, capsys):
        assert run("marginalize", "--alpha", 1, "--beta", 1, "--pair", "1,1") == 2
        assert capsys.readouterr().err.startswith("error[usage]")
        assert run("marginalize", "--alpha", 1, "--beta", 1, "--pair", "0,1") == 2
        assert run("marginalize", "--alpha", 1, "--beta", 1, "--pair", "1,2,3") == 2

    def test_missing_model_args(self, capsys):
        assert run("granger") == 2
        assert capsys.readouterr().err.startswith("error[usage]")


@pytest.mark.parametrize(
    "command,extra",
    [("counterexample", ()), ("analyze", ()), ("reduce", ("--pair", "1,2")),
     ("marginalize", ("--pair", "1,2")), ("granger", ()), ("dtf", ())],
    ids=["counterexample", "analyze", "reduce", "marginalize", "granger", "dtf"],
)
def test_one_transfer_function_per_command(command, extra, tmp_path, monkeypatch):
    # one A(lambda), inverted once: the DTF, the density, the reduction and
    # the marginal residual check all read that H. A module that imported
    # either name is counted too.
    calls = []
    modules = [mod for key, mod in sys.modules.items() if key.startswith("vardtf.")]
    for name in ("transfer_function", "char_polynomial"):
        evaluate = getattr(spectral, name)

        def counting(model, grid, name=name, evaluate=evaluate):
            calls.append((name, len(grid)))
            return evaluate(model, grid)

        for mod in modules:
            if getattr(mod, name, None) is evaluate:
                monkeypatch.setattr(mod, name, counting)
    argv = ("--alpha", 1, "--beta", 1, "--grid", 65, "--out", tmp_path / "out", *extra)
    assert run(command, *argv) == 0
    assert sorted(calls) == [("char_polynomial", 65), ("transfer_function", 65)]


@pytest.mark.parametrize(
    "command,dim,extra,count",
    [
        ("granger", None, ("--json",), 0),
        ("analyze", None, ("--out", "out"), 3),
        ("analyze", 8, ("--out", "out"), 28),
        ("counterexample", None, ("--out", "out"), 1),
        ("marginalize", None, ("--pair", "1,2", "--out", "out"), 1),
        ("marginalize", None, ("--pair", "1,2"), 0),
    ],
    ids=["granger", "analyze-d3", "analyze-d8", "counterexample", "marginalize-out",
         "marginalize"],
)
def test_the_toeplitz_condition_is_taken_once_per_pair_written(
    command, dim, extra, count, tmp_path, monkeypatch
):
    # a block-Toeplitz condition number is taken only where a marginal
    # document writes it, once per unordered pair; the model check's
    # eigvalsh of Sigma is not counted
    built = []
    block = marginal.block_toeplitz
    monkeypatch.setattr(marginal, "block_toeplitz", lambda *a: built.append(1) or block(*a))
    model = ("--alpha", 1, "--beta", 1)
    if dim is not None:
        model = ("--model", tmp_path / "model.json")
        write_model(random_stable_model(1, dim=dim, order=4, radius=0.7), model[1])
    extra = tuple(tmp_path / flag if flag == "out" else flag for flag in extra)
    assert run(command, *model, *extra) == 0
    assert len(built) == count


@pytest.mark.parametrize(
    "argv",
    [
        ("counterexample", "--alpha", 1e160, "--beta", 1),
        ("counterexample", "--alpha", 1e120, "--beta", 1e120),
        ("analyze", "--alpha", 1e160, "--beta", 1),
    ],
    ids=["counterexample-overflow", "counterexample-breakdown", "analyze-overflow"],
)
def test_a_failed_command_leaves_no_file(argv, tmp_path, capsys):
    # each fails after writing whole files: the transfer function, then (breakdown of
    # the 1<-2 marginal at order 1) the reduction's three, or analyze's report.json;
    # every file the command wrote goes, not only one whose own write fails
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error[numerical]: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fs", ["1e308", "1e-310", "1e-320", 3, 200])
def test_a_rate_without_a_band_gives_the_whole_radian_grid(fs, capsys):
    # [0, fs/2] Hz is [0, pi] rad at any rate, with no 2 pi fs/2 to overflow or underflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("dtf", "--alpha", 1, "--beta", 1, "--fs", fs, "--grid", 5) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    lams = np.array([float(row.split(",")[0]) for row in rows])
    assert lams[-1] == np.pi
    assert np.array_equal(lams, spectral.default_grid(5).points)


def test_singular_removed_block_is_numerical_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    write_model(singular_removed_block_model(), path)
    assert run("reduce", "--model", path, "--pair", "1,2", "--out", tmp_path / "red") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error[numerical]: singular matrix at frequency 0 ")
    assert "A_RR" in captured.err


@pytest.mark.parametrize("command", ["granger", "analyze", "counterexample"])
@pytest.mark.parametrize(
    "flags",
    [("--qmax", 0), ("--qmax", -1), ("--tol", -1), ("--tol", 0), ("--tol", "nan")],
)
def test_invalid_marginal_settings_are_usage_errors(command, flags, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ("--json",) if command == "granger" else ("--out", out)
    assert run(command, "--alpha", 1, "--beta", 1, *flags, *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error[usage]")
    if command != "granger":
        assert list(out.iterdir()) == []


def _usage_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error[usage]: ")
    return captured.err


def test_non_finite_sigma_file_is_usage_error(tmp_path, capsys):
    doc = counterexample_model(1.0, 1.0).to_dict()
    doc["sigma"][2][2] = float("nan")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # writes the NaN literal json.load accepts
    assert run("granger", "--model", path, "--json") == 2
    assert "sigma is not finite" in _usage_error_line(capsys)


@pytest.mark.parametrize("alpha,beta", [("inf", 1), (1, "inf"), ("nan", 1)])
def test_non_finite_coupling_is_usage_error(alpha, beta, capsys):
    assert run("granger", "--alpha", alpha, "--beta", beta) == 2
    assert "not finite" in _usage_error_line(capsys)


@pytest.mark.parametrize("fs", ["nan", "inf", 0, -1])
def test_sampling_rate_must_be_positive_and_finite(fs, capsys):
    assert run("dtf", "--alpha", 1, "--beta", 1, "--fs", fs, "--grid", 3) == 2
    assert "--fs must be positive and finite" in _usage_error_line(capsys)


def test_huge_coupling_keeps_a_finite_dtf(capsys):
    # |alpha|^2 overflows a double, and so does the Lyapunov solve: the
    # bivariate verdicts fail, and the DTF of 1<-3 still reads 1
    assert run("granger", "--alpha", 1e200, "--beta", 1, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    dtf = {(p["target"], p["source"]): p["max_dtf"] for p in doc["pairs"]}
    assert dtf[(1, 3)] == 1
    assert all(p["error"] is not None for p in doc["pairs"])


def test_infinite_sampling_rate_is_usage_error(capsys):
    assert run("dtf", "--alpha", 1, "--beta", 1, "--fs", "inf", "--grid", 3) == 2
    assert "finite" in _usage_error_line(capsys)


#: The library errors the CLI reports as numerical failures (exit 1). Every
#: other VardtfError is a usage error (exit 2).
NUMERICAL_ERRORS = {
    "NumericalError",
    "SingularAtFrequency",
    "DegenerateRow",
    "SpectrumOverflow",
    "SingularToeplitz",
    "NumericalBreakdown",
    "NoConvergence",
    "NotConverged",
    "RankDeficientRegressors",
    "UnstableFit",
}
ERROR_CLASSES = [
    c for c in vars(exceptions).values() if isinstance(c, type) and issubclass(c, VardtfError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_taxonomy(cls, monkeypatch, capsys):
    def failing(*args, **kwargs):
        positional = cls in (exceptions.Unstable, exceptions.SingularAtFrequency)
        raise cls(0.5) if positional else cls("planted failure")

    monkeypatch.setattr(spectral, "dtf", failing)
    code = run("dtf", "--alpha", 1, "--beta", 1, "--grid", 3)
    captured = capsys.readouterr()
    kind, expected = ("numerical", 1) if cls.__name__ in NUMERICAL_ERRORS else ("usage", 2)
    assert code == expected
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error[{kind}]: ")


def test_numerical_errors_share_one_base():
    numerical = {c.__name__ for c in ERROR_CLASSES if issubclass(c, NumericalError)}
    assert numerical == NUMERICAL_ERRORS


@pytest.mark.parametrize("maxlag", [-1, -5])
def test_negative_fit_maxlag_is_usage_error(maxlag, tmp_path, capsys):
    assert run("simulate", "--alpha", 1, "--beta", 1, "--length", 200, "--out", tmp_path) == 0
    capsys.readouterr()
    data = tmp_path / "trajectory.csv"
    assert run("fit", "--data", data, "--order", 1, "--maxlag", maxlag) == 2
    assert "maxlag must be non-negative" in _usage_error_line(capsys)


@pytest.mark.parametrize(
    "content",
    [
        b"t,ch1,ch2\n0,1.0,2.0\n1,3.0\n",
        b"t,ch1\n0,1.0,2.0\n1,3.0,4.0\n",
        b"t,ch1\n0,1.0,\n",
        b"t,ch1\n0,abc\n",
        b"t,ch1\n0,1_0\n",
        b"t,ch1\n0,nan\n",
        b"t,ch1\n0,inf\n",
        b"t,ch1\n0,1.5\xff\n",
        b"t,ch1\n# note\n0,1\n1,2\n",
        b"t,ch1\n0,1.5 # note\n",
        b"t,ch1\n\n",
    ],
    ids=["ragged", "too_wide", "trailing_comma", "abc", "underscore", "nan", "inf",
         "invalid_utf8", "comment_line", "trailing_comment", "no_rows"],
)
def test_fit_on_a_malformed_trajectory_is_a_usage_error(content, tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(content)
    assert run("fit", "--data", data, "--order", 1) == 2
    assert "Traceback" not in _usage_error_line(capsys)


def test_fit_on_a_ramp_is_a_numerical_error(tmp_path, capsys):
    # the least-squares AR(1) weight of 0..7 is 112/91: a data outcome, not
    # a usage error
    data = tmp_path / "ramp.csv"
    data.write_text("t,ch1\n" + "".join(f"{t},{t}\n" for t in range(8)), encoding="utf-8")
    assert run("fit", "--data", data, "--order", 1) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[numerical]: least-squares VAR(1) estimate: model is not stable: "
        "companion spectral radius 1.23077 >= 1\n"
    )


@pytest.mark.parametrize(
    "key,value",
    [("dim", True), ("dim", 1.0), ("dim", "1"), ("order", True), ("order", 1.5), ("order", "1")],
)
def test_non_integer_model_counts_are_usage_errors(key, value, tmp_path, capsys):
    doc = make_var([[[0.5]]], [[1.0]]).to_dict()
    doc[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run("granger", "--model", path, "--json") == 2
    assert f"'{key}' must be an integer" in _usage_error_line(capsys)


@pytest.mark.parametrize("coeffs", [5, None])
def test_non_list_model_coeffs_are_usage_errors(coeffs, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": 1, "order": 0, "coeffs": coeffs, "sigma": [[1.0]]}))
    assert run("granger", "--model", path, "--json") == 2
    assert "'coeffs' must be a list" in _usage_error_line(capsys)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import and the CLI needs none of it
    src = str(Path(vardtf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, vardtf.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("qmax", [1025, 10**8])
def test_qmax_above_the_cap_is_usage_error(qmax, monkeypatch, capsys):
    # rejected before the autocovariances to lag qmax are solved or allocated
    calls = []
    monkeypatch.setattr(moments, "autocov", lambda *a, **k: calls.append(a))
    assert run("granger", "--alpha", 1, "--beta", 1, "--qmax", qmax) == 2
    assert "q_max <= 1024" in _usage_error_line(capsys)
    assert calls == []


@pytest.mark.parametrize("maxlag,code", [(0, 2), (1, 2), (2, 2), (3, 0)])
def test_fit_maxlag_must_exceed_the_order(maxlag, code, tmp_path, capsys):
    assert run("simulate", "--alpha", 1, "--beta", 1, "--length", 500, "--out", tmp_path) == 0
    capsys.readouterr()
    data = tmp_path / "trajectory.csv"
    assert run("fit", "--data", data, "--order", 2, "--maxlag", maxlag) == code
    if code == 2:
        assert "maxlag must exceed the fitted order 2" in _usage_error_line(capsys)


@pytest.mark.parametrize("fs", [None, 200])
@pytest.mark.parametrize("count", [-3, 0, 1])
def test_grid_below_two_points_is_usage_error(count, fs, capsys):
    rate = () if fs is None else ("--fs", fs)
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", count, *rate) == 2
    assert "grid needs at least two frequency points" in _usage_error_line(capsys)


def test_granger_table(capsys):
    assert run("granger", "--alpha", 1, "--beta", 1) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == [
        "pair", "dtf_zero", "biv_gc", "multi_gc", "contradiction", "max_dtf", "max_phi"
    ]
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert sorted(rows) == ["1<-2", "1<-3", "2<-1", "2<-3", "3<-1", "3<-2"]
    assert [label for label, row in rows.items() if row[4] == "YES"] == ["1<-2"]
    assert rows["1<-2"][1:4] == ["yes", "yes", "no"]


def test_granger_out_writes_the_json_document(tmp_path, capsys):
    assert run("granger", "--alpha", 1, "--beta", 1, "--json") == 0
    stdout = capsys.readouterr().out
    assert run("granger", "--alpha", 1, "--beta", 1, "--out", tmp_path) == 0
    assert (tmp_path / "report.json").read_bytes() == stdout.encode("utf-8")


def test_report_pair_keys_are_the_compared_verdict_fields(capsys):
    assert run("granger", "--alpha", 1, "--beta", 1, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    keys = {
        "target", "source", "dtf_zero", "bivariate_gc", "multivariate_gc",
        "contradiction", "max_dtf", "max_phi", "max_coeff", "error",
    }
    assert all(set(p) == keys for p in doc["pairs"])
    assert {(p["target"], p["source"]) for p in doc["pairs"]} == {
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)
    }


def test_dtf_out_writes_the_stdout_table(tmp_path, capsys):
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 9) == 0
    stdout = capsys.readouterr().out
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 9, "--out", tmp_path) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "dtf.csv").read_bytes() == stdout.encode("utf-8")


def test_raw_dtf_is_the_squared_transfer_modulus(capsys):
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 9, "--raw") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[0].split(",")
    table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    grid = spectral.default_grid(9)
    h = spectral.transfer_function(counterexample_model(1.0, 1.0), grid).values
    assert np.array_equal(table[:, 0], grid.points)
    for j in range(3):
        for k in range(3):
            column = table[:, header.index(f"re_{j + 1}_{k + 1}")]
            assert np.array_equal(column, np.abs(h[:, j, k]) ** 2)
            assert not table[:, header.index(f"im_{j + 1}_{k + 1}")].any()


def test_analyze_raw_dtf_equals_dtf_raw(tmp_path):
    assert run("analyze", "--alpha", 1, "--beta", 1, "--raw", "--out", tmp_path / "a") == 0
    assert run("dtf", "--alpha", 1, "--beta", 1, "--raw", "--out", tmp_path / "d") == 0
    raw = (tmp_path / "d" / "dtf.csv").read_bytes()
    assert (tmp_path / "a" / "dtf.csv").read_bytes() == raw
    assert run("dtf", "--alpha", 1, "--beta", 1, "--out", tmp_path / "n") == 0
    assert (tmp_path / "n" / "dtf.csv").read_bytes() != raw


def test_band_needs_two_values(capsys):
    assert run("dtf", "--alpha", 1, "--beta", 1, "--fs", 100, "--band", 1) == 2
    assert "--band expects 'LO,HI'" in _usage_error_line(capsys)


@pytest.mark.parametrize("fs,band", [(1, "0,0.5000000000009"), ("1e-300", "0,1e-12")])
def test_a_band_past_half_the_rate_is_refused_in_hz(fs, band, capsys):
    # HI is checked against fs/2 with no slack, so no band past it reaches the radian check
    assert run("dtf", "--alpha", 1, "--beta", 1, "--fs", fs, "--band", band) == 2
    assert "--band must satisfy 0 <= LO < HI <= fs/2" in _usage_error_line(capsys)


@pytest.mark.parametrize("fs", [1, 3, 7.3, 200, "1e-300", "1e300"])
def test_a_band_ending_at_half_the_rate_ends_at_pi(fs, capsys):
    band = f"0,{float(fs) / 2!r}"
    assert run("dtf", "--alpha", 1, "--beta", 1, "--fs", fs, "--band", band, "--grid", 5) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert float(rows[-1].split(",")[0]) == np.pi


def test_counterexample_pair_failure_is_numerical_error(tmp_path, monkeypatch, capsys):
    # the 1<-2 representation is exactly VAR(1), so no --tol can fail it;
    # a stalled autocovariance solve does
    def stalled(model, maxlag=None):
        raise NoConvergence("doubling iteration for the Lyapunov equation stalled")

    monkeypatch.setattr(moments, "autocov", stalled)
    assert run("counterexample", "--alpha", 1, "--beta", 1, "--out", tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[numerical]: doubling iteration for the Lyapunov equation stalled\n"
    )
    assert not (tmp_path / "report.json").exists()


def test_reduce_of_a_huge_finite_spectrum_has_a_finite_deficit(tmp_path, capsys):
    # the error spectrum is about 1e200: finite, though squaring it is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("reduce", "--alpha", 1e100, "--beta", 1e100, "--pair", "1,2", "--out", tmp_path) == 0
    assert capsys.readouterr().out == "whiteness_deficit=1.67459e+200 is_white=False\n"
    doc = json.loads((tmp_path / "reduction.json").read_text())
    assert np.isfinite(doc["whiteness_deficit"]) and doc["is_white"] is False


@pytest.mark.parametrize(
    "command,flags",
    [("moments", ("--maxlag", 10**16)), ("simulate", ("--length", 10**16)),
     ("dtf", ("--grid", 10**17))],
)
def test_an_allocation_too_large_is_a_usage_error(command, flags, tmp_path, capsys):
    # each array is above 2^57 bytes, more than any address space maps, so
    # the allocation fails at once and no page is touched
    assert run(command, "--alpha", 1, "--beta", 1, *flags, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error[usage]: ")


@pytest.mark.parametrize(
    "command,flags",
    [("moments", ("--out", "o")), ("granger", ()), ("analyze", ("--out", "o")),
     ("marginalize", ("--pair", "1,2", "--out", "o"))],
)
def test_a_state_covariance_near_the_double_limit_passes_its_checks(command, flags, tmp_path, capsys):
    # P's entries are about 1.3e300: its Frobenius norm and that of the
    # innovation covariance would overflow unless scaled by a power of two
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"dim": 2, "order": 1, "coeffs": [[[0.5, 0.0], [0.0, 0.5]]], "sigma": [[1e300, 0.0], [0.0, 1e300]]}
    ))
    flags = [tmp_path / f if f == "o" else f for f in flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--model", path, *flags) == 0
    assert capsys.readouterr().err == ""


def test_fit_of_samples_near_the_double_limit_is_clean(tmp_path, capsys):
    # samples about 1e150: the residual variances' product would overflow unless scaled
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"dim": 2, "order": 1, "coeffs": [[[0.5, 0.0], [0.0, 0.5]]], "sigma": [[1e300, 0.0], [0.0, 1e300]]}
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("simulate", "--model", path, "--length", 500, "--out", tmp_path / "sim") == 0
        data = tmp_path / "sim" / "trajectory.csv"
        assert run("fit", "--data", data, "--order", 1, "--out", tmp_path / "fit") == 0
    assert capsys.readouterr().err == ""
    lag_norms = json.loads((tmp_path / "fit" / "fit_diagnostics.json").read_text())["lag_norms"]
    assert all(0.0 < x < 1.0 for x in lag_norms)


class _FullDisk(io.TextIOWrapper):
    """A text file that takes the first half of each write, then fails as a full disk does."""

    def write(self, text):
        super().write(text[: len(text) // 2])
        self.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _open_on_a_full_disk(file, mode="r", **kwargs):
    return _FullDisk(open(file, "wb"), **kwargs) if "w" in mode else open(file, mode, **kwargs)


@pytest.mark.parametrize(
    "argv,name",
    [
        (("simulate", "--alpha", 1, "--beta", 1, "--length", 100), "trajectory.csv"),
        (("fit", "--data", "TRAJECTORY", "--order", 1), "fitted_model.json"),
        (("analyze", "--alpha", 1, "--beta", 1), "report.json"),
        (("reduce", "--alpha", 1, "--beta", 1, "--pair", "1,2"), "reduced_polynomial.csv"),
        (("granger", "--alpha", 1, "--beta", 1), "report.json"),
    ],
    ids=["simulate", "fit", "analyze", "reduce", "granger"],
)
def test_a_failed_write_leaves_no_file(argv, name, tmp_path, monkeypatch, capsys):
    data = tmp_path / "sim" / "trajectory.csv"
    assert run("simulate", "--alpha", 1, "--beta", 1, "--length", 100, "--out", data.parent) == 0
    capsys.readouterr()
    monkeypatch.setattr(vardtf.cli, "open", _open_on_a_full_disk, raising=False)
    out = tmp_path / "out"
    assert run(*(data if a == "TRAJECTORY" else a for a in argv), "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error[io]: [Errno 28] ")
    assert not (out / name).exists()
    assert list(out.iterdir()) == []


def _fresh_process(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this vardtf."""
    src = str(Path(vardtf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


_SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_cli_import_loads_no_scipy():
    # only fit uses scipy, and it imports scipy where it calls it
    assert _fresh_process(f"import sys, vardtf.cli; print({_SCIPY_LOADED})") == "False"


def test_the_commands_that_never_fit_load_no_scipy(tmp_path):
    out = str(tmp_path)
    builtin = ["--alpha", "1", "--beta", "1"]
    argvs = [
        ["granger", *builtin, "--json"],
        ["dtf", *builtin, "--out", out + "/dtf"],
        ["moments", *builtin, "--out", out + "/mom"],
        ["counterexample", *builtin, "--out", out + "/demo"],
        ["analyze", *builtin, "--out", out + "/ana"],
        ["reduce", *builtin, "--pair", "1,2", "--out", out + "/red"],
        ["marginalize", *builtin, "--pair", "2,1", "--out", out + "/marg"],
        ["simulate", *builtin, "--length", "500", "--out", out + "/sim"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from vardtf.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"print({_SCIPY_LOADED})\n"
    )
    assert _fresh_process(code) == "False"
    assert (tmp_path / "sim" / "trajectory.csv").exists()


def test_fit_loads_scipy_where_it_fits(tmp_path):
    sim = str(tmp_path / "sim")
    code = (
        "import contextlib, io, sys\n"
        "from vardtf.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['simulate', '--alpha', '1', '--beta', '1', '--length', '2000', '--out', {sim!r}])\n"
        f"    before = {_SCIPY_LOADED}\n"
        f"    code = main(['fit', '--data', {sim + '/trajectory.csv'!r}, '--order', '2'])\n"
        "print(before, code, 'scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)\n"
    )
    assert _fresh_process(code) == "False 0 True True"
