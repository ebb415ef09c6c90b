"""Every command walks the grid one ``grid_blocks`` block at a time.

``dtf``, ``reduce`` and ``marginalize`` hold no whole-grid transfer function
(the pair readers take ``transfer_blocks``); ``analyze``, ``granger`` and
``counterexample`` hold only H, as the tuple of its blocks, each inverted once
and never copied. Their outputs equal the whole-grid computation byte for byte
across block boundaries, a failure after some blocks leaves no partial file and
names the first bad frequency, overflow is a named numerical failure, and
allocation peaks stay bounded: ``dtf``, ``reduce`` and ``marginalize`` below
half of one whole-grid H, ``analyze`` (at the default ``--qmax`` too) and
``granger`` a small multiple of it.

For a model of at least ``PAIR_MIN_DIM`` channels the walks of
``transfer_function`` and ``transfer_blocks`` run blocks in pairs, one in the
caller and one on the walk's helper thread, and a table of several blocks still
being computed is written on the helper one block behind, while blocks already
held are written in the caller: a failure names the earlier bad block of a pair
and starts no later block, every block sees the caller's ``np.errstate``, a
failed write is one ``error[io]`` line raised ahead of a failure computing the
next block, neither a grid of one block nor a smaller model starts a helper or
imports its pool, no helper thread outlives its walk, whether the walk ends,
fails or is dropped, and a forked child walks with a helper of its own.
"""

import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from vardtf import ChannelPair, counterexample_model, make_var, spectral, write_model
from vardtf.cli import main
from vardtf.exceptions import SingularAtFrequency
from vardtf.marginal import innovation_whiteness_check, marginal_representation
from vardtf.reduction import (
    error_spectral_matrix,
    is_white,
    reduce_pair,
    reduced_polynomial,
    whiteness_deficit,
)

from helpers import (
    dtf_csv_reference,
    frequency_csv,
    random_stable_model,
    reduction_reference,
    residual_deficit_reference,
)

#: Around one and two blocks of 512 points, and the fine bench grid.
GRID_COUNTS = [2, 3, 512, 513, 1024, 1025, 16385]

#: Fixed before measuring: below half of one whole-grid H at d=12 on 16385
#: points (16385 * 144 complex doubles, 37.8 MB).
PEAK_BOUND_BYTES = 15e6

#: Fixed before measuring: tracemalloc peaks of ``analyze`` and ``granger --json``
#: in multiples of the whole-grid H they hold, for the d=8 model below at 4097
#: points. With whole-grid A(lambda), density and DTF arrays they read 4.1 and 2.7.
ANALYZE_PEAK_BOUND_H = 2.5
GRANGER_PEAK_BOUND_H = 2.0

#: Fixed before measuring the block-wise library reduction: ``reduced_polynomial``
#: on the whole grid's H peaked at 78.0e6 bytes for the d=12 model below.
LIBRARY_PEAK_BOUND_BYTES = 10e6


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(params=["counterexample", "random_d4"])
def case(request, tmp_path):
    """(model, CLI model arguments, 1-based pair text, pair)."""
    if request.param == "counterexample":
        model = counterexample_model(0.7, -1.3)
        return model, ("--alpha", 0.7, "--beta", -1.3), "1,2", ChannelPair(target=0, source=1)
    model = random_stable_model(3, dim=4, order=2, radius=0.8)
    path = tmp_path / "model.json"
    write_model(model, path)
    return model, ("--model", path), "4,2", ChannelPair(target=3, source=1)


@pytest.mark.parametrize("count", GRID_COUNTS)
def test_dtf_equals_the_whole_grid_table(case, count, tmp_path, capsys):
    model, margs, _, _ = case
    grid = spectral.default_grid(count)
    for flags in ((), ("--raw",)):
        expected = dtf_csv_reference(model, grid, normalized=not flags)
        assert run("dtf", *margs, "--grid", count, *flags) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / f"out{len(flags)}"
        assert run("dtf", *margs, "--grid", count, *flags, "--out", out) == 0
        assert (out / "dtf.csv").read_bytes() == expected.encode()
    band = spectral.default_grid(count, 2.0 * np.pi * 5.0 / 100.0, 2.0 * np.pi * 40.0 / 100.0)
    assert run("dtf", *margs, "--grid", count, "--fs", 100, "--band", "5,40") == 0
    assert capsys.readouterr().out == dtf_csv_reference(model, band)


@pytest.mark.parametrize("count", GRID_COUNTS)
def test_reduce_equals_the_whole_grid_reduction(case, count, tmp_path, capsys):
    model, margs, pair_text, pair = case
    out = tmp_path / "red"
    assert run("reduce", *margs, "--pair", pair_text, "--grid", count, "--out", out) == 0
    ref = reduction_reference(model, pair, spectral.default_grid(count))
    assert (out / "reduced_polynomial.csv").read_bytes() == frequency_csv(ref.reduced_poly).encode()
    assert (out / "error_spectrum.csv").read_bytes() == frequency_csv(ref.error_spectrum).encode()
    deficit, white = whiteness_deficit(ref.error_spectrum), is_white(ref.error_spectrum)
    doc = json.loads((out / "reduction.json").read_text(encoding="utf-8"))
    assert (doc["whiteness_deficit"], doc["is_white"]) == (deficit, white)
    assert capsys.readouterr().out == f"whiteness_deficit={deficit:.6g} is_white={white}\n"


def _fail_on_second_block(monkeypatch):
    """Make ``spectral.dtf`` raise on its second call; returns the block sizes seen."""
    real, sizes = spectral.dtf, []

    def dtf(model, grid, normalized=True):
        sizes.append(len(grid))
        if len(sizes) == 2:
            raise SingularAtFrequency(grid.points[0])
        return real(model, grid, normalized)

    monkeypatch.setattr(spectral, "dtf", dtf)
    return sizes


def _numerical_error_line(err: str) -> str:
    assert err.count("\n") == 1 and err.startswith("error[numerical]: ")
    return err


def test_failed_dtf_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    sizes = _fail_on_second_block(monkeypatch)
    out = tmp_path / "out"
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 1025, "--out", out) == 1
    assert sizes == [342, 342]
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "singular matrix at frequency" in _numerical_error_line(captured.err)


def test_failed_dtf_on_stdout_keeps_the_blocks_written(monkeypatch, capsys):
    # rows already on stdout cannot be taken back: the header and the first
    # block's 342 rows stay, then the one error line
    _fail_on_second_block(monkeypatch)
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 1025) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 + 342
    _numerical_error_line(captured.err)


@pytest.mark.parametrize(
    "argv,message",
    [
        (("dtf", "--alpha", 1e200, "--beta", 1, "--raw"), "|H|^2 overflows at frequency 0 "),
        (("reduce", "--alpha", 1e200, "--beta", 1e200, "--pair", "1,2"),
         "spectral density overflows at frequency 0 "),
    ],
    ids=["dtf-raw", "reduce"],
)
def test_overflow_is_a_named_numerical_failure(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may escape
        assert run(*argv, "--out", out) == 1
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in _numerical_error_line(captured.err)


@pytest.mark.parametrize(
    "command,extra",
    [("dtf", ()), ("reduce", ("--pair", "1,2")), ("marginalize", ("--pair", "1,2"))],
)
def test_peak_allocation_is_below_half_of_one_whole_grid_h(command, extra, tmp_path):
    assert PEAK_BOUND_BYTES < 16385 * 12 * 12 * 16 / 2
    path = tmp_path / "model.json"
    write_model(random_stable_model(1, dim=12, order=4, radius=0.9), path)
    argv = (command, "--model", path, "--grid", 16385, "--out", tmp_path / "out", *extra)
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_BYTES


@pytest.mark.parametrize("count", [1025, 1537])
def test_library_reduction_equals_reduce_pair_on_the_whole_grid(case, count):
    model, _, _, pair = case
    grid = spectral.default_grid(count)
    assert len(list(spectral.grid_blocks(grid))) > 1
    ref = reduction_reference(model, pair, grid)
    assert np.array_equal(reduced_polynomial(model, pair, grid).values, ref.reduced_poly.values)
    assert np.array_equal(error_spectral_matrix(model, pair, grid).values, ref.error_spectrum.values)
    red = reduce_pair(model, pair, spectral.transfer_blocks(model, grid))
    assert np.array_equal(red.reduced_poly.values, ref.reduced_poly.values)
    assert np.array_equal(red.error_spectrum.values, ref.error_spectrum.values)
    assert np.array_equal(red.error_spectrum.grid.points, grid.points)


@pytest.mark.parametrize("count", GRID_COUNTS)
def test_marginal_residual_deficit_equals_the_whole_grid_one(case, count, tmp_path, capsys):
    model, margs, pair_text, pair = case
    grid = spectral.default_grid(count)
    rep = marginal_representation(model, pair)
    expected = residual_deficit_reference(model, pair, rep, grid)
    for transfer in (spectral.transfer_blocks(model, grid), [spectral.transfer_function(model, grid)]):
        assert innovation_whiteness_check(model, pair, rep, transfer) == expected
    out = tmp_path / "out"
    assert run("marginalize", *margs, "--pair", pair_text, "--grid", count, "--out", out) == 0
    doc = json.loads((out / "marginal.json").read_text(encoding="utf-8"))
    assert doc["whiteness_deficit"] == expected
    assert f"residual whiteness deficit: {expected:.6g}\n" in capsys.readouterr().out


def test_library_reduction_peak_allocation():
    model = random_stable_model(1, dim=12, order=4, radius=0.9)
    grid = spectral.default_grid(16385)
    tracemalloc.start()
    try:
        reduced_polynomial(model, ChannelPair(target=0, source=1), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LIBRARY_PEAK_BOUND_BYTES


def _whole_grid_transfer(model, grid):
    """H from one inversion of A(lambda) on the whole grid."""
    return spectral.invert_pointwise(spectral.char_polynomial(model, grid))


@pytest.mark.parametrize("count", GRID_COUNTS)
def test_transfer_function_equals_the_whole_grid_inversion(case, count):
    model = case[0]
    grid = spectral.default_grid(count)
    whole = _whole_grid_transfer(model, grid)
    assert np.array_equal(spectral.transfer_function(model, grid).values, whole.values)


@pytest.mark.parametrize("count", GRID_COUNTS)
def test_analyze_dtf_equals_the_dtf_command(case, count, tmp_path):
    model, margs, _, _ = case
    grid = spectral.default_grid(count)
    for flags in ((), ("--raw",)):
        out = tmp_path / f"out{len(flags)}"
        assert run("analyze", *margs, "--grid", count, *flags, "--out", out / "ana") == 0
        assert run("dtf", *margs, "--grid", count, *flags, "--out", out / "dtf") == 0
        expected = dtf_csv_reference(model, grid, normalized=not flags).encode()
        assert (out / "ana" / "dtf.csv").read_bytes() == expected
        assert (out / "dtf" / "dtf.csv").read_bytes() == expected


@pytest.mark.parametrize("count", GRID_COUNTS)
def test_analyze_density_and_report_equal_the_whole_grid_ones(case, count, tmp_path):
    model, margs, _, _ = case
    grid = spectral.default_grid(count)
    out = tmp_path / "out"
    assert run("analyze", *margs, "--grid", count, "--out", out) == 0
    density = spectral.spectral_density(model, grid)
    assert (out / "spectral_density.csv").read_bytes() == frequency_csv(density).encode()
    max_dtf = spectral.dtf_from_transfer(spectral.transfer_function(model, grid)).max(axis=0)
    pairs = json.loads((out / "report.json").read_text(encoding="utf-8"))["pairs"]
    assert len(pairs) == model.dim * (model.dim - 1)
    for p in pairs:
        assert p["max_dtf"] == max_dtf[p["target"] - 1, p["source"] - 1]


@pytest.mark.parametrize("count", GRID_COUNTS)
def test_counterexample_tables_equal_the_whole_grid_ones(count, tmp_path):
    model, pair = counterexample_model(0.7, -1.3), ChannelPair(target=0, source=1)
    grid = spectral.default_grid(count)
    out = tmp_path / "out"
    assert run("counterexample", "--alpha", 0.7, "--beta", -1.3, "--grid", count, "--out", out) == 0
    whole = _whole_grid_transfer(model, grid)
    assert (out / "transfer_function.csv").read_bytes() == frequency_csv(whole).encode()
    ref = reduction_reference(model, pair, grid)
    assert (out / "reduced_polynomial.csv").read_bytes() == frequency_csv(ref.reduced_poly).encode()
    assert (out / "error_spectrum.csv").read_bytes() == frequency_csv(ref.error_spectrum).encode()


def _near_unit_circle_model(thetas):
    """Block-diagonal model of 2x2 rotations by each theta, radius 1 - 1e-9.

    A(lambda) has condition about 1e9 at lambda = theta, which fails the
    inversion gate there and nowhere else on a grid through theta.
    """
    dim = 2 * len(thetas)
    a = np.zeros((dim, dim))
    for i, theta in enumerate(thetas):
        c, s = np.cos(theta), np.sin(theta)
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = (1.0 - 1e-9) * np.array([[c, -s], [s, c]])
    return make_var([a], np.eye(dim))


@pytest.mark.parametrize("command", ["analyze", "granger"])
def test_singular_point_in_a_later_block_is_named(command, tmp_path, capsys):
    # bad points in the second and third of 1025 points' three blocks: the
    # first in grid order is named, as by one inversion of the whole grid
    grid = spectral.default_grid(1025)
    first, later = 400, 900
    model = _near_unit_circle_model([grid.points[later], grid.points[first]])
    with pytest.raises(SingularAtFrequency) as exc:
        _whole_grid_transfer(model, grid)
    assert exc.value.frequency == grid.points[first]
    path = tmp_path / "model.json"
    write_model(model, path)
    out = tmp_path / "out"
    assert run(command, "--model", path, "--grid", 1025, "--out", out) == 1
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    named = f"singular matrix at frequency {grid.points[first]:.6g} rad/sample (inversion residual"
    assert named in _numerical_error_line(captured.err)


@pytest.mark.parametrize(
    "command,bound,qmax",
    [
        (("analyze", "--out", "OUT"), ANALYZE_PEAK_BOUND_H, ("--qmax", 16)),
        (("granger", "--json"), GRANGER_PEAK_BOUND_H, ("--qmax", 16)),
        # the residual checks' Phi(lambda) at order up to 128, read block by block
        (("analyze", "--out", "OUT"), ANALYZE_PEAK_BOUND_H, ()),
    ],
    ids=["analyze", "granger", "analyze-default-qmax"],
)
def test_only_h_is_held_whole(command, bound, qmax, tmp_path, capsys):
    count, dim = 4097, 8
    h_bytes = count * dim * dim * 16
    path = tmp_path / "model.json"
    write_model(random_stable_model(1, dim=dim, order=4, radius=0.7), path)
    argv = [tmp_path / "out" if a == "OUT" else a for a in command]
    tracemalloc.start()
    try:
        assert run(*argv, "--model", path, "--grid", count, *qmax) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= bound * h_bytes


def _record_blocks(monkeypatch):
    """Wrap ``spectral.char_polynomial`` to record, per call, (block's first point,
    thread, ``np.geterr()``); returns the list, appended from either thread."""
    real, calls = spectral.char_polynomial, []

    def char_polynomial(model, grid):
        calls.append((grid.points[0], threading.current_thread(), np.geterr()))
        return real(model, grid)

    monkeypatch.setattr(spectral, "char_polynomial", char_polynomial)
    return calls


def _block_indices(grid, calls) -> list:
    firsts = [b.points[0] for b in spectral.grid_blocks(grid)]
    return sorted(firsts.index(first) for first, _, _ in calls)


#: Five blocks of about 410 points: the pairs (0, 1) and (2, 3), then block 4 alone.
PAIRED_GRID = spectral.default_grid(2049)


def _paired(model):
    """``model`` with white-noise channels appended up to ``PAIR_MIN_DIM``, so that its H
    is walked in pairs of blocks."""
    dim = max(model.dim, spectral.PAIR_MIN_DIM)
    coeffs = np.zeros((model.order, dim, dim))
    coeffs[:, : model.dim, : model.dim] = model.coeffs
    return make_var(list(coeffs), np.eye(dim))


WALKS = {
    "transfer_function": lambda model, grid: spectral.transfer_function(model, grid),
    "transfer_blocks": lambda model, grid: list(spectral.transfer_blocks(model, grid)),
}


@pytest.mark.parametrize("walk", WALKS)
def test_a_failure_on_the_helper_is_named_and_stops_the_walk(walk, monkeypatch):
    # the singular point is in block 1, which the helper computes beside block 0
    blocks = list(spectral.grid_blocks(PAIRED_GRID))
    assert len(blocks) == 5
    bad = blocks[1].points[100]
    calls = _record_blocks(monkeypatch)
    with pytest.raises(SingularAtFrequency) as exc:
        WALKS[walk](_paired(_near_unit_circle_model([bad])), PAIRED_GRID)
    assert exc.value.frequency == bad
    assert _block_indices(PAIRED_GRID, calls) == [0, 1]


@pytest.mark.parametrize("walk", WALKS)
def test_the_earlier_failure_of_a_pair_is_named(walk, monkeypatch):
    blocks = list(spectral.grid_blocks(PAIRED_GRID))
    first, later = blocks[0].points[300], blocks[1].points[5]
    calls = _record_blocks(monkeypatch)
    with pytest.raises(SingularAtFrequency) as exc:
        WALKS[walk](_paired(_near_unit_circle_model([later, first])), PAIRED_GRID)
    assert exc.value.frequency == first
    assert _block_indices(PAIRED_GRID, calls) == [0, 1]


@pytest.mark.parametrize("walk", WALKS)
def test_every_block_sees_the_callers_errstate(walk, monkeypatch):
    model = random_stable_model(2, dim=spectral.PAIR_MIN_DIM, order=2, radius=0.8)
    calls = _record_blocks(monkeypatch)
    expected = {"divide": "ignore", "over": "raise", "under": "warn", "invalid": "ignore"}
    with np.errstate(**expected):
        WALKS[walk](model, PAIRED_GRID)
    assert _block_indices(PAIRED_GRID, calls) == [0, 1, 2, 3, 4]
    assert all(err == expected for _, _, err in calls)
    # blocks 1 and 3 ran on the helper, the rest in the caller
    helper = {first for first, thread, _ in calls if thread is not threading.current_thread()}
    assert helper == {b.points[0] for b in list(spectral.grid_blocks(PAIRED_GRID))[1::2]}


def _python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this vardtf."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


def _helper_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("vardtf-spectral")]


def test_only_walks_of_several_blocks_start_a_helper_and_none_outlives_its_command(tmp_path):
    # a one-block grid or a model below PAIR_MIN_DIM channels is walked in the caller, and
    # nothing imports the helper's pool; a d>=8 several-block walk of H runs its odd blocks,
    # and a table of several blocks its later writes, on a thread that ends with the walk,
    # also when the walk fails (in block 1, on the helper)
    out, path, bad = str(tmp_path), str(tmp_path / "m.json"), str(tmp_path / "bad.json")
    write_model(random_stable_model(1, dim=spectral.PAIR_MIN_DIM, order=2), path)
    singular = list(spectral.grid_blocks(PAIRED_GRID))[1].points[100]
    write_model(_paired(_near_unit_circle_model([singular])), bad)
    result = _python(f"""
import sys, threading
from vardtf import spectral
from vardtf.cli import main

caller, threads = threading.current_thread(), []

def recorded(real):
    def call(*args):
        threads.append(threading.current_thread())
        return real(*args)
    return call

spectral.char_polynomial = recorded(spectral.char_polynomial)
spectral.frequency_matrix_to_csv = recorded(spectral.frequency_matrix_to_csv)
small, large = ("--alpha", "1", "--beta", "1"), ("--model", {path!r})
print("@import", "concurrent.futures" in sys.modules, threading.active_count())
for code, argv in [
    (0, ("analyze", *large, "--out", {out!r})),
    (0, ("granger", *large, "--json")),
    (0, ("dtf", *large, "--out", {out!r})),
    (0, ("reduce", *large, "--pair", "1,2", "--out", {out!r})),
    (0, ("reduce", *small, "--pair", "1,2", "--grid", "16385", "--out", {out!r})),
    (0, ("counterexample", *small, "--grid", "16385", "--out", {out!r})),
    (0, ("reduce", *large, "--pair", "1,2", "--grid", "16385", "--out", {out!r})),
    (0, ("dtf", *small, "--grid", "16385", "--out", {out!r})),
    (1, ("reduce", "--model", {bad!r}, "--pair", "1,2", "--grid", "2049", "--out", {out!r})),
]:
    threads.clear()
    assert main(list(argv)) == code
    helper = any(thread is not caller for thread in threads)
    print("@" + argv[0], "concurrent.futures" in sys.modules, helper, threading.active_count())
""")
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if line.startswith("@")]
    assert lines == [
        "@import False 1",
        "@analyze False False 1",
        "@granger False False 1",
        "@dtf False False 1",
        "@reduce False False 1",
        "@reduce False False 1",
        "@counterexample False False 1",
        "@reduce True True 1",
        "@dtf True True 1",
        "@reduce True True 1",
    ]


def test_held_blocks_are_written_in_the_caller(monkeypatch):
    # a tuple of several blocks is written with no helper, and gives the bytes of the
    # same blocks given lazily, whose later writes run on the helper
    real, threads = spectral.frequency_matrix_to_csv, []

    def frequency_matrix_to_csv(*args):  # as the write-behind calls it: positionally
        threads.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(spectral, "frequency_matrix_to_csv", frequency_matrix_to_csv)
    held = tuple(spectral.transfer_blocks(counterexample_model(1, 1), PAIRED_GRID))
    tables = {}
    for name, blocks in [("held", held), ("lazy", iter(held))]:
        threads.clear()
        fh = io.StringIO()
        spectral.frequency_table_to_csv(blocks, fh)
        tables[name] = fh.getvalue()
        callers = [thread is threading.current_thread() for thread in threads]
        assert callers == ([True] * 5 if name == "held" else [True] + [False] * 4)
    assert tables["held"] == tables["lazy"]
    assert _helper_threads() == []


def test_dtf_computes_every_block_in_the_caller(tmp_path, monkeypatch):
    # dtf computes each block's H in the caller (spectral.dtf on the block), not through the
    # paired walk of transfer_blocks: beside the table's write-behind that walk made three
    # busy threads and ran slower on 2 vCPUs, so only the writes after the first run on
    # the helper, even for a model of PAIR_MIN_DIM channels over several blocks
    path = tmp_path / "m.json"
    write_model(random_stable_model(2, dim=spectral.PAIR_MIN_DIM, order=2, radius=0.8), path)
    calls = _record_blocks(monkeypatch)
    real, writes = spectral.frequency_matrix_to_csv, []

    def frequency_matrix_to_csv(*args):  # as the write-behind calls it: positionally
        writes.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(spectral, "frequency_matrix_to_csv", frequency_matrix_to_csv)
    assert run("dtf", "--model", path, "--grid", len(PAIRED_GRID), "--out", tmp_path / "out") == 0
    caller = threading.current_thread()
    assert _block_indices(PAIRED_GRID, calls) == [0, 1, 2, 3, 4]
    assert all(thread is caller for _, thread, _ in calls)
    assert [thread is caller for thread in writes] == [True] + [False] * 4
    assert _helper_threads() == []


def test_a_dropped_walk_waits_for_the_helpers_block_and_leaves_no_thread(monkeypatch):
    real, caller, ended = spectral.char_polynomial, threading.current_thread(), []

    def char_polynomial(model, grid):
        if threading.current_thread() is not caller:
            time.sleep(0.2)  # so that block 1 is still running when block 0 is yielded
        result = real(model, grid)
        ended.append(grid.points[0])
        return result

    monkeypatch.setattr(spectral, "char_polynomial", char_polynomial)
    model = random_stable_model(2, dim=spectral.PAIR_MIN_DIM, order=2, radius=0.8)
    walk = spectral.transfer_blocks(model, PAIRED_GRID)
    next(walk)
    walk.close()
    blocks = list(spectral.grid_blocks(PAIRED_GRID))
    assert sorted(ended) == [blocks[0].points[0], blocks[1].points[0]]
    assert _helper_threads() == []


@pytest.mark.parametrize("walk", WALKS)
def test_a_failed_walk_leaves_no_thread(walk):
    bad = list(spectral.grid_blocks(PAIRED_GRID))[1].points[100]
    with pytest.raises(SingularAtFrequency):
        WALKS[walk](_paired(_near_unit_circle_model([bad])), PAIRED_GRID)
    assert _helper_threads() == []


def test_a_forked_child_gets_its_own_helper():
    # the parent's helper thread is not copied into the child, which must not wait on it
    result = _python("""
import multiprocessing, sys
import numpy as np
from vardtf import make_var, spectral
dim = spectral.PAIR_MIN_DIM
model = make_var([0.5 * np.eye(dim), 0.02 * np.ones((dim, dim))], np.eye(dim))
grid = spectral.default_grid(2049)
h = spectral.transfer_function(model, grid).values

def child():
    sys.exit(0 if np.array_equal(spectral.transfer_function(model, grid).values, h) else 3)

proc = multiprocessing.get_context("fork").Process(target=child)
proc.start()
proc.join(60)
if proc.exitcode is None:
    proc.kill()
    proc.join()
    sys.exit("the child hung")
sys.exit(proc.exitcode)
""")
    assert result.returncode == 0, result.stderr


def test_a_failed_block_waits_for_the_write_before_it(monkeypatch, capsys):
    # block 2 fails while block 1 is written on the helper: both earlier blocks are
    # on stdout in full before the one error line
    real, sizes = spectral.dtf, []

    def dtf(model, grid, normalized=True):
        sizes.append(len(grid))
        if len(sizes) == 3:
            raise SingularAtFrequency(grid.points[0])
        return real(model, grid, normalized)

    monkeypatch.setattr(spectral, "dtf", dtf)
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 1025) == 1
    assert sizes == [342, 342, 341]
    captured = capsys.readouterr()
    expected = dtf_csv_reference(counterexample_model(1, 1), spectral.default_grid(1025))
    assert captured.out == "".join(expected.splitlines(keepends=True)[: 1 + 2 * 342])
    _numerical_error_line(captured.err)


def test_a_failed_write_on_the_helper_is_one_io_error(tmp_path, monkeypatch, capsys):
    real, threads = spectral.frequency_matrix_to_csv, []

    def frequency_matrix_to_csv(fm, fh, header=True):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise OSError(28, "No space left on device")
        return real(fm, fh, header)

    monkeypatch.setattr(spectral, "frequency_matrix_to_csv", frequency_matrix_to_csv)
    out = tmp_path / "out"
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 1025, "--out", out) == 2
    # block 0 was written in the caller, block 1 failed on the helper, block 2 was never handed over
    assert len(threads) == 2 and threads[0] is threading.current_thread() is not threads[1]
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[io]: [Errno 28] No space left on device\n"


def test_a_failed_write_is_raised_ahead_of_the_next_blocks_failure(tmp_path, monkeypatch, capsys):
    # block 1's write fails on the helper while the caller's block 2 fails: the write's
    # error is the command's, raised once the write ended, and the file is removed
    real_dtf, real_csv, sizes, writes = spectral.dtf, spectral.frequency_matrix_to_csv, [], []

    def dtf(model, grid, normalized=True):
        sizes.append(len(grid))
        if len(sizes) == 3:
            raise SingularAtFrequency(grid.points[0])
        return real_dtf(model, grid, normalized)

    def frequency_matrix_to_csv(fm, fh, header=True):
        writes.append(len(fm.grid))
        if len(writes) == 2:
            raise OSError(28, "No space left on device")
        return real_csv(fm, fh, header)

    monkeypatch.setattr(spectral, "dtf", dtf)
    monkeypatch.setattr(spectral, "frequency_matrix_to_csv", frequency_matrix_to_csv)
    out = tmp_path / "out"
    assert run("dtf", "--alpha", 1, "--beta", 1, "--grid", 1025, "--out", out) == 2
    assert sizes == [342, 342, 341] and writes == [342, 342]
    assert list(out.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[io]: [Errno 28] No space left on device\n"
