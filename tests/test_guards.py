"""Input guards and edge cases of the small helpers, one test each."""

import json

import numpy as np
import pytest

from vardtf import VarModel, default_grid, fit_var, read_model, whittle_recursion
from vardtf.estimate import Trajectory
from vardtf.exceptions import ShapeMismatch
from vardtf.jsonio import canonical_json
from vardtf.model import model_from_dict
from vardtf.moments import AutocovSequence
from vardtf.reduction import is_white
from vardtf.spectral import FrequencyMatrix


@pytest.mark.parametrize(
    "value, text", [(float("nan"), '"nan"'), (float("inf"), '"inf"'), (float("-inf"), '"-inf"')]
)
def test_canonical_json_non_finite_floats_are_strings(value, text):
    assert canonical_json(value) == text + "\n"
    assert canonical_json({"x": value}) == '{\n  "x": ' + text + "\n}\n"


@pytest.mark.parametrize("empty, text", [({}, "{}"), ([], "[]"), ((), "[]")])
def test_canonical_json_empty_containers_are_bare(empty, text):
    assert canonical_json(empty) == text + "\n"
    assert canonical_json({"a": empty}) == '{\n  "a": ' + text + "\n}\n"


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), np.zeros(2)])
def test_canonical_json_rejects_unsupported_types(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json({"x": value})


def test_all_zero_spectrum_is_white():
    grid = default_grid(5)
    assert is_white(FrequencyMatrix(grid, np.zeros((5, 2, 2)))) is True


def test_whittle_recursion_rejects_negative_order():
    seq = AutocovSequence(np.stack([np.eye(2), 0.5 * np.eye(2)]))
    with pytest.raises(ShapeMismatch, match="order must be non-negative"):
        whittle_recursion(seq, -1)


def test_frequency_matrix_rejects_two_dimensional_values():
    with pytest.raises(ShapeMismatch, match=r"\(points, rows, cols\)"):
        FrequencyMatrix(default_grid(3), np.zeros((3, 2)))


def test_frequency_matrix_rejects_point_count_mismatch():
    with pytest.raises(ShapeMismatch, match="4 matrices for 3 grid points"):
        FrequencyMatrix(default_grid(3), np.zeros((4, 2, 2)))


def test_autocov_sequence_rejects_two_dimensional_array():
    with pytest.raises(ShapeMismatch, match="expected \\(maxlag \\+ 1, d, d\\)"):
        AutocovSequence(np.eye(2))


def test_trajectory_rejects_one_dimensional_samples():
    with pytest.raises(ShapeMismatch, match="expected \\(length, dim\\)"):
        Trajectory(np.zeros(10), seed=0)


def test_fit_order_zero_rejected():
    traj = Trajectory(np.random.default_rng(0).standard_normal((50, 2)), seed=0)
    with pytest.raises(ShapeMismatch, match="fit order must be at least 1"):
        fit_var(traj, 0)


def test_read_model_rejects_json_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ShapeMismatch, match="must contain a JSON object"):
        read_model(path)


def test_model_document_dim_must_match_sigma():
    doc = {"dim": 3, "order": 1, "coeffs": [[[0.5, 0.0], [0.0, 0.5]]], "sigma": np.eye(2).tolist()}
    with pytest.raises(ShapeMismatch, match="declares dim 3 but sigma is 2-dimensional"):
        model_from_dict(doc)


def test_var_model_rejects_non_square_sigma():
    with pytest.raises(ShapeMismatch, match="expected a square matrix"):
        VarModel(np.zeros((1, 2, 2)), np.ones((2, 3)))
