import errno
import io
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vardtf import (
    AutocovSequence,
    ChannelPair,
    ConvergenceInfo,
    FrequencyGrid,
    FrequencyMatrix,
    MarginalAR,
    Trajectory,
    VarModel,
    companion_matrix,
    counterexample_model,
    make_var,
    read_model,
    write_model,
)
from vardtf.spectral import default_grid
from vardtf.exceptions import (
    NotPositiveSemiDefinite,
    OrderZero,
    ShapeMismatch,
    Unstable,
)
import vardtf.model
from vardtf.model import model_from_dict

from helpers import random_stable_model


class TestMakeVar:
    def test_white_noise_var0(self):
        m = make_var([], np.eye(2))
        assert m.dim == 2
        assert m.order == 0
        assert m.spectral_radius == 0.0

    def test_counterexample_accepted(self):
        m = counterexample_model(1.0, 1.0)
        assert m.dim == 3
        assert m.order == 2
        assert m.coeffs[0][1, 2] == 1.0
        assert m.coeffs[1][0, 2] == 1.0
        # every other coefficient entry is exactly zero
        mask1 = np.ones((3, 3), dtype=bool)
        mask1[1, 2] = False
        mask2 = np.ones((3, 3), dtype=bool)
        mask2[0, 2] = False
        assert np.all(m.coeffs[0][mask1] == 0.0)
        assert np.all(m.coeffs[1][mask2] == 0.0)
        assert_allclose(m.sigma, np.eye(3))

    def test_unit_root_rejected(self):
        with pytest.raises(Unstable) as exc:
            make_var([[[1.0]]], [[1.0]])
        assert exc.value.spectral_radius == pytest.approx(1.0)

    def test_near_unit_root_margin(self):
        make_var([[[1.0 - 1e-9]]], [[1.0]])
        with pytest.raises(Unstable):
            make_var([[[1.0 - 1e-11]]], [[1.0]])

    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(NotPositiveSemiDefinite):
            make_var([], [[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_sigma_rejected(self):
        with pytest.raises(NotPositiveSemiDefinite):
            make_var([], [[1.0, 2.0], [2.0, 1.0]])

    def test_tiny_negative_eigenvalue_tolerated(self):
        make_var([], [[1.0, 1.0], [1.0, 1.0 - 1e-12]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_var([np.zeros((2, 3))], np.eye(2))
        with pytest.raises(ShapeMismatch):
            make_var([np.zeros((3, 3))], np.eye(2))

    @pytest.mark.parametrize(
        "coeffs,sigma,error",
        [
            ([[[0.5]]], [[np.nan]], NotPositiveSemiDefinite),
            ([], [[np.inf]], NotPositiveSemiDefinite),
            ([[[np.nan]]], [[1.0]], ShapeMismatch),
        ],
    )
    def test_non_finite_rejected(self, coeffs, sigma, error):
        with pytest.raises(error, match="not finite"):
            make_var(coeffs, sigma)

    def test_spectral_radius_is_derived(self):
        m = make_var([[[0.5]]], [[1.0]])
        assert m.spectral_radius == 0.5
        with pytest.raises(TypeError):
            VarModel(coeffs=np.zeros((0, 1, 1)), sigma=[[1.0]], spectral_radius=0.5)

    def test_model_immutable(self):
        m = counterexample_model(1.0, 1.0)
        with pytest.raises(ValueError):
            m.sigma[0, 0] = 2.0
        with pytest.raises(ValueError):
            m.coeffs[0][0, 0] = 2.0


class TestCounterexampleFamily:
    def test_zero_params_is_white_noise_coupling(self):
        m = counterexample_model(0.0, 0.0)
        assert np.all(m.coeffs[0] == 0.0)
        assert np.all(m.coeffs[1] == 0.0)

    @pytest.mark.parametrize("alpha", [-10.0, -2.5, 0.0, 3.7, 10.0])
    @pytest.mark.parametrize("beta", [-10.0, -1.0, 0.5, 10.0])
    def test_always_stable(self, alpha, beta):
        m = counterexample_model(alpha, beta)
        assert m.spectral_radius < 1e-8

    def test_random_params_always_stable(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha, beta = rng.uniform(-10, 10, size=2)
            m = counterexample_model(alpha, beta)
            assert m.spectral_radius < 1e-8


class TestCompanion:
    def test_scalar(self):
        m = make_var([[[0.5]]], [[1.0]])
        assert_allclose(companion_matrix(m), [[0.5]])

    def test_counterexample_nilpotent(self):
        comp = companion_matrix(counterexample_model(1.0, 1.0))
        assert comp.shape == (6, 6)
        # characteristic polynomial of the lift is lambda^6: all roots at zero
        charpoly = np.poly(comp)
        assert charpoly[0] == 1.0
        assert np.max(np.abs(charpoly[1:])) < 1e-12
        assert np.all(np.linalg.matrix_power(comp, 6) == 0.0)

    def test_block_structure(self):
        m = random_stable_model(0, dim=2, order=2)
        comp = companion_matrix(m)
        assert comp.shape == (4, 4)
        assert_allclose(comp[:2, :2], m.coeffs[0])
        assert_allclose(comp[:2, 2:], m.coeffs[1])
        assert_allclose(comp[2:, :2], np.eye(2))
        assert_allclose(comp[2:, 2:], np.zeros((2, 2)))

    def test_order_zero(self):
        with pytest.raises(OrderZero):
            companion_matrix(make_var([], np.eye(2)))

    def test_accepted_models_have_stable_companion(self):
        for seed in range(10):
            m = random_stable_model(seed, dim=3, order=2, radius=0.9)
            rho = np.max(np.abs(np.linalg.eigvals(companion_matrix(m))))
            assert rho < 1.0


class TestChannelPair:
    def test_fields_and_order(self):
        pair = ChannelPair(source=2, target=0)
        assert pair.channels == (0, 2)

    def test_rejects_equal(self):
        with pytest.raises(ShapeMismatch):
            ChannelPair(source=1, target=1)

    def test_rejects_negative(self):
        with pytest.raises(ShapeMismatch):
            ChannelPair(source=-1, target=0)

    def test_range_check(self):
        with pytest.raises(ShapeMismatch):
            ChannelPair(source=5, target=0).check_dim(3)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        for seed in range(5):
            m = random_stable_model(seed, dim=3, order=2)
            path = tmp_path / f"model_{seed}.json"
            write_model(m, path)
            back = read_model(path)
            assert back.dim == m.dim and back.order == m.order
            for a, b in zip(m.coeffs, back.coeffs):
                assert a.tobytes() == b.tobytes()
            assert m.sigma.tobytes() == back.sigma.tobytes()

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        class FullDisk(io.TextIOWrapper):
            """Takes the first half of each write, then fails as a full disk does."""

            def write(self, text):
                super().write(text[: len(text) // 2])
                self.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def open_on_a_full_disk(file, mode="r", **kwargs):
            return FullDisk(open(file, "wb"), **kwargs) if "w" in mode else open(file, mode, **kwargs)

        monkeypatch.setattr(vardtf.model, "open", open_on_a_full_disk, raising=False)
        path = tmp_path / "model.json"
        with pytest.raises(OSError, match="No space left"):
            write_model(counterexample_model(1.0, 1.0), path)
        assert list(tmp_path.iterdir()) == []

    def test_missing_field_named(self):
        with pytest.raises(ShapeMismatch, match="sigma"):
            model_from_dict({"dim": 2, "order": 0, "coeffs": []})

    @pytest.mark.parametrize(
        "key,value",
        [("dim", True), ("dim", 1.0), ("dim", "1"), ("order", True), ("order", 1.5), ("order", "1")],
    )
    def test_declared_counts_must_be_integers(self, key, value, tmp_path):
        # a 1-channel, order-1 model: int() of each value matches its arrays
        doc = make_var([[[0.5]]], [[1.0]]).to_dict()
        doc[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeMismatch, match=f"'{key}' must be an integer"):
            read_model(path)

    @pytest.mark.parametrize("coeffs", [5, None, {}, "a"])
    def test_coeffs_must_be_a_list(self, coeffs):
        doc = {"dim": 1, "order": 0, "coeffs": coeffs, "sigma": [[1.0]]}
        with pytest.raises(ShapeMismatch, match="'coeffs' must be a list"):
            model_from_dict(doc)

    def test_inconsistent_declared_order(self):
        doc = counterexample_model(1.0, 1.0).to_dict()
        doc["order"] = 1
        with pytest.raises(ShapeMismatch):
            model_from_dict(doc)


# Every value class keeps its arrays by one rule: (fresh data that owns its memory, the
# object built from views of it, the arrays that object keeps, whether it may keep views).
# VarModel converts its inputs with np.array, so it never shares a caller's memory.
VALUE_CLASSES = {
    "VarModel": (
        lambda: np.stack([0.5 * np.eye(2), np.eye(2)]),
        lambda a: VarModel(a[:1], a[1]),
        lambda m: (m.coeffs, m.sigma),
        False,
    ),
    "FrequencyGrid": (
        lambda: np.pi / 8 * np.arange(9.0),
        lambda a: FrequencyGrid(a[2:]),
        lambda g: (g.points,),
        True,
    ),
    "FrequencyMatrix": (
        lambda: np.ones((9, 2, 3), dtype=complex),
        lambda a: FrequencyMatrix(default_grid(8), a[1:]),
        lambda fm: (fm.values,),
        True,
    ),
    "AutocovSequence": (
        lambda: np.ones((4, 2, 2)),
        lambda a: AutocovSequence(a[1:]),
        lambda acov: (acov.gammas,),
        True,
    ),
    "MarginalAR": (
        lambda: np.ones((4, 2, 2)),
        lambda a: MarginalAR(None, a[:2], a[2], ConvergenceInfo(0.0, 0.0, True), a[1:]),
        lambda rep: (rep.phis, rep.innov_cov, rep.gammas),
        True,
    ),
    "Trajectory": (
        lambda: np.ones((6, 2)),
        lambda a: Trajectory(a[1:], seed=0),
        lambda traj: (traj.samples,),
        True,
    ),
}


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_value_objects_keep_no_view_a_caller_can_write(name):
    data, build, kept, shares = VALUE_CLASSES[name]
    # views of a writable numpy array, and of memory numpy does not own, then both written
    a = data()
    buffer = bytearray(a.tobytes())
    objects = [build(a), build(np.frombuffer(buffer, dtype=a.dtype).reshape(a.shape))]
    before = [[x.copy() for x in kept(obj)] for obj in objects]
    a.fill(0)
    buffer[:] = bytes(len(buffer))
    for obj, was in zip(objects, before):
        for x, y in zip(kept(obj), was):
            assert np.array_equal(x, y)
            assert not x.flags.writeable
    # a read-only view of read-only numpy memory is kept uncopied
    frozen = data()
    frozen.setflags(write=False)
    for x in kept(build(frozen)):
        assert np.shares_memory(x, frozen) == shares
        assert not x.flags.writeable
