import io
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vardtf import (
    char_polynomial,
    counterexample_model,
    default_grid,
    dtf,
    make_var,
    simulate,
    spectral_density,
    transfer_function,
)
from vardtf.exceptions import DegenerateRow, ShapeMismatch, SingularAtFrequency
from vardtf.spectral import (
    RESIDUAL_CHUNK,
    FrequencyGrid,
    FrequencyMatrix,
    dtf_from_transfer,
    frequency_matrix_to_csv,
    invert_pointwise,
)

from helpers import fourier_subgrid, random_stable_model, smoothed_periodogram


class TestGrid:
    def test_default(self):
        g = default_grid()
        assert len(g) == 257
        assert g.points[0] == 0.0
        assert g.points[-1] == pytest.approx(np.pi)
        assert np.pi / 2 in g.points

    @pytest.mark.parametrize("count", [-3, 0, 1])
    def test_rejects_fewer_than_two_points(self, count):
        with pytest.raises(ShapeMismatch, match="at least two frequency points"):
            default_grid(count)

    def test_band(self):
        g = default_grid(5, 0.5, 1.5)
        assert np.array_equal(g.points, np.linspace(0.5, 1.5, 5))

    def test_rejects_unsorted(self):
        with pytest.raises(ShapeMismatch):
            FrequencyGrid(np.array([0.0, 0.5, 0.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            FrequencyGrid(np.array([-0.1, 1.0]))
        with pytest.raises(ShapeMismatch):
            FrequencyGrid(np.array([0.0, 3.5]))

    def test_rejects_single_point(self):
        with pytest.raises(ShapeMismatch):
            FrequencyGrid(np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ShapeMismatch, match="finite"):
            FrequencyGrid(np.array([0.0, bad]))


class TestCharPolynomial:
    def test_white_noise_identity(self):
        a = char_polynomial(make_var([], np.eye(3)), default_grid(17))
        assert_allclose(a.values, np.broadcast_to(np.eye(3), (17, 3, 3)))

    def test_scalar_at_zero(self):
        a = char_polynomial(make_var([[[0.5]]], [[1.0]]), default_grid(3))
        assert a.values[0, 0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (2.0, -0.5)])
    def test_counterexample_closed_form(self, alpha, beta):
        grid = default_grid(33)
        a = char_polynomial(counterexample_model(alpha, beta), grid)
        lam = grid.points
        expected = np.broadcast_to(np.eye(3, dtype=complex), (33, 3, 3)).copy()
        expected[:, 0, 2] = -alpha * np.exp(-2j * lam)
        expected[:, 1, 2] = -beta * np.exp(-1j * lam)
        assert_allclose(a.values, expected, atol=1e-15)

    def test_lag_sum_at_zero(self):
        m = random_stable_model(3)
        a = char_polynomial(m, default_grid(5))
        assert_allclose(a.values[0], np.eye(3) - m.coeffs[0] - m.coeffs[1], atol=1e-14)


class TestTransferFunction:
    def test_white_noise_identity(self):
        h = transfer_function(make_var([], np.eye(2)), default_grid(9))
        assert_allclose(h.values, np.broadcast_to(np.eye(2), (9, 2, 2)))

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.5, 2.0), (-1.5, 0.7)])
    def test_counterexample_closed_form(self, alpha, beta):
        grid = default_grid(65)
        h = transfer_function(counterexample_model(alpha, beta), grid)
        lam = grid.points
        expected = np.broadcast_to(np.eye(3, dtype=complex), (65, 3, 3)).copy()
        expected[:, 0, 2] = alpha * np.exp(-2j * lam)
        expected[:, 1, 2] = beta * np.exp(-1j * lam)
        assert_allclose(h.values, expected, atol=1e-14)
        assert np.all(h.values[:, 0, 1] == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_inverse_contract(self, seed):
        m = random_stable_model(seed, dim=4, order=2, radius=0.8)
        grid = default_grid(129)
        a = char_polynomial(m, grid)
        h = transfer_function(m, grid)
        resid = np.linalg.norm(h.values @ a.values - np.eye(4), axis=(1, 2))
        assert resid.max() < 1e-10

    def test_singular_near_unit_circle(self):
        # accepted (radius below the margin) but numerically hopeless at
        # frequency zero: the Jordan-type coupling blows up the condition
        a = 1.0 - 2e-10
        m = make_var([np.array([[a, 0.1], [0.0, a]])], np.eye(2))
        with pytest.raises(SingularAtFrequency) as exc:
            transfer_function(m, default_grid(5))
        assert exc.value.frequency == pytest.approx(0.0)


    def test_residual_failure_located_past_the_first_block(self):
        # [[1, 1e8], [1e-8, 1 + 1e-12]] inverts without a LinAlgError but
        # fails the residual gate; the first failing point is reported
        grid = default_grid(3 * RESIDUAL_CHUNK)
        values = np.broadcast_to(np.eye(2, dtype=complex), (len(grid), 2, 2)).copy()
        bad = [RESIDUAL_CHUNK + 7, 2 * RESIDUAL_CHUNK + 1]
        values[bad] = [[1.0, 1e8], [1e-8, 1.0 + 1e-12]]
        with pytest.raises(SingularAtFrequency, match="inversion residual") as exc:
            invert_pointwise(FrequencyMatrix(grid, values))
        assert exc.value.frequency == grid.points[bad[0]]

    def test_nan_entry_fails_the_residual_gate(self):
        # a NaN entry inverts without a LinAlgError to an all-NaN matrix,
        # whose NaN residual must fail the gate at that point
        grid = default_grid(5)
        values = np.broadcast_to(np.eye(2, dtype=complex), (len(grid), 2, 2)).copy()
        values[3, 0, 1] = np.nan
        with pytest.raises(SingularAtFrequency) as exc:
            invert_pointwise(FrequencyMatrix(grid, values))
        assert exc.value.frequency == grid.points[3]

    def test_inversion_memory_bounded(self):
        # the residual check runs block by block, so the peak is A and H
        # plus small temporaries (2.1x H here), not two more grid-sized
        # products (4.0x)
        m = random_stable_model(1, dim=12, order=4, radius=0.7)
        grid = default_grid(8193)
        tracemalloc.start()
        try:
            h = transfer_function(m, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * h.values.nbytes


class TestSpectralDensity:
    def test_white_noise_constant(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        f = spectral_density(make_var([], sigma), default_grid(9))
        assert_allclose(f.values, np.broadcast_to(sigma / (2 * np.pi), (9, 2, 2)))

    def test_counterexample_diagonal(self):
        f = spectral_density(counterexample_model(1.0, 1.0), default_grid(9))
        assert_allclose(f.values[:, 0, 0].real, 2.0 / (2 * np.pi))
        assert_allclose(f.values[:, 1, 1].real, 2.0 / (2 * np.pi))
        assert_allclose(f.values[:, 2, 2].real, 1.0 / (2 * np.pi))

    @pytest.mark.parametrize("seed", range(5))
    def test_hermitian_psd(self, seed):
        m = random_stable_model(seed, dim=3, order=2, radius=0.85)
        f = spectral_density(m, default_grid(65))
        assert np.array_equal(f.values, f.values.conj().transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(f.values)
        assert eigs.min() >= -1e-10

    def test_periodogram_oracle(self):
        m = random_stable_model(42, dim=3, order=2, radius=0.55)
        traj = simulate(m, 200_000, seed=9, burn_in=1000)
        freqs, smoothed = smoothed_periodogram(traj.samples, half_width=1000)
        ks = fourier_subgrid(traj.length)
        grid = FrequencyGrid(freqs[ks])
        exact = spectral_density(m, grid).values
        rel = np.linalg.norm(smoothed[ks] - exact, axis=(1, 2)) / np.linalg.norm(
            exact, axis=(1, 2)
        )
        assert rel.mean() < 0.05


class TestDtf:
    def test_counterexample_target_source_zero(self):
        vals = dtf(counterexample_model(1.0, 1.0), default_grid())
        assert vals[:, 0, 1].max() == 0.0

    def test_counterexample_raw_value(self):
        vals = dtf(counterexample_model(1.0, 1.0), default_grid(33), normalized=False)
        assert_allclose(vals[:, 0, 2], 1.0, atol=1e-14)

    def test_white_noise_off_diagonal_zero(self):
        vals = dtf(make_var([], np.eye(3)), default_grid(9))
        off = vals * (1.0 - np.eye(3))
        assert np.all(off == 0.0)

    def test_normalized_range_and_rows(self):
        m = random_stable_model(1, dim=3, order=2, radius=0.7)
        vals = dtf(m, default_grid(65))
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0
        assert_allclose(vals.sum(axis=2), 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_set_invariance(self, seed):
        m = random_stable_model(seed, dim=3, order=2, radius=0.7)
        grid = default_grid(65)
        raw = dtf(m, grid, normalized=False)
        norm = dtf(m, grid, normalized=True)
        assert np.array_equal(raw == 0.0, norm == 0.0)

    def test_zero_set_invariance_counterexample(self):
        grid = default_grid(65)
        m = counterexample_model(1.0, 1.0)
        raw = dtf(m, grid, normalized=False)
        norm = dtf(m, grid, normalized=True)
        assert np.array_equal(raw == 0.0, norm == 0.0)
        assert np.all(raw[:, 0, 1] == 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_scaling_is_exact(self, seed):
        # each row is scaled by a power of two before squaring, which moves
        # no bit of the ratios on a model whose squares do not overflow
        m = random_stable_model(seed, dim=2 + seed % 4, order=1 + seed % 3, radius=0.7)
        h = transfer_function(m, default_grid(257))
        power = np.abs(h.values) ** 2
        assert np.array_equal(dtf_from_transfer(h), power / power.sum(axis=2, keepdims=True))

    def test_huge_row_does_not_overflow(self):
        # |H[0, 2]| = 1e200 squares past the largest double unscaled
        vals = dtf(counterexample_model(1e200, 1.0), default_grid(9))
        assert np.all(np.isfinite(vals))
        assert np.all(vals[:, 0, 2] == 1.0)

    def test_degenerate_row_reported(self):
        grid = default_grid(3)
        values = np.zeros((3, 2, 2), dtype=complex)
        values[:, 1, 1] = 1.0  # row 0 vanishes everywhere
        synthetic = FrequencyMatrix(grid, values)
        with pytest.raises(DegenerateRow):
            dtf_from_transfer(synthetic, normalized=True)


class TestCsv:
    def test_header_and_shape(self):
        m = counterexample_model(1.0, 1.0)
        fm = transfer_function(m, default_grid(5))
        buf = io.StringIO()
        frequency_matrix_to_csv(fm, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("lambda,re_1_1,im_1_1,re_1_2")
        assert len(lines) == 6
        assert len(lines[1].split(",")) == 1 + 2 * 9


def test_first_bad_point_in_grid_order_is_named():
    # a NaN point (a residual failure) precedes an exactly singular one in a
    # later block: the NaN point is the one reported
    grid = default_grid(2000)
    values = np.broadcast_to(np.eye(2, dtype=complex), (len(grid), 2, 2)).copy()
    values[100] = np.nan
    values[1500] = 0.0
    with pytest.raises(SingularAtFrequency, match="inversion residual") as exc:
        invert_pointwise(FrequencyMatrix(grid, values))
    assert exc.value.frequency == grid.points[100]
