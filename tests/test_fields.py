import struct

import numpy as np
import pytest

from critex import (ContractError, DomainError, GridSpec, NormOrder,
                    SpectrumField, load_field, make_initial_data, save_field,
                    sobolev_norm, transform_forward, transform_inverse)
from critex.fields import (FORMAT_VERSION, axis_coordinates, dealias_mask,
                           hermitian_weight, l2_norm, wavenumber_magnitude)


def physical_l2(samples, grid):
    return np.sqrt(np.sum(np.abs(samples) ** 2) * grid.cell_volume)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(dim=4, length=1.0, points=16)
        with pytest.raises(DomainError):
            GridSpec(dim=1, length=-1.0, points=16)
        with pytest.raises(DomainError):
            GridSpec(dim=1, length=1.0, points=12)  # not a power of two
        with pytest.raises(DomainError):
            GridSpec(dim=1, length=1.0, points=4)   # too small

    def test_coordinates_centered(self):
        grid = GridSpec(dim=1, length=8.0, points=16)
        x = axis_coordinates(grid)
        assert x[0] == -4.0
        assert x[len(x) // 2] == 0.0


class TestTransforms:
    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        for dim, n in ((1, 64), (2, 32), (3, 16)):
            grid = GridSpec(dim=dim, length=5.0, points=n)
            samples = rng.standard_normal(grid.shape)
            back = transform_inverse(transform_forward(samples, grid))
            assert np.max(np.abs(back - samples)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(6)
        grid = GridSpec(dim=2, length=3.0, points=64)
        samples = rng.standard_normal(grid.shape)
        field = transform_forward(samples, grid)
        assert l2_norm(field) == pytest.approx(physical_l2(samples, grid),
                                               rel=1e-12)

    def test_constant_is_dc_only(self):
        grid = GridSpec(dim=1, length=2.0, points=32)
        field = transform_forward(np.ones(grid.shape), grid)
        coeffs = field.coeffs.copy()
        dc = coeffs[0]
        coeffs[0] = 0
        assert abs(dc) > 0
        assert np.max(np.abs(coeffs)) < 1e-14 * abs(dc)

    def test_single_cosine_conjugate_pair(self):
        # the half layout stores the pair (3, -3) once, with weight 2
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        samples = make_initial_data("single_mode", grid, mode=3, amplitude=1.0)
        coeffs = transform_forward(samples, grid).coeffs
        assert coeffs.shape == (33,)
        others = np.delete(coeffs, [3])
        assert np.max(np.abs(others)) < 1e-12 * abs(coeffs[3])
        assert hermitian_weight(grid)[3] == 2.0
        assert 2.0 * abs(coeffs[3]) ** 2 == pytest.approx(
            physical_l2(samples, grid) ** 2, rel=1e-12)

    def test_size_mismatch(self):
        grid = GridSpec(dim=1, length=1.0, points=16)
        with pytest.raises(ContractError):
            transform_forward(np.zeros(8), grid)

    def test_wrong_shape_rejected(self):
        # a full-layout array (or any other shape) fails fast
        for dim in (1, 2, 3):
            grid = GridSpec(dim=dim, length=1.0, points=16)
            for shape in (grid.shape, grid.spectrum_shape[:-1] + (16 // 2,)):
                with pytest.raises(ContractError):
                    SpectrumField(grid, np.zeros(shape, dtype=complex))

    def test_inverse_is_real_by_layout(self):
        rng = np.random.default_rng(9)
        grid = GridSpec(dim=2, length=4.0, points=32)
        field = transform_forward(rng.standard_normal(grid.shape), grid)
        assert field.coeffs.shape == (32, 17)
        # any half-layout array describes a real field
        noise = rng.standard_normal(grid.spectrum_shape) \
            + 1j * rng.standard_normal(grid.spectrum_shape)
        back = transform_inverse(SpectrumField(grid, noise))
        assert back.dtype == np.float64 and back.shape == grid.shape

    def test_non_finite_coefficients_rejected(self):
        grid = GridSpec(dim=1, length=1.0, points=16)
        coeffs = np.zeros(9, dtype=complex)
        coeffs[3] = np.nan
        with pytest.raises(ContractError):
            SpectrumField(grid, coeffs)
        # but an explicitly diverged field may carry them
        flagged = SpectrumField(grid, coeffs, diverged=True)
        assert flagged.diverged


class TestHalfLayout:
    @staticmethod
    def nyquist_field(grid, rng):
        # random data plus a checkerboard, which lives on the Nyquist modes
        samples = rng.standard_normal(grid.shape)
        checker = sum(np.indices(grid.shape)) % 2
        return samples + 3.0 * (1 - 2 * checker)

    def test_shapes(self):
        for dim, shape in ((1, (9,)), (2, (16, 9)), (3, (16, 16, 9))):
            grid = GridSpec(dim=dim, length=2.0, points=16)
            assert grid.spectrum_shape == shape
            assert wavenumber_magnitude(grid).shape == shape
            assert dealias_mask(grid).shape == shape
        weight = hermitian_weight(GridSpec(dim=1, length=2.0, points=16))
        assert np.array_equal(weight, [1, 2, 2, 2, 2, 2, 2, 2, 1])

    def test_parseval_with_nyquist_content(self):
        rng = np.random.default_rng(31)
        for dim, n in ((1, 64), (2, 32), (3, 16)):
            grid = GridSpec(dim=dim, length=2.7, points=n)
            samples = self.nyquist_field(grid, rng)
            field = transform_forward(samples, grid)
            nyquist = field.coeffs[(n // 2,) * dim]
            assert abs(nyquist) > 1.0
            physical_sq = physical_l2(samples, grid) ** 2
            assert l2_norm(field) ** 2 == pytest.approx(physical_sq, rel=1e-12)
            assert sobolev_norm(field, NormOrder(0.0, homogeneous=False)) ** 2 \
                == pytest.approx(physical_sq, rel=1e-12)

    def test_round_trip_with_nyquist_content(self):
        rng = np.random.default_rng(32)
        for dim, n in ((1, 64), (2, 32), (3, 16)):
            grid = GridSpec(dim=dim, length=1.3, points=n)
            samples = self.nyquist_field(grid, rng)
            back = transform_inverse(transform_forward(samples, grid))
            assert np.max(np.abs(back - samples)) < 1e-12 * np.max(np.abs(samples))

    def test_sobolev_matches_full_spectrum(self):
        # oracle: the same norm summed over numpy's full fftn spectrum
        rng = np.random.default_rng(33)
        for dim, n in ((1, 64), (2, 32), (3, 16)):
            grid = GridSpec(dim=dim, length=5.0, points=n)
            samples = self.nyquist_field(grid, rng)
            samples -= samples.mean()
            full = np.fft.fftn(samples) * grid.length ** (dim / 2) / n ** dim
            k = 2 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
            kmag = np.sqrt(sum(m * m for m in np.meshgrid(*[k] * dim,
                                                          indexing="ij")))
            kmag.flat[0] = 1.0  # zero mode carries no mass here
            field = transform_forward(samples, grid)
            for s in (-0.6, 0.5, 1.0):
                expected = np.sqrt(np.sum(kmag ** (2 * s) * np.abs(full) ** 2))
                assert sobolev_norm(field, s) == pytest.approx(expected, rel=1e-12)


class TestSobolevNorm:
    def test_zero_order_equals_l2_on_mean_zero(self):
        rng = np.random.default_rng(12)
        grid = GridSpec(dim=1, length=7.0, points=128)
        samples = rng.standard_normal(grid.shape)
        samples -= samples.mean()
        field = transform_forward(samples, grid)
        assert sobolev_norm(field, 0.0) == pytest.approx(
            physical_l2(samples, grid), rel=1e-12)

    def test_single_mode_scaling(self):
        # mode with |k| = 2 on L = pi*N/... choose L = 2*pi so k_m = m
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        samples = make_initial_data("single_mode", grid, mode=2, amplitude=1.0)
        field = transform_forward(samples, grid)
        base = sobolev_norm(field, 0.0)
        for s in (1.0, -0.7, 0.35, -0.35):
            assert sobolev_norm(field, s) == pytest.approx(2.0 ** s * base,
                                                           rel=1e-12)

    def test_norm_scaling_in_amplitude(self):
        rng = np.random.default_rng(13)
        grid = GridSpec(dim=1, length=3.0, points=64)
        samples = rng.standard_normal(grid.shape)
        samples -= samples.mean()
        field = transform_forward(samples, grid)
        scaled = transform_forward(2.5 * samples, grid)
        for s in (-0.4, 0.0, 1.0):
            assert sobolev_norm(scaled, s) == pytest.approx(
                2.5 * sobolev_norm(field, s), rel=1e-12)

    def test_monotone_embedding(self):
        rng = np.random.default_rng(14)
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        samples = rng.standard_normal(grid.shape)
        samples -= samples.mean()
        field = transform_forward(samples, grid)
        k_max = 32.0  # N/2 modes at k = m on L = 2*pi
        for s1, s2 in ((1.0, 0.0), (0.5, -0.5), (0.0, -1.0)):
            lhs = sobolev_norm(field, s1)
            rhs = k_max ** (s1 - s2) * sobolev_norm(field, s2)
            assert lhs <= rhs * (1 + 1e-12)

    def test_zero_mode_policy(self):
        grid = GridSpec(dim=1, length=2.0, points=32)
        field = transform_forward(np.ones(grid.shape), grid)
        with pytest.raises(DomainError, match="mean"):
            sobolev_norm(field, -0.5)
        # inhomogeneous negative order tolerates the mean
        assert sobolev_norm(field, NormOrder(-0.5, homogeneous=False)) > 0

    def test_inhomogeneous_order(self):
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        samples = make_initial_data("single_mode", grid, mode=2, amplitude=1.0)
        field = transform_forward(samples, grid)
        base = l2_norm(field)
        expected = (1 + 4.0) ** 0.5 * base
        assert sobolev_norm(field, NormOrder(1.0, homogeneous=False)) \
            == pytest.approx(expected, rel=1e-12)


class TestInitialData:
    def test_critical_tail_center_value(self):
        for dim in (1, 2):
            grid = GridSpec(dim=dim, length=20.0, points=64)
            data = make_initial_data("critical_tail", grid, amplitude=0.7,
                                     gamma=0.5)
            center = (grid.points // 2,) * dim
            assert data[center] == pytest.approx(0.7, rel=1e-14)

    def test_gaussian_integral(self):
        # quadrature oracle: integral of exp(-|x|^2/2) = (2*pi)^(dim/2)
        for dim in (1, 2):
            grid = GridSpec(dim=dim, length=40.0, points=256 if dim == 1 else 128)
            data = make_initial_data("gaussian", grid, amplitude=1.0, width=1.0)
            integral = float(np.sum(data) * grid.cell_volume)
            assert integral == pytest.approx((2 * np.pi) ** (dim / 2), rel=1e-8)

    def test_single_mode_norm_relation(self):
        grid = GridSpec(dim=1, length=2 * np.pi, points=128)
        data = make_initial_data("single_mode", grid, mode=5, amplitude=2.0)
        field = transform_forward(data, grid)
        for s in (0.3, 1.0, -0.4):
            assert sobolev_norm(field, s) == pytest.approx(
                5.0 ** s * l2_norm(field), rel=1e-12)

    def test_validation(self):
        grid = GridSpec(dim=1, length=10.0, points=32)
        with pytest.raises(DomainError):
            make_initial_data("gaussian", grid, amplitude=-1.0, width=1.0)
        with pytest.raises(DomainError):
            make_initial_data("gaussian", grid, amplitude=1.0, width=0.0)
        with pytest.raises(DomainError):
            make_initial_data("unknown", grid)
        with pytest.raises(DomainError):
            make_initial_data("critical_tail", grid, amplitude=1.0, gamma=-0.5)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        grid = GridSpec(dim=2, length=6.5, points=16)
        field = transform_forward(rng.standard_normal(grid.shape), grid)
        path = tmp_path / "field.bin"
        save_field(field, path)
        loaded = load_field(path)
        assert loaded.grid == grid
        assert np.array_equal(loaded.coeffs, field.coeffs)

    def test_wire_format(self, tmp_path):
        grid = GridSpec(dim=1, length=2.0, points=8)
        coeffs = np.arange(5, dtype=float) + 1j * np.arange(5, dtype=float)
        field = SpectrumField(grid, coeffs)
        path = tmp_path / "field.bin"
        save_field(field, path)
        raw = path.read_bytes()
        magic, version = struct.unpack_from("<8sq", raw)
        assert (magic, version) == (b"CRITEXF\0", FORMAT_VERSION)
        dim, points, length = struct.unpack_from("<qqd", raw, 16)
        assert (dim, points, length) == (1, 8, 2.0)
        pairs = np.frombuffer(raw[40:], dtype="<f8").reshape(5, 2)
        assert np.array_equal(pairs[:, 0], np.arange(5))
        assert np.array_equal(pairs[:, 1], np.arange(5))

    def test_reads_format_one(self, tmp_path):
        # format 1: grid header, then the full fftn spectrum; no version
        rng = np.random.default_rng(22)
        for dim in (1, 2):
            grid = GridSpec(dim=dim, length=3.0, points=16)
            samples = rng.standard_normal(grid.shape)
            full = np.fft.fftn(samples) * grid.length ** (dim / 2) / 16 ** dim
            path = tmp_path / f"legacy{dim}.bin"
            path.write_bytes(struct.pack("<qqd", dim, 16, 3.0)
                             + full.astype("<c16").tobytes())
            loaded = load_field(path)
            assert loaded.grid == grid
            assert np.array_equal(loaded.coeffs, full[..., :9])
            assert np.max(np.abs(transform_inverse(loaded) - samples)) < 1e-12

    def test_wrong_payload_length(self, tmp_path):
        grid = GridSpec(dim=2, length=2.0, points=8)
        path = tmp_path / "field.bin"
        save_field(transform_forward(np.ones(grid.shape), grid), path)
        raw = path.read_bytes()
        for bad in (raw[:-16], raw + b"\0" * 16, raw[:30]):
            path.write_bytes(bad)
            with pytest.raises(ContractError):
                load_field(path)
        # a full-layout payload under the versioned header is rejected too
        path.write_bytes(raw[:40] + np.zeros(64, dtype="<c16").tobytes())
        with pytest.raises(ContractError):
            load_field(path)
        path.write_bytes(struct.pack("<8sq", b"CRITEXF\0", 99) + raw[16:])
        with pytest.raises(ContractError, match="version"):
            load_field(path)

    def test_truncated_payload(self, tmp_path):
        grid = GridSpec(dim=1, length=2.0, points=8)
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<qqd", 1, 8, 2.0) + b"\0" * 16)
        with pytest.raises(ContractError):
            load_field(path)


class TestDealias:
    def test_mask_keeps_low_third(self):
        grid = GridSpec(dim=1, length=1.0, points=32)
        mask = dealias_mask(grid)
        modes = np.fft.rfftfreq(32, d=1 / 32)
        assert np.array_equal(mask, modes <= 32 / 3)
        assert mask[0] and mask[10]
        assert not mask[11]

    def test_mask_half_layout(self):
        grid = GridSpec(dim=2, length=1.0, points=32)
        mask = dealias_mask(grid)
        assert mask.shape == (32, 17)
        m = np.fft.fftfreq(32, d=1 / 32)
        expected = (np.abs(m)[:, None] <= 32 / 3) & (np.abs(m[None, :17]) <= 32 / 3)
        assert np.array_equal(mask, expected)
