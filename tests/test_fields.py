import numpy as np
import pytest

from critex import (ContractError, DomainError, GridSpec, SpectrumField,
                    make_initial_data, transform_forward, transform_inverse)
from critex.fields import (axis_coordinates, dealias_mask, hermitian_weight,
                           norm_weights, wavenumber_magnitude, weighted_norms)


def physical_l2(samples, grid):
    return np.sqrt(np.sum(np.abs(samples) ** 2) * grid.cell_volume)


def cosine(grid, mode, amplitude=1.0):
    """amplitude * cos(2 pi mode x / L) on a 1-D grid."""
    return amplitude * np.cos(2 * np.pi * mode * axis_coordinates(grid) / grid.length)


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

    @pytest.mark.parametrize("length", [5e-324, 2e-323])
    def test_spacing_that_rounds_to_zero(self, length):
        # a subnormal edge over 16 points is 0.0, and fftfreq divides by it
        assert length / 16 == 0.0
        with pytest.raises(DomainError, match="must give a positive finite L/N"):
            GridSpec(dim=1, length=length, points=16)
        assert GridSpec(dim=1, length=length * 2 ** 10, points=16).spacing > 0

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
        [l2] = weighted_norms(field.coeffs, [hermitian_weight(grid)])
        assert l2 == pytest.approx(physical_l2(samples, grid), rel=1e-12)

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
        samples = cosine(grid, 3)
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
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            coeffs = np.zeros(9, dtype=complex)
            coeffs[3] = bad
            with pytest.raises(ContractError, match="non-finite"):
                SpectrumField(grid, coeffs)


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
            [l2] = weighted_norms(field.coeffs, [hermitian_weight(grid)])
            assert l2 ** 2 == pytest.approx(physical_sq, rel=1e-12)

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
                [norm] = weighted_norms(field.coeffs, [norm_weights(grid, s)])
                assert norm == pytest.approx(expected, rel=1e-12)


class TestSobolevNorm:
    """Homogeneous order-s norms: ``weighted_norms`` against ``norm_weights``."""

    def test_zero_order_equals_l2_on_mean_zero(self):
        rng = np.random.default_rng(12)
        grid = GridSpec(dim=1, length=7.0, points=128)
        samples = rng.standard_normal(grid.shape)
        samples -= samples.mean()
        field = transform_forward(samples, grid)
        [norm] = weighted_norms(field.coeffs, [norm_weights(grid, 0.0)])
        assert norm == pytest.approx(physical_l2(samples, grid), rel=1e-12)

    def test_single_mode_scaling(self):
        # on L = 2*pi the mode m has |k| = m, so each order scales the L2 norm
        # by m^s; the L2 norm is the physical one
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        samples = cosine(grid, 2)
        field = transform_forward(samples, grid)
        orders = (1.0, -0.7, 0.35, -0.35)
        l2, *norms = weighted_norms(
            field.coeffs,
            [hermitian_weight(grid)] + [norm_weights(grid, s) for s in orders])
        assert l2 == pytest.approx(physical_l2(samples, grid), rel=1e-12)
        for s, norm in zip(orders, norms):
            assert norm == pytest.approx(2.0 ** s * l2, rel=1e-12)

    def test_norm_scaling_in_amplitude(self):
        rng = np.random.default_rng(13)
        grid = GridSpec(dim=1, length=3.0, points=64)
        samples = rng.standard_normal(grid.shape)
        samples -= samples.mean()
        weights = [norm_weights(grid, s) for s in (-0.4, 0.0, 1.0)]
        norms = weighted_norms(transform_forward(samples, grid).coeffs, weights)
        scaled = weighted_norms(transform_forward(2.5 * samples, grid).coeffs, weights)
        for norm, scaled_norm in zip(norms, scaled):
            assert scaled_norm == pytest.approx(2.5 * norm, rel=1e-12)

    def test_monotone_embedding(self):
        rng = np.random.default_rng(14)
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        samples = rng.standard_normal(grid.shape)
        samples -= samples.mean()
        coeffs = transform_forward(samples, grid).coeffs
        k_max = 32.0  # N/2 modes at k = m on L = 2*pi
        for s1, s2 in ((1.0, 0.0), (0.5, -0.5), (0.0, -1.0)):
            lhs, rhs = weighted_norms(coeffs, [norm_weights(grid, s1),
                                               norm_weights(grid, s2)])
            assert lhs <= k_max ** (s1 - s2) * rhs * (1 + 1e-12)

    def test_zero_mode_policy(self):
        # every order is homogeneous: the mean carries no weight, even where
        # |k|^(2s) is infinite at k = 0
        grid = GridSpec(dim=1, length=2.0, points=32)
        field = transform_forward(np.ones(grid.shape), grid)
        orders = (-0.5, 0.0, 0.5)
        assert all(norm_weights(grid, s)[0] == 0.0 for s in orders)
        assert weighted_norms(field.coeffs,
                              [norm_weights(grid, s) for s in orders]) == [0.0] * 3


class TestInitialData:
    def test_critical_tail_center_value(self):
        for dim in (1, 2):
            grid = GridSpec(dim=dim, length=20.0, points=64)
            data = make_initial_data("critical_tail", grid, amplitude=0.7,
                                     gamma=0.5)
            center = (grid.points // 2,) * dim
            assert data[center] == pytest.approx(0.7, rel=1e-14)

    def test_single_mode_norm_relation(self):
        # a cosine of mode 5 and amplitude 2 on L = 2*pi: |k| = 5, so each
        # order scales the physical L2 norm by 5^s
        grid = GridSpec(dim=1, length=2 * np.pi, points=128)
        field = transform_forward(cosine(grid, 5, amplitude=2.0), grid)
        orders = (0.3, 1.0, -0.4)
        l2, *norms = weighted_norms(
            field.coeffs,
            [hermitian_weight(grid)] + [norm_weights(grid, s) for s in orders])
        for s, norm in zip(orders, norms):
            assert norm == pytest.approx(5.0 ** s * l2, rel=1e-12)

    def test_validation(self):
        grid = GridSpec(dim=1, length=10.0, points=32)
        for kind in ("unknown", "gaussian"):
            with pytest.raises(DomainError, match="unknown initial data kind"):
                make_initial_data(kind, grid, gamma=0.5)
        with pytest.raises(DomainError):
            make_initial_data("critical_tail", grid, amplitude=1.0, gamma=-0.5)
        # a NaN gamma would give NaN data except the value A at the center,
        # since 1 ** nan is 1
        for amplitude, gamma in ((np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan),
                                 (1.0, np.inf)):
            with pytest.raises(DomainError, match="positive finite"):
                make_initial_data("critical_tail", grid, amplitude=amplitude,
                                  gamma=gamma)


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
