import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from critex import (DomainError, GridSpec, forcing_weights, heat_multiplier,
                    kernel_entries, propagators, transform_forward)
from critex.cli import probe
from critex.fields import axis_coordinates, wavenumber_magnitude

TEST_RADII = np.concatenate(([0.0], np.geomspace(1e-4, 1e3, 60)))


def _naive_matrix(t, r):
    """Kernel entries straight from the eigenvalue formulas, complex arithmetic.

    Loses precision only within ~1e-12 of the double root, so it serves as an
    oracle near (but not at) r = 1/2.
    """
    root = complex(1 - 4 * r * r) ** 0.5
    lam1 = (-1 + root) / 2
    lam2 = (-1 - root) / 2
    e1, e2 = np.exp(lam1 * t), np.exp(lam2 * t)
    k00 = (lam1 * e2 - lam2 * e1) / (lam1 - lam2)
    k01 = (e1 - e2) / (lam1 - lam2)
    k10 = lam1 * lam2 * (e2 - e1) / (lam1 - lam2)
    k11 = (lam1 * e1 - lam2 * e2) / (lam1 - lam2)
    return np.array([[k00.real, k01.real], [k10.real, k11.real]])


def entries(t, r):
    """(k00, k01, k10, k11) at scalar (t, r), as floats."""
    return tuple(float(k[0]) for k in kernel_entries(t, np.array([r])))


def matrix(t, r):
    """Fundamental matrix [[k00, k01], [k10, k11]] at scalar (t, r)."""
    return np.array(entries(t, r)).reshape(2, 2)


class TestPropagatorMatrix:
    def test_identity_at_zero(self):
        for r in (0.0, 0.3, 0.5, 2.0, 100.0):
            assert entries(0.0, r) == (1.0, 0.0, 0.0, 1.0)

    def test_zero_frequency_kernel(self):
        k00, k01, k10, k11 = entries(1.0, 0.0)
        assert k01 == pytest.approx(1 - math.exp(-1), abs=1e-15)
        assert k00 == pytest.approx(1.0, abs=1e-15)
        assert k11 == pytest.approx(math.exp(-1), abs=1e-15)
        assert k10 == 0.0

    def test_zero_frequency_k10_is_positive_zero(self):
        # k10 = -r^2 k01 vanishes at r = 0 as +0.0, so probe tables print 0.0
        for t in (0.0, 0.5, 1.0, 40.0, 1480.0):
            k10 = float(kernel_entries(t, TEST_RADII)[2][0])
            assert k10 == 0.0 and math.copysign(1.0, k10) == 1.0
            assert math.copysign(1.0, entries(t, 0.0)[2]) == 1.0

    def test_double_root_value(self):
        # confluent limit: k01 = t * exp(-t/2)
        assert entries(2.0, 0.5)[1] == pytest.approx(2 * math.exp(-1), abs=1e-14)

    def test_series_oracle_near_branch(self):
        # independent oracle: exact 40-term series of sum z^j/(2j+1)! via fsum
        def confluent_g(z):
            return math.fsum(z**j / math.factorial(2 * j + 1) for j in range(40))

        t, r = 2.0, 0.5000001
        z = 0.25 * t * t * (1 - 4 * r * r)
        expected = math.exp(-t / 2) * t * confluent_g(z)
        assert entries(t, r)[1] == pytest.approx(expected, rel=1e-13)

    def test_first_column_relation(self):
        for r in TEST_RADII:
            for t in (0.1, 1.0, 7.3):
                _, k01, k10, _ = entries(t, r)
                assert abs(k10 + r * r * k01) \
                    <= 1e-12 * max(1.0, abs(r * r * k01))

    def test_determinant(self):
        for r in TEST_RADII:
            for t in (0.2, 1.0, 5.0, 20.0):
                k00, k01, k10, k11 = entries(t, r)
                det = k00 * k11 - k01 * k10
                assert abs(det - math.exp(-t)) < 1e-10

    def test_group_property(self):
        pairs = [(0.1, 0.2), (0.5, 0.5), (1.0, 2.0), (3.7, 6.3), (5.0, 5.0)]
        worst = 0.0
        for r in TEST_RADII:
            for t1, t2 in pairs:
                once = matrix(t1 + t2, r)
                composed = matrix(t2, r) @ matrix(t1, r)
                worst = max(worst, np.max(np.abs(once - composed)))
        assert worst < 1e-10

    def test_ode_residual(self):
        h = 1e-4
        for r in (0.0, 0.3, 0.49, 0.5, 0.51, 0.7, 1.0, 2.0):
            for t in (0.5, 1.0, 3.0):
                k_plus = entries(t + h, r)[1]
                k_mid = entries(t, r)[1]
                k_minus = entries(t - h, r)[1]
                second = (k_plus - 2 * k_mid + k_minus) / (h * h)
                first = (k_plus - k_minus) / (2 * h)
                assert abs(second + first + r * r * k_mid) < 1e-6

    def test_branch_continuity(self):
        # The kernel itself varies smoothly by ~|dk/dr| * 2e-8 across the
        # probe interval, so continuity is checked as agreement of each
        # one-sided evaluation with the naive eigenvalue formula, which at
        # |r - 1/2| = 1e-8 still carries ~4 digits of headroom and is an
        # independent oracle at the 1e-10 level.
        for t in (0.1, 1.0, 5.0, 10.0):
            for r in (0.5 - 1e-8, 0.5 + 1e-8):
                ours = matrix(t, r)
                oracle = _naive_matrix(t, r)
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(ours - oracle)) < 1e-10 * scale
            below = matrix(t, 0.5 - 1e-8)
            above = matrix(t, 0.5 + 1e-8)
            scale = np.max(np.abs(below))
            assert np.max(np.abs(below - above)) < 1e-5 * scale  # no gross jump

    def test_time_derivative_entries(self):
        # finite differences confirm k10 = d/dt k00 and k11 = d/dt k01
        h = 1e-6
        for r in (0.2, 0.5, 1.5):
            t = 1.3
            plus00, plus01, _, _ = entries(t + h, r)
            minus00, minus01, _, _ = entries(t - h, r)
            _, _, k10, k11 = entries(t, r)
            assert (plus00 - minus00) / (2 * h) == pytest.approx(k10, abs=1e-7)
            assert (plus01 - minus01) / (2 * h) == pytest.approx(k11, abs=1e-7)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            entries(-1.0, 0.5)

    def test_flush_to_zero(self):
        # `critex probe` prints fully decayed entries as +0.0, never as the
        # subnormal or -0.0 that kernel_entries gives
        subnormal = [float(e[0]) for e in kernel_entries(1480.0, np.array([2.0]))]
        assert all(0 < abs(e) < sys.float_info.min for e in subnormal)  # ~1e-322
        signed = [float(e[0]) for e in kernel_entries(3000.0, np.array([2.0]))]
        assert any(e == 0.0 and math.copysign(1.0, e) < 0 for e in signed)
        for t in (1480.0, 3000.0):
            row = probe([t], [2.0]).splitlines()[1]
            for entry in map(float, row.split(",")[2:]):
                assert entry == 0.0 and math.copysign(1.0, entry) == 1.0

    def test_vectorized_matches_scalar(self):
        radii = np.array([0.0, 0.2, 0.5, 0.50001, 1.0, 30.0])
        k00, k01, k10, k11 = kernel_entries(1.7, radii)
        for i, r in enumerate(radii):
            assert (k00[i], k01[i], k10[i], k11[i]) == entries(1.7, r)


class TestHeatMultiplier:
    def test_values(self):
        assert heat_multiplier(0.0, 3.0) == 1.0
        assert heat_multiplier(math.log(2) / 4.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert heat_multiplier(1.0, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_vectorized(self):
        r = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(heat_multiplier(2.0, r), np.exp(-2 * r**2))


class TestApplyLinear:
    """The damped flow applied to a spectral (u, u_t) pair on a grid."""

    def flow(self, u, ut, t):
        k00, k01, _, _ = kernel_entries(t, wavenumber_magnitude(u.grid))
        return k00 * u.coeffs + k01 * ut.coeffs

    def test_identity_at_zero(self):
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        rng = np.random.default_rng(2)
        u = transform_forward(rng.standard_normal(grid.shape), grid)
        ut = transform_forward(rng.standard_normal(grid.shape), grid)
        assert np.array_equal(self.flow(u, ut, 0.0), u.coeffs)

    def test_zero_mode_gain(self):
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        u = transform_forward(np.zeros(grid.shape), grid)
        ut = transform_forward(np.ones(grid.shape), grid)
        t = 2.5
        gain = self.flow(u, ut, t)[0] / ut.coeffs[0]
        assert gain == pytest.approx(1 - math.exp(-t), rel=1e-13)

    def test_high_mode_envelope(self):
        # single mode with |k| = 1 decays with envelope exp(-t/2)
        grid = GridSpec(dim=1, length=2 * np.pi, points=64)
        x = axis_coordinates(grid)
        u = transform_forward(np.cos(2 * np.pi * x / grid.length), grid)
        ut = transform_forward(np.zeros(grid.shape), grid)
        t = 40.0
        amp = abs(self.flow(u, ut, t)[1]) / abs(u.coeffs[1])
        envelope = math.exp(-t / 2)
        assert amp <= envelope * (1 + 1 / math.sqrt(3)) + 1e-15


def _weights_oracle(h, r):
    """I0 = int_0^h k01 and I1 = (1/h) int_0^h (h - s) k01(s) ds by adaptive
    quadrature; QAWO (sine weight) for the oscillating modes r > 1."""
    options = dict(epsabs=0.0, epsrel=1e-13, limit=5000)
    if r > 1:
        w = 0.5 * math.sqrt(4 * r * r - 1)
        i0 = quad(lambda s: math.exp(-0.5 * s) / w, 0, h, weight="sin",
                  wvar=w, **options)[0]
        i1 = quad(lambda s: (h - s) * math.exp(-0.5 * s) / w, 0, h,
                  weight="sin", wvar=w, **options)[0]
        return i0, i1 / h

    def k01(s):
        return float(kernel_entries(s, np.array([r]))[1][0])

    points = [x for x in (1.0, 10.0, 60.0, 200.0) if x < h] or None
    i0 = quad(k01, 0, h, points=points, **options)[0]
    i1 = quad(lambda s: (h - s) * k01(s), 0, h, points=points, **options)[0]
    return i0, i1 / h


def _taylor_recurrence(h, r):
    """The forcing weights' 30-term Taylor recurrence in exact rational
    arithmetic on the float inputs: b_0 = 0, b_1 = h,
    m (m+1) b_{m+1} = -(m h b_m + (r h)^2 b_{m-1}),
    I0 = h sum b_n / (n+1) and I1 = h sum b_n / ((n+1)(n+2)), n = 1..30."""
    h = Fraction(h)
    rho = (Fraction(r) * h) ** 2
    prev, cur = Fraction(0), h
    s0, s1 = cur / 2, cur / 6
    for m in range(1, 30):
        prev, cur = cur, -(m * h * cur + rho * prev) / (m * (m + 1))
        s0 += cur / (m + 2)
        s1 += cur / ((m + 2) * (m + 3))
    return float(h * s0), float(h * s1)


class TestForcingWeights:
    RADII = (0.0, 1e-3, 0.25, 0.5 - 1e-9, 0.5 + 1e-9, 0.75, 20.0)

    def test_taylor_regime_within_4_ulp_of_its_recurrence(self):
        # every r with h max(r, 1) <= 1; measured at most 2 ulp
        for h in np.geomspace(1e-8, 1.0, 9).tolist():
            radii = np.concatenate(([0.0], np.linspace(0.0, 1.0 / h, 12)[1:],
                                    np.geomspace(1e-3, 1.0 / h, 8)))
            radii = radii[h * np.maximum(radii, 1.0) <= 1.0]
            i0, i1, _, _ = forcing_weights(h, radii)
            for k, r in enumerate(radii.tolist()):
                for got, want in zip((i0[k], i1[k]), _taylor_recurrence(h, r)):
                    assert abs(got - want) <= 4 * np.spacing(abs(want)), (h, r)

    @pytest.mark.parametrize("r", RADII)
    def test_matches_quadrature(self, r):
        for h in np.geomspace(1e-8, 1e3, 23):
            i0, i1, j0, j1 = forcing_weights(float(h), np.array([r]))
            o0, o1 = _weights_oracle(float(h), r)
            assert i0[0] == pytest.approx(o0, rel=1e-9, abs=0.0), h
            assert i1[0] == pytest.approx(o1, rel=1e-9, abs=0.0), h
            assert j1[0] == pytest.approx(o0 / h, rel=1e-9, abs=0.0), h
            assert j0[0] == kernel_entries(float(h), np.array([r]))[1][0]

    def test_zero_frequency_closed_form(self):
        for h in (1.5, 16.0, 300.0):
            i0, i1, _, _ = forcing_weights(h, np.array([0.0]))
            assert i0[0] == pytest.approx(h - 1 + math.exp(-h), rel=1e-14)
            assert i1[0] == pytest.approx(
                (h * h / 2 - h + 1 - math.exp(-h)) / h, rel=1e-14)

    def test_vectorized_matches_scalar_across_regimes(self):
        radii = np.concatenate(([0.0], np.geomspace(1e-4, 1e2, 200)))
        for h in (0.02, 0.7, 1.3, 21.0):
            together = forcing_weights(h, radii)
            alone = [forcing_weights(h, np.array([r])) for r in radii]
            for k in range(4):
                np.testing.assert_array_equal(together[k],
                                              [w[k][0] for w in alone])

    def test_horner_is_polyval_bit_for_bit(self):
        from numpy.polynomial.polynomial import polyval
        for coeffs, reach in ((propagators._G_COEFFS, propagators.SERIES_THRESHOLD),
                              (propagators._H_COEFFS, propagators.SERIES_THRESHOLD),
                              (propagators._PHI1_COEFFS, 1.0),
                              (propagators._PHI2_COEFFS, 1.0)):
            z = np.linspace(-reach, reach, 5000)
            assert propagators._horner(coeffs, z).tobytes() == polyval(z, coeffs).tobytes()

    def test_entries_argument_is_kernel_entries(self):
        r = np.geomspace(1e-3, 30.0, 50)
        given = forcing_weights(3.0, r, entries=kernel_entries(3.0, r))
        for a, b in zip(given, forcing_weights(3.0, r)):
            np.testing.assert_array_equal(a, b)

    def test_nonpositive_step_rejected(self):
        for h in (0.0, -1.0):
            with pytest.raises(DomainError):
                forcing_weights(h, np.array([1.0]))


def within_pointwise_bounds(t, r):
    """|k00| <= C0 (r^2 e^{-ct} + e^{-c r^2 t}) and
    |k01| <= C1 min(1, 1/r) (e^{-ct} + e^{-c r^2 t}), c = 1/4, C0 = C1 = 8."""
    rate, c0, c1 = 0.25, 8.0, 8.0
    k00, k01, _, _ = entries(t, r)
    decay_t = math.exp(-rate * t)
    decay_rt = math.exp(-rate * r * r * t)
    cap = 1.0 if r <= 1.0 else 1.0 / r
    return (abs(k00) <= c0 * (r * r * decay_t + decay_rt)
            and abs(k01) <= c1 * cap * (decay_t + decay_rt))


class TestPointwiseBounds:
    def test_examples(self):
        assert within_pointwise_bounds(10.0, 0.01)
        assert within_pointwise_bounds(10.0, 10.0)
        assert within_pointwise_bounds(0.0, 1.0)

    def test_exhaustive_lattice(self):
        times = np.concatenate(([0.0], np.geomspace(0.01, 100.0, 25)))
        for t in times:
            for r in TEST_RADII:
                assert within_pointwise_bounds(float(t), float(r)), (t, r)
