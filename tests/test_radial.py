import numpy as np
import pytest
from scipy.integrate import quad

from critex import (AccuracyError, ContractError, DomainError, RadialProfile, diffusion_difference, evolve_damped,
                    evolve_heat, fit_rate, heat_multiplier, kernel_entries,
                    log_radial_grid, norm_radial, power_law_profile)
from critex import propagators, radial
from critex.errors import InsufficientDataError
from critex.experiments import run_decay_suite, run_diffusion_suite
from critex.radial import DEFAULT_POINTS, sphere_surface


def gaussian(n, width=1.0, r=None):
    """v_hat(r) = exp(-(width * r)^2): smooth data, for the oracles below."""
    r = log_radial_grid() if r is None else r
    return RadialProfile(n, r, np.exp(-(width * r) ** 2))


def heat_norm_oracle(t, n, a, s=0.0):
    """Adaptive quadrature of (sigma_{n-1} Int_0^1 e^{-2r^2 t} r^{2s+n-1-2a} dr)^(1/2)."""
    integrand = lambda r: np.exp(-2 * r * r * t) * r ** (2 * s + n - 1 - 2 * a)
    value, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200)
    return np.sqrt(sphere_surface(n) * value)


def flow_oracle(kind, t, v0):
    """The linear flow ``kind`` of v0 at time t, from a fresh kernel."""
    damped = kernel_entries(t, v0.r)[0] * v0.values
    heat = heat_multiplier(t, v0.r) * v0.values
    flow = {"damped": damped, "heat": heat, "difference": damped - heat}[kind]
    return RadialProfile(v0.dim, v0.r, flow)


class TestNormRadial:
    def test_indicator_l2_n2(self):
        # indicator has a jump at r = 1: trapezoid carries an O(h) edge error
        profile = power_law_profile(2, 0.0)  # v = 1 on (0, 1]
        assert norm_radial(profile, 0.0) == pytest.approx(np.sqrt(np.pi), rel=5e-3)

    def test_indicator_negative_order_n2(self):
        profile = power_law_profile(2, 0.0)
        expected = np.sqrt(2 * np.pi / 0.6)
        assert norm_radial(profile, -0.7) == pytest.approx(expected, rel=1e-3)

    def test_gaussian_n1_against_quadrature(self):
        # oracle over the represented range [r_min, r_max]
        profile = gaussian(1, 1.0)
        integrand = lambda r: np.exp(-2 * r * r)
        value, _ = quad(integrand, 1e-6, 50.0, epsabs=0.0, epsrel=1e-12)
        expected = np.sqrt(sphere_surface(1) * value)
        assert norm_radial(profile, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_rejects_outer_growth(self):
        r = log_radial_grid(points=512)
        profile = RadialProfile(2, r, r ** 1.0)
        with pytest.raises(AccuracyError):
            norm_radial(profile, 0.0)

    def test_rejects_inner_divergence(self):
        r = log_radial_grid(points=512)
        profile = RadialProfile(1, r, r ** -2.0)
        with pytest.raises(AccuracyError):
            norm_radial(profile, 0.0)

    def test_rejects_overflowing_integrand(self):
        # finite values whose square overflows; an overflow warning would
        # fail the test as an error
        r = log_radial_grid(points=64)
        profile = RadialProfile(2, r, np.where(r <= 1.0, 1e200, 0.0))
        with pytest.raises(ContractError, match="finite"):
            norm_radial(profile, 0.0)

    @pytest.mark.parametrize("n, s", [(110.0, 0.0), (2.0, -60.0)])
    def test_rejects_an_overflowing_weight(self, n, s):
        # r^(2s+n) overflows at r = 1e3, or at r = 1e-6 for a steep negative
        # order; a NaN norm must not come back
        with pytest.raises(DomainError, match="overflows"):
            norm_radial(gaussian(n), s)

    @staticmethod
    def trapezoid_norm(values, r, s, n):
        # the norm as np.trapezoid computes it
        weight = r ** (2.0 * s + n)
        return float(np.sqrt(sphere_surface(n) * np.trapezoid(
            weight * np.abs(values) ** 2, x=np.log(r))))

    def test_plancherel_is_bitwise_trapezoid(self):
        rng = np.random.default_rng(5)
        r = log_radial_grid()
        envelope = np.exp(-r - np.log(r) ** 2)  # negligible at both ends
        cases = [rng.standard_normal(r.size) * envelope for _ in range(4)]
        cases += [np.zeros_like(r),
                  np.full_like(r, 1e-160) * np.exp(-r),  # squares are subnormal
                  np.where(r >= 1.0, np.maximum(r, 1.0) ** -60.0, 0.0)]
        for values in cases:
            for s, n in ((0.0, 3.0), (1.0, 8.0), (-0.7, 2.5)):
                expected = self.trapezoid_norm(values, r, s, n)
                weight = r ** (2.0 * s + n)
                got = radial._plancherel(values, weight, np.diff(np.log(r)),
                                         sphere_surface(n))
                assert got == expected, (s, n)

    def test_profile_validation(self):
        r = log_radial_grid(points=64)
        with pytest.raises(ContractError):
            RadialProfile(2, r[::-1].copy(), np.ones(64))
        with pytest.raises(ContractError):
            RadialProfile(2, r, np.ones(32))
        with pytest.raises(DomainError):
            RadialProfile(0.5, r, np.ones(64))
        # a real transform: complex input is rejected, not silently cast
        with pytest.raises(ContractError, match="complex"):
            RadialProfile(2, r, np.ones(64, dtype=complex))


class TestSphereSurface:
    @pytest.mark.parametrize("n, closed_form", [
        (1, 2.0), (2, 2 * np.pi), (3, 4 * np.pi), (4, 2 * np.pi ** 2),
        (5, 8 * np.pi ** 2 / 3), (6, np.pi ** 3)])
    def test_closed_forms(self, n, closed_form):
        assert sphere_surface(n) == pytest.approx(closed_form, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [1.5, 2.5, 3.7])
    def test_recurrence_in_real_dimension(self, n):
        # sigma_{n+1} = 2 pi sigma_{n-1} / n, from Gamma(x + 1) = x Gamma(x)
        assert sphere_surface(n + 2) == pytest.approx(
            2 * np.pi * sphere_surface(n) / n, rel=1e-15, abs=0.0)

    def test_overflow_is_a_domain_error(self):
        # Gamma(n/2) overflows a float from n = 344 on
        with pytest.raises(DomainError, match="overflows"):
            sphere_surface(400.0)


class TestHeatEvolution:
    def test_matches_quadrature_oracle(self):
        # power-law data: a = n/2 - gamma - 0.05, n = 2, gamma = 0.7
        n, gamma = 2, 0.7
        a = n / 2 - gamma - 0.05
        v0 = power_law_profile(n, a)
        times = np.geomspace(10.0, 1e4, 25)
        norms = evolve_heat(v0, times, 0.0)
        for t, norm in zip(times, norms):
            assert norm == pytest.approx(heat_norm_oracle(t, n, a), rel=1e-6)

    def test_gaussian_closed_form(self):
        # w_hat = e^{-r^2 (t+1)}: L2 norm = (pi/2)^(1/2) (1+t)^(-1/2) in n = 2
        v0 = gaussian(2, 1.0)
        times = np.geomspace(1.0, 1e4, 20)
        norms = evolve_heat(v0, times, 0.0)
        expected = np.sqrt(np.pi / 2) / np.sqrt(1.0 + times)
        np.testing.assert_allclose(norms, expected, rtol=1e-6)

    def test_rejects_nonfinite_flow(self):
        # finite data whose heat flow's square overflows at t = 0
        r = log_radial_grid(points=64)
        big = RadialProfile(2, r, np.full(64, 1e308))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ContractError, match="finite"):
            evolve_heat(big, np.array([0.0]), 0.0)


class TestDampedEvolution:
    def test_identity_at_zero(self):
        v0 = power_law_profile(2, 0.25)
        norms = evolve_damped(v0, np.array([0.0, 1.0]), 0.0)
        assert norms[0] == pytest.approx(norm_radial(v0, 0.0), rel=1e-12)

    def test_velocity_data_slope(self):
        # v0 = 0, v1 = indicator: the flow k01 v1 has late-time L2 slope -1/2
        # in n = 2; k01 drives the grid solver, which the radial lab never runs
        v1 = power_law_profile(2, 0.0)
        times = np.geomspace(1.0, 1e4, 60)
        flows = (kernel_entries(t, v1.r)[1] * v1.values for t in times)
        norms = [norm_radial(RadialProfile(2, v1.r, flow), 0.0) for flow in flows]
        fit = fit_rate(times, np.array(norms), (1e2, 1e4))
        assert fit["slope"] == pytest.approx(-0.5, abs=0.02)

    def test_powerlaw_family_slope(self):
        n, gamma = 2, 0.7
        a = n / 2 - gamma - 0.05
        v0 = power_law_profile(n, a)
        times = np.geomspace(10.0, 1e4, 60)
        fit = fit_rate(times, evolve_damped(v0, times, 0.0), (1e2, 1e4))
        assert fit["slope"] == pytest.approx(-(gamma + 0.05) / 2, abs=0.03)

    def test_sharpness_ladder_monotone(self):
        # as a increases toward n/2 - gamma the fitted slope rises toward -gamma/2
        n, gamma = 2, 0.7
        slopes = []
        times = np.geomspace(10.0, 1e4, 48)
        for margin in (0.25, 0.2, 0.15, 0.1, 0.05):
            v0 = power_law_profile(n, n / 2 - gamma - margin)
            fit = fit_rate(times, evolve_damped(v0, times, 0.0), (1e2, 1e4))
            slopes.append(fit["slope"])
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert slopes[-1] == pytest.approx(-(gamma + 0.05) / 2, abs=0.03)

    def test_rejects_nonfinite_flow(self):
        # finite data whose integrand already overflows at t = 0, and that
        # is a contract error
        r = log_radial_grid(points=64)
        big = RadialProfile(2, r, np.where(r <= 1.0, 1e308, 0.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ContractError, match="finite"):
            evolve_damped(big, np.array([0.0, 10.0]), 0.0)


class TestDiffusionDifference:
    def test_zero_when_data_matches(self):
        # t = 0: damped equals heat exactly
        v0 = power_law_profile(2, 0.25)
        norms = diffusion_difference(v0, np.array([0.0, 1.0]), 0.0)
        assert norms[0] == 0.0

    def test_gain_window(self):
        n = 2
        times = np.geomspace(10.0, 1e4, 60)
        for gamma in (0.3, 0.7):
            for s in (0.0, 1.0):
                a = n / 2 - gamma - 0.05
                v0 = power_law_profile(n, a)
                damped = fit_rate(times, evolve_damped(v0, times, s), (1e2, 1e4))
                diff = fit_rate(times, diffusion_difference(v0, times, s),
                                (1e2, 1e4))
                gain = diff["slope"] - damped["slope"]
                assert -1.3 <= gain <= -0.85, (s, gamma, gain)

    def test_ratio_decreases(self):
        v0 = power_law_profile(2, 0.25)
        times = np.geomspace(10.0, 1e4, 24)
        damped = evolve_damped(v0, times, 0.0)
        diff = diffusion_difference(v0, times, 0.0)
        ratio = diff / damped
        assert all(b < a for a, b in zip(ratio, ratio[1:]))


class TestCompositionPinned:
    """Each curve equals a per-time composition of the kernel entries and the
    heat multiplier to the last bit."""

    @pytest.mark.parametrize("kind, evolve", [("damped", evolve_damped),
                                              ("heat", evolve_heat),
                                              ("difference", diffusion_difference)])
    def test_curve(self, kind, evolve):
        v0 = power_law_profile(2, 0.25)
        times = np.array([0.0, 0.5, 3.0, 40.0, 900.0])
        norms = evolve(v0, times, 1.0)
        expected = [norm_radial(flow_oracle(kind, float(t), v0), 1.0) for t in times]
        assert norms.dtype == np.float64
        assert norms.shape == times.shape
        np.testing.assert_array_equal(norms, expected)


class TestFitRate:
    def test_exact_power_law(self):
        times = np.geomspace(1.0, 1e5, 64)
        fit = fit_rate(times, (1 + times) ** -0.85, (1e2, 1e4))
        assert fit["slope"] == pytest.approx(-0.85, abs=1e-6)
        assert fit["residual"] < 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(31)
        times = np.geomspace(1.0, 1e5, 64)
        noise = np.exp(rng.normal(0.0, 0.01, times.shape))
        fit = fit_rate(times, (1 + times) ** -0.85 * noise, (1e2, 1e4))
        assert fit["slope"] == pytest.approx(-0.85, abs=0.02)

    def test_constant_curve(self):
        times = np.geomspace(1.0, 1e5, 32)
        fit = fit_rate(times, np.ones_like(times), (1e2, 1e4))
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        times = np.geomspace(1.0, 1e5, 32)
        norms = np.ones_like(times)
        with pytest.raises(InsufficientDataError):
            fit_rate(times, norms, (1e6, 1e7))
        with pytest.raises(DomainError):
            fit_rate(times, norms, (1e4, 1e2))
        with pytest.raises((DomainError, InsufficientDataError)):
            fit_rate(times, np.zeros_like(times), (1e2, 1e4))
        with pytest.raises(ContractError, match="matching shapes"):
            fit_rate(times, norms[:-1], (1e2, 1e4))


class TestDimensionKnob:
    def test_matches_grid_rates(self):
        # same spectral data shape on the periodic grid and in the radial lab
        from critex import GridSpec
        from critex.fields import wavenumber_magnitude

        def shape(r):
            return np.where((r > 0) & (r <= 1.0), np.maximum(r, 1e-30) ** -0.25, 0.0)

        times = np.geomspace(5.0, 1000.0, 40)
        window = (20.0, 1000.0)

        for dim, points, length in ((1, 32768, 1600 * np.pi),
                                    (2, 512, 200 * np.pi)):
            grid = GridSpec(dim=dim, length=length, points=points)
            kmag = wavenumber_magnitude(grid)
            coeffs = shape(kmag).astype(complex)  # real, even: Hermitian
            norms = []
            for t in times:
                evolved = kernel_entries(float(t), kmag)[0] * coeffs
                norms.append(float(np.sqrt(np.sum(np.abs(evolved) ** 2))))
            grid_fit = fit_rate(times, np.array(norms), window)

            v0 = power_law_profile(float(dim), 0.25)
            lab_fit = fit_rate(times, evolve_damped(v0, times, 0.0), window)
            assert abs(grid_fit["slope"] - lab_fit["slope"]) < 0.05, dim

    def test_non_integer_dimension(self):
        v0 = power_law_profile(2.5, 0.3)
        times = np.geomspace(10.0, 1e4, 40)
        fit = fit_rate(times, evolve_damped(v0, times, 0.0), (1e2, 1e4))
        # slope -(n - 2a)/4 = -(2.5 - 0.6)/4
        assert fit["slope"] == pytest.approx(-1.9 / 4, abs=0.03)


class TestKernelMemo:
    """The process-wide memo of k00(t, r) and e^{-r^2 t}."""

    SUITE = (3.0, 0.6, 1.0, "powerlaw:a=0.85")

    @pytest.fixture(autouse=True)
    def cleared_memo(self):
        radial._memo.clear()
        yield
        radial._memo.clear()

    @staticmethod
    def count(monkeypatch, fn):
        calls = []

        def counted(t, r):
            calls.append(t)
            return fn(t, r)

        monkeypatch.setattr(radial, fn.__name__, counted)
        monkeypatch.setattr(propagators, fn.__name__, counted)
        return calls

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        return self.count(monkeypatch, kernel_entries)

    @staticmethod
    def reference(times, kind, s, v0):
        # the order-s norms of the flow ``kind`` of v0 formed from fresh
        # multipliers
        return np.array([norm_radial(flow_oracle(kind, t, v0), s) for t in times])

    def test_curves_bitwise_equal_cold_warm_and_reference(self):
        v0 = power_law_profile(3.0, 0.85)
        for suite in (run_decay_suite, run_diffusion_suite):
            radial._memo.clear()
            # curves.csv rows (t, norm, order, gamma, kind)
            cold = suite(*self.SUITE)[1]
            warm = suite(*self.SUITE)[1]
            assert cold == warm
            np.testing.assert_array_equal(
                [norm for _, norm, _, _, _ in cold],
                [self.reference([t], kind, order, v0)[0]
                 for t, _, order, _, kind in cold])

    def test_warm_curve_forms_no_kernel(self, monkeypatch, kernel_calls):
        heat_calls = self.count(monkeypatch, heat_multiplier)
        v0 = power_law_profile(3.0, 0.85)
        times = np.geomspace(1.0, 1e3, 16)
        diffusion_difference(v0, times, 1.0)
        # k00 and the heat multiplier are each formed once per time
        assert len(kernel_calls) == len(heat_calls) == times.size
        kernel_calls.clear()
        heat_calls.clear()
        for kind, evolve in (("damped", evolve_damped), ("heat", evolve_heat),
                             ("difference", diffusion_difference)):
            warm = evolve(v0, times, 1.0)
            np.testing.assert_array_equal(warm, self.reference(times, kind, 1.0, v0))
        assert kernel_calls == heat_calls == []

    def test_suites_form_each_kernel_once(self, monkeypatch, kernel_calls):
        heat_calls = self.count(monkeypatch, heat_multiplier)
        run_diffusion_suite(*self.SUITE)
        run_diffusion_suite(*self.SUITE)
        for calls in (kernel_calls, heat_calls):
            assert len(calls) == 96
            assert len(set(calls)) == 96

    def test_grids_with_equal_ends_share_no_kernel(self, kernel_calls):
        times = np.geomspace(1.0, 1e3, 16)
        r = log_radial_grid()
        moved = r.copy()
        moved[100] = 0.5 * (r[100] + r[101])
        v0 = power_law_profile(3.0, 0.85)
        w0 = power_law_profile(3.0, 0.85, r=moved)
        evolve_damped(v0, times, 1.0)
        norms = evolve_damped(w0, times, 1.0)
        assert len(kernel_calls) == 2 * times.size
        np.testing.assert_array_equal(norms, self.reference(times, "damped", 1.0, w0))

    @pytest.mark.parametrize("times, error", [([10.0, 1.0], ContractError),
                                              ([[1.0, 10.0]], ContractError),
                                              ([-1.0, 1.0], DomainError)],
                             ids=["decreasing", "2-d", "negative"])
    def test_bad_times_leave_the_memo_as_it_was(self, times, error):
        # decreasing or 2-d times fail before any multiplier is formed; a
        # negative time fails in the kernel at the first sample
        v0 = power_law_profile(3.0, 0.85)
        evolve_damped(v0, [1.0, 2.0], 0.0)
        before = list(radial._memo.items())
        with pytest.raises(error):
            evolve_damped(v0, times, 0.0)
        after = list(radial._memo.items())
        assert [key for key, _ in after] == [key for key, _ in before]
        assert all(a is b for (_, a), (_, b) in zip(after, before))

    def test_memo_stays_within_budget(self):
        # 200 kernels of 8192 points are 13 MB, so the memo must evict
        v0 = power_law_profile(3.0, 0.85, r=log_radial_grid(2 * DEFAULT_POINTS))
        times = np.geomspace(1.0, 1e5, 200)
        evolve_damped(v0, times, 0.0)
        held = sum(k00.nbytes for k00 in radial._memo.values())
        assert 0 < held <= radial._MEMO_BUDGET_BYTES
        assert len(radial._memo) < times.size

    def test_memo_arrays_are_read_only(self):
        v0 = power_law_profile(3.0, 0.85)
        evolve_damped(v0, np.geomspace(1.0, 10.0, 4), 0.0)
        k00 = next(iter(radial._memo.values()))
        with pytest.raises(ValueError):
            k00[0] = 1.0
