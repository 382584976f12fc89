import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from critex import (DomainError, GridSpec, SolverConfig, State, apply_linear,
                    make_initial_data, measure_lifespan, nonlinearity, run,
                    step, transform_forward)
from critex.fields import _forward_coeffs, _inverse_samples, dealias_mask
from critex.solver import (STATUS_COMPLETED, STATUS_STEP_UNDERFLOW, energy,
                           linear_reference)


def small_grid(points=256, length=16 * np.pi):
    return GridSpec(dim=1, length=length, points=points)


def smooth_state(grid, amplitude=1.0):
    data = amplitude * make_initial_data("gaussian", grid, amplitude=1.0,
                                         width=grid.length / 40)
    u = transform_forward(data, grid)
    ut = transform_forward(np.zeros(grid.shape), grid)
    return State(u, ut, 0.0)


class TestNonlinearity:
    def test_absolute_value(self):
        u = np.full(8, -2.0)
        np.testing.assert_array_equal(nonlinearity(u, 3.0), np.full(8, 8.0))

    def test_zero(self):
        np.testing.assert_array_equal(nonlinearity(np.zeros(8), 2.0), np.zeros(8))

    def test_matches_elementwise_square(self):
        rng = np.random.default_rng(42)
        u = rng.standard_normal(64)
        np.testing.assert_allclose(nonlinearity(u, 2.0), u * u, rtol=1e-15)

    def test_nan_propagates(self):
        u = np.array([1.0, np.nan])
        out = nonlinearity(u, 2.0)
        assert math.isnan(out[1])


class TestStep:
    def test_zero_forcing_matches_linear_one_step(self):
        grid = small_grid()
        state = smooth_state(grid, amplitude=0.0)
        config = SolverConfig(p=2.0, eps=0.0, dt=0.1, t_end=1.0)
        stepped = step(state, 0.1, config)
        lin_u, lin_ut = apply_linear((state.u_hat, state.ut_hat), 0.1)
        assert np.max(np.abs(stepped.u_hat.coeffs - lin_u.coeffs)) < 1e-14
        assert np.max(np.abs(stepped.ut_hat.coeffs - lin_ut.coeffs)) < 1e-14

    def test_zero_state_stays_zero(self):
        grid = small_grid()
        config = SolverConfig(p=2.0, eps=0.0, dt=0.1, t_end=1.0, dealias=False)
        zero = State(transform_forward(np.zeros(grid.shape), grid),
                     transform_forward(np.zeros(grid.shape), grid), 0.0)
        stepped = step(zero, 0.25, config)
        assert np.max(np.abs(stepped.u_hat.coeffs)) == 0.0
        assert np.max(np.abs(stepped.ut_hat.coeffs)) == 0.0

    def test_richardson_order_two(self):
        grid = small_grid()
        config = SolverConfig(p=2.0, eps=1.0, dt=1.0, t_end=1.0)
        state = smooth_state(grid, amplitude=0.5)
        t_final = 0.5

        def march(dt):
            current = state
            steps = int(round(t_final / dt))
            for _ in range(steps):
                current = step(current, dt, config)
            return current.u_hat.coeffs

        reference = march(t_final / 512)
        errors = []
        for divisions in (16, 32, 64):
            approx = march(t_final / divisions)
            errors.append(np.linalg.norm(approx - reference))
        ratio1 = errors[0] / errors[1]
        ratio2 = errors[1] / errors[2]
        assert 3.4 <= ratio1 <= 4.6
        assert 3.4 <= ratio2 <= 4.6

    def test_zero_mode_ode_oracle(self):
        # spatially constant data reduces to y'' + y' = |y|^p
        grid = GridSpec(dim=1, length=2 * np.pi, points=8)
        value = 0.1
        u = transform_forward(np.full(grid.shape, value), grid)
        ut = transform_forward(np.zeros(grid.shape), grid)
        config = SolverConfig(p=2.0, eps=1.0, dt=2e-3, t_end=1.0)
        state = State(u, ut, 0.0)
        steps = int(round(1.0 / config.dt))
        for _ in range(steps):
            state = step(state, config.dt, config)
        constant = _inverse_samples(state.u_hat.coeffs, grid).real[0]

        def rhs(_, y):
            return [y[1], abs(y[0]) ** 2 - y[1]]

        oracle = solve_ivp(rhs, (0.0, 1.0), [value, 0.0], rtol=1e-12,
                           atol=1e-14, dense_output=True)
        expected = oracle.sol(1.0)[0]
        assert constant == pytest.approx(expected, rel=1e-4)

    def test_invalid_step(self):
        grid = small_grid()
        config = SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0)
        with pytest.raises(DomainError):
            step(smooth_state(grid), -0.1, config)


class TestForcingStructure:
    def test_duhamel_increment_nonnegative(self):
        # band-limited nonnegative forcing: physical increment stays
        # nonnegative up to ripple 1e-10 of its max
        grid = small_grid(points=512)
        x = np.arange(grid.points) * grid.spacing
        u = 1.0 + 0.5 * np.cos(2 * np.pi * 4 * x / grid.length)
        forcing = nonlinearity(u, 2.0)
        coeffs = _forward_coeffs(forcing, grid)
        coeffs *= dealias_mask(grid)
        from critex.propagators import kernel_entries
        from critex.fields import wavenumber_magnitude
        h = 0.01
        _, k01, _, _ = kernel_entries(h, wavenumber_magnitude(grid))
        increment = _inverse_samples(h * k01 * coeffs, grid).real
        assert increment.min() >= -1e-10 * increment.max()


class TestEnergy:
    def test_linear_energy_dissipates(self):
        grid = small_grid()
        state = smooth_state(grid)
        energies = []
        for t in np.linspace(0.0, 5.0, 21):
            u, ut = apply_linear((state.u_hat, state.ut_hat), float(t))
            energies.append(energy(State(u, ut, float(t))))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


class TestRun:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(p=1.0, eps=1.0, dt=0.1, t_end=1.0)
        with pytest.raises(DomainError):
            SolverConfig(p=2.0, eps=1.0, dt=-0.1, t_end=1.0)
        with pytest.raises(DomainError):
            SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0, theta=0.5)
        with pytest.raises(DomainError):
            SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0, growth_factor=1.0)

    def test_zero_eps_completes_and_matches_linear(self):
        grid = small_grid()
        data = make_initial_data("gaussian", grid, amplitude=1.0,
                                 width=grid.length / 40)
        config = SolverConfig(p=2.0, eps=0.0, dt=0.05, t_end=2.0)
        result = run(config, data, np.zeros(grid.shape), grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        assert result.lifespan == math.inf
        np.testing.assert_array_equal(result.l2, np.zeros_like(result.l2))

    def test_linear_limit_small_eps(self):
        # eps = 1e-8, p = 2: nonlinear run tracks the linear flow to 1e-6
        grid = GridSpec(dim=1, length=100 * np.pi, points=1024)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        config = SolverConfig(p=2.0, eps=1e-8, dt=0.01, t_end=10.0)
        result = run(config, data, data, grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        lin_l2, lin_hs, _ = linear_reference(data, data, grid, 1e-8,
                                             result.times, 1.0, 0.5)
        mask = lin_l2 > 0
        rel_l2 = np.max(np.abs(result.l2[mask] - lin_l2[mask]) / lin_l2[mask])
        rel_hs = np.max(np.abs(result.hs[mask] - lin_hs[mask]) / lin_hs[mask])
        assert rel_l2 < 1e-6
        assert rel_hs < 1e-6

    def test_history_structure(self):
        grid = small_grid()
        data = make_initial_data("gaussian", grid, amplitude=0.1,
                                 width=grid.length / 40)
        config = SolverConfig(p=2.0, eps=0.5, dt=0.02, t_end=5.0)
        result = run(config, data, data, grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        assert np.all(np.diff(result.times) > 0)
        assert result.times[0] == 0.0
        assert result.times[-1] == 5.0
        assert len(result.times) >= 64
        assert math.isfinite(result.weighted_sup)
        rows = list(result.history_rows())
        assert len(rows[0]) == 5

    def test_blow_up_and_monotone_lifespan(self):
        grid = GridSpec(dim=1, length=100 * np.pi, points=2048)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        config = SolverConfig(p=2.0, eps=1.0, dt=0.02, t_end=400.0)
        lifespans = []
        for eps in (1.0, 2.0, 4.0):
            lifespan = measure_lifespan(config, data, data, grid, 1.0, 0.5,
                                        eps=eps)
            assert math.isfinite(lifespan)
            lifespans.append(lifespan)
        assert lifespans[0] >= lifespans[1] >= lifespans[2]

    def test_blow_up_threshold_robustness(self):
        grid = GridSpec(dim=1, length=100 * np.pi, points=2048)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        base = SolverConfig(p=2.0, eps=2.0, dt=0.02, t_end=400.0, theta=1e8)
        wide = SolverConfig(p=2.0, eps=2.0, dt=0.02, t_end=400.0, theta=1e16)
        t_narrow = measure_lifespan(base, data, data, grid, 1.0, 0.5)
        t_wide = measure_lifespan(wide, data, data, grid, 1.0, 0.5)
        assert math.isfinite(t_narrow) and math.isfinite(t_wide)
        assert abs(t_wide - t_narrow) / t_narrow < 0.02

    def test_step_underflow_reported(self):
        # an absurd growth factor forces halving straight to underflow
        grid = small_grid(points=64)
        data = make_initial_data("gaussian", grid, amplitude=1.0,
                                 width=grid.length / 10)
        config = SolverConfig(p=2.0, eps=5.0, dt=0.1, t_end=10.0,
                              growth_factor=1.0 + 1e-12, dt_min_ratio=1e-6)
        result = run(config, data, data, grid, 1.0, 0.5)
        assert result.status == STATUS_STEP_UNDERFLOW
        assert result.lifespan == result.blow_up_time

    def test_shape_mismatch(self):
        grid = small_grid()
        config = SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0)
        with pytest.raises(Exception):
            run(config, np.zeros(8), np.zeros(8), grid, 1.0, 0.5)

    def test_three_dimensional_smoke(self):
        grid = GridSpec(dim=3, length=8 * np.pi, points=16)
        data = make_initial_data("gaussian", grid, amplitude=0.2,
                                 width=grid.length / 8)
        config = SolverConfig(p=2.0, eps=0.5, dt=0.05, t_end=1.0)
        result = run(config, data, np.zeros(grid.shape), grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        assert np.all(np.isfinite(result.l2))


def complex_fft_lifespan(config, u0, u1, grid):
    """Lifespan from the full complex-spectrum scheme: ``fftn``/``ifftn``
    with the dealias mask applied to every transform, under the solver's
    step control."""
    from critex.propagators import kernel_entries
    from critex.solver import (_QUIET_AMPLITUDE_RATIO, _REGROWTH_STREAK,
                               _STEP_CAP_FRACTION)
    scale = grid.length ** (grid.dim / 2) / grid.points ** grid.dim
    m = np.fft.fftfreq(grid.points, d=1.0 / grid.points)
    kmag = 2 * np.pi * np.abs(np.fft.fftfreq(grid.points, d=grid.spacing))
    mask = (np.abs(m) <= grid.points / 3.0) if config.dealias else 1.0

    def physical(c):
        return np.fft.ifftn(c * mask / scale).real

    def forcing(phys):
        return np.fft.fftn(np.abs(phys) ** config.p) * scale * mask

    u = np.fft.fftn(config.eps * u0) * scale
    ut = np.fft.fftn(config.eps * u1) * scale
    u_phys = physical(u)
    t, h, streak = 0.0, config.dt, 0
    max_cur = float(np.max(np.abs(u_phys)))
    while t < config.t_end * (1.0 - 1e-12):
        h_try = min(h, config.t_end - t)
        k00, k01, k10, k11 = kernel_entries(h_try, kmag)
        f0 = forcing(u_phys)
        lin_u, lin_ut = k00 * u + k01 * ut, k10 * u + k11 * ut
        fh = forcing(physical(lin_u + h_try * k01 * f0))
        u_new = lin_u + 0.5 * h_try * k01 * f0
        ut_new = lin_ut + 0.5 * h_try * (k11 * f0 + fh)
        new_phys = physical(u_new)
        max_new = float(np.max(np.abs(new_phys)))
        finite = math.isfinite(max_new) and np.isfinite(ut_new).all()
        if not finite or (max_cur > 0 and max_new > config.growth_factor * max_cur):
            h, streak = 0.5 * h_try, 0
            assert h >= config.dt * config.dt_min_ratio
            continue
        quiet = max_cur == 0.0 or max_new <= _QUIET_AMPLITUDE_RATIO * max_cur
        t += h_try
        u, ut, u_phys, max_cur = u_new, ut_new, new_phys, max_new
        streak += 1
        h_cap = max(config.dt, t * _STEP_CAP_FRACTION)
        if streak >= _REGROWTH_STREAK and h < h_cap and quiet:
            h, streak = min(2.0 * h, h_cap), 0
        if max_cur > config.theta:
            return t
    return math.inf


class TestHalfSpectrumAgainstComplexFFT:
    @pytest.mark.parametrize("dealias", [True, False])
    def test_lifespan_matches_complex_reference(self, dealias):
        grid = GridSpec(dim=1, length=100 * np.pi, points=512)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        config = SolverConfig(p=2.0, eps=2.0, dt=0.02, t_end=400.0,
                              dealias=dealias)
        result = run(config, data, data, grid, 1.0, 0.5)
        expected = complex_fft_lifespan(config, data, data, grid)
        assert math.isfinite(expected)
        assert result.lifespan == pytest.approx(expected, rel=1e-12)
