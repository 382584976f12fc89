import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from critex import (ContractError, DomainError, GridSpec, Regime, RegimeParams,
                    SolverConfig, SpectrumField, State, classify_regime,
                    make_initial_data, nonlinearity, p_crit, p_fujita, run,
                    solver, step, transform_forward, transform_inverse)
from critex.fields import (_forward_coeffs, _radius_squared, dealias_mask,
                           hermitian_weight, norm_weights, wavenumber_magnitude,
                           weighted_norms)
from critex.propagators import forcing_weights, kernel_entries
from critex.solver import (DEFAULT_GRIDS, STATUS_BLOW_UP, STATUS_COMPLETED,
                           STATUS_STEP_UNDERFLOW, linear_reference, tail_time)


def small_grid(points=256, length=16 * np.pi):
    return GridSpec(dim=1, length=length, points=points)


def gaussian(grid, width):
    """exp(-|x|^2 / (2 width^2)), centered in the box."""
    return np.exp(-_radius_squared(grid) / (2.0 * width * width))


def smooth_state(grid, amplitude=1.0):
    data = amplitude * gaussian(grid, grid.length / 40)
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
        k00, k01, k10, k11 = kernel_entries(0.1, wavenumber_magnitude(grid))
        u, ut = state.u_hat.coeffs, state.ut_hat.coeffs
        assert np.max(np.abs(stepped.u_hat.coeffs - (k00 * u + k01 * ut))) < 1e-14
        assert np.max(np.abs(stepped.ut_hat.coeffs - (k10 * u + k11 * ut))) < 1e-14

    def test_zero_state_stays_zero(self):
        grid = small_grid()
        config = SolverConfig(p=2.0, eps=0.0, dt=0.1, t_end=1.0)
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
        constant = transform_inverse(state.u_hat)[0]

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

    def test_overflow_raises(self):
        # |1e200|^2 overflows, so the step cannot return a finite state
        grid = small_grid(points=64)
        huge = transform_forward(np.full(grid.shape, 1e200), grid)
        state = State(huge, transform_forward(np.zeros(grid.shape), grid), 0.0)
        config = SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractError, match="non-finite"):
                step(state, 0.1, config)

    def test_multipliers_cached_least_recently_used(self, monkeypatch):
        # two cached step sizes: h1 h2 h1 h3 h2 builds h1, h2, h3, then h2
        # again, because the repeat of h1 made h2 the one to evict
        builds = []

        def counting(h, *args, **kwargs):
            builds.append(h)
            return forcing_weights(h, *args, **kwargs)

        monkeypatch.setattr(solver, "forcing_weights", counting)
        solver._entries.cache_clear()
        grid = small_grid(points=64)
        state = smooth_state(grid, amplitude=0.1)
        config = SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0)
        for h in (0.1, 0.2, 0.1, 0.05, 0.2):
            step(state, h, config)
        solver._entries.cache_clear()
        assert solver._CACHED_STEPS == 2
        assert builds == [0.1, 0.2, 0.05, 0.2]


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
        increment = transform_inverse(SpectrumField(grid, h * k01 * coeffs))
        assert increment.min() >= -1e-10 * increment.max()


class TestEnergy:
    def test_linear_energy_dissipates(self):
        # 0.5 (||u_t||^2 + ||grad u||^2) is nonincreasing along the linear flow
        grid = small_grid()
        state = smooth_state(grid)
        u, ut = state.u_hat.coeffs, state.ut_hat.coeffs
        mult = hermitian_weight(grid)
        kmag = wavenumber_magnitude(grid)
        energies = []
        for t in np.linspace(0.0, 5.0, 21):
            k00, k01, k10, k11 = kernel_entries(float(t), kmag)
            new_u, new_ut = k00 * u + k01 * ut, k10 * u + k11 * ut
            energies.append(0.5 * np.sum(mult * (np.abs(new_ut) ** 2
                                                 + kmag ** 2 * np.abs(new_u) ** 2)))
        assert energies[-1] < 0.5 * energies[0]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


class TestRun:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(p=1.0, eps=1.0, dt=0.1, t_end=1.0)
        with pytest.raises(DomainError):
            SolverConfig(p=2.0, eps=1.0, dt=-0.1, t_end=1.0)
        with pytest.raises(DomainError):
            SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0, theta=0.5)

    def test_zero_eps_completes_and_matches_linear(self):
        grid = small_grid()
        data = gaussian(grid, grid.length / 40)
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

    def test_linear_reference_composition_pinned(self):
        # per-time oracle: k00 u + k01 ut from the kernel entries, same norms
        grid = GridSpec(dim=2, length=8 * np.pi, points=32)
        u0 = gaussian(grid, 2.0)
        u1 = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        times = np.array([0.0, 0.25, 2.0, 30.0])
        u = _forward_coeffs(0.3 * u0, grid)
        ut = _forward_coeffs(0.3 * u1, grid)
        weights = (hermitian_weight(grid), norm_weights(grid, 1.0),
                   norm_weights(grid, -0.5))
        rows = []
        for t in times:
            k00, k01, _, _ = kernel_entries(float(t), wavenumber_magnitude(grid))
            rows.append(weighted_norms(k00 * u + k01 * ut, weights))
        got = linear_reference(u0, u1, grid, 0.3, times, 1.0, 0.5)
        for norms, expected in zip(got, np.array(rows).T):
            np.testing.assert_array_equal(norms, expected)

    def test_history_uses_public_norms(self):
        # the recorded norms are fields' norms, bit for bit
        for grid in (small_grid(), GridSpec(dim=2, length=8 * np.pi, points=32)):
            u0 = gaussian(grid, grid.length / 40)
            u0 -= u0.mean()
            config = SolverConfig(p=2.0, eps=0.3, dt=0.02, t_end=0.1)
            result = run(config, u0, u0, grid, 0.75, 0.5)
            field = transform_forward(config.eps * u0, grid)
            l2, hs, hneg = weighted_norms(field.coeffs, [
                hermitian_weight(grid), norm_weights(grid, 0.75),
                norm_weights(grid, -0.5)])
            assert result.l2[0] == l2
            assert result.hs[0] == hs
            assert result.hneg[0] == hneg

    def test_history_structure(self):
        grid = small_grid()
        data = 0.1 * gaussian(grid, grid.length / 40)
        config = SolverConfig(p=2.0, eps=0.5, dt=0.02, t_end=5.0)
        result = run(config, data, data, grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        assert np.all(np.diff(result.times) > 0)
        assert result.times[0] == 0.0
        assert result.times[-1] == 5.0
        assert len(result.times) >= 64
        assert math.isfinite(result.weighted_sup)
        rows = list(zip(result.times, result.l2, result.hs, result.hneg,
                        result.maxabs))
        assert len(rows[0]) == 5

    def test_history_at_most_one_row_per_step(self):
        # rows at t = 0, at most one per accepted step, and at t_end: a short
        # run with few steps records fewer rows than the 96 targets
        grid = small_grid()
        data = 0.1 * gaussian(grid, grid.length / 40)
        config = SolverConfig(p=2.0, eps=0.5, dt=0.1, t_end=1.0)
        observed = []
        result = run(config, data, data, grid, 1.0, 0.5,
                     observer=lambda t, _: observed.append(t))
        steps = len(observed) - 1
        assert result.status == STATUS_COMPLETED
        assert len(result.times) <= steps + 2
        assert result.times[0] == 0.0
        assert result.times[-1] == config.t_end

    @pytest.mark.parametrize("eps, status", [(0.5, STATUS_COMPLETED),
                                             (40.0, STATUS_BLOW_UP)])
    def test_history_maxabs_is_the_observed_peak(self, eps, status):
        # each row's max|u| is the reduction of the field the observer saw
        # last at or before that row's time (the t_end row: the final field)
        grid = small_grid()
        data = gaussian(grid, grid.length / 40)
        config = SolverConfig(p=2.0, eps=eps, dt=0.02, t_end=5.0)
        seen_t, seen_peak = [], []

        def observer(t, u_phys):
            seen_t.append(t)
            seen_peak.append(float(np.max(np.abs(u_phys))))

        result = run(config, data, data, grid, 1.0, 0.5, observer=observer)
        assert result.status == status
        latest = np.searchsorted(seen_t, result.times, side="right") - 1
        assert result.maxabs.tolist() == [seen_peak[i] for i in latest]

    def test_observer_cannot_change_the_march(self):
        # the field handed over at t = 0 and after every accepted step is
        # read-only, so an observer that writes to it raises at once
        grid = GridSpec(dim=1, length=30 * np.pi, points=256)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        config = SolverConfig(p=2.0, eps=0.5, dt=0.05, t_end=5.0)
        writeable = []
        run(config, data, data, grid, 1.0, 0.5,
            observer=lambda t, u_phys: writeable.append(u_phys.flags.writeable))
        assert len(writeable) > 1 and not any(writeable)

        def halve(t, u_phys):
            u_phys *= 0.5

        with pytest.raises(ValueError, match="read-only"):
            run(config, data, data, grid, 1.0, 0.5, observer=halve)

    def test_weighted_sup_is_the_largest_over_rows(self):
        grid = small_grid()
        data = 0.1 * gaussian(grid, grid.length / 40)
        s, gamma = 0.75, 0.5
        config = SolverConfig(p=2.0, eps=0.5, dt=0.02, t_end=5.0)
        result = run(config, data, data, grid, s, gamma)
        expected = max((1.0 + t) ** (gamma / 2.0) * l2
                       + (1.0 + t) ** ((s + gamma) / 2.0) * hs
                       for t, l2, hs in zip(result.times.tolist(),
                                            result.l2.tolist(), result.hs.tolist()))
        assert result.weighted_sup == expected

    @pytest.mark.parametrize("dt", [0.5, 2.0])
    def test_step_beyond_horizon_records_both_ends(self, dt):
        # dt >= t_end: the history targets lie within rounding of t_end, and
        # the single step that reaches t_end is recorded once
        grid = small_grid()
        data = 0.1 * gaussian(grid, grid.length / 40)
        config = SolverConfig(p=2.0, eps=0.5, dt=dt, t_end=0.5)
        result = run(config, data, data, grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        assert result.times.tolist() == [0.0, 0.5]

    def test_blow_up_and_monotone_lifespan(self):
        grid = GridSpec(dim=1, length=100 * np.pi, points=2048)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        config = SolverConfig(p=2.0, eps=1.0, dt=0.02, t_end=400.0)
        lifespans = []
        for eps in (1.0, 2.0, 4.0):
            lifespan = run(replace(config, eps=eps), data, data, grid, 1.0,
                           0.5).lifespan
            assert math.isfinite(lifespan)
            lifespans.append(lifespan)
        assert lifespans[0] >= lifespans[1] >= lifespans[2]

    def test_blow_up_threshold_robustness(self):
        grid = GridSpec(dim=1, length=100 * np.pi, points=2048)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        base = SolverConfig(p=2.0, eps=2.0, dt=0.02, t_end=400.0, theta=1e8)
        wide = SolverConfig(p=2.0, eps=2.0, dt=0.02, t_end=400.0, theta=1e16)
        t_narrow = run(base, data, data, grid, 1.0, 0.5).lifespan
        t_wide = run(wide, data, data, grid, 1.0, 0.5).lifespan
        assert math.isfinite(t_narrow) and math.isfinite(t_wide)
        assert abs(t_wide - t_narrow) / t_narrow < 0.02

    def test_step_underflow_reported(self, monkeypatch):
        # a vanishing step scale (growth factor 2^1e-12) forces halving
        # straight to underflow
        monkeypatch.setattr(solver, "_STEP_SCALE", 1e-12)
        monkeypatch.setattr(solver, "_DT_MIN_RATIO", 1e-6)
        grid = small_grid(points=64)
        data = gaussian(grid, grid.length / 10)
        config = SolverConfig(p=2.0, eps=5.0, dt=0.1, t_end=10.0)
        result = run(config, data, data, grid, 1.0, 0.5)
        assert result.status == STATUS_STEP_UNDERFLOW
        assert result.lifespan == result.times[-1]

    def test_step_underflow_records_the_final_row(self, monkeypatch):
        # the run stops at its last accepted step, and the history ends there
        # with that step's own field, as it does for BlowUp
        monkeypatch.setattr(solver, "_STEP_SCALE", 1e-12)
        monkeypatch.setattr(solver, "_DT_MIN_RATIO", 1e-6)
        grid = small_grid(points=64)
        u0 = gaussian(grid, grid.length / 10)
        config = SolverConfig(p=2.0, eps=0.3, dt=0.1, t_end=10.0)
        seen_t, seen_peak = [], []

        def observer(t, u_phys):
            seen_t.append(t)
            seen_peak.append(float(np.max(np.abs(u_phys))))

        result = run(config, u0, -u0, grid, 1.0, 0.5, observer=observer)
        assert result.status == STATUS_STEP_UNDERFLOW
        assert result.lifespan == seen_t[-1] < config.t_end
        assert result.times[-1] == result.lifespan
        assert result.maxabs[-1] == seen_peak[-1]
        assert np.all(np.diff(result.times) > 0)

    @pytest.mark.parametrize("s, gamma, message", [
        (0.0, 0.5, "regularity s must lie in (0, 1]"),
        (1.5, 0.5, "regularity s must lie in (0, 1]"),
        (1.0, 0.0, "gamma must be positive"),
        (1.0, -0.5, "gamma must be positive"),
    ])
    def test_rejects_bad_norm_orders(self, s, gamma, message):
        grid = small_grid()
        data = gaussian(grid, grid.length / 40)
        config = SolverConfig(p=2.0, eps=0.5, dt=0.1, t_end=1.0)
        with pytest.raises(DomainError, match=re.escape(message)):
            run(config, data, data, grid, s, gamma)

    def test_shape_mismatch(self):
        grid = small_grid()
        config = SolverConfig(p=2.0, eps=1.0, dt=0.1, t_end=1.0)
        with pytest.raises(Exception):
            run(config, np.zeros(8), np.zeros(8), grid, 1.0, 0.5)

    def test_three_dimensional_smoke(self):
        grid = GridSpec(dim=3, length=8 * np.pi, points=16)
        data = 0.2 * gaussian(grid, grid.length / 8)
        config = SolverConfig(p=2.0, eps=0.5, dt=0.05, t_end=1.0)
        result = run(config, data, np.zeros(grid.shape), grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        assert np.all(np.isfinite(result.l2))


def complex_fft_lifespan(config, u0, u1, grid):
    """Lifespan from the full complex-spectrum ETD2 scheme: ``fftn``/``ifftn``
    with the dealias mask applied to every transform, the library's kernel
    and forcing weights, under the solver's step control, plus the
    closed-form tail past theta."""
    from critex.solver import _DT_MIN_RATIO, _REGROWTH_STREAK, _STEP_SCALE
    growth, quiet_ratio = 2.0 ** _STEP_SCALE, 1.02 ** _STEP_SCALE
    scale = grid.length ** (grid.dim / 2) / grid.points ** grid.dim
    m = np.fft.fftfreq(grid.points, d=1.0 / grid.points)
    kmag = 2 * np.pi * np.abs(np.fft.fftfreq(grid.points, d=grid.spacing))
    mask = np.abs(m) <= grid.points / 3.0

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
        i0, i1, j0, j1 = forcing_weights(h_try, kmag)
        f0 = forcing(u_phys)
        pred = k00 * u + k01 * ut + i0 * f0
        df = forcing(physical(pred)) - f0
        u_new = pred + i1 * df
        ut_new = k10 * u + k11 * ut + j0 * f0 + j1 * df
        new_phys = physical(u_new)
        max_new = float(np.max(np.abs(new_phys)))
        finite = math.isfinite(max_new) and np.isfinite(ut_new).all()
        if not finite or (max_cur > 0 and max_new > growth * max_cur):
            h, streak = 0.5 * h_try, 0
            assert h >= config.dt * _DT_MIN_RATIO
            continue
        quiet = max_cur == 0.0 or max_new <= quiet_ratio * max_cur
        t += h_try
        u, ut, u_phys, max_cur = u_new, ut_new, new_phys, max_new
        streak += 1
        h_cap = max(config.dt, t * _STEP_SCALE / 16.0)
        if streak >= _REGROWTH_STREAK and h < h_cap and quiet:
            h, streak = min(2.0 * h, h_cap), 0
        if max_cur > config.theta:
            return t + tail_time(max_cur, config.p)
    return math.inf


class TestHalfSpectrumAgainstComplexFFT:
    def test_lifespan_matches_complex_reference(self):
        grid = GridSpec(dim=1, length=100 * np.pi, points=512)
        data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
        config = SolverConfig(p=2.0, eps=2.0, dt=0.02, t_end=400.0)
        result = run(config, data, data, grid, 1.0, 0.5)
        expected = complex_fft_lifespan(config, data, data, grid)
        assert math.isfinite(expected)
        assert result.lifespan == pytest.approx(expected, rel=1e-12)


def ledger_run(grid=DEFAULT_GRIDS[1], **changes):
    """Run and accepted steps at eps = 7e-3, by default on the default 1-D
    grid, where the step policy dominates the error of T."""
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=0.5)
    config = replace(SolverConfig(p=2.0, eps=7e-3, dt=0.02, t_end=2e4), **changes)
    times = []
    result = run(config, data, data, grid, 1.0, 0.5,
                 observer=lambda t, _: times.append(t))
    assert result.status == STATUS_BLOW_UP
    return result, len(times) - 1


class TestTailTime:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("peak", [1.0, 1e2])
    def test_matches_quadrature(self, p, peak):
        # time from y = peak to infinity along y' = sqrt(2 y^(p+1)/(p+1))
        expected, _ = quad(lambda y: 1.0 / math.sqrt(2.0 * y ** (p + 1) / (p + 1)),
                           peak, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        assert tail_time(peak, p) == pytest.approx(expected, rel=1e-12, abs=0)


class TestLifespanAccuracy:
    # measured relative errors against the oracle: p = 2 at eps = 0.1, 1e-2,
    # 1e-3: -2.63e-3, -1.60e-3, +3.09e-3; p = 3 at eps = 0.1, 1e-2: -3.08e-3,
    # +6.73e-3.  They are the step policy's bias: the oracle's own tail
    # (T - t at y = 1e10) is at most 2.4e-5 long
    @pytest.mark.parametrize("p, eps", [(2.0, 0.1), (2.0, 1e-2), (2.0, 1e-3),
                                        (3.0, 0.1), (3.0, 1e-2)])
    def test_zero_mode_lifespan_matches_ode(self, p, eps):
        # spatially constant data blow up as y'' + y' = |y|^p, y(0) = y'(0) =
        # eps; the oracle integrates it to y = 1e10 and adds the closed-form
        # tail there (DOP853 fails short of y = 1e12 at p = 3, eps = 1e-2)
        grid = GridSpec(dim=1, length=2 * np.pi, points=8)
        ones = np.ones(grid.shape)
        config = SolverConfig(p=p, eps=eps, dt=0.02, t_end=1e5)
        result = run(config, ones, ones, grid, 1.0, 0.5)
        assert result.status == STATUS_BLOW_UP

        def reaches_far(_, y):
            return y[0] - 1e10
        reaches_far.terminal = True
        oracle = solve_ivp(lambda _, y: [y[1], abs(y[0]) ** p - y[1]],
                           (0.0, config.t_end), [eps, eps], method="DOP853",
                           rtol=1e-12, atol=1e-14, events=reaches_far)
        (far,) = oracle.t_events[0]
        expected = far + tail_time(1e10, p)
        assert abs(result.lifespan - expected) <= 8e-3 * expected

    @pytest.fixture(scope="class")
    def default_run(self):
        return ledger_run()

    def test_blow_up_adds_the_closed_form_tail(self, default_run):
        # the run stops at the first accepted step past theta = 1e2, which
        # is the history's last row, and adds the wave-ODE remaining time
        result, _ = default_run
        assert 1e2 < result.maxabs[-1] <= 2e2
        assert result.lifespan == result.times[-1] + tail_time(result.maxabs[-1], 2.0)

    def test_step_policy_is_second_order(self, default_run, monkeypatch):
        # scaling the whole step policy by lambda = 1, 1/2, 1/4; measured T =
        # 1350.41484, 1340.75840, 1338.69421 in 191, 343, 626 steps,
        # difference ratio 4.68, Richardson limit 1338.133, default bias
        # +0.918 %
        lifespans = [default_run[0].lifespan]
        for scale in (0.5, 0.25):
            monkeypatch.setattr(solver, "_STEP_SCALE", scale)
            lifespans.append(ledger_run()[0].lifespan)
        coarse, middle, fine = lifespans
        assert coarse > middle > fine
        assert (coarse - middle) / (middle - fine) >= 3.5
        limit = fine - (middle - fine) ** 2 / ((coarse - middle) - (middle - fine))
        assert abs(coarse - limit) <= 0.01 * limit
        assert default_run[1] <= 200

    # relative change of T against the default run, measured in the comments;
    # T is a sum of accepted steps and a tail, so these are bounded, never
    # asserted zero
    @pytest.mark.parametrize("grid, changes, bound", [
        (GridSpec(dim=1, length=400 * np.pi, points=8192), {}, 1e-6),  # +6.8e-12
        (GridSpec(dim=1, length=800 * np.pi, points=32768), {}, 1e-3),  # +3.16e-4
        (DEFAULT_GRIDS[1], {"dt": 0.04}, 1e-3),  # +3.48e-4
        (DEFAULT_GRIDS[1], {"theta": 1e16}, 1e-6),  # +3.56e-8
        (DEFAULT_GRIDS[1], {"theta": 1e8}, 1e-6),  # +2.38e-8
        (DEFAULT_GRIDS[1], {"theta": 1e4}, 1e-4),  # +1.60e-7
    ], ids=["half-box", "double-resolution", "dt-0.04", "theta-1e16", "theta-1e8",
            "theta-1e4"])
    def test_discretisation_ledger(self, default_run, grid, changes, bound):
        lifespan = ledger_run(grid, **changes)[0].lifespan
        expected = default_run[0].lifespan
        assert abs(lifespan - expected) <= bound * expected


class TestBeyondFujita:
    """At n = 1, gamma = 0.1, p = 3.5, between p_Fujita = 3 and p_crit = 4.33,
    data of negative order -gamma blow up where a Gaussian of the same eps does
    not.  On a torus every positive solution blows up eventually, so the
    Gaussian's "Completed" means no blow-up by t_end = 2e5."""

    GAMMA, P = 0.1, 3.5
    CONFIG = SolverConfig(p=P, eps=1.0, dt=0.02, t_end=2e5)

    def test_regime_lies_between_the_exponents(self):
        assert p_fujita(1) < self.P < p_crit(1, self.GAMMA)
        verdict = classify_regime(RegimeParams(n=1, gamma=self.GAMMA, s=1.0, p=self.P))
        assert verdict.regime is Regime.BLOW_UP

    def test_critical_tail_blows_up_where_a_gaussian_decays(self):
        grid = DEFAULT_GRIDS[1]
        tail = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=self.GAMMA)
        lifespans = []
        # measured T = 12.86, 65.93, 446.95
        for eps in (0.35, 0.25, 0.2):
            result = run(replace(self.CONFIG, eps=eps), tail, tail, grid, 1.0,
                         self.GAMMA)
            assert result.status == STATUS_BLOW_UP
            lifespans.append(result.lifespan)
        assert lifespans[-1] <= 1e3
        assert all(2 * a <= b for a, b in zip(lifespans, lifespans[1:]))
        # measured max|u| at t_end / at t = 0: 4.0e-3 and 3.5e-3
        bump = gaussian(grid, 1.0)
        for eps in (0.25, 0.2):
            result = run(replace(self.CONFIG, eps=eps), bump, bump, grid, 1.0,
                         self.GAMMA)
            assert result.status == STATUS_COMPLETED
            assert result.times[-1] == self.CONFIG.t_end
            assert result.maxabs[-1] <= 1e-2 * result.maxabs[0]
