"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with plain ``pytest``; the verdict lines bypass output capture so the
report is always visible.
"""

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from critex import (GridSpec, SolverConfig, State, alpha0, gamma_tilde,
                    kernel_entries, lifespan_exponent, make_initial_data, p_crit,
                    p_fujita, run, step, transform_forward, transform_inverse)
from critex.experiments import (emit_phase_diagram, exponent_gate,
                                experiment_evolve, experiment_testfn)
from critex.radial import (evolve_damped, evolve_heat, fit_rate,
                           power_law_profile, sphere_surface)
from critex.solver import STATUS_BLOW_UP, STATUS_COMPLETED, linear_reference
from test_solver import gaussian


@contextmanager
def criterion(number, name, budget_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)",
              file=sys.__stdout__, flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)",
          file=sys.__stdout__, flush=True)
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_1_exponent_table():
    with criterion(1, "exponent table", 1.0):
        for n in np.linspace(1.0, 6.0, 10):
            for gamma in np.linspace(0.05, n / 2 - 0.02, 10):
                assert abs(p_crit(n, gamma) - p_fujita(n / 2 + gamma)) < 1e-12
        for n in range(1, 13):
            g = gamma_tilde(n)
            assert abs(2 * g * g + n * g - 2 * n) < 1e-12
            assert g < 2.0
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            n = rng.uniform(1.0, 6.0)
            gamma = rng.uniform(1e-3, n / 2 - 1e-3)
            p = rng.uniform(1.0 + 1e-3, p_crit(n, gamma) - 1e-3)
            if p <= 1:
                continue
            first = lifespan_exponent(p, n, gamma)
            second = -2 * (p - 1) / (2 - (n / 2 + gamma) * (p - 1))
            third = -(p - 1) / alpha0(p, n, gamma)
            scale = max(1.0, abs(first))
            assert abs(first - second) < 1e-12 * scale
            assert abs(first - third) < 1e-12 * scale
            checked += 1


def _naive_matrix(t, r):
    root = complex(1 - 4 * r * r) ** 0.5
    lam1, lam2 = (-1 + root) / 2, (-1 - root) / 2
    e1, e2 = np.exp(lam1 * t), np.exp(lam2 * t)
    return np.array([
        [((lam1 * e2 - lam2 * e1) / (lam1 - lam2)).real,
         ((e1 - e2) / (lam1 - lam2)).real],
        [(lam1 * lam2 * (e2 - e1) / (lam1 - lam2)).real,
         ((lam1 * e1 - lam2 * e2) / (lam1 - lam2)).real]])


def _matrix(t, r):
    """Fundamental matrix [[k00, k01], [k10, k11]] at scalar (t, r)."""
    return np.array(kernel_entries(t, np.array([r]))).reshape(2, 2)


def test_criterion_2_propagator_correctness():
    with criterion(2, "propagator correctness", 5.0):
        radii = np.concatenate(([0.0], np.geomspace(1e-4, 1e3, 50)))
        # group property over the lattice
        for r in radii:
            for t1, t2 in ((0.3, 0.7), (1.0, 2.0), (5.0, 5.0), (0.05, 9.95)):
                once = _matrix(t1 + t2, r)
                composed = _matrix(t2, r) @ _matrix(t1, r)
                assert np.max(np.abs(once - composed)) < 1e-10
        # mode ODE residual by central differences
        h = 1e-4
        for r in (0.0, 0.3, 0.5, 0.7, 1.0, 2.0):
            for t in (0.5, 1.0, 3.0):
                k_p = _matrix(t + h, r)[0, 1]
                k_m = _matrix(t - h, r)[0, 1]
                k_0 = _matrix(t, r)[0, 1]
                residual = (k_p - 2 * k_0 + k_m) / (h * h) \
                    + (k_p - k_m) / (2 * h) + r * r * k_0
                assert abs(residual) < 1e-6
        # branch continuity: both one-sided evaluations agree with the naive
        # eigenvalue oracle to 1e-10 relative (the kernel itself varies by
        # ~|dk/dr| * 2e-8 across the probe interval)
        for t in (0.1, 1.0, 5.0, 10.0):
            for r in (0.5 - 1e-8, 0.5 + 1e-8):
                ours = _matrix(t, r)
                oracle = _naive_matrix(t, r)
                assert np.max(np.abs(ours - oracle)) \
                    < 1e-10 * np.max(np.abs(oracle))
        # first-column identity
        for r in radii:
            for t in (0.5, 2.0, 8.0):
                (_, k01), (k10, _) = _matrix(t, r)
                assert abs(k10 + r * r * k01) \
                    <= 1e-12 * max(1.0, abs(r * r * k01))


def test_criterion_3_linear_decay_sharpness():
    with criterion(3, "linear decay sharpness", 30.0):
        n, gamma = 2, 0.7
        a = n / 2 - gamma - 0.05
        v0 = power_law_profile(n, a)
        times = np.geomspace(10.0, 1e5, 72)
        window = (1e2, 1e4)

        fit0 = fit_rate(times, evolve_damped(v0, times, 0.0), window)
        assert abs(fit0["slope"] - (-(gamma + 0.05) / 2)) < 0.03

        heat = evolve_heat(v0, times, 0.0)
        for t, norm in zip(times, heat):
            # oracle over the represented radial range [r_min, 1]
            integrand = lambda r: np.exp(-2 * r * r * t) * r ** (n - 1 - 2 * a)
            value, _ = quad(integrand, 1e-6, 1.0, epsabs=0.0, epsrel=1e-10,
                            limit=200)
            oracle = math.sqrt(sphere_surface(n) * value)
            assert abs(norm - oracle) < 1e-6 * oracle

        fit1 = fit_rate(times, evolve_damped(v0, times, 1.0), window)
        assert abs(fit1["slope"] - (-(1 + gamma + 0.05) / 2)) < 0.04


def test_criterion_4_diffusion_phenomenon():
    with criterion(4, "diffusion phenomenon", 60.0):
        from critex.radial import diffusion_difference
        n = 2
        times = np.geomspace(10.0, 1e5, 72)
        window = (1e2, 1e4)
        for s in (0.0, 1.0):
            for gamma in (0.3, 0.7):
                a = n / 2 - gamma - 0.05
                v0 = power_law_profile(n, a)
                damped = fit_rate(times, evolve_damped(v0, times, s), window)
                diff = fit_rate(times, diffusion_difference(v0, times, s),
                                window)
                gain = diff["slope"] - damped["slope"]
                assert -1.3 <= gain <= -0.85, (s, gamma, gain)


def test_criterion_5_solver_order_and_linear_limit():
    with criterion(5, "solver order and linear limit", 60.0):
        # Richardson ladder on smooth data
        grid = GridSpec(dim=1, length=16 * np.pi, points=256)
        data = 0.5 * gaussian(grid, grid.length / 40)
        u = transform_forward(data, grid)
        ut = transform_forward(np.zeros(grid.shape), grid)
        config = SolverConfig(p=2.0, eps=1.0, dt=1.0, t_end=1.0)
        t_final = 0.5

        def march(dt):
            state = State(u, ut, 0.0)
            for _ in range(int(round(t_final / dt))):
                state = step(state, dt, config)
            return state.u_hat.coeffs

        reference = march(t_final / 512)
        errors = [np.linalg.norm(march(t_final / k) - reference)
                  for k in (16, 32, 64)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.4 <= coarse / fine <= 4.6

        # linear limit at eps = 1e-8 over t in [0, 10]
        grid = GridSpec(dim=1, length=100 * np.pi, points=1024)
        data = make_initial_data("critical_tail", grid, amplitude=1.0,
                                 gamma=0.5)
        config = SolverConfig(p=2.0, eps=1e-8, dt=0.01, t_end=10.0)
        result = run(config, data, data, grid, 1.0, 0.5)
        assert result.status == STATUS_COMPLETED
        lin_l2, lin_hs, _ = linear_reference(data, data, grid, 1e-8,
                                             result.times, 1.0, 0.5)
        mask = lin_l2 > 0
        assert np.max(np.abs(result.l2[mask] - lin_l2[mask]) / lin_l2[mask]) < 1e-6
        assert np.max(np.abs(result.hs[mask] - lin_hs[mask]) / lin_hs[mask]) < 1e-6

        # zero-mode reduction against an adaptive ODE oracle
        grid = GridSpec(dim=1, length=2 * np.pi, points=8)
        value = 0.1
        u = transform_forward(np.full(grid.shape, value), grid)
        ut = transform_forward(np.zeros(grid.shape), grid)
        config = SolverConfig(p=2.0, eps=1.0, dt=2e-3, t_end=1.0)
        state = State(u, ut, 0.0)
        for _ in range(int(round(1.0 / config.dt))):
            state = step(state, config.dt, config)
        constant = transform_inverse(state.u_hat)[0]
        oracle = solve_ivp(lambda _, y: [y[1], abs(y[0]) ** 2 - y[1]],
                           (0.0, 1.0), [value, 0.0], rtol=1e-12, atol=1e-14,
                           dense_output=True)
        assert abs(constant - oracle.sol(1.0)[0]) < 1e-4 * abs(oracle.sol(1.0)[0])


def test_criterion_6_lifespan_scaling():
    with criterion(6, "lifespan scaling", 600.0):
        grid = GridSpec(dim=1, length=3200 * np.pi, points=65536)
        data = make_initial_data("critical_tail", grid, amplitude=1.0,
                                 gamma=0.5)
        config = SolverConfig(p=2.0, eps=1.0, dt=0.02, t_end=2e6)
        factor = 10 ** (-1 / 7)
        schedule = [7e-3 * factor ** i for i in range(8)]
        lifespans = []
        for eps in schedule:
            lifespan = run(replace(config, eps=eps), data, data, grid, 1.0,
                           0.5).lifespan
            assert math.isfinite(lifespan)
            lifespans.append(lifespan)
        # monotone nonincreasing in eps (schedule is decreasing in eps)
        assert all(b >= a for a, b in zip(lifespans, lifespans[1:]))
        slope, _ = np.polyfit(np.log(schedule), np.log(lifespans), 1)
        predicted = lifespan_exponent(2.0, 1.0, 0.5)
        assert predicted == -2.0
        assert abs(slope - predicted) <= 0.2 * abs(predicted), slope
        # threshold robustness at the largest eps
        wide = SolverConfig(p=2.0, eps=1.0, dt=0.02, t_end=2e6, theta=1e16)
        t_narrow = lifespans[0]
        t_wide = run(replace(wide, eps=schedule[0]), data, data, grid, 1.0,
                     0.5).lifespan
        assert abs(t_wide - t_narrow) / t_narrow < 0.02


def test_criterion_7_regime_consistency():
    with criterion(7, "regime consistency", 300.0):
        n, gamma = 1, 0.3
        assert p_crit(n, gamma) == pytest.approx(3.5)
        grid = GridSpec(dim=1, length=800 * np.pi, points=4096)
        data = make_initial_data("critical_tail", grid, amplitude=1.0,
                                 gamma=gamma)

        # supercritical small data: completes, finite weighted sup, no loss
        # of decay against the linearized flow
        config = SolverConfig(p=5.0, eps=1e-3, dt=0.05, t_end=1000.0)
        result = run(config, data, data, grid, 1.0, gamma)
        assert result.status == STATUS_COMPLETED
        assert math.isfinite(result.weighted_sup) and result.weighted_sup > 0
        lin_l2, lin_hs, _ = linear_reference(data, data, grid, 1e-3,
                                             result.times, 1.0, gamma)
        window = (10.0, 1000.0)
        mask = result.times > 0
        for nonlinear, linear in ((result.l2, lin_l2), (result.hs, lin_hs)):
            fit_nl = fit_rate(result.times[mask], nonlinear[mask], window)
            fit_lin = fit_rate(result.times[mask], linear[mask], window)
            assert abs(fit_nl["slope"] - fit_lin["slope"]) <= 0.05

        # subcritical moderate data blows up
        config = SolverConfig(p=2.0, eps=0.5, dt=0.05, t_end=500.0)
        result = run(config, data, data, grid, 1.0, gamma)
        assert result.status == STATUS_BLOW_UP
        assert result.blow_up_time < 500.0

        # the phase diagram marks exactly these regimes
        rows = emit_phase_diagram(1, 1.0, [gamma], [2.0, 5.0])
        assert [r["regime"] for r in rows] == ["BlowUp", "GlobalExistence"]


def test_criterion_8_testfn_exponent_gate(tmp_path):
    with criterion(8, "test-function exponent gate", 120.0):
        for n in (1.0, 2.0):
            for gamma in np.linspace(0.04 * n, n / 2 - 0.04 * n, 20):
                pc = p_crit(n, gamma)
                for p in np.linspace(1.05, 5.0, 20):
                    gate = exponent_gate(n, gamma, p)
                    assert gate["holds"] == (p < pc), (n, gamma, p)

        run_dir, _ = experiment_evolve(dim=1, N=1024, L=100 * np.pi, p=2.0,
                                       eps=0.05, gamma=0.5, s=1.0, dt=0.02,
                                       tend=26.0, snapshots=160,
                                       out=str(tmp_path))
        _, report = experiment_testfn(run_dir, [1.5, 2.0, 3.0, 4.0, 5.0],
                                      out=str(tmp_path))
        values = [row["I_R"] for row in report["rows"]]
        assert all(math.isfinite(v) and v > 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert report["exponent_gate"]["holds"]
