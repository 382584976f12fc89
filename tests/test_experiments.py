import math

import numpy as np
import pytest

from critex import DomainError, GridSpec, RegimeParams, p_crit
from critex.errors import InsufficientDataError
from critex.experiments import TestFunctionSpec as CutoffSpec
from critex.experiments import (build_profile,
                                emit_phase_diagram, evaluate_testfn_functional,
                                experiment_evolve, experiment_lifespan,
                                experiment_linear_decay,
                                experiment_phase_diagram, experiment_testfn,
                                exponent_gate, fit_sweep_slope, parse_profile,
                                run_decay_suite, run_diffusion_suite,
                                run_lifespan_sweep, space_weight, time_cutoff)

TINY_GRID = GridSpec(dim=1, length=100 * np.pi, points=2048)


class TestProfiles:
    def test_parse(self):
        assert parse_profile("powerlaw:a=0.25") == ("powerlaw", {"a": 0.25})
        assert parse_profile("gaussian:w=2.0") == ("gaussian", {"w": 2.0})
        with pytest.raises(DomainError):
            parse_profile("powerlaw:a")
        with pytest.raises(DomainError):
            build_profile("mystery:x=1", 2)

    def test_build(self):
        profile = build_profile("powerlaw:a=0.25", 2)
        assert profile.dim == 2
        assert profile.values[0] == pytest.approx(profile.r[0] ** -0.25)


class TestSuites:
    def test_decay_suite_predictions(self):
        fits, curves = run_decay_suite(2, 0.7, 1.0, "powerlaw:a=0.25",
                                       t0=10.0, t1=1e4, points=48)
        assert set(fits) == {0.0, 1.0}
        # predictions are the theory bounds; the a = n/2 - gamma - 0.05 family
        # decays slightly faster, and never slower (one-sided)
        assert fits[0.0].predicted_rate == pytest.approx(-0.35)
        assert fits[1.0].predicted_rate == pytest.approx(-0.85)
        assert fits[0.0].fit.slope == pytest.approx(-0.375, abs=0.03)
        assert fits[1.0].fit.slope == pytest.approx(-0.875, abs=0.04)
        for suite_fit in fits.values():
            assert suite_fit.fit.slope <= suite_fit.predicted_rate + 0.05
        assert curves[0.0].kind == "damped"

    def test_diffusion_suite_gain(self):
        fits, curves, gain = run_diffusion_suite(2, 0.7, 0.0, "powerlaw:a=0.25",
                                                 t0=10.0, t1=1e4, points=48)
        assert set(fits) == {"damped", "heat", "difference"}
        assert -1.3 <= gain <= -0.85

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            run_decay_suite(2, 1.2, 1.0, "powerlaw:a=0.25")


class TestSweep:
    def test_fit_harness_self_test(self):
        eps = np.geomspace(0.1, 1.0, 8)
        slope, _ = fit_sweep_slope(eps, eps ** -2.0)
        assert abs(slope + 2.0) < 1e-9

    def test_subcritical_sweep(self):
        params = RegimeParams(n=1, gamma=0.5, s=1.0, p=2.0)
        schedule = [4.0 * (10 ** (-1 / 7)) ** i for i in range(8)]
        sweep = run_lifespan_sweep(params, schedule, TINY_GRID, dt=0.02,
                                   t_end=400.0)
        assert not sweep.refused
        assert len(sweep.blow_up_rows()) == 8
        lifespans = [r.lifespan for r in sweep.rows]
        assert all(b >= a for a, b in zip(lifespans, lifespans[1:]))
        assert sweep.predicted_slope == pytest.approx(-2.0)
        assert sweep.fitted_slope < 0

    def test_supercritical_refuses_fit(self):
        params = RegimeParams(n=1, gamma=0.3, s=1.0, p=5.0)
        schedule = [1e-3 * (10 ** (-1 / 3)) ** i for i in range(4)]
        sweep = run_lifespan_sweep(params, schedule, TINY_GRID, dt=0.05,
                                   t_end=20.0)
        assert sweep.refused
        assert sweep.fitted_slope is None
        assert sweep.regime == "GlobalExistence"
        assert all(r.status == "Completed" for r in sweep.rows)
        assert all(math.isinf(r.lifespan) for r in sweep.rows)

    def test_critical_rejected(self):
        params = RegimeParams(n=1, gamma=0.5, s=1.0, p=3.0)  # p == p_crit
        with pytest.raises(DomainError):
            run_lifespan_sweep(params, [0.5, 0.25], TINY_GRID)

    def test_inadmissible_rejected(self):
        # subcritical but below the 1 + 2*gamma/n segment
        params = RegimeParams(n=1, gamma=0.4, s=1.0, p=1.5)
        with pytest.raises(DomainError):
            run_lifespan_sweep(params, [0.5, 0.25], TINY_GRID)

    def test_insufficient_blow_up_rows(self):
        params = RegimeParams(n=1, gamma=0.5, s=1.0, p=2.0)
        schedule = [1e-6 * (10 ** (-1 / 3)) ** i for i in range(4)]
        with pytest.raises(InsufficientDataError):
            run_lifespan_sweep(params, schedule, TINY_GRID, dt=0.05, t_end=5.0)

    def test_schedule_validation(self):
        params = RegimeParams(n=1, gamma=0.5, s=1.0, p=2.0)
        with pytest.raises(DomainError):
            run_lifespan_sweep(params, [1.0], TINY_GRID)
        with pytest.raises(DomainError):
            run_lifespan_sweep(params, [1.0, 2.0, 1.5], TINY_GRID)
        with pytest.raises(DomainError):
            # monotone but not geometric
            run_lifespan_sweep(params, [1.0, 0.5, 0.3], TINY_GRID)

    def test_worker_pool_matches_serial(self):
        params = RegimeParams(n=1, gamma=0.5, s=1.0, p=2.0)
        schedule = [4.0, 2.0, 1.0, 0.5]
        serial = run_lifespan_sweep(params, schedule, TINY_GRID, dt=0.05,
                                    t_end=100.0)
        pooled = run_lifespan_sweep(params, schedule, TINY_GRID, dt=0.05,
                                    t_end=100.0, workers=2)
        assert serial.rows == pooled.rows
        assert serial.fitted_slope == pooled.fitted_slope


class TestPhaseDiagram:
    def test_low_dimension_has_no_outside_cells_below_cap(self):
        rows = emit_phase_diagram(2, 1.0, np.linspace(0.1, 0.9, 9),
                                  np.linspace(1.2, 4.0, 15))
        for row in rows:
            if row["p"] < row["p_crit"]:
                assert row["regime"] == "BlowUp"
            assert row["regime"] != "OutsideTheory" or row["p"] > row["p_crit"]

    def test_dimension_four_capped_at_two(self):
        rows = emit_phase_diagram(4, 1.0, np.linspace(0.2, 1.8, 9),
                                  np.linspace(1.2, 3.0, 10))
        for row in rows:
            if row["regime"] == "GlobalExistence":
                assert row["p"] <= 2.0 + 1e-12
            if row["p"] > 2.0 and row["p"] != pytest.approx(row["p_crit"]):
                assert row["regime"] in ("OutsideTheory", "BlowUp", "CriticalOpen")

    def test_boundary_cells_marked_open(self):
        gamma = 0.5
        pc = p_crit(3, gamma)
        rows = emit_phase_diagram(3, 1.0, [gamma], [pc - 0.2, pc, pc + 0.1])
        regimes = [r["regime"] for r in rows]
        assert regimes == ["BlowUp", "CriticalOpen", "GlobalExistence"]

    def test_thresholds_consistent(self):
        rows = emit_phase_diagram(3, 1.0, np.linspace(0.2, 1.3, 6),
                                  np.linspace(1.3, 2.8, 7))
        for row in rows:
            assert row["p_crit"] == pytest.approx(p_crit(3, row["gamma"]), abs=1e-15)
            assert row["p_lower"] == pytest.approx(1 + 2 * row["gamma"] / 3, abs=1e-15)
            assert row["p_cap"] == pytest.approx(3.0, abs=1e-15)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            emit_phase_diagram(2, 1.0, [1.5], [2.0])
        with pytest.raises(DomainError):
            emit_phase_diagram(2, 1.0, [0.5], [0.9])


class TestCutoffs:
    def test_time_cutoff_profile(self):
        u = np.linspace(0.0, 1.5, 301)
        values = time_cutoff(u)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert time_cutoff(0.5) == 1.0
        assert time_cutoff(1.0) == 0.0
        assert time_cutoff(0.0) == 1.0
        assert np.all(values[u >= 1.0] == 0.0)
        # bounded derivative (sampled)
        fd = np.abs(np.diff(values) / np.diff(u))
        assert fd.max() < 6.0
        # monotone through the transition
        transition = (u > 0.49) & (u < 1.01)
        tv = values[transition]
        assert all(b <= a + 1e-12 for a, b in zip(tv, tv[1:]))

    def test_space_weight_monotone_in_radius(self):
        r_sq = np.array([0.0, 1.0, 25.0])
        small = space_weight(r_sq, 1.0, 2)
        big = space_weight(r_sq, 10.0, 2)
        assert np.all(big >= small)
        assert space_weight(np.zeros(1), 5.0, 3)[0] == 1.0


class TestExponentGate:
    def test_matches_critical_threshold(self):
        n = 2
        for gamma in np.linspace(0.07, 0.93, 20):
            pc = p_crit(n, gamma)
            for p in np.linspace(1.05, 3.95, 20):
                gate = exponent_gate(n, gamma, p)
                assert gate["holds"] == (p < pc), (gamma, p)

    def test_spec_cases(self):
        # subcritical: gate holds; supercritical: fails
        assert exponent_gate(1, 0.5, 2.0)["holds"]
        assert not exponent_gate(1, 0.3, 5.0)["holds"]


class TestRunDirectories:
    def test_evolve_artifacts(self, tmp_path):
        run_dir, meta = experiment_evolve(dim=1, N=512, L=50 * np.pi, p=2.0,
                                          eps=0.1, gamma=0.5, s=1.0, dt=0.05,
                                          tend=2.0, snapshots=8,
                                          out=str(tmp_path))
        assert (run_dir / "config.json").exists()
        assert (run_dir / "curves.csv").exists()
        assert (run_dir / "meta.json").exists()
        assert (run_dir / "snapshots.npz").exists()
        assert meta["status"] == "Completed"
        header = (run_dir / "curves.csv").read_text().splitlines()[0]
        assert header == "t,l2,hs,hneg,maxabs"
        archive = np.load(run_dir / "snapshots.npz")
        assert archive["fields"].shape[1] == 512
        assert archive["times"][0] == 0.0

    def test_reproducibility(self, tmp_path):
        kwargs = dict(dim=1, N=256, L=30 * np.pi, p=2.0, eps=0.05, gamma=0.4,
                      s=1.0, dt=0.05, tend=1.0, out=str(tmp_path))
        dir_a, meta_a = experiment_evolve(**kwargs)
        dir_b, meta_b = experiment_evolve(**kwargs)
        assert (dir_a / "curves.csv").read_bytes() == \
            (dir_b / "curves.csv").read_bytes()
        assert (dir_a / "config.json").read_bytes() == \
            (dir_b / "config.json").read_bytes()
        meta_a.pop("wall_time_s")
        meta_b.pop("wall_time_s")
        assert meta_a == meta_b

    def test_lifespan_artifacts(self, tmp_path):
        run_dir, report = experiment_lifespan(
            dim=1, gamma=0.5, s=1.0, p=2.0, eps_start=4.0,
            eps_factor=10 ** (-1 / 7), count=8, N=2048, L=100 * np.pi,
            dt=0.05, tend=400.0, out=str(tmp_path))
        sweep_lines = (run_dir / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0] == "eps,T,status"
        assert len(sweep_lines) == 9
        assert report["fitted_slope"] is not None

    def test_curves_csv_cells_are_plain_numbers(self, tmp_path):
        run_dir, _ = experiment_linear_decay(
            n=2, gamma=0.7, s=1.0, profile="powerlaw:a=0.25", t0=10.0,
            t1=1e3, points=16, out=str(tmp_path))
        lines = (run_dir / "curves.csv").read_text().splitlines()
        assert lines[0] == "t,norm,s,gamma,kind"
        assert len(lines) > 1
        for line in lines[1:]:
            *numbers, kind = line.split(",")
            assert kind in ("damped", "heat", "difference"), line
            for cell in numbers:
                assert math.isfinite(float(cell)), line

    def test_phase_diagram_artifacts(self, tmp_path):
        run_dir, report = experiment_phase_diagram(
            n=1, s=1.0, gamma_min=0.1, gamma_max=0.4, gamma_steps=4,
            p_min=1.5, p_max=5.0, p_steps=5, out=str(tmp_path))
        lines = (run_dir / "regions.csv").read_text().splitlines()
        assert lines[0] == "gamma,p,regime,p_crit,p_lower,p_cap,gamma_tilde"
        assert len(lines) == 1 + 4 * 5
        assert report["cells"] == 20

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRITEX_OUT", str(tmp_path / "env_runs"))
        run_dir, _ = experiment_phase_diagram(
            n=1, s=1.0, gamma_min=0.1, gamma_max=0.3, gamma_steps=2,
            p_min=2.0, p_max=4.0, p_steps=2)
        assert run_dir.parent == tmp_path / "env_runs"


class TestTestFunctionFunctional:
    def test_zero_trajectory(self, tmp_path):
        run_dir, _ = experiment_evolve(dim=1, N=256, L=30 * np.pi, p=2.0,
                                       eps=0.0, gamma=0.5, s=1.0, dt=0.05,
                                       tend=5.0, snapshots=16,
                                       out=str(tmp_path))
        specs = [CutoffSpec(R=1.0, n=1, gamma=0.5, p=2.0),
                 CutoffSpec(R=2.0, n=1, gamma=0.5, p=2.0)]
        report = evaluate_testfn_functional(run_dir, specs)
        assert all(row["I_R"] == 0.0 for row in report["rows"])

    def test_subcritical_functional_increases(self, tmp_path):
        run_dir, _ = experiment_evolve(dim=1, N=1024, L=100 * np.pi, p=2.0,
                                       eps=0.05, gamma=0.5, s=1.0, dt=0.02,
                                       tend=26.0, snapshots=160,
                                       out=str(tmp_path))
        testfn_dir, report = experiment_testfn(run_dir, [1.5, 2.0, 3.0, 4.0, 5.0],
                                               out=str(tmp_path))
        values = [row["I_R"] for row in report["rows"]]
        assert all(math.isfinite(v) and v > 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert report["exponent_gate"]["holds"]
        assert (testfn_dir / "report.json").exists()

    def test_insufficient_coverage(self, tmp_path):
        run_dir, _ = experiment_evolve(dim=1, N=256, L=30 * np.pi, p=2.0,
                                       eps=0.1, gamma=0.5, s=1.0, dt=0.05,
                                       tend=2.0, snapshots=8,
                                       out=str(tmp_path))
        with pytest.raises(DomainError):
            evaluate_testfn_functional(
                run_dir, [CutoffSpec(R=3.0, n=1, gamma=0.5, p=2.0)])

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            CutoffSpec(R=0.5, n=1, gamma=0.5, p=2.0)

    def test_calibration_touches_first_radius(self, tmp_path):
        run_dir, _ = experiment_evolve(dim=1, N=512, L=50 * np.pi, p=2.0,
                                       eps=0.1, gamma=0.5, s=1.0, dt=0.05,
                                       tend=10.0, snapshots=32,
                                       out=str(tmp_path))
        specs = [CutoffSpec(R=float(r), n=1, gamma=0.5, p=2.0)
                 for r in (1.5, 3.0)]
        report = evaluate_testfn_functional(run_dir, specs)
        first = report["rows"][0]
        assert first["B_R"] == pytest.approx(first["D_R"], rel=1e-12)
        # subcritical: beyond the calibration radius the data term wins
        assert report["rows"][1]["contradiction"]
