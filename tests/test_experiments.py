import json
import math
import zipfile
from pathlib import Path

import numpy as np
import pytest

from critex import (DomainError, experiments, lifespan_exponent, p_crit,
                    radial, solver)
from critex.errors import ContractError, InsufficientDataError
from critex.experiments import (build_profile,
                                emit_phase_diagram, evaluate_testfn_functional,
                                experiment_evolve, experiment_lifespan,
                                experiment_linear_decay,
                                experiment_phase_diagram, experiment_testfn,
                                exponent_gate, run_decay_suite,
                                run_diffusion_suite, space_weight, time_cutoff,
                                write_csv, write_json)

TINY_GRID = dict(dim=1, N=2048, L=100 * np.pi)
BLOW_UP = ("BlowUp", "StepUnderflow")


class TestProfiles:
    def test_parse(self):
        powerlaw = build_profile("powerlaw:a=0.25", 2)
        np.testing.assert_array_equal(
            powerlaw.values, radial.power_law_profile(2, 0.25).values)
        with pytest.raises(DomainError, match="is not <key>=<number>"):
            build_profile("powerlaw:a", 2)
        with pytest.raises(DomainError):
            build_profile("mystery:x=1", 2)

    def test_build(self):
        profile = build_profile("powerlaw:a=0.25", 2)
        assert profile.dim == 2
        assert profile.values[0] == pytest.approx(profile.r[0] ** -0.25)

    @pytest.mark.parametrize("spec, message", [
        ("powerlaw", "is not powerlaw:a=<a>"),
        ("powerlaw:a=x", "is not <key>=<number>"),
        ("powerlaw:a=0.2,b=3", "is not powerlaw:a=<a>"),
        ("gaussian:x=3", "is not powerlaw:a=<a>"),
        ("gaussian", "is not powerlaw:a=<a>"),
        ("gaussian:w=1", "is not powerlaw:a=<a>"),
    ], ids=["missing-a", "non-numeric", "unknown-key-b", "unknown-key-x",
            "gaussian", "gaussian-w"])
    def test_bad_spec_rejected(self, spec, message):
        with pytest.raises(DomainError, match=message):
            build_profile(spec, 2)


class TestSuites:
    def test_decay_suite_predictions(self):
        fits, rows = run_decay_suite(2, 0.7, 1.0, "powerlaw:a=0.25",
                                     t0=10.0, t1=1e4, points=48)
        assert set(fits) == {0.0, 1.0}
        # predictions are the theory bounds; the a = n/2 - gamma - 0.05 family
        # decays slightly faster, and never slower (one-sided)
        assert fits[0.0]["predicted_rate"] == pytest.approx(-0.35)
        assert fits[1.0]["predicted_rate"] == pytest.approx(-0.85)
        assert fits[0.0]["slope"] == pytest.approx(-0.375, abs=0.03)
        assert fits[1.0]["slope"] == pytest.approx(-0.875, abs=0.04)
        for fit in fits.values():
            assert fit["slope"] <= fit["predicted_rate"] + 0.05
        # curves.csv rows (t, norm, order, gamma, kind)
        assert {(row[2], row[4]) for row in rows} == {(0.0, "damped"), (1.0, "damped")}

    def test_diffusion_suite_gain(self):
        fits, _, gain = run_diffusion_suite(2, 0.7, 0.0, "powerlaw:a=0.25",
                                            t0=10.0, t1=1e4, points=48)
        assert set(fits) == {"damped", "heat", "difference"}
        assert -1.3 <= gain <= -0.85

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            run_decay_suite(2, 1.2, 1.0, "powerlaw:a=0.25")

    def test_suites_call_the_public_curves(self, monkeypatch):
        # the benchmark's radial.*_ms spans time these three functions
        names = ("evolve_damped", "evolve_heat", "diffusion_difference")
        calls = dict.fromkeys(names, 0)

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(radial, name, counted(name, getattr(radial, name)))
        run_decay_suite(2, 0.7, 1.0, "powerlaw:a=0.25", t0=10.0, t1=1e4, points=48)
        assert calls == {"evolve_damped": 2, "evolve_heat": 0, "diffusion_difference": 0}
        calls.update(dict.fromkeys(names, 0))
        run_diffusion_suite(2, 0.7, 0.0, "powerlaw:a=0.25", t0=10.0, t1=1e4, points=48)
        assert calls == dict.fromkeys(names, 1)

    @pytest.mark.parametrize("suite, orders", [(run_decay_suite, [0.0, -0.7, 1.0]),
                                               (run_diffusion_suite, [1.0, -0.7])])
    def test_each_order_is_checked_once(self, monkeypatch, suite, orders):
        # v0 in H^order and H^-gamma, once per distinct order, before any curve
        checked = []
        norm_radial = radial.norm_radial

        def counted(profile, s):
            checked.append(s)
            return norm_radial(profile, s)

        monkeypatch.setattr(radial, "norm_radial", counted)
        suite(2, 0.7, 1.0, "powerlaw:a=0.25", t0=10.0, t1=1e4, points=48)
        assert checked == orders


def sweep(tmp_path, p: float, gamma: float, eps_start: float, eps_factor: float,
          count: int, grid: dict = TINY_GRID, **kwargs) -> dict:
    """The report of a 1-D, s = 1 lifespan sweep run under ``tmp_path``."""
    _, report = experiment_lifespan(p=p, gamma=gamma, s=1.0, eps_start=eps_start,
                                    eps_factor=eps_factor, count=count,
                                    out=str(tmp_path), **grid, **kwargs)
    return report


class TestSweep:
    def test_fit_harness_self_test(self, tmp_path):
        report = sweep(tmp_path, 2.0, 0.5, 4.0, 0.5, 4, dt=0.05, tend=100.0)
        rows = [r for r in report["rows"] if r["status"] in BLOW_UP]
        assert len(rows) == 4
        slope, intercept = np.polyfit(np.log([r["eps"] for r in rows]),
                                      np.log([r["lifespan"] for r in rows]), 1)
        assert abs(report["fitted_slope"] - slope) < 1e-9
        assert abs(report["intercept"] - intercept) < 1e-9

    def test_subcritical_sweep(self, tmp_path):
        report = sweep(tmp_path, 2.0, 0.5, 4.0, 10 ** (-1 / 7), 8, dt=0.02,
                       tend=400.0)
        assert not report["refused"]
        assert sum(r["status"] in BLOW_UP for r in report["rows"]) == 8
        lifespans = [r["lifespan"] for r in report["rows"]]
        assert all(b >= a for a, b in zip(lifespans, lifespans[1:]))
        assert report["predicted_slope"] == pytest.approx(-2.0)
        assert report["fitted_slope"] < 0

    def test_slopes_inside_the_gamma_range(self, tmp_path):
        # 0 < gamma < n/2 on the default 1-D grid, one decade of eps from
        # 7e-3: the fits sit 8.9 % (gamma = 0.1) and 3.6 % (gamma = 0.4) from
        # the predicted exponents, and a larger gamma gives a steeper slope
        slopes = {}
        for gamma in (0.1, 0.4):
            report = sweep(tmp_path, 2.0, gamma, 7e-3, 10 ** (-1 / 3), 4,
                           grid=dict(dim=1), tend=2e5)
            assert [r["status"] for r in report["rows"]] == ["BlowUp"] * 4
            predicted = lifespan_exponent(2.0, 1, gamma)
            fitted = report["fitted_slope"]
            assert abs(fitted / predicted - 1) <= 0.12, fitted
            slopes[gamma] = fitted
        assert slopes[0.4] < slopes[0.1]

    def test_supercritical_refuses_fit(self, tmp_path):
        report = sweep(tmp_path, 5.0, 0.3, 1e-3, 10 ** (-1 / 3), 4, dt=0.05,
                       tend=20.0)
        assert report["refused"]
        assert report["fitted_slope"] is None
        assert report["regime"] == "GlobalExistence"
        assert all(r["status"] == "Completed" for r in report["rows"])
        assert all(math.isinf(r["lifespan"]) for r in report["rows"])

    def test_supercritical_mixed(self, tmp_path):
        # eps = 1 blows up by T = 1.13; the three smaller data complete.  At
        # theta = 1e8 the eps = 1 run runs out of step size before max|u|
        # gets there (T = 1.125382); at the default theta it is BlowUp at
        # 1.125370
        common = dict(dim=1, gamma=0.3, s=1.0, p=5.0, eps_start=1.0,
                      eps_factor=0.1, N=2048, L=100 * np.pi, dt=0.05, tend=20.0,
                      out=str(tmp_path))
        _, default = experiment_lifespan(count=2, **common)
        row, _ = default["rows"]
        assert row["status"] == "BlowUp"
        assert row["lifespan"] == pytest.approx(1.1254, abs=1e-4)
        run_dir, report = experiment_lifespan(count=4, theta=1e8, **common)
        assert json.loads((run_dir / "report.json").read_text()) == report
        assert report["regime"] == "Mixed"
        assert report["refused"]
        assert report["predicted_slope"] is None
        assert report["fitted_slope"] is None
        assert report["intercept"] is None
        assert report["relative_deviation"] is None
        first, *rest = report["rows"]
        assert first["status"] == "StepUnderflow"
        assert first["lifespan"] == pytest.approx(1.1254, abs=1e-4)
        assert all(r["status"] == "Completed" for r in rest)
        assert all(math.isinf(r["lifespan"]) for r in rest)
        lines = (run_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "eps,T,status"
        assert lines[1] == f"1.0,{first['lifespan']!r},StepUnderflow"
        assert [line.split(",")[1:] for line in lines[2:]] == \
            [["inf", "Completed"]] * 3

    def test_critical_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            sweep(tmp_path, 3.0, 0.5, 0.5, 0.5, 2)  # p == p_crit
        assert not any(tmp_path.iterdir())

    def test_inadmissible_rejected(self, tmp_path):
        # subcritical but below the 1 + 2*gamma/n segment
        with pytest.raises(DomainError):
            sweep(tmp_path, 1.5, 0.4, 0.5, 0.5, 2)
        assert not any(tmp_path.iterdir())

    def test_insufficient_blow_up_rows(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            sweep(tmp_path, 2.0, 0.5, 1e-6, 10 ** (-1 / 3), 4, dt=0.05, tend=5.0)
        assert not any(tmp_path.iterdir())

    def test_schedule_validation(self, tmp_path):
        with pytest.raises(DomainError, match="at least two points"):
            sweep(tmp_path, 2.0, 0.5, 1.0, 0.5, 1)
        with pytest.raises(DomainError, match="strictly monotone geometric"):
            sweep(tmp_path, 2.0, 0.5, 1.0, 1.0, 3)

    def test_worker_pool_matches_serial(self, tmp_path):
        kwargs = dict(dt=0.05, tend=100.0)
        serial = sweep(tmp_path, 2.0, 0.5, 4.0, 0.5, 4, **kwargs)
        pooled = sweep(tmp_path, 2.0, 0.5, 4.0, 0.5, 4, workers=2, **kwargs)
        assert serial["rows"] == pooled["rows"]
        assert serial["fitted_slope"] == pooled["fitted_slope"]


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

    def test_thresholds_are_read_by_name(self, monkeypatch):
        # the columns must not depend on the order of classify_regime's reasons
        grids = (np.linspace(0.2, 1.3, 4), np.linspace(1.3, 4.5, 5))
        expected = emit_phase_diagram(3, 1.0, *grids)
        classify = experiments.classify_regime

        def reversed_reasons(params):
            verdict = classify(params)
            return verdict._replace(reasons=verdict.reasons[::-1])

        monkeypatch.setattr(experiments, "classify_regime", reversed_reasons)
        assert emit_phase_diagram(3, 1.0, *grids) == expected

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
        run_dir, report = experiment_evolve(dim=1, N=512, L=50 * np.pi, p=2.0,
                                            eps=0.1, gamma=0.5, s=1.0, dt=0.05,
                                            tend=2.0, snapshots=8,
                                            out=str(tmp_path))
        assert (run_dir / "config.json").exists()
        assert (run_dir / "curves.csv").exists()
        assert (run_dir / "meta.json").exists()
        assert (run_dir / "snapshots.npz").exists()
        assert report["status"] == "Completed"
        header = (run_dir / "curves.csv").read_text().splitlines()[0]
        assert header == "t,l2,hs,hneg,maxabs"
        archive = np.load(run_dir / "snapshots.npz")
        assert archive["fields"].shape[1] == 512
        assert archive["times"][0] == 0.0

    def test_reproducibility(self, tmp_path):
        kwargs = dict(dim=1, N=256, L=30 * np.pi, p=2.0, eps=0.05, gamma=0.4,
                      s=1.0, dt=0.05, tend=1.0, out=str(tmp_path))
        dir_a, report_a = experiment_evolve(**kwargs)
        dir_b, report_b = experiment_evolve(**kwargs)
        assert (dir_a / "curves.csv").read_bytes() == \
            (dir_b / "curves.csv").read_bytes()
        assert (dir_a / "config.json").read_bytes() == \
            (dir_b / "config.json").read_bytes()
        assert (dir_a / "report.json").read_bytes() == \
            (dir_b / "report.json").read_bytes()
        assert report_a == report_b

    @pytest.mark.parametrize("eps, status", [(0.05, "Completed"), (1.0, "BlowUp")])
    def test_outcome_is_stated_once(self, tmp_path, monkeypatch, eps, status):
        results = []

        def recorded_run(*args, **kwargs):
            results.append(solver.run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, "run", recorded_run)
        run_dir, report = experiment_evolve(dim=1, N=256, L=30 * np.pi, p=2.0,
                                            eps=eps, gamma=0.5, dt=0.05,
                                            tend=10.0, out=str(tmp_path))
        (result,) = results
        assert report == json.loads((run_dir / "report.json").read_text())
        assert report["status"] == result.status == status
        last_t = float((run_dir / "curves.csv").read_text().splitlines()[-1]
                       .split(",")[0])
        if status == "Completed":
            assert report["blow_up_time"] is None and result.lifespan == math.inf
        else:
            assert report["blow_up_time"] == result.lifespan == \
                last_t + solver.tail_time(result.maxabs[-1], 2.0) < 10.0
        meta = json.loads((run_dir / "meta.json").read_text())
        assert list(meta) == ["wall_time_s"] and meta["wall_time_s"] > 0

    def test_crashed_run_has_no_report(self, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            experiment_evolve(dim=1, N=256, L=30 * np.pi, p=2.0, eps=0.05,
                              gamma=0.4, dt=0.05, tend=0.5, snapshots=4,
                              out=str(tmp_path))
        (run_dir,) = tmp_path.iterdir()
        assert (run_dir / "config.json").exists()
        assert not (run_dir / "report.json").exists()

    @pytest.mark.parametrize("eps, status, stored", [(0.1, "Completed", 8),
                                                     (1.0, "BlowUp", 3)])
    def test_snapshot_archive_is_stored_and_exact(self, tmp_path, monkeypatch,
                                                  eps, status, stored):
        seen = {}

        def observed_run(*args, observer, **kwargs):
            def observe(t, u_phys):
                seen[t] = u_phys.copy()
                observer(t, u_phys)
            return solver.run(*args, observer=observe, **kwargs)

        monkeypatch.setattr(experiments, "run", observed_run)
        run_dir, report = experiment_evolve(dim=1, N=256, L=30 * np.pi, p=2.0,
                                            eps=eps, gamma=0.5, dt=0.05,
                                            tend=10.0, snapshots=8,
                                            out=str(tmp_path))
        assert report["status"] == status
        path = run_dir / "snapshots.npz"
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == ["fields.npy", "times.npy",
                                                  "u0.npy"]
            assert all(info.compress_type == zipfile.ZIP_STORED
                       for info in archive.infolist())
        with np.load(path) as archive:
            times, fields = archive["times"], archive["fields"]
        # a run that blows up stores only the targets it reached, and no
        # unwritten buffer rows
        assert fields.shape == (stored, 256) and len(times) == stored
        assert fields.dtype == np.float64
        for t, field in zip(times, fields):
            assert field.tobytes() == seen[t].tobytes()

    def test_json_written_whole_or_not_at_all(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "report.json", {"value": object()})
        assert not (tmp_path / "report.json").exists()
        write_json(tmp_path / "report.json", {"value": 1.5})
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_lifespan_artifacts(self, tmp_path):
        run_dir, report = experiment_lifespan(
            dim=1, gamma=0.5, s=1.0, p=2.0, eps_start=4.0,
            eps_factor=10 ** (-1 / 7), count=8, N=2048, L=100 * np.pi,
            dt=0.05, tend=400.0, out=str(tmp_path))
        sweep_lines = (run_dir / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0] == "eps,T,status"
        assert len(sweep_lines) == 9
        assert report["fitted_slope"] is not None

    def test_csv_cells_are_shortest_round_trip(self, tmp_path):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1e-5, 5e-324, 0.1,
                  1 / 3]
        path = tmp_path / "cells.csv"
        write_csv(path, ["a", "b"], [values, [np.float64(v) for v in values],
                                     [3, np.int64(-4), "BlowUp"]])
        cells = ("0.0,-0.0,inf,-inf,nan,1e+16,1e-05,5e-324,0.1,"
                 "0.3333333333333333")
        assert path.read_bytes() == f"a,b\n{cells}\n{cells}\n3,-4,BlowUp\n".encode()

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

    def test_name_taken_after_the_check_goes_to_the_next(self, tmp_path,
                                                        monkeypatch):
        # another run of the same kind creates the first candidate in the
        # same second, just before this run's mkdir
        mkdir, raced = Path.mkdir, []

        def racing_mkdir(self, *args, **kwargs):
            if self.name.endswith("-phase-diagram") and not raced:
                raced.append(self)
                mkdir(self, parents=True)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        run_dir, _ = experiment_phase_diagram(
            n=1, s=1.0, gamma_min=0.1, gamma_max=0.3, gamma_steps=2,
            p_min=2.0, p_max=4.0, p_steps=2, out=str(tmp_path))
        (first,) = raced
        assert run_dir == Path(f"{first}-2")
        assert list(first.iterdir()) == []
        assert (run_dir / "report.json").exists()

    def test_run_directory_that_cannot_be_created(self, tmp_path, monkeypatch):
        # a name clash still moves on to -2; any other OSError names the root
        mkdir = Path.mkdir

        def refusing_mkdir(self, *args, **kwargs):
            if self.name.endswith("-phase-diagram"):
                raise PermissionError(13, "Permission denied")
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", refusing_mkdir)
        with pytest.raises(ContractError, match="Permission denied") as caught:
            experiment_phase_diagram(
                n=1, s=1.0, gamma_min=0.1, gamma_max=0.3, gamma_steps=2,
                p_min=2.0, p_max=4.0, p_steps=2, out=str(tmp_path / "root"))
        assert repr(str(tmp_path / "root")) in str(caught.value)
        assert list((tmp_path / "root").iterdir()) == []

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
        report = evaluate_testfn_functional(run_dir, [1.0, 2.0])
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

    def test_samples_flag_an_unresolved_radius(self, tmp_path):
        # stored times 0, ~10, ~20: [0, R^2] holds one snapshot at R = 2,
        # where the trapezoid spans no time, and two at R = 4
        run_dir, _ = experiment_evolve(dim=1, N=256, L=30 * np.pi, p=2.0,
                                       eps=0.01, gamma=0.5, s=1.0, dt=0.05,
                                       tend=20.0, snapshots=3,
                                       out=str(tmp_path))
        unresolved, resolved = evaluate_testfn_functional(run_dir, [2.0, 4.0])["rows"]
        assert (unresolved["samples"], unresolved["I_R"]) == (1, 0.0)
        assert resolved["samples"] == 2 and resolved["I_R"] > 0

    def test_insufficient_coverage(self, tmp_path):
        run_dir, _ = experiment_evolve(dim=1, N=256, L=30 * np.pi, p=2.0,
                                       eps=0.1, gamma=0.5, s=1.0, dt=0.05,
                                       tend=2.0, snapshots=8,
                                       out=str(tmp_path))
        with pytest.raises(DomainError):
            evaluate_testfn_functional(run_dir, [3.0])

    def test_spec_validation(self, tmp_path):
        with pytest.raises(DomainError, match="R >= 1"):
            evaluate_testfn_functional(tmp_path, [2.0, 0.5])
        with pytest.raises(DomainError):
            evaluate_testfn_functional(tmp_path, [])

    def test_calibration_touches_first_radius(self, tmp_path):
        run_dir, _ = experiment_evolve(dim=1, N=512, L=50 * np.pi, p=2.0,
                                       eps=0.1, gamma=0.5, s=1.0, dt=0.05,
                                       tend=10.0, snapshots=32,
                                       out=str(tmp_path))
        report = evaluate_testfn_functional(run_dir, [1.5, 3.0])
        first = report["rows"][0]
        assert first["B_R"] == pytest.approx(first["D_R"], rel=1e-12)
        # subcritical: beyond the calibration radius the data term wins
        assert report["rows"][1]["contradiction"]
