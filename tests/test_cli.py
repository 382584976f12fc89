import concurrent.futures
import contextlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from critex.cli import COMMANDS, build_parser, main, resolve


def parameter_names(fn) -> set[str]:
    return set(inspect.signature(fn).parameters)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExponentsCommand:
    def test_derived_only(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--n", "2", "--gamma", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["derived"]["p_crit"] == pytest.approx(1 + 4 / 3)
        assert payload["derived"]["p_fujita"] == 2.0
        assert "verdict" not in payload

    def test_with_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "exponents", "--n", "1", "--gamma", "0.3",
                               "--p", "5", "--s", "1")
        payload = json.loads(out)
        assert payload["verdict"]["regime"] == "GlobalExistence"
        assert all({"name", "passed", "lhs", "rhs"} <= set(r)
                   for r in payload["verdict"]["reasons"])

    def test_subcritical_includes_lifespan_exponent(self, capsys):
        _, out, _ = run_cli(capsys, "exponents", "--n", "1", "--gamma", "0.4",
                            "--p", "2")
        payload = json.loads(out)
        assert payload["verdict"]["regime"] == "BlowUp"
        assert payload["derived"]["lifespan_exponent"] == pytest.approx(-2 / 1.1)
        assert payload["sharp_lifespan_admissible"]

    def test_boundary_gamma_still_reports_lifespan(self, capsys):
        # gamma = n/2: classification is out of scope but the lifespan
        # arithmetic applies formally
        code, out, _ = run_cli(capsys, "exponents", "--n", "1", "--gamma",
                               "0.5", "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert "verdict" not in payload
        assert "verdict_error" in payload
        assert payload["derived"]["lifespan_exponent"] == pytest.approx(-2.0)
        assert payload["derived"]["alpha0"] == pytest.approx(0.5)
        assert payload["sharp_lifespan_admissible"]

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "exponents", "--n", "2")
        assert code == 2
        assert "--gamma" in err


def test_import_path_has_no_scipy():
    # critex needs only numpy and the stdlib at run time; scipy is a test extra
    script = (
        "import sys\n"
        "import critex, critex.cli\n"
        "critex.norm_radial(critex.power_law_profile(2, 0.25), 1.0)\n"
        "assert critex.cli.main(['exponents', '--n', '2', '--gamma', '0.5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestProbeCommand:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--t", "1.0", "--r", "0.0")
        lines = out.strip().splitlines()
        assert lines[0] == "t,r,k00,k01,k10,k11"
        values = [float(v) for v in lines[1].split(",")]
        assert values[2] == 1.0
        assert values[3] == pytest.approx(1 - math.exp(-1), rel=1e-14)

    def test_lists(self, capsys):
        _, out, _ = run_cli(capsys, "probe", "--t", "0.5,1.0", "--r", "0.0,0.5,1.0")
        assert len(out.strip().splitlines()) == 1 + 6


# stdout of `critex exponents` and `critex probe`, byte for byte
EXPONENTS_FINITE_CAP = """\
{
  "derived": {
    "gamma_tilde": 1.1374586088176875,
    "p_crit": 2.0,
    "p_fujita": 1.6666666666666665
  },
  "params": {
    "gamma": 0.5,
    "n": 3.0,
    "p": 2.0,
    "s": 1.0
  },
  "sharp_lifespan_admissible": false,
  "verdict": {
    "reasons": [
      {
        "lhs": 2.0,
        "name": "p > p_crit",
        "passed": false,
        "rhs": 2.0
      },
      {
        "lhs": 2.0,
        "name": "p = p_crit",
        "passed": true,
        "rhs": 2.0
      },
      {
        "lhs": 0.5,
        "name": "gamma <= gamma_tilde",
        "passed": true,
        "rhs": 1.1374586088176875
      },
      {
        "lhs": 2.0,
        "name": "p >= 1 + 2*gamma/n",
        "passed": true,
        "rhs": 1.3333333333333333
      },
      {
        "lhs": 2.0,
        "name": "p <= n/(n - 2s)",
        "passed": true,
        "rhs": 3.0
      }
    ],
    "regime": "CriticalOpen"
  }
}
"""

EXPONENTS_INFINITE_CAP = """\
{
  "derived": {
    "alpha0": 0.625,
    "gamma_tilde": 0.7807764064044151,
    "lifespan_exponent": -1.6,
    "p_crit": 3.6666666666666665,
    "p_fujita": 3.0
  },
  "params": {
    "gamma": 0.25,
    "n": 1.0,
    "p": 2.0,
    "s": 1.0
  },
  "sharp_lifespan_admissible": true,
  "verdict": {
    "reasons": [
      {
        "lhs": 2.0,
        "name": "p > p_crit",
        "passed": false,
        "rhs": 3.6666666666666665
      },
      {
        "lhs": 2.0,
        "name": "p = p_crit",
        "passed": false,
        "rhs": 3.6666666666666665
      },
      {
        "lhs": 0.25,
        "name": "gamma <= gamma_tilde",
        "passed": true,
        "rhs": 0.7807764064044151
      },
      {
        "lhs": 2.0,
        "name": "p >= 1 + 2*gamma/n",
        "passed": true,
        "rhs": 1.5
      },
      {
        "lhs": 2.0,
        "name": "p <= n/(n - 2s)",
        "passed": true,
        "rhs": Infinity
      }
    ],
    "regime": "BlowUp"
  }
}
"""

EXPONENTS_BOUNDARY_GAMMA = """\
{
  "derived": {
    "alpha0": 0.5,
    "gamma_tilde": 0.7807764064044151,
    "lifespan_exponent": -2.0,
    "p_crit": 3.0,
    "p_fujita": 3.0
  },
  "params": {
    "gamma": 0.5,
    "n": 1.0,
    "p": 2.0,
    "s": 1.0
  },
  "sharp_lifespan_admissible": true,
  "verdict_error": "classification requires gamma in (0, n/2); got gamma = 0.5, n = 1.0"
}
"""

PROBE_TABLE = """\
t,r,k00,k01,k10,k11
1.0,0.0,1.0,0.6321205588285577,0.0,0.36787944117144233
1.0,0.6,0.8712121116932291,0.595471929526848,-0.21436989462966527,0.275740182166381
1.0,2.0,-0.07064455091946409,0.2925001067983418,-1.1700004271933673,-0.3631446577178059
1480.0,0.0,1.0,1.0,0.0,0.0
1480.0,0.6,0.0,0.0,0.0,0.0
1480.0,2.0,0.0,0.0,0.0,0.0
"""


class TestPinnedOutput:
    @pytest.mark.parametrize("argv, expected", [
        (("--n", "3", "--gamma", "0.5", "--s", "1", "--p", "2"),
         EXPONENTS_FINITE_CAP),
        (("--n", "1", "--gamma", "0.25", "--s", "1", "--p", "2"),
         EXPONENTS_INFINITE_CAP),
        (("--n", "1", "--gamma", "0.5", "--p", "2"), EXPONENTS_BOUNDARY_GAMMA),
    ], ids=["finite-cap", "infinite-cap", "boundary-gamma"])
    def test_exponents(self, capsys, argv, expected):
        assert run_cli(capsys, "exponents", *argv) == (0, expected, "")

    def test_probe(self, capsys):
        assert run_cli(capsys, "probe", "--t", "1,1480", "--r", "0,0.6,2") \
            == (0, PROBE_TABLE, "")


class TestRunCommands:
    def test_phase_diagram(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "phase-diagram", "--n", "1", "--s", "1",
                               "--gamma-min", "0.1", "--gamma-max", "0.4",
                               "--gamma-steps", "3", "--p-min", "1.5",
                               "--p-max", "4.5", "--p-steps", "4",
                               "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["cells"] == 12
        run_dir = tmp_path / payload["run_dir"].split("/")[-1]
        assert (run_dir / "regions.csv").exists()

    def test_linear_decay(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "linear-decay", "--n", "2", "--gamma",
                               "0.7", "--s", "1", "--profile", "powerlaw:a=0.25",
                               "--t0", "10", "--t1", "1e4", "--points", "48",
                               "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["fits"]["0.0"]["predicted_rate"] == pytest.approx(-0.35)
        assert payload["fits"]["0.0"]["slope"] == pytest.approx(-0.375, abs=0.03)

    def test_diffusion(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "diffusion", "--n", "2", "--gamma", "0.7",
                               "--s", "0.5", "--profile", "powerlaw:a=0.25",
                               "--t0", "10", "--t1", "1e4", "--points", "48",
                               "--out", str(tmp_path))
        payload = json.loads(out)
        assert -1.3 <= payload["gain"] <= -0.85

    def test_evolve_and_testfn(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "evolve", "--dim", "1", "--N", "512",
                               "--L", "157.0", "--p", "2", "--eps", "0.05",
                               "--gamma", "0.5", "--s", "1", "--dt", "0.05",
                               "--tend", "5.0", "--snapshots", "16",
                               "--out", str(tmp_path))
        assert code == 0
        evolve_payload = json.loads(out)
        assert evolve_payload["status"] == "Completed"
        run_dir = evolve_payload["run_dir"]

        code, out, _ = run_cli(capsys, "testfn", "--run", run_dir, "--R",
                               "1.0,2.0", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 2
        assert payload["exponent_gate"]["holds"]

    def test_lifespan(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "lifespan", "--dim", "1", "--gamma",
                               "0.5", "--s", "1", "--p", "2", "--eps-start",
                               "4.0", "--eps-factor", "0.7197", "--count", "4",
                               "--N", "2048", "--L", "314.159", "--dt", "0.05",
                               "--tend", "200", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["fitted_slope"] is not None
        assert len(payload["rows"]) == 4

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = {"n": 1.0, "gamma": 0.2, "p": 2.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        _, out, _ = run_cli(capsys, "exponents", "--config", str(path),
                            "--gamma", "0.3")
        payload = json.loads(out)
        assert payload["params"]["gamma"] == 0.3  # flag wins
        assert payload["params"]["n"] == 1.0      # from file
        assert payload["derived"]["p_crit"] == pytest.approx(1 + 4 / 1.6)

    def test_invalid_parameters_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "exponents", "--n", "2", "--gamma", "-1")
        assert code == 2
        assert "error" in err


class TestRunInputFailsFast:
    """Bad run input exits 2 with one error line and leaves no run directory."""

    def fails(self, capsys, tmp_path, *argv):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()
        return err

    @pytest.mark.parametrize("spec", ["powerlaw", "powerlaw:a=x",
                                      "powerlaw:a=0.2,b=3", "gaussian:x=3",
                                      "gaussian"])
    @pytest.mark.parametrize("command", ["linear-decay", "diffusion"])
    def test_bad_profile(self, capsys, tmp_path, command, spec):
        err = self.fails(capsys, tmp_path, command, "--n", "2", "--gamma", "0.7",
                         "--s", "1", "--profile", spec)
        assert repr(spec) in err

    def test_testfn_missing_run(self, capsys, tmp_path):
        err = self.fails(capsys, tmp_path, "testfn", "--run",
                         str(tmp_path / "absent"), "--R", "2")
        assert "is not an evolve run directory" in err

    def test_testfn_on_phase_diagram_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "phase-diagram", *RUNS["phase-diagram"],
                               "--out", str(tmp_path / "source"))
        assert code == 0
        err = self.fails(capsys, tmp_path, "testfn", "--run",
                         json.loads(out)["run_dir"], "--R", "2")
        assert "is not an evolve run directory" in err

    def test_testfn_on_evolve_without_snapshots(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "evolve", "--dim", "1", "--N", "256",
                               "--p", "2", "--eps", "0.05", "--gamma", "0.5",
                               "--dt", "0.05", "--tend", "1",
                               "--out", str(tmp_path / "source"))
        assert code == 0
        err = self.fails(capsys, tmp_path, "testfn", "--run",
                         json.loads(out)["run_dir"], "--R", "2")
        assert "stored no snapshots" in err

    @pytest.mark.parametrize("count", ["-3", "1"])
    def test_evolve_bad_snapshot_count(self, capsys, tmp_path, count):
        err = self.fails(capsys, tmp_path, *EVOLVE_FLAGS, "--snapshots", count)
        assert f"snapshots must be 0 or at least 2, got {count}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--eps", "-1", "data size eps must be nonnegative"),
        ("--dt", "-0.1", "initial step must be positive"),
        ("--N", "100", "points per axis must be a power of two"),
        ("--s", "2", "regularity s must lie in (0, 1], got 2.0"),
        ("--s", "0", "regularity s must lie in (0, 1], got 0.0"),
    ])
    def test_evolve_bad_input(self, capsys, tmp_path, flag, value, message):
        err = self.fails(capsys, tmp_path, *EVOLVE_FLAGS, flag, value)
        assert message in err

    def test_lifespan_bad_eps_factor(self, capsys, tmp_path):
        err = self.fails(capsys, tmp_path, "lifespan", "--dim", "1",
                         "--gamma", "0.5", "--s", "1", "--p", "2",
                         "--eps-start", "1", "--eps-factor", "1",
                         "--N", "256", "--L", "50")
        assert "eps schedule must be strictly monotone geometric" in err

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--eps-start", "0", id="--eps-start"),
        pytest.param("--eps-factor", "0", id="--eps-factor"),
        # 1e300 ** 2 overflows, and float ** raises rather than give inf
        pytest.param("--eps-factor", "1e300", id="--eps-factor-overflow"),
    ])
    def test_lifespan_zero_eps(self, capsys, tmp_path, flag, value):
        eps = {"--eps-start": "1", "--eps-factor": "0.5", flag: value}
        err = self.fails(capsys, tmp_path, "lifespan", "--dim", "1",
                         "--gamma", "0.5", "--s", "1", "--p", "2",
                         *(arg for pair in eps.items() for arg in pair),
                         "--N", "256", "--L", "50")
        assert "eps schedule must be positive and finite" in err

    def test_lifespan_bad_dt_before_worker_pool(self, capsys, tmp_path,
                                                monkeypatch):
        # every sweep point's SolverConfig is validated before a pool starts
        def no_pool(*args, **kwargs):
            raise AssertionError("worker pool started before validation")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        err = self.fails(capsys, tmp_path, "lifespan", "--dim", "1",
                         "--gamma", "0.5", "--s", "1", "--p", "2",
                         "--eps-start", "1", "--N", "256", "--L", "50",
                         "--dt", "-1", "--workers", "2")
        assert "initial step must be positive" in err

    def test_supercritical_lifespan_bad_s_before_worker_pool(self, capsys, tmp_path,
                                                           monkeypatch):
        # supercritical sweeps skip the admissibility check, not the s check
        def no_pool(*args, **kwargs):
            raise AssertionError("worker pool started before validation")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        err = self.fails(capsys, tmp_path, "lifespan", "--dim", "1",
                         "--gamma", "0.5", "--s", "2", "--p", "5",
                         "--eps-start", "1", "--N", "256", "--L", "50",
                         "--workers", "2")
        assert "regularity s must lie in (0, 1], got 2.0" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_lifespan_bad_workers(self, capsys, tmp_path, workers):
        err = self.fails(capsys, tmp_path, "lifespan", "--dim", "1",
                         "--gamma", "0.5", "--s", "1", "--p", "2",
                         "--eps-start", "1", "--N", "256", "--L", "50",
                         "--workers", workers)
        assert f"workers must be at least 1, got {workers}" in err

    def test_lifespan_pool_capped_at_count(self, capsys, tmp_path, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        code, out, _ = run_cli(capsys, "lifespan", "--dim", "1", "--gamma", "0.3",
                               "--s", "1", "--p", "5", "--eps-start", "1e-3",
                               "--count", "4", "--N", "256", "--L", "50",
                               "--tend", "1", "--workers", "16",
                               "--out", str(tmp_path))
        assert code == 0
        assert len(json.loads(out)["rows"]) == 4
        assert sizes == [4]

    def test_phase_diagram_bad_gamma(self, capsys, tmp_path):
        err = self.fails(capsys, tmp_path, "phase-diagram", "--n", "1",
                         "--s", "1", "--gamma-min", "-1", "--gamma-max", "0.4",
                         "--gamma-steps", "2", "--p-min", "1.5", "--p-max", "3",
                         "--p-steps", "2")
        assert "gamma grid must lie inside (0, n/2)" in err

    @pytest.mark.parametrize("gamma_steps, p_steps", [("-1", "2"), ("0", "2"),
                                                      ("2", "-2")])
    def test_phase_diagram_bad_step_count(self, capsys, tmp_path, gamma_steps,
                                          p_steps):
        err = self.fails(capsys, tmp_path, "phase-diagram", "--n", "1",
                         "--s", "1", "--gamma-min", "0.1", "--gamma-max", "0.4",
                         "--gamma-steps", gamma_steps, "--p-min", "1.5",
                         "--p-max", "3", "--p-steps", p_steps)
        assert "step counts must be >= 1" in err

    @pytest.mark.parametrize("flag, value", [("--points", "-1"), ("--points", "0"),
                                             ("--t0", "0"), ("--t0", "-1")])
    @pytest.mark.parametrize("command", ["linear-decay", "diffusion"])
    def test_rate_suite_bad_samples(self, capsys, tmp_path, command, flag, value):
        err = self.fails(capsys, tmp_path, command, "--n", "2", "--gamma", "0.7",
                         "--s", "1", "--profile", "powerlaw:a=0.25", flag, value)
        assert "points >= 1 and t0 > 0" in err

    @pytest.mark.parametrize("command", ["linear-decay", "diffusion"])
    def test_rate_suite_data_outside_negative_order(self, capsys, tmp_path,
                                                    command):
        # r^-0.9 in n = 2 lies in H^0 and H^1 but not in the homogeneous H^-0.7
        err = self.fails(capsys, tmp_path, command, "--n", "2", "--gamma", "0.7",
                         "--s", "1", "--profile", "powerlaw:a=0.9")
        assert "grows toward the inner end" in err

    @pytest.mark.parametrize("command", ["linear-decay", "diffusion"])
    def test_rate_suite_norm_overflow(self, capsys, tmp_path, command):
        # r^-30 is finite on the grid, but its square overflows near r = 1e-6;
        # an overflow warning would fail the test as an error
        err = self.fails(capsys, tmp_path, command, "--n", "2", "--gamma", "0.7",
                         "--s", "1", "--profile", "powerlaw:a=30")
        assert "not finite" in err

    @pytest.mark.parametrize("command", ["linear-decay", "diffusion"])
    def test_profile_values_overflow(self, capsys, tmp_path, command):
        # r^-70 overflows near r = 1e-6, so the profile itself is refused; an
        # overflow warning before the refusal would fail the test as an error
        err = self.fails(capsys, tmp_path, command, "--n", "2", "--gamma", "0.7",
                         "--s", "1", "--profile", "powerlaw:a=70")
        assert "profile values must be finite" in err

    # r^(2s+n) overflows at r = 1e3 once 2s + n passes 102.7, and the
    # unit-sphere area once n passes 343; an overflow warning would fail the
    # test as an error
    @pytest.mark.parametrize("n", ["110", "400"])
    @pytest.mark.parametrize("command", ["linear-decay", "diffusion"])
    def test_rate_suite_large_dimension(self, capsys, tmp_path, command, n):
        err = self.fails(capsys, tmp_path, command, "--n", n, "--gamma", "1",
                         "--s", "1", "--profile", "powerlaw:a=1")
        assert "overflows" in err

    @pytest.mark.parametrize("damage", ["config-not-json", "config-a-list",
                                        "config-without-L", "config-other-N",
                                        "archive-garbage", "archive-short-times"])
    def test_testfn_unreadable_run(self, capsys, tmp_path, damage):
        code, out, _ = run_cli(capsys, "evolve", *RUNS["evolve"],
                               "--out", str(tmp_path / "source"))
        assert code == 0
        run_dir = Path(json.loads(out)["run_dir"])
        config = run_dir / "config.json"
        if damage == "config-not-json":
            config.write_text("{not json")
        elif damage == "config-a-list":
            config.write_text("[1, 2]")
        elif damage == "config-without-L":
            stored = json.loads(config.read_text())
            del stored["L"]
            config.write_text(json.dumps(stored))
        elif damage == "config-other-N":
            # the archive holds 256-point fields; the config now says 512
            stored = json.loads(config.read_text())
            stored["N"] = 512
            config.write_text(json.dumps(stored))
        elif damage == "archive-short-times":
            with np.load(run_dir / "snapshots.npz") as archive:
                stored = dict(archive)
            stored["times"] = stored["times"][1:]
            np.savez(run_dir / "snapshots.npz", **stored)
        else:
            (run_dir / "snapshots.npz").write_bytes(b"garbage")
        err = self.fails(capsys, tmp_path, "testfn", "--run", str(run_dir),
                         "--R", "1")
        assert repr(str(run_dir)) in err


class TestNonFiniteInput:
    """nan and inf are refused as a flag and as a --config value: exit 2, one
    error line, no run directory."""

    VALID = {
        "linear-decay": {"n": 2.0, "gamma": 0.7, "s": 1.0,
                         "profile": "powerlaw:a=0.25"},
        "evolve": {"dim": 1, "p": 2.0, "gamma": 0.5, "tend": 1.0, "N": 256,
                   "eps": 0.05},
        "phase-diagram": {"n": 1.0, "s": 1.0, "gamma_min": 0.1, "gamma_max": 0.4,
                          "gamma_steps": 2, "p_min": 1.5, "p_max": 3.0,
                          "p_steps": 2},
        "probe": {"t": [1.0], "r": [0.0]},
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, name", [
        ("linear-decay", "n"), ("evolve", "eps"), ("phase-diagram", "gamma_min"),
        ("probe", "t")])
    def test_rejected(self, capsys, tmp_path, command, name, source, value):
        stored = dict(self.VALID[command])
        flag = "--" + name.replace("_", "-")
        argv = [f"{flag}={value!r}"] if source == "flag" else []
        if source == "config":
            stored[name] = [value] if isinstance(stored[name], list) else value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(stored))  # nan and inf as NaN, Infinity
        out_dir = tmp_path / "out"
        if command != "probe":
            argv += ["--out", str(out_dir)]
        code, out, err = run_cli(capsys, command, *argv, "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}: cannot read") and err.count("\n") == 1
        assert not out_dir.exists()


EVOLVE_FLAGS = ("evolve", "--dim", "1", "--p", "2", "--gamma", "0.5",
                "--tend", "1", "--N", "256", "--eps", "0.05")


class TestConfigInput:
    """Bad --config files and list values fail with one error line, exit 2."""

    def run_config(self, capsys, tmp_path, text, *argv):
        path = tmp_path / "config.json"
        path.write_text(text)
        return run_cli(capsys, *argv, "--config", str(path))

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "exponents", "--config",
                                 str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: --config") and "absent.json" in err

    def test_malformed_json(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, '{"n": 1,',
                                       "exponents")
        assert code == 2
        assert err.startswith("error: --config") and "not JSON" in err

    def test_not_an_object(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, "[1, 2]", "exponents")
        assert code == 2
        assert "expected a JSON object" in err

    def test_unknown_key(self, capsys, tmp_path):
        code, out, err = self.run_config(
            capsys, tmp_path, '{"n": 1, "gamma": 0.3, "pp": 3}', "exponents")
        assert (code, out) == (2, "")
        assert "unknown keys pp" in err

    def test_value_of_wrong_type(self, capsys, tmp_path):
        code, _, err = self.run_config(
            capsys, tmp_path, '{"n": 1, "gamma": "low"}', "exponents")
        assert code == 2
        assert "--gamma: cannot read 'low' as float" in err
        code, _, err = self.run_config(
            capsys, tmp_path, '{"t": [1.0, "x"], "r": [0.0]}', "probe")
        assert code == 2
        assert "--t: cannot read" in err
        code, _, err = self.run_config(
            capsys, tmp_path, '{"t": [true], "r": [0.0]}', "probe")
        assert code == 2
        assert "--t: cannot read" in err
        code, _, err = self.run_config(
            capsys, tmp_path, '{"n": 1, "s": 1, "gamma_min": 0.1, "gamma_max": '
            '0.4, "gamma_steps": 2.5, "p_min": 1.5, "p_max": 4, "p_steps": 2}',
            "phase-diagram")
        assert code == 2
        assert "--gamma-steps: cannot read 2.5 as int" in err

    def test_kind_must_name_the_command(self, capsys, tmp_path):
        code, _, err = self.run_config(
            capsys, tmp_path, '{"kind": "evolve", "n": 1, "gamma": 0.3}',
            "exponents")
        assert code == 2
        assert "kind 'evolve' is not 'exponents'" in err
        code, out, _ = self.run_config(
            capsys, tmp_path, '{"kind": "exponents", "n": 1, "gamma": 0.3}',
            "exponents")
        assert code == 0
        assert json.loads(out)["params"] == {"n": 1.0, "gamma": 0.3}

    def test_null_means_default(self, capsys, tmp_path):
        code, out, _ = self.run_config(
            capsys, tmp_path, '{"n": 1, "gamma": 0.3, "p": null, "s": null}',
            "exponents")
        assert code == 0
        assert "verdict" not in json.loads(out)
        code, _, err = self.run_config(
            capsys, tmp_path, '{"n": null, "gamma": 0.3}', "exponents")
        assert code == 2
        assert "missing required options: --n" in err

    def test_bad_list_flag(self, capsys):
        code, out, err = run_cli(capsys, "probe", "--t", "1,x", "--r", "0")
        assert (code, out) == (2, "")
        assert err == "error: --t: cannot read '1,x' as list[float]\n"

    def test_lists_from_config(self, capsys, tmp_path):
        _, from_file, _ = self.run_config(
            capsys, tmp_path, '{"t": [0.5, 1], "r": [0.0, 2.0]}', "probe")
        _, from_flags, _ = run_cli(capsys, "probe", "--t", "0.5,1",
                                   "--r", "0,2")
        assert from_file == from_flags


class TestSignatureIsTheDescription:
    def test_flags_are_the_parameters(self):
        parser = build_parser()
        subs = next(a for a in parser._actions if a.dest == "command").choices
        for command, fn in COMMANDS.items():
            flags = {option for action in subs[command]._actions
                     for option in action.option_strings} - {"-h", "--help"}
            assert flags == {"--" + name.replace("_", "-")
                             for name in parameter_names(fn)} | {"--config"}

    @pytest.mark.parametrize("extra", [["--seed", "0"], ["--snap", "4"]])
    def test_no_other_flags(self, extra):
        # --seed is gone, and an abbreviation is not another spelling
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evolve", "--dim", "1", "--p", "2",
                                       "--eps", "0.1", "--gamma", "0.5", *extra])

    def test_library_defaults_reach_the_cli(self):
        args = build_parser().parse_args(["evolve", "--dim", "1", "--p", "2",
                                          "--eps", "0.1", "--gamma", "0.5"])
        _, values = resolve(args)
        assert values == {"dim": 1, "N": None, "L": None, "p": 2.0,
                          "eps": 0.1, "gamma": 0.5, "s": 1.0, "dt": 0.02,
                          "tend": 100.0, "snapshots": 0, "theta": 1e8,
                          "out": None}

    def test_one_parser_survives_a_failed_parse(self, capsys):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit):
            main(["exponents", "--n", "2", "--gamma", "0.1", "--p", "3",
                  "--bogus"])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "exponents", "--n", "3", "--gamma", "0.5")
        assert code == 0
        assert json.loads(out)["params"] == {"n": 3.0, "gamma": 0.5}

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
        examples = [shlex.split(line)[1:]
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("critex ")]
        assert {argv[0] for argv in examples} == set(COMMANDS)
        for argv in examples:
            _, values = resolve(build_parser().parse_args(argv))
            assert set(values) == parameter_names(COMMANDS[argv[0]])


def test_readme_library_sketch_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n.*?```python\n(.*?)```", readme,
                       re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(sketch, {})


RUNS = {
    "phase-diagram": ["--n", "1", "--s", "1", "--gamma-min", "0.1",
                      "--gamma-max", "0.4", "--gamma-steps", "3",
                      "--p-min", "1.5", "--p-max", "4.5", "--p-steps", "4"],
    "linear-decay": ["--n", "2", "--gamma", "0.7", "--s", "1", "--profile",
                     "powerlaw:a=0.25", "--t0", "10", "--t1", "1e3",
                     "--points", "16"],
    "diffusion": ["--n", "2", "--gamma", "0.7", "--s", "0.5", "--profile",
                  "powerlaw:a=0.25", "--t0", "10", "--t1", "1e3",
                  "--points", "16"],
    "evolve": ["--dim", "1", "--N", "256", "--p", "2", "--eps", "0.05",
               "--gamma", "0.5", "--dt", "0.05", "--tend", "2",
               "--snapshots", "4"],
    "lifespan": ["--dim", "1", "--gamma", "0.5", "--s", "1", "--p", "2",
                 "--eps-start", "4.0", "--eps-factor", "0.7197", "--count",
                 "4", "--N", "2048", "--L", "314.159", "--dt", "0.05",
                 "--tend", "200"],
}


class TestConfigEchoRoundTrip:
    """A run's config.json re-runs it: same CSV and report.json bytes."""

    def run(self, capsys, tmp_path, command, *argv):
        code, out, err = run_cli(capsys, command, *argv, "--out", str(tmp_path))
        assert code == 0, err
        payload = json.loads(out)
        run_dir = Path(payload.pop("run_dir"))
        assert payload == json.loads((run_dir / "report.json").read_text())
        return run_dir

    def check(self, capsys, tmp_path, command, *argv):
        first = self.run(capsys, tmp_path, command, *argv)
        config = json.loads((first / "config.json").read_text())
        assert set(config) == parameter_names(COMMANDS[command]) - {"out"} | {"kind"}
        second = self.run(capsys, tmp_path, command, "--config",
                          str(first / "config.json"))
        files = sorted(p.name for p in first.iterdir()
                       if p.suffix == ".csv" or p.name == "report.json")
        assert "report.json" in files
        assert files == sorted(p.name for p in second.iterdir()
                               if p.suffix == ".csv" or p.name == "report.json")
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        return first, config

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_run_kind(self, capsys, tmp_path, command):
        self.check(capsys, tmp_path, command, *RUNS[command])

    def test_testfn(self, capsys, tmp_path):
        evolve_dir = self.run(capsys, tmp_path, "evolve", *RUNS["evolve"])
        _, config = self.check(capsys, tmp_path, "testfn", "--run",
                               str(evolve_dir), "--R", "1,1.2")
        assert config == {"kind": "testfn", "run": str(evolve_dir),
                          "R": [1.0, 1.2]}

    def test_default_grid_is_resolved(self, capsys, tmp_path):
        run_dir = self.run(capsys, tmp_path, "evolve", "--dim", "1", "--p",
                           "2", "--eps", "0.05", "--gamma", "0.5", "--tend",
                           "0.05", "--dt", "0.05")
        config = json.loads((run_dir / "config.json").read_text())
        assert (config["N"], config["L"]) == (16384, 800.0 * math.pi)
