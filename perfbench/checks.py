"""Correctness checks on the outputs of one CLI command.

Every check holds for any seed the workload generator can draw, and every
expected value is computed here from the command's inputs rather than read
from the program.  A check returns the list of problems it found; an empty
list means the item passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# The profile v0 ~ r^-(n - 2a) with a = n/2 - gamma - 0.05 decays like data
# of order gamma + 0.05, which shifts every predicted rate by -0.05/2.
RATE_SHIFT = -0.025
RATE_TOLERANCE = 0.03
GAIN_RANGE = (-1.3, -0.85)
LIFESPAN_SLOPE_TOLERANCE = 0.2  # relative to the predicted slope


def lifespan_slope(n: float, gamma: float, p: float) -> float:
    """Predicted d log T / d log eps: -2 / (2p' - 2 - n/2 - gamma)."""
    p_conj = p / (p - 1.0)
    return -2.0 / (2.0 * p_conj - 2.0 - n / 2.0 - gamma)


def p_crit(n: float, gamma: float) -> float:
    return 1.0 + 4.0 / (n + 2.0 * gamma)


def digests(run_dir: Path) -> dict[str, str]:
    """sha256 of report.json and of every CSV file in a run directory."""
    files = sorted(run_dir.glob("*.csv")) + [run_dir / "report.json"]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files if path.is_file()}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _rate_problems(fits: dict, expected: dict) -> list[str]:
    problems = []
    for key, predicted in expected.items():
        slope = fits[key]["slope"]
        target = predicted + RATE_SHIFT
        if not abs(slope - target) <= RATE_TOLERANCE:
            problems.append(f"{key} slope {slope!r} not within {RATE_TOLERANCE} "
                            f"of {target!r}")
    return problems


def _curve_problems(run_dir: Path, curves: int) -> list[str]:
    # Only the row count: the seed code writes numpy scalars into curves.csv
    # as "np.float64(...)", which is not a number to parse.
    rows = _read_csv(run_dir / "curves.csv")
    if len(rows) != 96 * curves:
        return [f"curves.csv has {len(rows)} rows, expected {96 * curves}"]
    return []


def _linear_decay(params: dict, report: dict, run_dir: Path) -> list[str]:
    gamma, s = params["gamma"], params["s"]
    expected = {"0.0": -gamma / 2.0, repr(s): -(s + gamma) / 2.0}
    return _rate_problems(report["fits"], expected) + _curve_problems(run_dir, 2)


def _diffusion(params: dict, report: dict, run_dir: Path) -> list[str]:
    base = -(params["s"] + params["gamma"]) / 2.0
    expected = {"damped": base, "heat": base, "difference": base - 1.0}
    problems = _rate_problems(report["fits"], expected) + _curve_problems(run_dir, 3)
    gain = report["gain"]
    if not GAIN_RANGE[0] <= gain <= GAIN_RANGE[1]:
        problems.append(f"diffusion gain {gain!r} outside {GAIN_RANGE}")
    return problems


def _phase_diagram(params: dict, report: dict, run_dir: Path) -> list[str]:
    problems = []
    rows = _read_csv(run_dir / "regions.csv")
    cells = params["cells"]
    if report["cells"] != cells or len(rows) != cells:
        problems.append(f"{len(rows)} rows and {report['cells']} cells, "
                        f"expected {cells}")
    if sum(report["regime_counts"].values()) != report["cells"]:
        problems.append("regime counts do not add up to the cell count")
    for row in rows:
        gamma, p = float(row["gamma"]), float(row["p"])
        blow_up = p < p_crit(params["n"], gamma)
        if (row["regime"] == "BlowUp") != blow_up:
            problems.append(f"cell gamma={gamma!r}, p={p!r} is {row['regime']}")
            break
    return problems


def _lifespan(params: dict, report: dict, run_dir: Path) -> list[str]:
    problems = []
    eps = [row["eps"] for row in report["rows"]]
    lifespans = [row["lifespan"] for row in report["rows"]]
    if not all(math.isfinite(t) for t in lifespans):
        problems.append(f"lifespans {lifespans!r} are not all finite")
    # the schedule decreases in eps, so lifespans must not decrease
    elif not all(a > b for a, b in zip(eps, eps[1:])) or \
            not all(a <= b for a, b in zip(lifespans, lifespans[1:])):
        problems.append(f"lifespans {lifespans!r} are not monotone in eps")
    predicted = lifespan_slope(params["n"], params["gamma"], params["p"])
    slope = report["fitted_slope"]
    if slope is None or not abs(slope - predicted) <= \
            LIFESPAN_SLOPE_TOLERANCE * abs(predicted):
        problems.append(f"fitted slope {slope!r} too far from {predicted!r}")
    sweep = [float(row["T"]) for row in _read_csv(run_dir / "sweep.csv")]
    if sweep != lifespans:
        problems.append("sweep.csv does not match report.json")
    return problems


def _evolve(params: dict, report: dict, run_dir: Path) -> list[str]:
    problems = []
    if report["status"] != "Completed":
        problems.append(f"status {report['status']!r}, expected 'Completed'")
    sup = report["weighted_sup"]
    if not (math.isfinite(sup) and sup > 0):
        problems.append(f"weighted_sup {sup!r} is not finite and positive")
    if not (run_dir / "snapshots.npz").is_file():
        problems.append("snapshots.npz missing")
    return problems


def _testfn(params: dict, report: dict, run_dir: Path) -> list[str]:
    rows = report["rows"]
    radii = [row["R"] for row in rows]
    values = [row["I_R"] for row in rows]
    if radii != list(params["radii"]):
        return [f"radii {radii!r}, expected {list(params['radii'])!r}"]
    if not all(math.isfinite(v) and v >= 0 for v in values):
        return [f"I_R {values!r} not finite and nonnegative"]
    if not all(a <= b for a, b in zip(values, values[1:])):
        return [f"I_R {values!r} decreases in R"]
    return []


_CHECKS = {"linear-decay": _linear_decay, "diffusion": _diffusion,
           "phase-diagram": _phase_diagram, "lifespan": _lifespan,
           "evolve": _evolve, "testfn": _testfn}


def check_item(command: str, params: dict, output: dict, run_dir: Path) -> list[str]:
    """Problems with one command's outputs: its stdout JSON and run directory."""
    report = json.loads((run_dir / "report.json").read_text())
    problems = []
    # evolve prints a summary; every other command echoes its report.json
    shown = {k: v for k, v in output.items() if k != "run_dir"}
    if not all(report.get(k) == v for k, v in shown.items()):
        problems.append("stdout disagrees with report.json")
    return problems + _CHECKS[command](params, report, run_dir)
