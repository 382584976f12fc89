"""Tests of the benchmark's own checks: a corrupted output must count as a
failed item.  Run from the repository root with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from critex import cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

PHASE_ARGS = ["phase-diagram", "--n", "3", "--s", "1", "--gamma-min", "0.05",
              "--gamma-max", "1.45", "--gamma-steps", "10", "--p-min", "1.05",
              "--p-max", "5", "--p-steps", "10"]
PHASE_PARAMS = {"n": 3.0, "cells": 100}


def _phase_diagram(out: Path) -> tuple[dict, Path]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli.main(PHASE_ARGS + ["--out", str(out)]) == 0
    output = json.loads(buffer.getvalue())
    return output, Path(output["run_dir"])


def _pass(output: dict, run_dir: Path) -> dict:
    problems = checks.check_item("phase-diagram", PHASE_PARAMS, output, run_dir)
    return {"items": [{"command": "phase-diagram", "problems": problems,
                       "digests": checks.digests(run_dir), "bytes": 0}]}


def test_clean_output_passes(tmp_path):
    output, run_dir = _phase_diagram(tmp_path)
    assert checks.check_item("phase-diagram", PHASE_PARAMS, output, run_dir) == []


def test_corrupted_csv_fails_its_check(tmp_path):
    output, run_dir = _phase_diagram(tmp_path)
    regions = run_dir / "regions.csv"
    text = regions.read_text()
    regions.write_text(text.replace("BlowUp", "GlobalExistence", 1))
    problems = checks.check_item("phase-diagram", PHASE_PARAMS, output, run_dir)
    assert problems and "GlobalExistence" in problems[0]


def test_corrupted_report_counts_against_ok_ratio(tmp_path):
    first = _pass(*_phase_diagram(tmp_path / "a"))
    output, run_dir = _phase_diagram(tmp_path / "b")
    report = run_dir / "report.json"
    report.write_bytes(report.read_bytes().replace(b'"cells": 100', b'"cells": 101'))
    second = _pass(output, run_dir)
    assert second["items"][0]["problems"]

    attempted, failed, lines = run.check_passes([first, second], 1, [])
    assert (attempted, failed) == (2, 1)
    assert any("differs from the first pass" in line for line in lines)
    metrics, _ = run.end_to_end([0.1], [{"setup_s": 0.1, "wall_s": 1.0,
                                         "peak_rss_mb": 1.0}], attempted, failed)
    assert metrics["ok_ratio"]["value"] == pytest.approx(0.5)


def test_failed_pass_counts_every_item(tmp_path):
    first = _pass(*_phase_diagram(tmp_path))
    attempted, failed, _ = run.check_passes([first], 1, ["pass exited 1"])
    assert (attempted, failed) == (2, 1)


@pytest.mark.parametrize("rows, slope", [
    ([1.0, 3.0, 2.0, 4.0], -2.0),        # not monotone in eps
    ([1.0, 2.0, 3.0, float("inf")], -2.0),
    ([1.0, 2.0, 3.0, 4.0], -1.5),        # slope outside 0.2 * |-2|
])
def test_lifespan_check_rejects_bad_sweeps(tmp_path, rows, slope):
    eps = [7e-3 * 0.8 ** i for i in range(4)]
    report = {"rows": [{"eps": e, "lifespan": t, "status": "BlowUp"}
                       for e, t in zip(eps, rows)], "fitted_slope": slope}
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "sweep.csv").write_text(
        "eps,T,status\n" + "".join(f"{e!r},{t!r},BlowUp\n" for e, t in zip(eps, rows)))
    problems = checks.check_item("lifespan", {"n": 1.0, "gamma": 0.5, "p": 2.0},
                                 {"run_dir": str(tmp_path), **report}, tmp_path)
    assert problems


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    inner = tracer.wrap("radial.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("experiments.outer", lambda: [inner() for _ in range(3)])
    tracer.call("cli.item", outer)
    recorded = tracer.drain()
    own = spans.self_times(recorded)
    assert [s[0] for s in recorded] == ["cli.item", "experiments.outer"] + ["radial.inner"] * 3
    assert min(own) >= 0
    assert sum(own) == pytest.approx(recorded[0][2] - recorded[0][1])
    assert len(spans.durations(recorded, "radial.inner")) == 3
