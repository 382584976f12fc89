"""Layer probes: calls into single layers outside the CLI items.

Run only in traced passes, after the items, through the same traced module
attributes, so their spans land in the trace like any other layer call.

* The grid probe times ``transform_forward``, ``transform_inverse`` and
  ``solver.step`` on a workload's own grid; the solver reaches the
  transforms through private helpers, which the tracer does not wrap.
* The reference probe runs every layer at the reference sizes (1-D
  N=65536, 2-D 1024^2, radial R=4096) and gives the per-layer figure for
  any layer a workload does not call itself.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
from critex import experiments, fields, propagators, radial, solver

from workloads import Grid

REPEATS = 20
REFERENCE_1D = Grid(dim=1, points=65536, length=3200.0 * math.pi, gamma=0.5,
                    p=2.0, eps=7e-3)
REFERENCE_2D_POINTS = 1024


def grid_probe(grid: Grid) -> dict:
    """Transform pairs and single steps on one grid; returns the computed
    size of one transform."""
    spec = fields.GridSpec(dim=grid.dim, length=grid.length, points=grid.points)
    data = grid.eps * fields.make_initial_data("critical_tail", spec,
                                               amplitude=1.0, gamma=grid.gamma)
    for _ in range(REPEATS):
        field = fields.transform_forward(data, spec)
        fields.transform_inverse(field)
    state = solver.State(field, field, 0.0)
    config = solver.SolverConfig(p=grid.p, eps=1.0, dt=0.02, t_end=1.0)
    for _ in range(REPEATS):
        solver.step(state, config.dt, config)
    return {"points": grid.points ** grid.dim, "nbytes": field.coeffs.nbytes}


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return 1e3 * median(times)


def reference_probe(out_dir: Path) -> tuple[dict, dict]:
    """Every layer at the reference sizes.  Returns the raw transform and
    kernel timings (ms) and the computed size of one 1-D transform."""
    rng = np.random.default_rng(0)
    line = rng.standard_normal(REFERENCE_1D.points)
    plane = rng.standard_normal((REFERENCE_2D_POINTS,) * 2)
    radii = radial.log_radial_grid()
    timings = {
        "probe.fft_1d_ms": _median_ms(lambda: np.fft.fft(line), 3 * REPEATS),
        "probe.rfft_1d_ms": _median_ms(lambda: np.fft.rfft(line), 3 * REPEATS),
        "probe.fft_2d_ms": _median_ms(lambda: np.fft.fftn(plane), 5),
        "probe.rfft_2d_ms": _median_ms(lambda: np.fft.rfftn(plane), 5),
        "probe.kernel_radial_ms": _median_ms(
            lambda: propagators.kernel_entries(100.0, radii), REPEATS),
    }
    size = grid_probe(REFERENCE_1D)
    # radial curves, norms and fits at R = 4096
    experiments.run_diffusion_suite(3.0, 0.75, 1.0, "powerlaw:a=0.7")
    experiments.emit_phase_diagram(3.0, 1.0, np.linspace(0.05, 1.45, 20),
                                   np.linspace(1.05, 5.0, 50))
    # a short 1-D run with snapshots, and the cutoff functional on it
    run_dir, _ = experiments.experiment_evolve(
        1, 1024, 100.0 * math.pi, 2.0, 0.05, 0.5, 1.0, 0.02, 26.0,
        snapshots=160, out=str(out_dir))
    experiments.experiment_testfn(run_dir, [1.5, 2.0, 3.0, 4.0, 5.0], str(out_dir))
    return timings, size
