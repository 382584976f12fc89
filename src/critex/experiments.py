"""Reproducible experiments: decay suites, diffusion gain, lifespan sweeps,
the scaled-cutoff blow-up functional, and phase diagrams.

Each experiment writes an append-only run directory
``<out>/<timestamp>-<kind>/`` containing ``config.json`` (the exact merged
configuration), the data files (``curves.csv`` / ``sweep.csv`` /
``regions.csv`` / ``snapshots.npz``), and ``report.json``.  Identical
configurations produce bit-identical CSV and report files on a fixed
platform; wall-clock timing lives only in ``meta.json``.

The output root is the first of: explicit argument, the ``CRITEX_OUT``
environment variable, ``./runs``.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import radial, solver
from .errors import DomainError, InsufficientDataError
from .exponents import (Regime, RegimeParams, classify_regime, conjugate_exponent,
                        gamma_tilde, lifespan_exponent, p_crit,
                        sharp_lifespan_admissible)
from .fields import GridSpec, _radius_squared, make_initial_data
from .radial import (DEFAULT_FIT_WINDOW, DecayCurve, RateFit, fit_rate,
                     gaussian_profile, power_law_profile)
from .solver import (STATUS_BLOW_UP, STATUS_STEP_UNDERFLOW, SolverConfig,
                     run)

EXPERIMENT_KINDS = ("linear-decay", "diffusion", "evolve", "lifespan",
                    "phase-diagram", "testfn", "exponents", "probe")


# ---------------------------------------------------------------------------
# run-directory plumbing
# ---------------------------------------------------------------------------

def output_root(explicit: str | None = None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("CRITEX_OUT", "runs"))


def new_run_dir(kind: str, out: str | None = None) -> Path:
    if kind not in EXPERIMENT_KINDS:
        raise DomainError(f"unknown experiment kind {kind!r}")
    root = output_root(out)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = root / f"{stamp}-{kind}"
    path = base
    counter = 1
    while path.exists():
        counter += 1
        path = Path(f"{base}-{counter}")
    path.mkdir(parents=True)
    return path


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # numpy scalars repr as np.float64(...)
    return str(value)


# ---------------------------------------------------------------------------
# radial data from CLI-style profile strings
# ---------------------------------------------------------------------------

def parse_profile(spec: str) -> tuple[str, dict]:
    """Parse ``powerlaw:a=0.25`` or ``gaussian:w=1.0`` into (kind, params)."""
    kind, _, tail = spec.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise DomainError(f"malformed profile parameter {item!r} in {spec!r}")
            params[key.strip()] = float(value)
    return kind.strip(), params


def build_profile(spec: str, n: float) -> radial.RadialProfile:
    kind, params = parse_profile(spec)
    if kind == "powerlaw":
        return power_law_profile(n, params.pop("a"))
    if kind == "gaussian":
        return gaussian_profile(n, params.pop("w", 1.0))
    raise DomainError(f"unknown profile kind {kind!r}")


def _zero_profile(template: radial.RadialProfile) -> radial.RadialProfile:
    return template.with_values(np.zeros_like(template.values))


def _clip_window(t0: float, t1: float,
                 window: tuple[float, float] = DEFAULT_FIT_WINDOW) -> tuple[float, float]:
    return max(window[0], t0), min(window[1], t1)


# ---------------------------------------------------------------------------
# decay and diffusion suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteFit:
    fit: RateFit
    predicted_rate: float

    def to_json(self) -> dict:
        payload = self.fit.to_json()
        payload["predicted_rate"] = self.predicted_rate
        return payload


def run_decay_suite(n: float, gamma: float, s: float, profile: str,
                    t0: float = 1.0, t1: float = 1e5, points: int = 96,
                    window: tuple[float, float] | None = None):
    """Damped-wave decay fits at orders 0 and s against the predictions
    -gamma/2 and -(s+gamma)/2.  Returns ({order: SuiteFit}, {order: curve})."""
    if gamma <= 0 or gamma >= n / 2.0:
        raise DomainError(f"decay suite requires gamma in (0, n/2), got {gamma}")
    v0 = build_profile(profile, n)
    v1 = _zero_profile(v0)
    times = np.geomspace(t0, t1, points)
    window = window or _clip_window(t0, t1)
    fits: dict[float, SuiteFit] = {}
    curves: dict[float, DecayCurve] = {}
    for order, predicted in ((0.0, -gamma / 2.0), (s, -(s + gamma) / 2.0)):
        curve = radial.evolve_damped(v0, v1, times, order, gamma)
        fits[order] = SuiteFit(fit_rate(curve, window), predicted)
        curves[order] = curve
    return fits, curves


def run_diffusion_suite(n: float, gamma: float, s: float, profile: str,
                        t0: float = 1.0, t1: float = 1e5, points: int = 96,
                        window: tuple[float, float] | None = None):
    """Damped / heat / difference fits plus the parabolic gain
    slope(difference) - slope(damped), expected near -1."""
    if gamma <= 0 or gamma >= n / 2.0:
        raise DomainError(f"diffusion suite requires gamma in (0, n/2), got {gamma}")
    v0 = build_profile(profile, n)
    v1 = _zero_profile(v0)
    times = np.geomspace(t0, t1, points)
    window = window or _clip_window(t0, t1)
    curves = {
        "damped": radial.evolve_damped(v0, v1, times, s, gamma),
        "heat": radial.evolve_heat(v0, v1, times, s, gamma),
        "difference": radial.diffusion_difference(v0, v1, times, s, gamma),
    }
    base_rate = -(s + gamma) / 2.0
    predicted = {"damped": base_rate, "heat": base_rate,
                 "difference": base_rate - 1.0}
    fits = {kind: SuiteFit(fit_rate(curve, window), predicted[kind])
            for kind, curve in curves.items()}
    gain = fits["difference"].fit.slope - fits["damped"].fit.slope
    return fits, curves, gain


# ---------------------------------------------------------------------------
# lifespan sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    eps: float
    lifespan: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    predicted_slope: float | None
    fitted_slope: float | None
    intercept: float | None
    relative_deviation: float | None
    refused: bool
    regime: str

    def blow_up_rows(self) -> list[SweepRow]:
        return [r for r in self.rows
                if r.status in (STATUS_BLOW_UP, STATUS_STEP_UNDERFLOW)]

    def to_json(self) -> dict:
        return {
            "rows": [{"eps": r.eps, "lifespan": r.lifespan, "status": r.status}
                     for r in self.rows],
            "predicted_slope": self.predicted_slope,
            "fitted_slope": self.fitted_slope,
            "intercept": self.intercept,
            "relative_deviation": self.relative_deviation,
            "refused": self.refused,
            "regime": self.regime,
        }


def fit_sweep_slope(eps: np.ndarray, lifespans: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log T against log eps."""
    slope, intercept = np.polyfit(np.log(eps), np.log(lifespans), 1)
    return float(slope), float(intercept)


def _lifespan_point(payload: tuple) -> tuple[float, float, str]:
    (dim, length, points, gamma, s, p, eps, dt, t_end, theta) = payload
    grid = GridSpec(dim=dim, length=length, points=points)
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=gamma)
    config = SolverConfig(p=p, eps=eps, dt=dt, t_end=t_end, theta=theta)
    result = run(config, data, data, grid, s, gamma)
    return eps, result.lifespan, result.status


def run_lifespan_sweep(params: RegimeParams, eps_schedule, grid: GridSpec,
                       dt: float = 0.02, t_end: float = 2000.0,
                       theta: float = 1e8, workers: int = 1) -> SweepResult:
    """Measure the blow-up time over a geometric eps schedule and fit its
    power law in eps.

    Subcritical parameters must pass ``sharp_lifespan_admissible``;
    supercritical parameters are allowed but the sweep refuses to fit and
    reports the completions as existence-consistent.  Strictly critical p
    is rejected (open regime).  Sweep points may execute in a worker pool;
    results are merged in schedule order.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if len(eps_schedule) < 2:
        raise DomainError("eps schedule needs at least two points")
    ratios = [eps_schedule[i + 1] / eps_schedule[i] for i in range(len(eps_schedule) - 1)]
    if any(r <= 0 for r in ratios) or (not all(r > 1 for r in ratios)
                                       and not all(r < 1 for r in ratios)):
        raise DomainError("eps schedule must be strictly monotone geometric")
    if any(abs(r / ratios[0] - 1.0) > 1e-6 for r in ratios):
        raise DomainError("eps schedule must be geometric (constant ratio)")

    pc = p_crit(params.n, params.gamma)
    supercritical = params.p > pc
    if params.p == pc:
        raise DomainError(
            f"p = p_crit = {pc!r}: the critical case is outside the sweepable theory")
    predicted = None
    if not supercritical:
        report = sharp_lifespan_admissible(params)
        if not report.admissible:
            failed = [r.name for r in report.reasons if not r.passed]
            raise DomainError(
                f"parameters violate the sharp-lifespan hypotheses: {failed}")
        predicted = lifespan_exponent(params.p, params.n, params.gamma)

    payloads = [(grid.dim, grid.length, grid.points, params.gamma, params.s,
                 params.p, eps, dt, t_end, theta) for eps in eps_schedule]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_lifespan_point, payloads))
    else:
        outcomes = [_lifespan_point(p) for p in payloads]
    rows = tuple(SweepRow(eps, lifespan, status) for eps, lifespan, status in outcomes)

    blow_up = [r for r in rows if r.status in (STATUS_BLOW_UP, STATUS_STEP_UNDERFLOW)]
    if supercritical:
        regime = Regime.GLOBAL_EXISTENCE.value if not blow_up else "Mixed"
        return SweepResult(rows, None, None, None, None, refused=True, regime=regime)

    if len(blow_up) < 4:
        raise InsufficientDataError(
            f"only {len(blow_up)} blow-up rows; need >= 4 to fit the lifespan slope "
            "(extend t_end or raise the eps schedule)")
    eps_arr = np.array([r.eps for r in blow_up])
    t_arr = np.array([r.lifespan for r in blow_up])
    fitted, intercept = fit_sweep_slope(eps_arr, t_arr)
    deviation = abs(fitted - predicted) / abs(predicted)
    return SweepResult(rows, predicted, fitted, intercept, deviation,
                       refused=False, regime=Regime.BLOW_UP.value)


# ---------------------------------------------------------------------------
# scaled-cutoff blow-up functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionSpec:
    """Scaled space-time cutoffs: radius R, with the parameter tuple they test.

    The time cutoff equals 1 on [0, 1/2], 0 on [1, inf), with a fixed smooth
    bump transition in between; space weight (1 + |x/R|^2)^{-n/2}.
    """

    R: float
    n: int
    gamma: float
    p: float
    plateau_end: float = 0.5
    support_end: float = 1.0

    def __post_init__(self):
        if self.R < 1:
            raise DomainError(f"scaling radius must satisfy R >= 1, got {self.R}")
        if not (0 < self.plateau_end < self.support_end):
            raise DomainError("cutoff must satisfy 0 < plateau_end < support_end")


def time_cutoff(u: np.ndarray | float) -> np.ndarray | float:
    """Smooth cutoff: 1 on [0, 1/2], exp(1 - 1/(1 - (2u-1)^2)) on (1/2, 1), 0 beyond."""
    u_arr = np.asarray(u, dtype=float)
    out = np.zeros_like(u_arr)
    out[u_arr <= 0.5] = 1.0
    transition = (u_arr > 0.5) & (u_arr < 1.0)
    if np.any(transition):
        w = 2.0 * u_arr[transition] - 1.0
        out[transition] = np.exp(1.0 - 1.0 / (1.0 - w * w))
    return float(out) if np.ndim(u) == 0 else out


def space_weight(radius_sq: np.ndarray, R: float, n: float) -> np.ndarray:
    """(1 + |x|^2/R^2)^{-n/2}, increasing in R pointwise."""
    return (1.0 + radius_sq / (R * R)) ** (-n / 2.0)


def exponent_gate(n: float, gamma: float, p: float) -> dict:
    """The comparison n + 2 - 2p' < n/2 - gamma, equivalent to p < p_crit."""
    lhs = n + 2.0 - 2.0 * conjugate_exponent(p)
    rhs = n / 2.0 - gamma
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs < rhs),
            "p_crit": p_crit(n, gamma)}


def evaluate_testfn_functional(run_dir: str | Path,
                               specs: list[TestFunctionSpec]) -> dict:
    """Evaluate the cutoff functional on a stored trajectory.

    For each spec computes  I_R = Int Int |u|^p phi_R eta_R dx dt  by
    trapezoid over the stored physical snapshots, the data term
    D_R = eps * Int (u0 + u1) phi_R dx, and the bound term
    B_R = (C/p') R^{n+2-2p'} with C calibrated so the two terms touch at
    the first R; reports the contradiction window D_R > B_R per R.
    """
    run_dir = Path(run_dir)
    config = json.loads((run_dir / "config.json").read_text())
    archive = np.load(run_dir / "snapshots.npz")
    snapshot_times = archive["times"]
    fields = archive["fields"]
    u0 = archive["u0"]
    u1 = archive["u1"]

    grid = GridSpec(dim=int(config["dim"]), length=float(config["L"]),
                    points=int(config["N"]))
    eps = float(config["eps"])
    if not specs:
        raise DomainError("need at least one cutoff spec")
    radius_sq = _radius_squared(grid)
    cell = grid.cell_volume

    first = specs[0]
    gate = exponent_gate(first.n, first.gamma, first.p)
    calibration = None
    rows = []
    for spec in specs:
        horizon = spec.R ** 2
        if snapshot_times[-1] < horizon:
            raise DomainError(
                f"stored trajectory covers t <= {snapshot_times[-1]!r} but R = {spec.R} "
                f"needs t in [0, {horizon!r}]")
        phi = space_weight(radius_sq, spec.R, spec.n)
        eta = time_cutoff(snapshot_times / horizon)
        mask = snapshot_times <= horizon
        space_integrals = np.array([
            float(np.sum(np.abs(fields[j]) ** spec.p * phi)) * cell
            for j in np.nonzero(mask)[0]])
        i_r = float(np.trapezoid(space_integrals * eta[mask], x=snapshot_times[mask]))

        d_r = eps * float(np.sum((u0 + u1) * phi)) * cell
        p_conj = conjugate_exponent(spec.p)
        growth = spec.n + 2.0 - 2.0 * p_conj
        if calibration is None:
            calibration = p_conj * d_r / spec.R ** growth
        b_r = calibration / p_conj * spec.R ** growth
        rows.append({"R": spec.R, "I_R": i_r, "D_R": d_r, "B_R": b_r,
                     "contradiction": bool(d_r > b_r)})

    return {"exponent_gate": gate, "calibrated_C": calibration, "rows": rows}


# ---------------------------------------------------------------------------
# phase diagram
# ---------------------------------------------------------------------------

def emit_phase_diagram(n: float, s: float, gamma_grid, p_grid) -> list[dict]:
    """One row per (gamma, p) cell with its regime and the boundary curves."""
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(gamma_grid <= 0) or np.any(gamma_grid >= n / 2.0):
        raise DomainError("gamma grid must lie inside (0, n/2)")
    if np.any(p_grid <= 1):
        raise DomainError("p grid must lie inside (1, inf)")
    gt = gamma_tilde(n)
    cap = n / (n - 2.0 * s) if n > 2.0 * s else math.inf
    rows = []
    for gamma in gamma_grid:
        pc = p_crit(n, gamma)
        lower = 1.0 + 2.0 * gamma / n
        for p in p_grid:
            verdict = classify_regime(RegimeParams(n=n, gamma=float(gamma), s=s,
                                                   p=float(p)))
            rows.append({"gamma": float(gamma), "p": float(p),
                         "regime": verdict.regime.value, "p_crit": pc,
                         "p_lower": lower, "p_cap": cap, "gamma_tilde": gt})
    return rows


# ---------------------------------------------------------------------------
# experiment entry points (run-directory producers)
# ---------------------------------------------------------------------------

def experiment_linear_decay(n: float, gamma: float, s: float, profile: str,
                            t0: float, t1: float, points: int = 96,
                            out: str | None = None, seed: int = 0) -> tuple[Path, dict]:
    run_dir = new_run_dir("linear-decay", out)
    config = {"kind": "linear-decay", "n": n, "gamma": gamma, "s": s,
              "profile": profile, "t0": t0, "t1": t1, "points": points,
              "seed": seed}
    write_json(run_dir / "config.json", config)
    fits, curves = run_decay_suite(n, gamma, s, profile, t0, t1, points)
    write_csv(run_dir / "curves.csv", ["t", "norm", "s", "gamma", "kind"],
              (row for curve in curves.values() for row in curve.csv_rows()))
    report = {"fits": {str(order): sf.to_json() for order, sf in fits.items()}}
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_diffusion(n: float, gamma: float, s: float, profile: str,
                         t0: float, t1: float, points: int = 96,
                         out: str | None = None, seed: int = 0) -> tuple[Path, dict]:
    run_dir = new_run_dir("diffusion", out)
    config = {"kind": "diffusion", "n": n, "gamma": gamma, "s": s,
              "profile": profile, "t0": t0, "t1": t1, "points": points,
              "seed": seed}
    write_json(run_dir / "config.json", config)
    fits, curves, gain = run_diffusion_suite(n, gamma, s, profile, t0, t1, points)
    write_csv(run_dir / "curves.csv", ["t", "norm", "s", "gamma", "kind"],
              (row for curve in curves.values() for row in curve.csv_rows()))
    report = {"fits": {kind: sf.to_json() for kind, sf in fits.items()},
              "gain": gain}
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_evolve(dim: int, N: int | None, L: float | None, p: float,
                      eps: float, gamma: float, s: float, dt: float,
                      tend: float, snapshots: int = 0, theta: float = 1e8,
                      out: str | None = None, seed: int = 0) -> tuple[Path, dict]:
    grid = _grid_for(dim, N, L)
    run_dir = new_run_dir("evolve", out)
    config = {"kind": "evolve", "dim": dim, "N": grid.points, "L": grid.length,
              "p": p, "eps": eps, "gamma": gamma, "s": s, "dt": dt,
              "tend": tend, "snapshots": snapshots, "theta": theta, "seed": seed}
    write_json(run_dir / "config.json", config)

    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=gamma)
    solver_config = SolverConfig(p=p, eps=eps, dt=dt, t_end=tend, theta=theta)

    collector = _SnapshotCollector(tend, snapshots) if snapshots > 0 else None
    started = time.perf_counter()
    result = run(solver_config, data, data, grid, s, gamma,
                 observer=collector.observe if collector else None)
    wall = time.perf_counter() - started

    write_csv(run_dir / "curves.csv", ["t", "l2", "hs", "hneg", "maxabs"],
              result.history_rows())
    report = {"status": result.status, "blow_up_time": result.blow_up_time,
              "weighted_sup": result.weighted_sup}
    write_json(run_dir / "report.json", report)
    meta = {"config": config, "grid": {"dim": grid.dim, "N": grid.points,
                                       "L": grid.length},
            "status": result.status, "blow_up_time": result.blow_up_time,
            "weighted_sup": result.weighted_sup, "wall_time_s": wall}
    write_json(run_dir / "meta.json", meta)
    if collector is not None:
        np.savez_compressed(run_dir / "snapshots.npz",
                            times=np.asarray(collector.times),
                            fields=np.asarray(collector.fields),
                            u0=data, u1=data)
    return run_dir, meta


class _SnapshotCollector:
    """Capture physical snapshots at (approximately) uniform times."""

    def __init__(self, t_end: float, count: int):
        self.targets = np.linspace(0.0, t_end, max(count, 2))
        self.next = 0
        self.times: list[float] = []
        self.fields: list[np.ndarray] = []

    def observe(self, t: float, u_phys: np.ndarray) -> None:
        if self.next < len(self.targets) and t >= self.targets[self.next]:
            self.times.append(t)
            self.fields.append(u_phys.copy())
            while self.next < len(self.targets) and t >= self.targets[self.next]:
                self.next += 1


def _grid_for(dim: int, N: int | None, L: float | None) -> GridSpec:
    if N is None or L is None:
        default = solver.DEFAULT_GRIDS.get(dim)
        if default is None:
            raise DomainError(
                f"no default grid for dim = {dim}; pass N and L explicitly")
        N = N if N is not None else default.points
        L = L if L is not None else default.length
    return GridSpec(dim=dim, length=float(L), points=int(N))


def experiment_lifespan(dim: int, gamma: float, s: float, p: float,
                        eps_start: float, eps_factor: float, count: int,
                        N: int | None = None, L: float | None = None,
                        dt: float = 0.02, tend: float = 2000.0,
                        theta: float = 1e8, workers: int = 1,
                        out: str | None = None, seed: int = 0) -> tuple[Path, dict]:
    grid = _grid_for(dim, N, L)
    run_dir = new_run_dir("lifespan", out)
    config = {"kind": "lifespan", "dim": dim, "N": grid.points, "L": grid.length,
              "gamma": gamma, "s": s, "p": p, "eps_start": eps_start,
              "eps_factor": eps_factor, "count": count, "dt": dt, "tend": tend,
              "theta": theta, "workers": workers, "seed": seed}
    write_json(run_dir / "config.json", config)

    schedule = [eps_start * eps_factor ** i for i in range(count)]
    params = RegimeParams(n=float(dim), gamma=gamma, s=s, p=p)
    sweep = run_lifespan_sweep(params, schedule, grid, dt=dt, t_end=tend,
                               theta=theta, workers=workers)
    write_csv(run_dir / "sweep.csv", ["eps", "T", "status"],
              ((r.eps, r.lifespan, r.status) for r in sweep.rows))
    report = sweep.to_json()
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_phase_diagram(n: float, s: float, gamma_min: float,
                             gamma_max: float, gamma_steps: int, p_min: float,
                             p_max: float, p_steps: int,
                             out: str | None = None) -> tuple[Path, dict]:
    run_dir = new_run_dir("phase-diagram", out)
    config = {"kind": "phase-diagram", "n": n, "s": s, "gamma_min": gamma_min,
              "gamma_max": gamma_max, "gamma_steps": gamma_steps,
              "p_min": p_min, "p_max": p_max, "p_steps": p_steps}
    write_json(run_dir / "config.json", config)
    rows = emit_phase_diagram(n, s, np.linspace(gamma_min, gamma_max, gamma_steps),
                              np.linspace(p_min, p_max, p_steps))
    write_csv(run_dir / "regions.csv",
              ["gamma", "p", "regime", "p_crit", "p_lower", "p_cap", "gamma_tilde"],
              ((r["gamma"], r["p"], r["regime"], r["p_crit"], r["p_lower"],
                r["p_cap"], r["gamma_tilde"]) for r in rows))
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["regime"]] = counts.get(r["regime"], 0) + 1
    report = {"cells": len(rows), "regime_counts": counts}
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_testfn(source_run: str | Path, radii: list[float],
                      out: str | None = None) -> tuple[Path, dict]:
    source_run = Path(source_run)
    source_config = json.loads((source_run / "config.json").read_text())
    specs = [TestFunctionSpec(R=float(r), n=int(source_config["dim"]),
                              gamma=float(source_config["gamma"]),
                              p=float(source_config["p"]))
             for r in radii]
    report = evaluate_testfn_functional(source_run, specs)
    run_dir = new_run_dir("testfn", out)
    write_json(run_dir / "config.json",
               {"kind": "testfn", "run": str(source_run), "R": list(radii)})
    write_json(run_dir / "report.json", report)
    return run_dir, report
