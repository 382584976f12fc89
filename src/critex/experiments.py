"""Reproducible experiments: decay suites, diffusion gain, lifespan sweeps,
the scaled-cutoff blow-up functional, and phase diagrams.

Each experiment writes an append-only run directory
``<out>/<timestamp>-<kind>/`` containing ``config.json`` (the experiment's
parameters except ``out``, plus ``kind``, with a default grid resolved to
its ``N`` and ``L``), the data files (``curves.csv`` / ``sweep.csv`` /
``regions.csv`` / ``snapshots.npz``), and ``report.json``.  The report is
written last and atomically, so a run directory without one is incomplete.
Identical configurations produce bit-identical CSV and report files on a
fixed platform; wall-clock timing lives only in ``meta.json``.

The output root is the first of: explicit argument, the ``CRITEX_OUT``
environment variable, ``./runs``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import radial, solver
from .errors import ContractError, DomainError, InsufficientDataError
from .exponents import (Regime, RegimeParams, classify_regime, conjugate_exponent,
                        lifespan_exponent, p_crit, sharp_lifespan_admissible)
from .fields import GridSpec, _radius_squared, make_initial_data
from .radial import (DEFAULT_FIT_WINDOW, RateFit, fit_rate,
                     gaussian_profile, power_law_profile)
from .solver import (STATUS_BLOW_UP, STATUS_STEP_UNDERFLOW, SolverConfig,
                     run)


# ---------------------------------------------------------------------------
# run-directory plumbing
# ---------------------------------------------------------------------------

def _open_run(kind: str, params: dict) -> Path:
    """Create ``<out>/<timestamp>-<kind>/`` (``-2``, ``-3``, ... appended on
    a clash) and echo ``params`` minus ``out``, plus ``kind``, into its
    ``config.json``."""
    config = {"kind": kind, **params}
    root = Path(config.pop("out") or os.environ.get("CRITEX_OUT", "runs"))
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = root / f"{stamp}-{kind}"
    path = base
    counter = 1
    while path.exists():
        counter += 1
        path = Path(f"{base}-{counter}")
    path.mkdir(parents=True)
    write_json(path / "config.json", config)
    return path


def write_json(path: Path, payload: dict) -> None:
    """Write through a temporary file renamed into place, so ``path`` is
    either absent or complete."""
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(partial, path)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(str, row)) + "\n")


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
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise DomainError(f"profile parameter {item!r} in {spec!r} is not "
                                  "<key>=<number>") from None
    return kind.strip(), params


def build_profile(spec: str, n: float) -> radial.RadialProfile:
    """``powerlaw:a=<a>`` (v_hat = r^-a) or ``gaussian[:w=<w>]`` (w = 1 by default)."""
    kind, params = parse_profile(spec)
    if kind == "powerlaw" and set(params) == {"a"}:
        return power_law_profile(n, params["a"])
    if kind == "gaussian" and set(params) <= {"w"}:
        return gaussian_profile(n, params.get("w", 1.0))
    raise DomainError(f"profile {spec!r} is neither powerlaw:a=<a> nor gaussian[:w=<w>]")


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


def _suite_inputs(n: float, gamma: float, profile: str, t0: float, t1: float,
                  points: int):
    """Data v0 (the velocity data are zero), sample times, and
    DEFAULT_FIT_WINDOW clipped to [t0, t1]."""
    if gamma <= 0 or gamma >= n / 2.0:
        raise DomainError(f"rate suites require gamma in (0, n/2), got {gamma}")
    if points < 1 or t0 <= 0:
        raise DomainError(f"rate suites need points >= 1 and t0 > 0, "
                          f"got points = {points}, t0 = {t0}")
    v0 = build_profile(profile, n)
    window = max(DEFAULT_FIT_WINDOW[0], t0), min(DEFAULT_FIT_WINDOW[1], t1)
    return v0, np.geomspace(t0, t1, points), window


def run_decay_suite(n: float, gamma: float, s: float, profile: str,
                    t0: float = 1.0, t1: float = 1e5, points: int = 96):
    """Damped-wave decay fits at orders 0 and s against the predictions
    -gamma/2 and -(s+gamma)/2.  Returns ({order: SuiteFit}, {order: curve})."""
    v0, times, window = _suite_inputs(n, gamma, profile, t0, t1, points)
    predicted = {0.0: -gamma / 2.0, s: -(s + gamma) / 2.0}
    curves = {order: radial.evolve_damped(v0, None, times, order, gamma)
              for order in predicted}
    fits = {order: SuiteFit(fit_rate(curve, window), predicted[order])
            for order, curve in curves.items()}
    return fits, curves


def run_diffusion_suite(n: float, gamma: float, s: float, profile: str,
                        t0: float = 1.0, t1: float = 1e5, points: int = 96):
    """Damped / heat / difference fits plus the parabolic gain
    slope(difference) - slope(damped), expected near -1."""
    v0, times, window = _suite_inputs(n, gamma, profile, t0, t1, points)
    curves = {
        "damped": radial.evolve_damped(v0, None, times, s, gamma),
        "heat": radial.evolve_heat(v0, None, times, s, gamma),
        "difference": radial.diffusion_difference(v0, None, times, s, gamma),
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


def _lifespan_point(grid: GridSpec, config: SolverConfig, gamma: float,
                    s: float) -> SweepRow:
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=gamma)
    result = run(config, data, data, grid, s, gamma)
    return SweepRow(config.eps, result.lifespan, result.status)


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

    configs = [SolverConfig(p=params.p, eps=eps, dt=dt, t_end=t_end, theta=theta)
               for eps in eps_schedule]
    point = partial(_lifespan_point, grid, gamma=params.gamma, s=params.s)
    if workers > 1:
        # imported here: workers = 1 never pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(point, configs))
    else:
        rows = tuple(map(point, configs))

    unfitted = SweepResult(rows, None, None, None, None, refused=True,
                           regime=Regime.GLOBAL_EXISTENCE.value)
    blow_up = unfitted.blow_up_rows()
    if supercritical:
        return unfitted if not blow_up else replace(unfitted, regime="Mixed")

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


def _evolve_config(run_dir: Path) -> dict:
    """``config.json`` of an evolve run that stored snapshots."""
    path = run_dir / "config.json"
    config = json.loads(path.read_text()) if path.is_file() else {}
    if config.get("kind") != "evolve":
        raise ContractError(f"{str(run_dir)!r} is not an evolve run directory")
    if not (run_dir / "snapshots.npz").is_file():
        raise ContractError(f"evolve run {str(run_dir)!r} stored no snapshots")
    return config


def evaluate_testfn_functional(run_dir: str | Path, radii: list[float]) -> dict:
    """Evaluate the cutoff functional of a stored trajectory at scaling radii.

    The cutoffs are phi_R = ``space_weight`` and eta_R = ``time_cutoff(t/R^2)``,
    with n = dim, gamma and p read from the run's ``config.json``.  For each
    R >= 1 computes  I_R = Int Int |u|^p phi_R eta_R dx dt  by trapezoid over
    the stored physical snapshots, the data term D_R = eps * Int (u0 + u1)
    phi_R dx with evolve's u1 = u0, and the bound term
    B_R = (C/p') R^{n+2-2p'} with C calibrated so the two terms touch at
    the first R; reports the contradiction window D_R > B_R per R.  Each
    row's ``samples`` counts the stored times in [0, R^2]; I_R is 0.0 when
    it is below 2, since one snapshot spans no time interval.
    """
    radii = [float(R) for R in radii]
    if not radii:
        raise DomainError("need at least one scaling radius")
    if min(radii) < 1:
        raise DomainError(f"scaling radii must satisfy R >= 1, got {min(radii)}")
    run_dir = Path(run_dir)
    config = _evolve_config(run_dir)
    with np.load(run_dir / "snapshots.npz") as archive:
        snapshot_times = archive["times"]
        fields = archive["fields"]
        u0 = archive["u0"]

    n, gamma, p = int(config["dim"]), float(config["gamma"]), float(config["p"])
    grid = GridSpec(dim=n, length=float(config["L"]), points=int(config["N"]))
    eps = float(config["eps"])
    radius_sq = _radius_squared(grid)
    cell = grid.cell_volume
    p_conj = conjugate_exponent(p)
    growth = n + 2.0 - 2.0 * p_conj

    calibration = None
    rows = []
    for R in radii:
        horizon = R ** 2
        if snapshot_times[-1] < horizon:
            raise DomainError(
                f"stored trajectory covers t <= {snapshot_times[-1]!r} but R = {R} "
                f"needs t in [0, {horizon!r}]")
        phi = space_weight(radius_sq, R, n)
        eta = time_cutoff(snapshot_times / horizon)
        mask = snapshot_times <= horizon
        space_integrals = np.array([
            float(np.sum(np.abs(fields[j]) ** p * phi)) * cell
            for j in np.nonzero(mask)[0]])
        i_r = float(np.trapezoid(space_integrals * eta[mask], x=snapshot_times[mask]))

        d_r = eps * float(np.sum(2.0 * u0 * phi)) * cell
        if calibration is None:
            calibration = p_conj * d_r / R ** growth
        b_r = calibration / p_conj * R ** growth
        rows.append({"R": R, "I_R": i_r, "D_R": d_r, "B_R": b_r,
                     "samples": len(space_integrals),
                     "contradiction": bool(d_r > b_r)})

    return {"exponent_gate": exponent_gate(n, gamma, p), "calibrated_C": calibration,
            "rows": rows}


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
    rows = []
    for gamma in gamma_grid:
        for p in p_grid:
            verdict = classify_regime(RegimeParams(n=n, gamma=float(gamma), s=s,
                                                   p=float(p)))
            pc, _, gt, lower, cap = (r.rhs for r in verdict.reasons)
            rows.append({"gamma": float(gamma), "p": float(p),
                         "regime": verdict.regime.value, "p_crit": pc,
                         "p_lower": lower, "p_cap": cap, "gamma_tilde": gt})
    return rows


# ---------------------------------------------------------------------------
# experiment entry points (run-directory producers)
# ---------------------------------------------------------------------------
# Each signature is the experiment's only description: the CLI derives its
# flags, defaults and --config keys from it, and each passes ``locals()``,
# taken before any other local is bound, to ``_open_run``.  The rate suites,
# the lifespan sweep and the phase diagram open theirs after computing, and
# evolve after building its inputs, so bad input leaves no run directory.

def experiment_linear_decay(n: float, gamma: float, s: float, profile: str,
                            t0: float = 1.0, t1: float = 1e5, points: int = 96,
                            out: str | None = None) -> tuple[Path, dict]:
    """Radial decay-rate suite: fitted rates at orders 0 and s."""
    params = dict(locals())
    fits, curves = run_decay_suite(n, gamma, s, profile, t0, t1, points)
    run_dir = _open_run("linear-decay", params)
    write_csv(run_dir / "curves.csv", ["t", "norm", "s", "gamma", "kind"],
              (row for curve in curves.values() for row in curve.csv_rows()))
    report = {"fits": {str(order): sf.to_json() for order, sf in fits.items()}}
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_diffusion(n: float, gamma: float, s: float, profile: str,
                         t0: float = 1.0, t1: float = 1e5, points: int = 96,
                         out: str | None = None) -> tuple[Path, dict]:
    """Damped/heat/difference rate suite and the parabolic gain."""
    params = dict(locals())
    fits, curves, gain = run_diffusion_suite(n, gamma, s, profile, t0, t1, points)
    run_dir = _open_run("diffusion", params)
    write_csv(run_dir / "curves.csv", ["t", "norm", "s", "gamma", "kind"],
              (row for curve in curves.values() for row in curve.csv_rows()))
    report = {"fits": {kind: sf.to_json() for kind, sf in fits.items()},
              "gain": gain}
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_evolve(dim: int, N: int | None, L: float | None, p: float,
                      eps: float, gamma: float, s: float = 1.0,
                      dt: float = 0.02, tend: float = 100.0,
                      snapshots: int = 0, theta: float = 1e8,
                      out: str | None = None) -> tuple[Path, dict]:
    """Nonlinear evolution on a periodic grid.

    ``N`` and ``L`` default to the grid of ``dim``.  ``snapshots`` is 0 or
    the number (at least 2) of uniform target times in [0, tend]; the first
    physical field at or past each one is stored for testfn, so a run that
    stops early stores fewer.  Returns the run directory and the payload of
    ``meta.json``.
    """
    N, L = _grid_size(dim, N, L)
    params = dict(locals())
    grid = GridSpec(dim=dim, length=L, points=N)
    solver_config = SolverConfig(p=p, eps=eps, dt=dt, t_end=tend, theta=theta)
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=gamma)
    collector = _SnapshotCollector(grid, tend, snapshots) if snapshots else None
    run_dir = _open_run("evolve", params)

    started = time.perf_counter()
    result = run(solver_config, data, data, grid, s, gamma,
                 observer=collector.observe if collector else None)
    wall = time.perf_counter() - started

    write_csv(run_dir / "curves.csv", ["t", "l2", "hs", "hneg", "maxabs"],
              result.history_rows())
    report = {"status": result.status, "blow_up_time": result.blow_up_time,
              "weighted_sup": result.weighted_sup}
    meta = {**report, "wall_time_s": wall}
    write_json(run_dir / "meta.json", meta)
    if collector is not None:
        # stored, not deflated: deflate saves only ~40 % on float64 fields
        # and took about a third of the time of a 2-D snapshot run
        np.savez(run_dir / "snapshots.npz", times=np.asarray(collector.times),
                 fields=collector.fields[:len(collector.times)], u0=data)
    write_json(run_dir / "report.json", report)
    return run_dir, meta


class _SnapshotCollector:
    """Capture the physical field at the first observed time at or past each
    of ``count`` uniform target times in [0, t_end], into one buffer."""

    def __init__(self, grid: GridSpec, t_end: float, count: int):
        if count < 2:
            raise DomainError(f"snapshots must be 0 or at least 2, got {count}")
        self.targets = np.linspace(0.0, t_end, count)
        self.next = 0
        self.times: list[float] = []
        # rows past len(times) are never written
        self.fields = np.empty((count, *grid.shape))

    def observe(self, t: float, u_phys: np.ndarray) -> None:
        if self.next < len(self.targets) and t >= self.targets[self.next]:
            self.fields[len(self.times)] = u_phys
            self.times.append(t)
            while self.next < len(self.targets) and t >= self.targets[self.next]:
                self.next += 1


def _grid_size(dim: int, N: int | None, L: float | None) -> tuple[int, float]:
    """``(N, L)`` with a missing value taken from the default grid of ``dim``."""
    if N is None or L is None:
        default = solver.DEFAULT_GRIDS.get(dim)
        if default is None:
            raise DomainError(
                f"no default grid for dim = {dim}; pass N and L explicitly")
        N = N if N is not None else default.points
        L = L if L is not None else default.length
    return int(N), float(L)


def experiment_lifespan(dim: int, gamma: float, s: float, p: float,
                        eps_start: float, eps_factor: float = 10 ** (-1 / 7),
                        count: int = 8, N: int | None = None,
                        L: float | None = None, dt: float = 0.02,
                        tend: float = 2000.0, theta: float = 1e8,
                        workers: int = 1,
                        out: str | None = None) -> tuple[Path, dict]:
    """Blow-up time sweep over eps and its fitted power law.

    The schedule is eps_start * eps_factor**i for i < count; the defaults
    give 8 points spanning one decade.
    """
    N, L = _grid_size(dim, N, L)
    params = dict(locals())
    schedule = [eps_start * eps_factor ** i for i in range(count)]
    sweep = run_lifespan_sweep(RegimeParams(n=float(dim), gamma=gamma, s=s, p=p),
                               schedule, GridSpec(dim=dim, length=L, points=N),
                               dt=dt, t_end=tend, theta=theta, workers=workers)
    run_dir = _open_run("lifespan", params)
    write_csv(run_dir / "sweep.csv", ["eps", "T", "status"],
              ((r.eps, r.lifespan, r.status) for r in sweep.rows))
    report = sweep.to_json()
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_phase_diagram(n: float, s: float, gamma_min: float,
                             gamma_max: float, gamma_steps: int, p_min: float,
                             p_max: float, p_steps: int,
                             out: str | None = None) -> tuple[Path, dict]:
    """Regime map over a (gamma, p) grid."""
    params = dict(locals())
    if gamma_steps < 1 or p_steps < 1:
        raise DomainError(f"step counts must be >= 1, got gamma_steps = "
                          f"{gamma_steps}, p_steps = {p_steps}")
    rows = emit_phase_diagram(n, s, np.linspace(gamma_min, gamma_max, gamma_steps),
                              np.linspace(p_min, p_max, p_steps))
    run_dir = _open_run("phase-diagram", params)
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


def experiment_testfn(run: Path, R: list[float],
                      out: str | None = None) -> tuple[Path, dict]:
    """Cutoff functional at the scaling radii ``R`` on a stored evolve run."""
    params = {**locals(), "run": str(run), "R": list(R)}
    report = evaluate_testfn_functional(run, R)
    run_dir = _open_run("testfn", params)
    write_json(run_dir / "report.json", report)
    return run_dir, report
