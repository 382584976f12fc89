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

import itertools
import json
import os
import time
from collections import Counter
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from . import radial, solver
from .errors import ContractError, CritexError, DomainError, InsufficientDataError
from .exponents import (Regime, RegimeParams, classify_regime, conjugate_exponent,
                        lifespan_exponent, p_crit, sharp_lifespan_admissible)
from .fields import GridSpec, _radius_squared, make_initial_data
from .radial import DEFAULT_FIT_WINDOW, fit_rate, power_law_profile
from .solver import SolverConfig, run


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
    root.mkdir(parents=True, exist_ok=True)
    for counter in itertools.count(2):
        try:
            path.mkdir()  # atomic: a run that took the name raises here
            break
        except FileExistsError:
            path = Path(f"{base}-{counter}")
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

def build_profile(spec: str, n: float) -> radial.RadialProfile:
    """``powerlaw:a=<a>``: v_hat = r^-a on (0, 1], zero beyond."""
    kind, _, tail = spec.partition(":")
    key, _, value = tail.partition("=")
    if kind.strip() != "powerlaw" or key.strip() != "a" or "," in value:
        raise DomainError(f"profile {spec!r} is not powerlaw:a=<a>")
    try:
        a = float(value)
    except ValueError:
        raise DomainError(f"profile parameter {tail!r} in {spec!r} is not "
                          "<key>=<number>") from None
    return power_law_profile(n, a)


# ---------------------------------------------------------------------------
# decay and diffusion suites
# ---------------------------------------------------------------------------

# the radial function that forms each curve kind, looked up at call time
_CURVES = {"damped": "evolve_damped", "heat": "evolve_heat",
           "difference": "diffusion_difference"}


def _rate_suite(n: float, gamma: float, profile: str, t0: float, t1: float,
                points: int, curves: dict) -> tuple[dict, list]:
    """Fits {key: ``fit_rate``'s dict plus predicted_rate} and curves.csv rows of
    ``curves`` = {key: (kind, order, predicted_rate)} of v0 (zero velocity data),
    checked in H^order and H^-gamma once per distinct order before any curve."""
    if gamma <= 0 or gamma >= n / 2.0:
        raise DomainError(f"rate suites require gamma in (0, n/2), got {gamma}")
    if points < 1 or t0 <= 0:
        raise DomainError(f"rate suites need points >= 1 and t0 > 0, "
                          f"got points = {points}, t0 = {t0}")
    v0 = build_profile(profile, n)
    window = max(DEFAULT_FIT_WINDOW[0], t0), min(DEFAULT_FIT_WINDOW[1], t1)
    times = np.geomspace(t0, t1, points)
    for order in dict.fromkeys(x for c in curves.values() for x in (c[1], -gamma)):
        radial.norm_radial(v0, order)
    norms = {key: getattr(radial, _CURVES[kind])(v0, times, order)
             for key, (kind, order, _) in curves.items()}
    fits = {key: {**fit_rate(times, norms[key], window), "predicted_rate": rate}
            for key, (_, _, rate) in curves.items()}
    rows = [(t, norm, order, gamma, kind) for key, (kind, order, _) in curves.items()
            for t, norm in zip(times.tolist(), norms[key].tolist())]
    return fits, rows


def run_decay_suite(n: float, gamma: float, s: float, profile: str,
                    t0: float = 1.0, t1: float = 1e5, points: int = 96):
    """Damped-wave decay fits at orders 0 and s against the predictions
    -gamma/2 and -(s+gamma)/2.  Returns {order: ``fit_rate``'s dict plus its
    ``predicted_rate``} and the curves.csv rows (t, norm, order, gamma, kind)."""
    return _rate_suite(n, gamma, profile, t0, t1, points, {
        order: ("damped", order, -(order + gamma) / 2.0)
        for order in dict.fromkeys((0.0, s))})


def run_diffusion_suite(n: float, gamma: float, s: float, profile: str,
                        t0: float = 1.0, t1: float = 1e5, points: int = 96):
    """Damped / heat / difference fits, their curves.csv rows, and the parabolic
    gain slope(difference) - slope(damped), expected near -1."""
    base_rate = -(s + gamma) / 2.0
    fits, rows = _rate_suite(n, gamma, profile, t0, t1, points, {
        "damped": ("damped", s, base_rate), "heat": ("heat", s, base_rate),
        "difference": ("difference", s, base_rate - 1.0)})
    return fits, rows, fits["difference"]["slope"] - fits["damped"]["slope"]


# ---------------------------------------------------------------------------
# lifespan sweep
# ---------------------------------------------------------------------------

def _lifespan_point(grid: GridSpec, config: SolverConfig, gamma: float,
                    s: float) -> dict:
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=gamma)
    result = run(config, data, data, grid, s, gamma)
    return {"eps": config.eps, "lifespan": result.lifespan, "status": result.status}


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


def _read_evolve_run(run_dir: Path) -> tuple:
    """n, gamma, p, eps, the grid, and the stored times, fields and u0 of an
    evolve run with snapshots; ContractError names a run it cannot read or
    whose archive does not match the grid of its config."""
    path = run_dir / "config.json"
    try:
        config = json.loads(path.read_text()) if path.is_file() else {}
        if not isinstance(config, dict) or config.get("kind") != "evolve":
            raise ContractError(f"{str(run_dir)!r} is not an evolve run directory")
        if not (run_dir / "snapshots.npz").is_file():
            raise ContractError(f"evolve run {str(run_dir)!r} stored no snapshots")
        with np.load(run_dir / "snapshots.npz") as archive:
            stored = archive["times"], archive["fields"], archive["u0"]
        n, gamma, p = int(config["dim"]), float(config["gamma"]), float(config["p"])
        grid = GridSpec(dim=n, length=float(config["L"]), points=int(config["N"]))
        eps = float(config["eps"])
    except CritexError:
        raise
    except (OSError, EOFError, ValueError, KeyError, TypeError, BadZipFile) as error:
        raise ContractError(f"evolve run {str(run_dir)!r} is unreadable: "
                            f"{type(error).__name__}: {error}") from None
    times, fields, u0 = stored
    if times.shape != fields.shape[:1] or fields.shape[1:] != grid.shape \
            or u0.shape != grid.shape:
        raise ContractError(
            f"evolve run {str(run_dir)!r} stores {times.shape} times, fields "
            f"{fields.shape} and u0 {u0.shape}, which do not match its grid "
            f"{grid.shape}")
    return n, gamma, p, eps, grid, times, fields, u0


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
    n, gamma, p, eps, grid, snapshot_times, fields, u0 = _read_evolve_run(Path(run_dir))
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
            rhs = {r.name: r.rhs for r in verdict.reasons}
            rows.append({"gamma": float(gamma), "p": float(p),
                         "regime": verdict.regime.value, "p_crit": rhs["p > p_crit"],
                         "p_lower": rhs["p >= 1 + 2*gamma/n"],
                         "p_cap": rhs["p <= n/(n - 2s)"],
                         "gamma_tilde": rhs["gamma <= gamma_tilde"]})
    return rows


# ---------------------------------------------------------------------------
# experiment entry points (run-directory producers)
# ---------------------------------------------------------------------------
# Each signature is the experiment's only description: the CLI derives its
# flags, defaults and --config keys from it, and each passes ``locals()``,
# taken before any other local is bound, to ``_open_run``.  Each opens its
# run directory only after it has computed, so bad input leaves none.

def _write_suite(kind: str, params: dict, fits: dict, rows: list,
                 **extra) -> tuple[Path, dict]:
    """A rate suite's run directory: ``curves.csv`` of its rows and a report
    of its fits keyed by ``str(key)``, plus ``extra``."""
    run_dir = _open_run(kind, params)
    write_csv(run_dir / "curves.csv", ["t", "norm", "s", "gamma", "kind"], rows)
    report = {"fits": {str(key): fit for key, fit in fits.items()}, **extra}
    write_json(run_dir / "report.json", report)
    return run_dir, report


def experiment_linear_decay(n: float, gamma: float, s: float, profile: str,
                            t0: float = 1.0, t1: float = 1e5, points: int = 96,
                            out: str | None = None) -> tuple[Path, dict]:
    """Radial decay-rate suite: fitted rates at orders 0 and s."""
    params = dict(locals())
    fits, rows = run_decay_suite(n, gamma, s, profile, t0, t1, points)
    return _write_suite("linear-decay", params, fits, rows)


def experiment_diffusion(n: float, gamma: float, s: float, profile: str,
                         t0: float = 1.0, t1: float = 1e5, points: int = 96,
                         out: str | None = None) -> tuple[Path, dict]:
    """Damped/heat/difference rate suite and the parabolic gain."""
    params = dict(locals())
    fits, rows, gain = run_diffusion_suite(n, gamma, s, profile, t0, t1, points)
    return _write_suite("diffusion", params, fits, rows, gain=gain)


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
    if snapshots and snapshots < 2:
        raise DomainError(f"snapshots must be 0 or at least 2, got {snapshots}")
    targets = np.linspace(0.0, tend, snapshots)
    fields, stored, passed = np.empty((snapshots, *grid.shape)), [], 0

    def keep(t: float, u_phys: np.ndarray) -> None:
        # the field is kept when the count of targets at or before t grows
        nonlocal passed
        count = np.searchsorted(targets, t, side="right")
        if count > passed:
            fields[len(stored)] = u_phys
            stored.append(t)
            passed = count

    started = time.perf_counter()
    result = run(solver_config, data, data, grid, s, gamma,
                 observer=keep if snapshots else None)
    wall = time.perf_counter() - started

    run_dir = _open_run("evolve", params)
    write_csv(run_dir / "curves.csv", ["t", "l2", "hs", "hneg", "maxabs"],
              zip(result.times, result.l2, result.hs, result.hneg, result.maxabs))
    report = {"status": result.status, "blow_up_time": result.blow_up_time,
              "weighted_sup": result.weighted_sup}
    meta = {**report, "wall_time_s": wall}
    write_json(run_dir / "meta.json", meta)
    if snapshots:
        # stored, not deflated: deflate saves only ~40 % on float64 fields
        # and took about a third of the time of a 2-D snapshot run
        np.savez(run_dir / "snapshots.npz", times=np.asarray(stored),
                 fields=fields[:len(stored)], u0=data)
    write_json(run_dir / "report.json", report)
    return run_dir, meta


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
    """Blow-up time sweep over eps and its fitted power law in eps.

    The schedule is eps_start * eps_factor**i for i < count; the defaults
    give 8 points spanning one decade.  Subcritical parameters must pass
    ``sharp_lifespan_admissible``.  Supercritical parameters are allowed, but
    the sweep refuses to fit and reports regime ``GlobalExistence``, or
    ``Mixed`` if some point blows up.  Strictly critical p is rejected (open
    regime).  With ``workers`` > 1 the points run in a pool of
    min(workers, count) processes; rows keep schedule order.
    """
    N, L = _grid_size(dim, N, L)
    params = dict(locals())
    try:
        schedule = [eps_start * eps_factor ** i for i in range(count)]
    except OverflowError:  # float ** raises where float * gives inf
        raise DomainError("eps schedule must be positive and finite") from None
    if count < 2:
        raise DomainError("eps schedule needs at least two points")
    if not all(0 < eps < float("inf") for eps in schedule):
        raise DomainError(f"eps schedule must be positive and finite: {schedule}")
    if eps_factor == 1:
        raise DomainError("eps schedule must be strictly monotone geometric")

    regime_params = RegimeParams(n=float(dim), gamma=gamma, s=s, p=p)
    pc = p_crit(float(dim), gamma)
    supercritical = p > pc
    if p == pc:
        raise DomainError(
            f"p = p_crit = {pc!r}: the critical case is outside the sweepable theory")
    predicted = None
    if not supercritical:
        verdict = sharp_lifespan_admissible(regime_params)
        if not verdict.admissible:
            failed = [r.name for r in verdict.reasons if not r.passed]
            raise DomainError(
                f"parameters violate the sharp-lifespan hypotheses: {failed}")
        predicted = lifespan_exponent(p, float(dim), gamma)
    configs = [SolverConfig(p=p, eps=eps, dt=dt, t_end=tend, theta=theta)
               for eps in schedule]
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")

    point = partial(_lifespan_point, GridSpec(dim=dim, length=L, points=N),
                    gamma=gamma, s=s)
    if workers > 1:
        # imported here: workers = 1 never pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, count)) as pool:
            rows = list(pool.map(point, configs))
    else:
        rows = list(map(point, configs))

    blow_up = [row for row in rows if np.isfinite(row["lifespan"])]
    report = {"rows": rows, "predicted_slope": predicted, "fitted_slope": None,
              "intercept": None, "relative_deviation": None, "refused": True,
              "regime": "Mixed" if blow_up else Regime.GLOBAL_EXISTENCE.value}
    if not supercritical:
        if len(blow_up) < 4:
            raise InsufficientDataError(
                f"only {len(blow_up)} blow-up rows; need >= 4 to fit the lifespan "
                "slope (extend t_end or raise the eps schedule)")
        fitted, intercept = map(float, np.polyfit(
            np.log([row["eps"] for row in blow_up]),
            np.log([row["lifespan"] for row in blow_up]), 1))
        report.update(fitted_slope=fitted, intercept=intercept,
                      relative_deviation=abs(fitted - predicted) / abs(predicted),
                      refused=False, regime=Regime.BLOW_UP.value)
    run_dir = _open_run("lifespan", params)
    write_csv(run_dir / "sweep.csv", ["eps", "T", "status"],
              (row.values() for row in rows))
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
              (r.values() for r in rows))
    report = {"cells": len(rows),
              "regime_counts": Counter(r["regime"] for r in rows)}
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
