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
import math
import os
import tempfile
import time
import zipfile
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

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
    try:
        root.mkdir(parents=True, exist_ok=True)
        for counter in itertools.count(2):
            try:
                path.mkdir()  # atomic: a run that took the name raises here
                break
            except FileExistsError:
                path = Path(f"{base}-{counter}")
    except OSError as error:
        raise ContractError(f"cannot create a run directory under output root "
                            f"{str(root)!r}: {error.strerror}") from None
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
    lo, hi = DEFAULT_FIT_WINDOW
    window = max(lo, t0), min(hi, t1)
    if window[0] >= window[1]:  # also whenever t1 <= t0
        raise DomainError(f"the fit window [{lo:g}, {hi:g}] clipped to [t0, t1] is "
                          f"empty for t0 = {t0}, t1 = {t1}")
    times = np.geomspace(t0, t1, points)
    radial._fit_mask(times, window)  # too few samples fail before any curve
    v0 = build_profile(profile, n)
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

def _lifespan_point(grid: GridSpec, config: SolverConfig, gamma: float) -> dict:
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=gamma)
    result = run(config, data, data, grid)
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


# what a damaged run directory raises while it is read
_READ_ERRORS = (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile)


@contextmanager
def _evolve_run(run_dir: Path):
    """Yield n, gamma, p, eps, the grid, the stored times and u0 of the evolve
    run ``run_dir``, and an iterator that reads its stored fields one at a
    time from ``snapshots.npz``, opened once.  Every check on ``config.json``
    and the archive's headers runs first.  ContractError names a run that is
    unreadable, also in a field read, or whose archive does not match the grid
    of its config; an error raised in the caller's block passes unchanged."""
    def unreadable(error: Exception) -> ContractError:
        return ContractError(f"evolve run {str(run_dir)!r} is unreadable: "
                             f"{type(error).__name__}: {error}")

    path = run_dir / "config.json"
    with ExitStack() as stack:
        try:
            config = json.loads(path.read_text()) if path.is_file() else {}
            if not isinstance(config, dict) or config.get("kind") != "evolve":
                raise ContractError(f"{str(run_dir)!r} is not an evolve run directory")
            if not (run_dir / "snapshots.npz").is_file():
                raise ContractError(f"evolve run {str(run_dir)!r} stored no snapshots")
            archive = stack.enter_context(zipfile.ZipFile(run_dir / "snapshots.npz"))
            with archive.open("times.npy") as entry:
                times = npy.read_array(entry)
            with archive.open("u0.npy") as entry:
                u0 = npy.read_array(entry)
            entry = stack.enter_context(archive.open("fields.npy"))
            read_header = npy.read_array_header_1_0 \
                if npy.read_magic(entry) == (1, 0) else npy.read_array_header_2_0
            shape, fortran, dtype = read_header(entry)
            stored_bytes = archive.getinfo("fields.npy").file_size - entry.tell()
            n, gamma, p = int(config["dim"]), float(config["gamma"]), float(config["p"])
            grid = GridSpec(dim=n, length=float(config["L"]), points=int(config["N"]))
            eps = float(config["eps"])
        except CritexError:
            raise
        except _READ_ERRORS as error:
            raise unreadable(error) from None
        if times.shape != shape[:1] or shape[1:] != grid.shape or u0.shape != grid.shape:
            raise ContractError(
                f"evolve run {str(run_dir)!r} stores {times.shape} times, fields "
                f"{shape} and u0 {u0.shape}, which do not match its grid "
                f"{grid.shape}")
        size = math.prod(grid.shape) * dtype.itemsize
        if fortran or stored_bytes != len(times) * size:
            raise ContractError(
                f"evolve run {str(run_dir)!r} declares fields {shape} of {dtype}"
                f"{' in Fortran order' if fortran else ''} but stores "
                f"{stored_bytes} bytes of them")

        def fields():
            try:
                for _ in times:
                    yield np.frombuffer(entry.read(size), dtype).reshape(grid.shape)
            except _READ_ERRORS as error:
                raise unreadable(error) from None

        yield n, gamma, p, eps, grid, times, u0, fields()


def evaluate_testfn_functional(run_dir: str | Path, radii: list[float]) -> dict:
    """Evaluate the cutoff functional of a stored trajectory at scaling radii.

    The cutoffs are phi_R = ``space_weight`` and eta_R = ``time_cutoff(t/R^2)``,
    with n = dim, gamma and p read from the run's ``config.json``.  For each
    R in [1, inf) computes  I_R = Int Int |u|^p phi_R eta_R dx dt  by
    trapezoid over the stored physical snapshots and the data term
    D_R = eps * Int (u0 + u1) phi_R dx with evolve's u1 = u0.  Returns
    ``{"exponent_gate", "rows"}``, one row ``{R, I_R, D_R, samples}`` per R:
    ``samples`` counts the stored times in [0, R^2], and I_R is 0.0 when it is
    below 2, since one snapshot spans no time interval.  The fields are read
    one at a time, so memory holds one field and one phi_R per radius,
    however many fields the run stored.
    """
    radii = [float(R) for R in radii]
    if not radii:
        raise DomainError("need at least one scaling radius")
    if not all(1 <= R and R * R < math.inf for R in radii):  # R^2 is a horizon
        raise DomainError(f"scaling radii must satisfy R >= 1 with R^2 finite, "
                          f"got {radii}")
    horizons = [R ** 2 for R in radii]
    with _evolve_run(Path(run_dir)) as (n, gamma, p, eps, grid, snapshot_times, u0,
                                        fields):
        for R, horizon in zip(radii, horizons):
            if snapshot_times[-1] < horizon:
                raise DomainError(
                    f"stored trajectory covers t <= {snapshot_times[-1]!r} but "
                    f"R = {R} needs t in [0, {horizon!r}]")
        radius_sq = _radius_squared(grid)
        cell = grid.cell_volume
        phis = [space_weight(radius_sq, R, n) for R in radii]
        space_integrals = [[] for _ in radii]
        last = max(horizons)
        # every field is read, so the archive's CRC check runs to the end
        for field, t in zip(fields, snapshot_times.tolist()):
            if t > last:
                continue
            power = np.abs(field) ** p
            for horizon, phi, integrals in zip(horizons, phis, space_integrals):
                if t <= horizon:
                    integrals.append(float(np.sum(power * phi)) * cell)

    rows = []
    for R, horizon, phi, integrals in zip(radii, horizons, phis, space_integrals):
        eta = time_cutoff(snapshot_times / horizon)
        mask = snapshot_times <= horizon
        i_r = float(np.trapezoid(np.array(integrals) * eta[mask],
                                 x=snapshot_times[mask]))
        d_r = eps * float(np.sum(2.0 * u0 * phi)) * cell
        rows.append({"R": R, "I_R": i_r, "D_R": d_r, "samples": len(integrals)})
    return {"exponent_gate": exponent_gate(n, gamma, p), "rows": rows}


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
                      snapshots: int = 0, theta: float = 1e2,
                      out: str | None = None) -> tuple[Path, dict]:
    """Nonlinear evolution on a periodic grid.

    ``N`` and ``L`` default to the grid of ``dim``.  ``snapshots`` is 0 or
    the number (at least 2) of uniform target times in [0, tend]; the first
    physical field at or past each one is stored for testfn, so a run that
    stops early stores fewer.  During the march each stored field goes to an
    anonymous file in the system temp directory; ``_write_snapshots`` then
    copies them into ``snapshots.npz`` one at a time, so resident memory holds
    about one field however many are stored.  ``curves.csv`` holds one row
    per accepted step, ``run``'s step trace with ``solver.NormHistory``'s
    norms.  Returns the run directory and report; ``meta.json`` has its wall time.
    """
    N, L = _grid_size(dim, N, L)
    params = dict(locals())
    grid = GridSpec(dim=dim, length=L, points=N)
    solver_config = SolverConfig(p=p, eps=eps, dt=dt, t_end=tend, theta=theta)
    data = make_initial_data("critical_tail", grid, amplitude=1.0, gamma=gamma)
    history = solver.NormHistory(grid, s, gamma)
    if snapshots and snapshots < 2:
        raise DomainError(f"snapshots must be 0 or at least 2, got {snapshots}")
    targets = np.linspace(0.0, tend, snapshots)
    stored, passed = [], 0

    # the stored fields go to an anonymous spool file, not to memory, until
    # the run directory exists
    with tempfile.TemporaryFile() if snapshots else nullcontext() as spool:
        def observe(t: float, fields: tuple) -> None:
            # the field is kept when the count of targets at or before t grows
            nonlocal passed
            history(t, fields)
            count = np.searchsorted(targets, t, side="right")
            if count > passed:
                spool.write(fields[1])  # its float64 bytes in C order
                stored.append(t)
                passed = count

        started = time.perf_counter()
        result = run(solver_config, data, data, grid, observer=observe)
        wall = time.perf_counter() - started
        lifespan = result.lifespan if np.isfinite(result.lifespan) else None
        report = {"status": result.status, "blow_up_time": lifespan,
                  "weighted_sup": history.weighted_sup()}

        run_dir = _open_run("evolve", params)
        write_csv(run_dir / "curves.csv", ["t", "l2", "hs", "hneg", "maxabs"],
                  zip(*np.asarray(history.rows).T, result.maxabs))
        write_json(run_dir / "meta.json", {"wall_time_s": wall})
        if snapshots:
            _write_snapshots(run_dir / "snapshots.npz", stored, spool, data)
    write_json(run_dir / "report.json", report)
    return run_dir, report


def _write_snapshots(path: Path, times: list[float], spool, u0: np.ndarray) -> None:
    """Write the archive that ``np.savez(path, times=times, fields=fields,
    u0=u0)`` writes, byte for byte, where ``spool`` holds the bytes of
    ``fields``: float64 fields of u0's shape in C order.  The fields are
    copied one at a time, so memory never holds more than one.

    The entries are stored, not deflated: deflate saves only ~40 % on float64
    fields and took about a third of the time of a 2-D snapshot run.
    """
    header = {**npy.header_data_from_array_1_0(u0), "shape": (len(times), *u0.shape)}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        # np.savez's layout: entries in keyword order, each forced to zip64
        with archive.open("times.npy", "w", force_zip64=True) as entry:
            npy.write_array(entry, np.asarray(times))
        with archive.open("fields.npy", "w", force_zip64=True) as entry:
            npy.write_array_header_1_0(entry, header)
            spool.seek(0)
            for _ in times:
                entry.write(spool.read(u0.nbytes))
        with archive.open("u0.npy", "w", force_zip64=True) as entry:
            npy.write_array(entry, u0)


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
                        tend: float = 2000.0, theta: float = 1e2,
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
                    gamma=gamma)
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
    params = {**locals(), "run": str(Path(run).absolute()), "R": list(R)}
    report = evaluate_testfn_functional(run, R)
    run_dir = _open_run("testfn", params)
    write_json(run_dir / "report.json", report)
    return run_dir, report
