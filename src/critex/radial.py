"""Arbitrary-dimension linear experiments on radial spectral profiles.

A radial profile samples v_hat(r) on a log-spaced grid of radial
frequencies.  Norms come from the radial Plancherel identity

    ||f||_{H^s}^2 = sigma_{n-1} * Int r^{2s+n-1} |v_hat(r)|^2 dr,

with sigma_{n-1} = 2 pi^{n/2} / Gamma(n/2) the unit-sphere area (Gamma from
math.gamma), evaluated by composite trapezoid on the log abscissa (uniform
relative accuracy for power-law integrands).  The dimension n is an ordinary
real parameter, so decay rates can be probed in any dimension without a grid.
The low end of the default grid (r_min = 1e-6) supplies the low-frequency
continuum that produces algebraic decay, which no periodic box can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ContractError, DomainError, InsufficientDataError
from .propagators import heat_multiplier, kernel_entries

DEFAULT_R_MIN = 1e-6
DEFAULT_R_MAX = 1e3
DEFAULT_POINTS = 4096
DEFAULT_FIT_WINDOW = (1e2, 1e4)


def sphere_surface(n: float) -> float:
    """Surface measure of the unit sphere in dimension n (real n >= 1)."""
    try:
        return 2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise DomainError(f"the unit-sphere area overflows in dimension {n}") from None


def log_radial_grid(points: int = DEFAULT_POINTS) -> np.ndarray:
    return np.geomspace(DEFAULT_R_MIN, DEFAULT_R_MAX, points)


@dataclass(frozen=True)
class RadialProfile:
    """Real sampled radial spectral function r -> v_hat(r) in dimension ``dim``."""

    dim: float
    r: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1 or r.size < 8:
            raise ContractError("radial grid must be a 1-d array with >= 8 points")
        if r[0] <= 0 or np.any(np.diff(r) <= 0):
            raise ContractError("radial grid must be strictly increasing with r[0] > 0")
        if np.iscomplexobj(self.values):
            raise ContractError("profile values are a real radial transform, got complex")
        values = np.asarray(self.values, dtype=float)
        if values.shape != r.shape:
            raise ContractError(
                f"values shape {values.shape} does not match grid {r.shape}")
        if not np.isfinite(values).all():
            raise ContractError("profile values must be finite")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", values)


def power_law_profile(dim: float, exponent: float,
                      r: np.ndarray | None = None) -> RadialProfile:
    """v_hat(r) = r^-exponent on (0, 1], zero beyond."""
    r = log_radial_grid() if r is None else np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        values = np.where(r <= 1.0, r ** (-exponent), 0.0)
    return RadialProfile(dim, r, values)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _plancherel(values: np.ndarray, weight: np.ndarray, steps: np.ndarray,
                sigma: float) -> float:
    """norm_radial given r^{2s+n} (the weight on d log r), the steps of log r and
    sigma per curve; the sum is np.trapezoid's, operation for operation."""
    g = np.square(values)
    g *= weight
    for where, edge, inner in (("inner", g[0], g[2]), ("outer", g[-1], g[-3])):
        if edge > inner and edge > 1e-12 * g.max():
            raise AccuracyError(
                f"norm integrand grows toward the {where} end of the radial grid "
                f"(edge {edge:.3e} vs interior {inner:.3e}); the integral is not "
                "captured by the represented range")
    trapezoids = g[1:] + g[:-1]  # steps * (g[1:] + g[:-1]) / 2, in place
    trapezoids *= steps
    trapezoids *= 0.5
    total = float(trapezoids.sum())
    if not math.isfinite(total):
        raise ContractError("norm integrand |v_hat|^2 r^(2s+n) is not finite: "
                            "the data, their flow or its square overflow")
    return math.sqrt(sigma * total)


def _measure(profile: RadialProfile, s: float) -> tuple:
    """``_plancherel``'s r^{2s+n}, steps of log r and sigma; DomainError on overflow."""
    with np.errstate(over="ignore"):
        weight = profile.r ** (2.0 * s + profile.dim)
    if not (math.isfinite(weight[0]) and math.isfinite(weight[-1])):
        raise DomainError(f"weight r^(2s+n) overflows at s = {s}, n = {profile.dim}")
    return weight, np.diff(np.log(profile.r)), sphere_surface(profile.dim)


def norm_radial(profile: RadialProfile, s: float) -> float:
    """Radial Plancherel norm of order s; rejects divergent integrands."""
    with np.errstate(over="ignore"):
        return _plancherel(profile.values, *_measure(profile, s))


# ---------------------------------------------------------------------------
# evolutions
# ---------------------------------------------------------------------------

# Process-wide memo of the multipliers k00(t, r) and e^{-r^2 t} on one radial
# grid, keyed by name and the exact float t: every rate suite samples the same
# times on the same grid.  Least recently used arrays go first past the budget
# (256 at DEFAULT_POINTS, so a diffusion suite's 2 x 96 fit); all read-only.
_MEMO_BUDGET_BYTES = 8 * 1024 * 1024
_memo_grid = np.empty(0)
_memo: dict[tuple[str, float], np.ndarray] = {}


def _multiplier(name: str, t: float, r: np.ndarray) -> np.ndarray:
    multiplier = _memo.pop((name, t), None)
    if multiplier is None:
        multiplier = heat_multiplier(t, r) if name == "heat" else \
            kernel_entries(t, r)[0]
        multiplier.flags.writeable = False
    _memo[name, t] = multiplier
    while len(_memo) * multiplier.nbytes > _MEMO_BUDGET_BYTES:
        del _memo[next(iter(_memo))]
    return multiplier


def _curve(kind: str, v0: RadialProfile, times: np.ndarray, s: float) -> np.ndarray:
    """Order-s norms at ``times`` of the linear flow ``kind`` of the data v0
    with zero velocity data."""
    global _memo_grid
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not (np.diff(times) > 0).all():
        raise ContractError("times must be a 1-d strictly increasing array")
    weight, steps, sigma = _measure(v0, s)
    if not np.array_equal(_memo_grid, v0.r):
        _memo.clear()
        _memo_grid = v0.r.copy()
    norms = np.empty_like(times)
    # an overflow gives a non-finite sum, which _plancherel rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(times.tolist()):
            if kind != "heat":
                flow = _multiplier("k00", t, v0.r) * v0.values
            if kind != "damped":
                heat_flow = _multiplier("heat", t, v0.r) * v0.values
                flow = heat_flow if kind == "heat" else flow - heat_flow
            norms[i] = _plancherel(flow, weight, steps, sigma)
    return norms


def evolve_damped(v0: RadialProfile, times: np.ndarray, s: float) -> np.ndarray:
    """Damped-wave norm history of zero velocity data: v_hat(t) = k00(t, r) v0."""
    return _curve("damped", v0, times, s)


def evolve_heat(v0: RadialProfile, times: np.ndarray, s: float) -> np.ndarray:
    """Heat-flow norm history: w_hat(t) = e^{-r^2 t} v0."""
    return _curve("heat", v0, times, s)


def diffusion_difference(v0: RadialProfile, times: np.ndarray,
                         s: float) -> np.ndarray:
    """Norm history of the damped-wave/heat difference (the parabolic gain)."""
    return _curve("difference", v0, times, s)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def fit_rate(times: np.ndarray, norms: np.ndarray,
             window: tuple[float, float] = DEFAULT_FIT_WINDOW) -> dict:
    """Fit log(norm) ~ slope * log(1 + t) + intercept over the window; returns
    {slope, intercept, t_lo, t_hi, residual}, the residual the RMS misfit."""
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if times.shape != norms.shape:
        raise ContractError("times and norms must have matching shapes")
    t_lo, t_hi = window
    if t_lo >= t_hi:
        raise DomainError(f"fit window must satisfy t_lo < t_hi, got {window}")
    mask = (times >= t_lo) & (times <= t_hi)
    count = int(np.count_nonzero(mask))
    if count < 8:
        raise InsufficientDataError(
            f"fit window [{t_lo}, {t_hi}] contains {count} samples; need >= 8")
    norms = norms[mask]
    if np.any(norms <= 0):
        raise DomainError("rate fit requires strictly positive norms in the window")
    x = np.log1p(times[mask])
    y = np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return {"slope": float(slope), "intercept": float(intercept),
            "t_lo": float(t_lo), "t_hi": float(t_hi), "residual": residual}
