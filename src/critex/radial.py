"""Arbitrary-dimension linear experiments on radial spectral profiles.

A radial profile samples v_hat(r) on the log-spaced grid of radial
frequencies that its sample count fixes, ``log_radial_grid(values.size)``.
Norms come from the radial Plancherel identity

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
from functools import lru_cache

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
    """The ``points`` log-spaced radii in [r_min, r_max]: one read-only array
    per size, shared by every profile of that size."""
    return _log_radial_grid(points)


@lru_cache
def _log_radial_grid(points: int) -> np.ndarray:
    r = np.geomspace(DEFAULT_R_MIN, DEFAULT_R_MAX, points)
    r.flags.writeable = False
    return r


@dataclass(frozen=True)
class RadialProfile:
    """Real radial spectral function r -> v_hat(r) in dimension ``dim``,
    sampled on ``log_radial_grid(values.size)``."""

    dim: float
    values: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")
        if np.iscomplexobj(self.values):
            raise ContractError("profile values are a real radial transform, got complex")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 8:
            raise ContractError("profile values must be a 1-d array of >= 8 samples")
        if not np.isfinite(values).all():
            raise ContractError("profile values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def r(self) -> np.ndarray:
        return log_radial_grid(self.values.size)


def power_law_profile(dim: float, exponent: float) -> RadialProfile:
    """v_hat(r) = r^-exponent on (0, 1], zero beyond."""
    r = log_radial_grid()
    with np.errstate(over="ignore"):
        values = np.where(r <= 1.0, r ** (-exponent), 0.0)
    return RadialProfile(dim, values)


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

# Every rate suite samples the same times on the same grid, so the multipliers
# k00(t, r) and e^{-r^2 t} are kept per (name, exact float t, grid size), read-only.
# 256 arrays (8 MiB at DEFAULT_POINTS) hold a diffusion suite's 2 x 96.
@lru_cache(maxsize=256)
def _multiplier(name: str, t: float, points: int) -> np.ndarray:
    r = log_radial_grid(points)
    multiplier = heat_multiplier(t, r) if name == "heat" else kernel_entries(t, r)[0]
    multiplier.flags.writeable = False
    return multiplier


def _curve(kind: str, v0: RadialProfile, times: np.ndarray, s: float) -> np.ndarray:
    """Order-s norms at ``times`` of the linear flow ``kind`` of the data v0
    with zero velocity data."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not (np.diff(times) > 0).all():
        raise ContractError("times must be a 1-d strictly increasing array")
    weight, steps, sigma = _measure(v0, s)
    points = v0.values.size
    norms = np.empty_like(times)
    # an overflow gives a non-finite sum, which _plancherel rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(times.tolist()):
            if kind != "heat":
                flow = _multiplier("k00", t, points) * v0.values
            if kind != "damped":
                heat_flow = _multiplier("heat", t, points) * v0.values
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

def _fit_mask(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """The times inside the window; InsufficientDataError below 8 of them."""
    mask = (times >= window[0]) & (times <= window[1])
    if (count := int(np.count_nonzero(mask))) < 8:
        raise InsufficientDataError(f"fit window [{window[0]}, {window[1]}] "
                                    f"contains {count} samples; need >= 8")
    return mask


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
    mask = _fit_mask(times, window)
    norms = norms[mask]
    if np.any(norms <= 0):
        raise DomainError("rate fit requires strictly positive norms in the window")
    x = np.log1p(times[mask])
    y = np.log(norms)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return {"slope": float(slope), "intercept": float(intercept),
            "t_lo": float(t_lo), "t_hi": float(t_hi), "residual": residual}
