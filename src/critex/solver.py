"""Mild-solution time integrator for u_tt - Delta u + u_t = |u|^p.

Each step propagates the spectral pair (u_hat, ut_hat) with the exact
linear fundamental matrix and integrates the forcing exactly in time
against its linear interpolant between the two ends of the step (ETD2,
exponential time differencing of second order):

    N0   = transform(|u(t)|^p)
    pred = k00 u + k01 u_t + I0 N0
    dN   = transform(|pred|^p) - N0
    u    <- pred + I1 dN
    u_t  <- k10 u + k11 u_t + J0 N0 + J1 dN

with the weights I0, I1, J0, J1 of ``propagators.forcing_weights``.  The
weights are exact for any step, including steps far longer than the unit
damping time, so the scheme is globally second order and the step length
is limited by how fast the forcing changes, not by the kernel.  Spectra are
stored in the real half-spectrum layout of ``fields``, so every physical
field is real by construction.  The forcing lives on the band that the
two-thirds dealiasing rule keeps along the last axis, modes 0..K-1 with
K = N//3 + 1: its transforms, weights and increments are band-shaped and
add into ``[..., :K]``, and the physical field is read from the band
alone, while the linear terms propagate the whole layout.  Fundamental
solutions are never materialized in physical space; propagation is
multiplier application, which is their exact action.

Near blow-up the peak follows the wave ODE y'' = y^p (the forcing outgrows
the damping and the Laplacian), whose remaining time from y = u with
y' = sqrt(2 u^(p+1)/(p+1)) is ``tail_time(u, p)``.  So theta is the
max-amplitude level where that ODE takes over: a run stops at the first
accepted step whose max|u| exceeds theta and reports the lifespan
T = t + tail_time(max|u|, p), instead of marching the last stretch on a
grid that no longer resolves the peak.  One scale lambda
(``_STEP_SCALE``) drives the step policy: steps halve whenever the amplitude
grows by more than 2^lambda in one step, and double, up to lambda t/16, on
the first quiet step once _REGROWTH_STREAK steps were accepted since the
last halving or doubling.  The lifespan's step bias is second order in lambda.
Running out of step size (StepUnderflow) is reported separately but has a
finite lifespan, so lifespan sweeps count it as blow-up: gradient
steepening beyond resolvable steps is numerically indistinguishable from
divergence.

A run returns its outcome and its step trace, so the approach to blow-up
is in the trace; the norms are an observer's, ``NormHistory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, DomainError
from .fields import (GridSpec, SpectrumField, _forward_coeffs, _unitary_scales,
                     dealias_mask, hermitian_weight, norm_weights,
                     wavenumber_magnitude, weighted_norms)
from .propagators import forcing_weights, kernel_entries

STATUS_COMPLETED = "Completed"
STATUS_BLOW_UP = "BlowUp"
STATUS_STEP_UNDERFLOW = "StepUnderflow"

# Step policy, scaled by lambda = _STEP_SCALE (read by each run): halve when
# max|u| grows by more than 2^lambda in one step.  Double, up to lambda t/16,
# on the first accepted step that grew by at most 1.02^lambda once
# _REGROWTH_STREAK steps have been accepted since the last halving or
# doubling; a step that grew more does not restart that count.  Past the
# transient the dynamics slow down with t while the propagation and the
# forcing weights stay exact at any step, so long diffusive runs cost
# O(log t) steps.  Halving lambda cuts the lifespan's step bias about
# fourfold (tests/test_solver.py::TestLifespanAccuracy).
# StepUnderflow is reported below dt * _DT_MIN_RATIO.
_STEP_SCALE = 1.0
_REGROWTH_STREAK = 4
_DT_MIN_RATIO = 1e-10
# Step sizes whose multipliers _entries keeps, least recently used out
# first: the step control mostly repeats the last size, or returns to the
# one before a halving.
_CACHED_STEPS = 2

# Default desk-scale grids: the lowest mode must stay small enough that
# algebraic decay is observable to t ~ 1e3 before the box cuts it off.  The
# critical-tail data are analytic, so lifespans converge spectrally in N:
# 8192 points is the coarsest 1-D grid that keeps T at eps = 7e-3 within 1e-5
# of a grid twice as fine (tests/test_solver.py::TestLifespanAccuracy).
DEFAULT_GRIDS = {
    1: GridSpec(dim=1, length=800.0 * math.pi, points=8192),
    2: GridSpec(dim=2, length=200.0 * math.pi, points=1024),
}


@dataclass(frozen=True)
class State:
    """Spectral (u, u_t) pair at time t."""

    u_hat: SpectrumField
    ut_hat: SpectrumField
    t: float

    def __post_init__(self):
        if self.u_hat.grid != self.ut_hat.grid:
            raise ContractError("state fields must share a grid")
        if self.t < 0:
            raise DomainError(f"state time must be nonnegative, got {self.t}")

    @property
    def grid(self) -> GridSpec:
        return self.u_hat.grid


@dataclass(frozen=True)
class SolverConfig:
    p: float
    eps: float
    dt: float
    t_end: float
    theta: float = 1e2

    def __post_init__(self):
        for name, value in vars(self).items():  # NaN passes every check below
            if not math.isfinite(value):
                raise DomainError(f"solver setting {name} must be finite, got {value}")
        if self.p <= 1:
            raise DomainError(f"exponent p must exceed 1, got {self.p}")
        if self.eps < 0:
            raise DomainError(f"data size eps must be nonnegative, got {self.eps}")
        if self.dt <= 0:
            raise DomainError(f"initial step must be positive, got {self.dt}")
        if self.t_end <= 0:
            raise DomainError(f"horizon must be positive, got {self.t_end}")
        if self.theta <= 1:
            raise DomainError(f"blow-up threshold must exceed 1, got {self.theta}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one evolution: status, lifespan (inf when Completed) and
    the step trace."""

    status: str
    lifespan: float
    times: np.ndarray
    maxabs: np.ndarray


class NormHistory:
    """Observer that records rows (t, L2, H^s, H^-gamma) from the coefficients
    it sees.  H^-gamma sums over k != 0: the forcing injects mean, and on the
    torus the zero mode would mask the decaying part."""

    def __init__(self, grid: GridSpec, s: float, gamma: float):
        if not (0 < s <= 1):
            raise DomainError(f"regularity s must lie in (0, 1], got {s}")
        if not 0 < gamma < math.inf:  # NaN fails it too
            raise DomainError(f"gamma must be positive and finite, got {gamma}")
        self.s, self.gamma = s, gamma
        self.weights = (hermitian_weight(grid), norm_weights(grid, s),
                        norm_weights(grid, -gamma))
        self.rows = []

    def __call__(self, t: float, fields: tuple) -> None:
        self.rows.append((t, *weighted_norms(fields[0], self.weights)))

    def weighted_sup(self) -> float:
        """Largest (1+t)^{gamma/2} |u|_{L2} + (1+t)^{(s+gamma)/2} |u|_{Hs} of a row."""
        try:
            return max(0.0, *((1.0 + t) ** (self.gamma / 2.0) * l2
                              + (1.0 + t) ** ((self.s + self.gamma) / 2.0) * hs
                              for t, l2, hs, _ in self.rows))
        except OverflowError:
            raise DomainError(f"weighted sup overflows at gamma {self.gamma}") from None


def tail_time(peak: float, p: float) -> float:
    """Remaining time to blow-up of y'' = y^p from y = peak on its zero-energy
    orbit y' = sqrt(2 y^(p+1)/(p+1)): sqrt((p+1)/2) (2/(p-1)) peak^(-(p-1)/2),
    which is sqrt(6/peak) at p = 2."""
    return math.sqrt((p + 1.0) / 2.0) * 2.0 / (p - 1.0) * peak ** (-(p - 1.0) / 2.0)


def nonlinearity(u: np.ndarray, p: float) -> np.ndarray:
    """Pointwise forcing |u|^p; propagates NaN so callers can flag divergence."""
    return np.abs(u) ** p


def _band_width(grid: GridSpec) -> int:
    """K = N//3 + 1: the last-axis modes 0..K-1 that the two-thirds rule keeps."""
    return grid.points // 3 + 1


@lru_cache(maxsize=8)
def _folds(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The dealias mask times the forward and the inverse unitary scale, on
    the forcing band, shape (N,)*(dim-1) + (K,).

    Steps use the unnormalized transforms; the first fold takes raw
    ``_band_forward`` output to masked unitary coefficients and rides on the
    forcing weights, the second takes unitary coefficients to the masked
    input of the raw inverse in ``_physical``.  So no step rescales or masks
    a whole array, and the linear terms stay on the full half layout.
    """
    band = dealias_mask(grid)[..., :_band_width(grid)]
    forward_scale, inverse_scale = _unitary_scales(grid)
    return band * forward_scale, band * inverse_scale


@lru_cache(maxsize=8)
def _distinct_radii(grid: GridSpec) -> tuple:
    """The distinct values of |k| and the index map that spreads them back
    over the half layout, then the index of those the forcing band holds and
    the map that spreads them over the band.  Where no radius repeats, as on
    every 1-D grid, that is |k| itself with no maps, and the band is a slice.
    At 256^2, 6,843 distinct radii stand for 33,024 modes, and 5,980 of them
    for the band's 22,016."""
    kmag = wavenumber_magnitude(grid)
    width = _band_width(grid)
    radii, index = np.unique(kmag, return_inverse=True)
    if radii.size == kmag.size:
        return kmag, None, np.s_[..., :width], None
    index = index.reshape(kmag.shape)
    in_band = index[..., :width]
    band, band_index = np.unique(in_band, return_inverse=True)
    return radii, index, band, band_index.reshape(in_band.shape)


@lru_cache(maxsize=_CACHED_STEPS)
def _entries(grid: GridSpec, h: float) -> tuple:
    """Linear entries k00..k11 at h on the half layout, then the forcing
    weights I0, I1, J0, J1 on the band, each folded with mask and scale.
    Each entry is a function of |k|, so it is formed once per distinct
    radius and then spread over its layout; the forcing weights only for
    the radii that the band holds."""
    radii, index, band, band_index = _distinct_radii(grid)
    linear = kernel_entries(h, radii)
    forcing = forcing_weights(h, radii[band], entries=tuple(e[band] for e in linear))
    if index is not None:
        linear = tuple(entry[index] for entry in linear)
        forcing = tuple(weight[band_index] for weight in forcing)
    forcing_fold = _folds(grid)[0]
    return linear + tuple(w * forcing_fold for w in forcing)


def _band_forward(samples: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Unnormalized forward transform of real samples onto the forcing band:
    ``_rfftn(samples, grid)[..., :K]`` bit for bit, in rfftn's axis order,
    with no leading-axis passes over the dropped last-axis modes."""
    coeffs = np.fft.rfft(samples, axis=-1)[..., :_band_width(grid)]
    for axis in reversed(grid.axes[:-1]):
        coeffs = np.fft.fft(coeffs, axis=axis)
    return coeffs


def _physical(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dealiased physical samples of unitary coefficients on the half layout.

    Only the band is read; irfft zero-pads the dropped last-axis modes, as
    the mask did, so this is the masked ``_irfftn`` bit for bit.
    """
    band = coeffs[..., :_band_width(grid)] * _folds(grid)[1]
    for axis in grid.axes[:-1]:
        band = np.fft.ifft(band, axis=axis, norm="forward")
    return np.fft.irfft(band, n=grid.points, axis=-1, norm="forward")


def _step_arrays(u: np.ndarray, ut: np.ndarray, u_phys: np.ndarray, h: float,
                 p: float, grid: GridSpec):
    """One ETD2 step on raw coefficient arrays.

    ``u_phys`` must be the dealiased physical field of ``u``.  Returns the
    new coefficient pair plus the new physical field and its max amplitude.
    """
    k00, k01, k10, k11, i0, i1, j0, j1 = _entries(grid, h)
    band = np.s_[..., :_band_width(grid)]
    forcing0 = _band_forward(nonlinearity(u_phys, p), grid)
    u_new = k00 * u + k01 * ut
    u_new[band] += i0 * forcing0  # the predictor
    jump = _band_forward(nonlinearity(_physical(u_new, grid), p), grid) - forcing0
    u_new[band] += i1 * jump
    ut_new = k10 * u + k11 * ut
    ut_new[band] += j0 * forcing0
    ut_new[band] += j1 * jump
    u_new_phys = _physical(u_new, grid)
    return u_new, ut_new, u_new_phys, float(np.max(np.abs(u_new_phys)))


def step(state: State, h: float, config: SolverConfig) -> State:
    """Advance a state by one step of size h, with no step control.

    Raises ``ContractError`` when the step leaves non-finite coefficients.
    """
    if h <= 0:
        raise DomainError(f"step size must be positive, got {h}")
    grid = state.grid
    u = state.u_hat.coeffs
    u_new, ut_new, _, _ = _step_arrays(u, state.ut_hat.coeffs, _physical(u, grid),
                                       h, config.p, grid)
    return State(SpectrumField(grid, u_new), SpectrumField(grid, ut_new),
                 state.t + h)


def run(config: SolverConfig, u0: np.ndarray, u1: np.ndarray, grid: GridSpec,
        observer=None) -> RunResult:
    """March the semilinear problem with data (eps*u0, eps*u1) to t_end.

    Records a trace row (t, max|u|) at t = 0 and after every accepted step,
    the last one included: the step that ends at t_end, the first past
    theta, or the last before StepUnderflow.  So the step sizes are
    np.diff(times), and the rows grow with the accepted steps, O(log t) for
    a run that completes; max|u| is the step's own reduction.  The run stops
    as BlowUp at the first accepted step whose max|u| exceeds theta, and its
    lifespan is that step's time plus ``tail_time(max|u|, p)``; a
    StepUnderflow run's lifespan is its last accepted step's time.

    ``observer(t, (u_hat, u_phys))``, when given, is called at each row's
    time with the unitary half-spectrum coefficients and the dealiased
    physical field, both read-only.
    """
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if u0.shape != grid.shape or u1.shape != grid.shape:
        raise ContractError("initial data shape does not match the grid")

    u = _forward_coeffs(config.eps * u0, grid)
    ut = _forward_coeffs(config.eps * u1, grid)
    u_phys = _physical(u, grid)

    max_cur = float(np.max(np.abs(u_phys)))
    rows = [(0.0, max_cur)]
    if observer is not None:
        u.flags.writeable = u_phys.flags.writeable = False
        observer(0.0, (u, u_phys))

    growth, quiet_ratio, cap_fraction = (2.0 ** _STEP_SCALE, 1.02 ** _STEP_SCALE,
                                         _STEP_SCALE / 16.0)
    t = 0.0
    h = config.dt
    h_min = config.dt * _DT_MIN_RATIO
    status = STATUS_COMPLETED
    streak = 0
    tail = 0.0

    while t < config.t_end:
        h_try = min(h, config.t_end - t)
        u_new, ut_new, u_new_phys, max_new = _step_arrays(
            u, ut, u_phys, h_try, config.p, grid)

        if not (math.isfinite(max_new) and np.isfinite(ut_new).all()) \
                or (max_cur > 0 and max_new > growth * max_cur):
            h = 0.5 * h_try
            streak = 0
            if h < h_min:
                status = STATUS_STEP_UNDERFLOW
                break
            continue

        quiet = max_cur == 0.0 or max_new <= quiet_ratio * max_cur
        t += h_try
        if t >= config.t_end * (1.0 - 1e-12):  # steps that sum to t_end round short
            t = config.t_end
        u, ut, u_phys, max_cur = u_new, ut_new, u_new_phys, max_new
        rows.append((t, max_cur))
        if observer is not None:
            u.flags.writeable = u_phys.flags.writeable = False
            observer(t, (u, u_phys))
        streak += 1
        h_cap = max(config.dt, t * cap_fraction)
        if streak >= _REGROWTH_STREAK and h < h_cap and quiet:
            h = min(2.0 * h, h_cap)
            streak = 0

        if max_cur > config.theta:
            status = STATUS_BLOW_UP
            tail = tail_time(max_cur, config.p)
            break

    lifespan = math.inf if status == STATUS_COMPLETED else t + tail
    times, maxabs = map(np.asarray, zip(*rows))
    return RunResult(status=status, lifespan=lifespan, times=times, maxabs=maxabs)


def linear_reference(u0: np.ndarray, u1: np.ndarray, grid: GridSpec, eps: float,
                     times: np.ndarray, observer) -> None:
    """Call ``observer(t, (u_hat, u_phys))`` as ``run`` does, with fresh arrays
    of the linear flow of the data (eps*u0, eps*u1) at each of ``times``."""
    kmag = wavenumber_magnitude(grid)
    u = _forward_coeffs(eps * np.asarray(u0, dtype=float), grid)
    ut = _forward_coeffs(eps * np.asarray(u1, dtype=float), grid)
    for t in np.asarray(times, dtype=float).tolist():
        k00, k01, _, _ = kernel_entries(t, kmag)
        flow = k00 * u + k01 * ut
        observer(t, (flow, _physical(flow, grid)))
