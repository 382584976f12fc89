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
field is real by construction and the recorded norms carry the Hermitian
multiplicity weights.  Fundamental solutions are never materialized in
physical space; propagation is multiplier application, which is their
exact action.

Blow-up has no finite criterion, so a max-amplitude threshold theta stands
in for norm divergence; near genuine blow-up the measured time is
insensitive to theta over many orders of magnitude.  One scale lambda
(``_STEP_SCALE``) drives the step policy: steps halve whenever the amplitude
grows by more than 2^lambda in one step, and double, up to lambda t/16, on
the first quiet step once _REGROWTH_STREAK steps were accepted since the
last halving or doubling.  The lifespan's step bias is second order in lambda.
Running out of step size (StepUnderflow) is reported separately but has a
finite lifespan, so lifespan sweeps count it as blow-up: gradient
steepening beyond resolvable steps is numerically indistinguishable from
divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, DomainError
from .fields import (GridSpec, SpectrumField, _forward_coeffs, _irfftn, _rfftn,
                     _unitary_scales, dealias_mask, hermitian_weight, norm_weights,
                     wavenumber_magnitude, weighted_norms)
from .propagators import forcing_weights, kernel_entries

STATUS_COMPLETED = "Completed"
STATUS_BLOW_UP = "BlowUp"
STATUS_STEP_UNDERFLOW = "StepUnderflow"

LIFESPAN_INFINITE = math.inf

_HISTORY_SAMPLES = 96
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
# algebraic decay is observable to t ~ 1e3 before the box cuts it off.
DEFAULT_GRIDS = {
    1: GridSpec(dim=1, length=800.0 * math.pi, points=16384),
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
    theta: float = 1e8

    def __post_init__(self):
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
    """Outcome of one evolution: status, norm history, weighted sup."""

    status: str
    blow_up_time: float | None
    times: np.ndarray
    l2: np.ndarray
    hs: np.ndarray
    hneg: np.ndarray
    maxabs: np.ndarray
    weighted_sup: float

    @property
    def lifespan(self) -> float:
        if self.status == STATUS_COMPLETED:
            return LIFESPAN_INFINITE
        return float(self.blow_up_time)


def nonlinearity(u: np.ndarray, p: float) -> np.ndarray:
    """Pointwise forcing |u|^p; propagates NaN so callers can flag divergence."""
    return np.abs(u) ** p


@lru_cache(maxsize=8)
def _folds(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The dealias mask times the forward and the inverse unitary scale.

    Steps use the unnormalized transforms; the first fold takes raw
    ``_rfftn`` output to masked unitary coefficients and rides on the
    forcing weights, the second takes unitary coefficients to the masked
    input of the raw ``_irfftn``.  So no step rescales or masks a whole
    array, and the linear terms stay unmasked.
    """
    mask = dealias_mask(grid)
    forward_scale, inverse_scale = _unitary_scales(grid)
    return mask * forward_scale, mask * inverse_scale


@lru_cache(maxsize=_CACHED_STEPS)
def _entries(grid: GridSpec, h: float) -> tuple:
    """Linear entries k00..k11 at h, then the forcing weights I0, I1, J0, J1,
    each folded with mask and scale."""
    kmag = wavenumber_magnitude(grid)
    linear = kernel_entries(h, kmag)
    weights = forcing_weights(h, kmag, entries=linear)
    forcing_fold = _folds(grid)[0]
    return linear + tuple(w * forcing_fold for w in weights)


def _physical(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dealiased physical samples of unitary coefficients."""
    return _irfftn(coeffs * _folds(grid)[1], grid)


def _history_weights(grid: GridSpec, s: float, gamma: float) -> tuple:
    """Weights of the recorded L2, H^s and H^-gamma norms."""
    return hermitian_weight(grid), norm_weights(grid, s), norm_weights(grid, -gamma)


def _step_arrays(u: np.ndarray, ut: np.ndarray, u_phys: np.ndarray, h: float,
                 p: float, grid: GridSpec):
    """One ETD2 step on raw coefficient arrays.

    ``u_phys`` must be the dealiased physical field of ``u``.  Returns the
    new coefficient pair plus the new physical field and its max amplitude.
    """
    k00, k01, k10, k11, i0, i1, j0, j1 = _entries(grid, h)
    forcing0 = _rfftn(nonlinearity(u_phys, p), grid)
    predictor = k00 * u + k01 * ut + i0 * forcing0
    jump = _rfftn(nonlinearity(_physical(predictor, grid), p), grid) - forcing0
    u_new = predictor + i1 * jump
    ut_new = k10 * u + k11 * ut + j0 * forcing0 + j1 * jump
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
        s: float, gamma: float, observer=None) -> RunResult:
    """March the semilinear problem with data (eps*u0, eps*u1) to t_end.

    Records a history row (t, L2, H^s, H^-gamma, max|u|) at t = 0, after each
    accepted step that passes one of the 96 geometric targets in
    [min(dt, t_end), t_end] (at most one row per step), and at the final time
    whatever the status: t_end, or the blow-up time, which is the last
    accepted step for BlowUp and StepUnderflow alike; max|u| is the step's
    own reduction.  The weighted sup (1+t)^{gamma/2} |u|_{L2} +
    (1+t)^{(s+gamma)/2} |u|_{Hs} is the largest over the rows.  The
    negative-order column is computed over k != 0: the forcing injects mean,
    and on the torus the single zero mode is excluded rather than letting it
    mask the decaying part.

    ``observer(t, u_phys)``, when given, is called at t = 0 and after every
    accepted step with the current physical field (read-only view).
    """
    if not (0 < s <= 1):
        raise DomainError(f"regularity s must lie in (0, 1], got {s}")
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if u0.shape != grid.shape or u1.shape != grid.shape:
        raise ContractError("initial data shape does not match the grid")

    weights = _history_weights(grid, s, gamma)
    u = _forward_coeffs(config.eps * u0, grid)
    ut = _forward_coeffs(config.eps * u1, grid)
    u_phys = _physical(u, grid)

    rows = []

    def record(t: float, coeffs: np.ndarray, peak: float):
        if not rows or t > rows[-1][0]:
            rows.append((t, *weighted_norms(coeffs, weights), peak))

    max_cur = float(np.max(np.abs(u_phys)))
    record(0.0, u, max_cur)
    if observer is not None:
        observer(0.0, u_phys)
    sample_times = np.geomspace(min(config.dt, config.t_end), config.t_end,
                                _HISTORY_SAMPLES)
    samples_passed = 0

    growth, quiet_ratio, cap_fraction = (2.0 ** _STEP_SCALE, 1.02 ** _STEP_SCALE,
                                         _STEP_SCALE / 16.0)
    t = 0.0
    h = config.dt
    h_min = config.dt * _DT_MIN_RATIO
    status = STATUS_COMPLETED
    streak = 0

    while t < config.t_end * (1.0 - 1e-12):
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
        u, ut, u_phys, max_cur = u_new, ut_new, u_new_phys, max_new
        if observer is not None:
            observer(t, u_phys)
        streak += 1
        h_cap = max(config.dt, t * cap_fraction)
        if streak >= _REGROWTH_STREAK and h < h_cap and quiet:
            h = min(2.0 * h, h_cap)
            streak = 0

        if max_cur > config.theta:
            status = STATUS_BLOW_UP
            break

        passed = np.searchsorted(sample_times, t, side="right")
        if passed > samples_passed:
            record(t, u, max_cur)
            samples_passed = passed

    completed = status == STATUS_COMPLETED
    record(config.t_end if completed else t, u, max_cur)
    blow_up_time = None if completed else t

    weighted_sup = max(0.0, *((1.0 + t) ** (gamma / 2.0) * l2
                              + (1.0 + t) ** ((s + gamma) / 2.0) * hs
                              for t, l2, hs, _, _ in rows))
    times, l2, hs, hneg, maxabs = map(np.asarray, zip(*rows))
    return RunResult(status=status, blow_up_time=blow_up_time, times=times, l2=l2,
                     hs=hs, hneg=hneg, maxabs=maxabs, weighted_sup=weighted_sup)


def linear_reference(u0: np.ndarray, u1: np.ndarray, grid: GridSpec, eps: float,
                     times: np.ndarray, s: float, gamma: float):
    """Norm history of the linear flow at the given times (same norms as run).

    Returns arrays (l2, hs, hneg) for the data pair (eps*u0, eps*u1).
    """
    weights = _history_weights(grid, s, gamma)
    kmag = wavenumber_magnitude(grid)
    u = _forward_coeffs(eps * np.asarray(u0, dtype=float), grid)
    ut = _forward_coeffs(eps * np.asarray(u1, dtype=float), grid)
    rows = []
    for t in np.asarray(times, dtype=float).tolist():
        k00, k01, _, _ = kernel_entries(t, kmag)
        rows.append(weighted_norms(k00 * u + k01 * ut, weights))
    return tuple(np.asarray(rows, dtype=float).reshape(-1, 3).T.copy())
