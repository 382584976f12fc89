"""Mild-solution time integrator for u_tt - Delta u + u_t = |u|^p.

Each step propagates the spectral pair (u_hat, ut_hat) with the exact
linear fundamental matrix and adds the forcing through a
predictor-corrector quadrature of the variation-of-constants integral:

    N0   = transform(|u(t)|^p)
    pred = linear(h) . state + h * (k01(h), k11(h)) * N0
    Nh   = transform(|pred|^p)
    u    <- linear part + (h/2) * k01(h) * N0
    u_t  <- linear part + (h/2) * (k11(h) * N0 + Nh)

The forcing kernel vanishes at zero time lag, so the trapezoid endpoint at
the new time drops out of the u row and the corrector stays explicit while
the scheme is globally second order.  Spectra are stored in the real
half-spectrum layout of ``fields``, so every physical field is real by
construction and the recorded norms carry the Hermitian multiplicity
weights.  Fundamental solutions are never
materialized in physical space; propagation is multiplier application,
which is their exact action.

Blow-up has no finite criterion, so a max-amplitude threshold theta stands
in for norm divergence; near genuine blow-up the measured time is
insensitive to theta over many orders of magnitude.  Steps halve whenever
the amplitude grows faster than ``growth_factor`` per step; running out of
step size (StepUnderflow) is reported separately but counted as blow-up by
lifespan sweeps, since gradient steepening beyond resolvable steps is
numerically indistinguishable from divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ContractError, DomainError
from .fields import (GridSpec, SpectrumField, _forward_coeffs, _irfftn, _rfftn,
                     _unitary_scales, dealias_mask, hermitian_weight,
                     wavenumber_magnitude)
from .propagators import kernel_entries

STATUS_COMPLETED = "Completed"
STATUS_BLOW_UP = "BlowUp"
STATUS_STEP_UNDERFLOW = "StepUnderflow"

LIFESPAN_INFINITE = math.inf

_HISTORY_SAMPLES = 96
_REGROWTH_STREAK = 4
# Past the transient the dynamics slow down with t while the linear
# propagation stays exact at any step, so the step may grow to t/64 once
# the amplitude is quiet; long diffusive runs then cost O(log t) steps.
_STEP_CAP_FRACTION = 1.0 / 64.0
_QUIET_AMPLITUDE_RATIO = 1.02

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
    dealias: bool = True
    theta: float = 1e8
    growth_factor: float = 2.0
    dt_min_ratio: float = 1e-10

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
        if self.growth_factor <= 1:
            raise DomainError(
                f"growth factor must exceed 1, got {self.growth_factor}")
        if not (0 < self.dt_min_ratio < 1):
            raise DomainError(
                f"dt_min_ratio must lie in (0, 1), got {self.dt_min_ratio}")


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
    s: float
    gamma: float

    @property
    def lifespan(self) -> float:
        if self.status == STATUS_COMPLETED:
            return LIFESPAN_INFINITE
        return float(self.blow_up_time)

    def history_rows(self):
        for row in zip(self.times, self.l2, self.hs, self.hneg, self.maxabs):
            yield row


def nonlinearity(u: np.ndarray, p: float) -> np.ndarray:
    """Pointwise forcing |u|^p; propagates NaN so callers can flag divergence."""
    return np.abs(u) ** p


class _Workspace:
    """Cached half-layout arrays and per-step-size kernel products for one grid.

    Steps use the unnormalized transforms; the unitary scales and the
    dealias mask ride on cached multipliers, so no step rescales or masks a
    whole array.  The linear terms stay unmasked.
    """

    def __init__(self, grid: GridSpec, dealias: bool):
        self.grid = grid
        self.kmag = wavenumber_magnitude(grid)
        mask = dealias_mask(grid) if dealias else 1.0
        forward_scale, inverse_scale = _unitary_scales(grid)
        # raw _rfftn output -> masked unitary coefficients
        self.forcing_fold = mask * forward_scale
        # unitary coefficients -> masked input of the raw _irfftn
        self.synthesis = mask * inverse_scale
        self._entries: dict[float, tuple] = {}

    def entries(self, h: float) -> tuple:
        """Linear entries k00..k11 at h, then the forcing multipliers
        (h/2) k01, (h/2) k11 and h/2, each folded with mask and scale."""
        cached = self._entries.get(h)
        if cached is None:
            k00, k01, k10, k11 = kernel_entries(h, self.kmag)
            half_fold = 0.5 * h * self.forcing_fold
            cached = (k00, k01, k10, k11, k01 * half_fold, k11 * half_fold,
                      half_fold)
            if len(self._entries) > 24:
                self._entries.clear()
            self._entries[h] = cached
        return cached

    def physical(self, coeffs: np.ndarray) -> np.ndarray:
        return _irfftn(coeffs * self.synthesis, self.grid)


@lru_cache(maxsize=8)
def _workspace(grid: GridSpec, dealias: bool) -> _Workspace:
    return _Workspace(grid, dealias)


def _norm_weights(grid: GridSpec, s: float, gamma: float) -> tuple:
    """Weights of the recorded L2, H^s and H^-gamma sums, Hermitian
    multiplicity included; the last two skip k = 0."""
    mult = hermitian_weight(grid)
    kmag = wavenumber_magnitude(grid)
    zero = (0,) * grid.dim
    with np.errstate(divide="ignore"):
        w_s = mult * kmag ** (2.0 * s)
        w_neg = mult * kmag ** (-2.0 * gamma)
    w_s[zero] = 0.0
    w_neg[zero] = 0.0
    return mult, w_s, w_neg


def _norms(coeffs: np.ndarray, weights: tuple) -> list[float]:
    mag_sq = np.abs(coeffs) ** 2
    return [float(np.sqrt(np.sum(w * mag_sq))) for w in weights]


def _step_arrays(u: np.ndarray, ut: np.ndarray, u_phys: np.ndarray, h: float,
                 p: float, ws: _Workspace):
    """One predictor-corrector step on raw coefficient arrays.

    ``u_phys`` must be the (dealiased) physical field of ``u``.  Returns the
    new coefficient pair plus the new physical field and its max amplitude.
    """
    k00, k01, k10, k11, half_k01, half_k11, half = ws.entries(h)
    forcing0 = _rfftn(nonlinearity(u_phys, p), ws.grid)
    kick = half_k01 * forcing0  # (h/2) k01(h) N0
    u_new = k00 * u + k01 * ut + kick
    predictor_phys = ws.physical(u_new + kick)
    forcing_h = _rfftn(nonlinearity(predictor_phys, p), ws.grid)
    ut_new = k10 * u + k11 * ut + half_k11 * forcing0 + half * forcing_h
    u_new_phys = ws.physical(u_new)
    return u_new, ut_new, u_new_phys, float(np.max(np.abs(u_new_phys)))


def step(state: State, h: float, config: SolverConfig) -> State:
    """Advance a state by one step of size h (no adaptivity, no checks)."""
    if h <= 0:
        raise DomainError(f"step size must be positive, got {h}")
    ws = _workspace(state.grid, config.dealias)
    u = state.u_hat.coeffs
    ut = state.ut_hat.coeffs
    u_new, ut_new, _, _ = _step_arrays(u, ut, ws.physical(u), h, config.p, ws)
    if not (np.isfinite(u_new).all() and np.isfinite(ut_new).all()):
        return State(SpectrumField(state.grid, u_new, diverged=True),
                     SpectrumField(state.grid, ut_new, diverged=True),
                     state.t + h)
    return State(SpectrumField(state.grid, u_new),
                 SpectrumField(state.grid, ut_new), state.t + h)


def _record_times(dt: float, t_end: float, samples: int) -> np.ndarray:
    lo = min(dt, t_end)
    if lo >= t_end:
        return np.array([t_end])
    return np.geomspace(lo, t_end, samples)


def run(config: SolverConfig, u0: np.ndarray, u1: np.ndarray, grid: GridSpec,
        s: float, gamma: float, observer=None) -> RunResult:
    """March the semilinear problem with data (eps*u0, eps*u1) to t_end.

    Records norm history at >= 64 geometrically spaced sample times and the
    running weighted sup  (1+t)^{gamma/2} |u|_{L2} + (1+t)^{(s+gamma)/2} |u|_{Hs}.
    The negative-order history column is computed over k != 0: the forcing
    injects mean, and on the torus the single zero mode is excluded rather
    than letting it mask the decaying part.

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

    ws = _workspace(grid, config.dealias)
    weights = _norm_weights(grid, s, gamma)
    u = _forward_coeffs(config.eps * u0, grid)
    ut = _forward_coeffs(config.eps * u1, grid)
    u_phys = ws.physical(u)

    times, l2s, hss, hnegs, maxes = [], [], [], [], []
    weighted_sup = 0.0

    def record(t: float, coeffs: np.ndarray, phys: np.ndarray):
        nonlocal weighted_sup
        if times and t <= times[-1]:
            return
        l2, hs, hneg = _norms(coeffs, weights)
        times.append(t)
        l2s.append(l2)
        hss.append(hs)
        hnegs.append(hneg)
        maxes.append(float(np.max(np.abs(phys))))
        weighted_sup = max(weighted_sup,
                           (1.0 + t) ** (gamma / 2.0) * l2
                           + (1.0 + t) ** ((s + gamma) / 2.0) * hs)

    record(0.0, u, u_phys)
    if observer is not None:
        observer(0.0, u_phys)
    sample_times = _record_times(config.dt, config.t_end, _HISTORY_SAMPLES)
    next_sample = 0

    t = 0.0
    h = config.dt
    h_min = config.dt * config.dt_min_ratio
    max_cur = float(np.max(np.abs(u_phys)))
    status = None
    blow_up_time = None
    streak = 0

    while t < config.t_end * (1.0 - 1e-12):
        h_try = min(h, config.t_end - t)
        u_new, ut_new, u_new_phys, max_new = _step_arrays(
            u, ut, u_phys, h_try, config.p, ws)

        finite = math.isfinite(max_new) and np.isfinite(ut_new).all()
        grew_too_fast = finite and max_cur > 0 and \
            max_new > config.growth_factor * max_cur
        if not finite or grew_too_fast:
            h = 0.5 * h_try
            streak = 0
            if h < h_min:
                status = STATUS_STEP_UNDERFLOW
                blow_up_time = t
                break
            continue

        quiet = max_cur == 0.0 or max_new <= _QUIET_AMPLITUDE_RATIO * max_cur
        t += h_try
        u, ut, u_phys, max_cur = u_new, ut_new, u_new_phys, max_new
        if observer is not None:
            observer(t, u_phys)
        streak += 1
        h_cap = max(config.dt, t * _STEP_CAP_FRACTION)
        if streak >= _REGROWTH_STREAK and h < h_cap and quiet:
            h = min(2.0 * h, h_cap)
            streak = 0

        if max_cur > config.theta:
            record(t, u, u_phys)
            status = STATUS_BLOW_UP
            blow_up_time = t
            break

        if next_sample < len(sample_times) and t >= sample_times[next_sample]:
            record(t, u, u_phys)
            while next_sample < len(sample_times) and t >= sample_times[next_sample]:
                next_sample += 1

    if status is None:
        status = STATUS_COMPLETED
        record(config.t_end, u, u_phys)

    return RunResult(status=status, blow_up_time=blow_up_time,
                     times=np.asarray(times), l2=np.asarray(l2s),
                     hs=np.asarray(hss), hneg=np.asarray(hnegs),
                     maxabs=np.asarray(maxes), weighted_sup=weighted_sup,
                     s=s, gamma=gamma)


def measure_lifespan(config: SolverConfig, u0: np.ndarray, u1: np.ndarray,
                     grid: GridSpec, s: float, gamma: float,
                     eps: float | None = None) -> float:
    """Blow-up time at the given data size, or inf when the run completes."""
    if eps is not None:
        config = replace(config, eps=eps)
    return run(config, u0, u1, grid, s, gamma).lifespan


def energy(state: State) -> float:
    """Damped-wave energy 0.5 (||u_t||_{L2}^2 + ||grad u||_{L2}^2).

    Nonincreasing along source-free trajectories; used as a health check.
    """
    mult = hermitian_weight(state.grid)
    kmag = wavenumber_magnitude(state.grid)
    ut_sq = np.sum(mult * np.abs(state.ut_hat.coeffs) ** 2)
    grad_sq = np.sum(mult * kmag ** 2 * np.abs(state.u_hat.coeffs) ** 2)
    return float(0.5 * (ut_sq + grad_sq))


def linear_reference(u0: np.ndarray, u1: np.ndarray, grid: GridSpec, eps: float,
                     times: np.ndarray, s: float, gamma: float):
    """Norm history of the linear flow at the given times (same norms as run).

    Returns arrays (l2, hs, hneg) for the data pair (eps*u0, eps*u1).
    """
    weights = _norm_weights(grid, s, gamma)
    kmag = wavenumber_magnitude(grid)
    u = _forward_coeffs(eps * np.asarray(u0, dtype=float), grid)
    ut = _forward_coeffs(eps * np.asarray(u1, dtype=float), grid)
    rows = []
    for t in np.asarray(times, dtype=float):
        k00, k01, _, _ = kernel_entries(float(t), kmag)
        rows.append(_norms(k00 * u + k01 * ut, weights))
    return tuple(np.asarray(rows, dtype=float).reshape(-1, 3).T.copy())
