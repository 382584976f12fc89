"""Periodic-grid fields, unitary half-spectrum transforms, norm weights, and
the initial data.

Fields live on a cubic periodic box [-L/2, L/2)^dim sampled with N points
per axis.  Physical fields are real, so only half of their spectrum is
stored: the ``rfftn`` layout keeps every mode of the leading axes and the
N/2 + 1 nonnegative modes of the last axis, shape (N,)*(dim-1) + (N/2+1,).
The missing modes are the complex conjugates c(-k) = conj(c(k)), so every
stored array describes a real field and the inverse transform returns real
samples by construction.

Coefficients are scaled so that Parseval holds with unit constant against
the physical norm

    ||f||_{L2}^2 = sum_x |f(x)|^2 (L/N)^dim  =  sum_k w_k |c_k|^2,

where the Hermitian multiplicity w_k counts how many full-spectrum modes a
stored mode stands for: 2 for interior last-axis modes, 1 on the k_last = 0
and Nyquist planes, which hold their own conjugates.  Every norm is a
``weighted_norms`` sum against ``hermitian_weight`` (the L2 norm, mean
included) or ``norm_weights`` (the homogeneous order-s norm, weight
w_k |k|^(2s) with k = 0 excluded), so it carries this weight.

The initial data are one family, the critical-tail profile of
``make_initial_data``, which sits at the edge of the order -gamma space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ContractError, DomainError


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic grid: ``dim`` axes, edge ``length``, ``points`` per axis.

    The mode with integer index m (per axis, m in [-N/2, N/2)) carries the
    wavenumber k = 2*pi*m/length.
    """

    dim: int
    length: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise DomainError(f"grid dimension must be 1, 2 or 3, got {self.dim}")
        if self.length <= 0:
            raise DomainError(f"box edge must be positive, got {self.length}")
        n = self.points
        if n < 8 or n & (n - 1) != 0:
            raise DomainError(f"points per axis must be a power of two >= 8, got {n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def spectrum_shape(self) -> tuple[int, ...]:
        """Half-spectrum layout: the last axis keeps modes 0..N/2."""
        return (self.points,) * (self.dim - 1) + (self.points // 2 + 1,)

    @property
    def axes(self) -> tuple[int, ...]:
        return tuple(range(self.dim))

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim


@lru_cache(maxsize=32)
def axis_coordinates(grid: GridSpec) -> np.ndarray:
    """Physical coordinates of one axis, measured from the box center."""
    n = grid.points
    return (np.arange(n) - n // 2) * grid.spacing


def _half_mesh(grid: GridSpec, full: np.ndarray, half: np.ndarray) -> list:
    """Per-axis values shaped to broadcast over the half-spectrum layout."""
    return np.meshgrid(*([full] * (grid.dim - 1) + [half]), indexing="ij",
                       sparse=True)


@lru_cache(maxsize=32)
def wavenumber_magnitude(grid: GridSpec) -> np.ndarray:
    """|k| on the half-spectrum layout."""
    k_full = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    k_half = 2.0 * np.pi * np.fft.rfftfreq(grid.points, d=grid.spacing)
    return np.sqrt(sum(k * k for k in _half_mesh(grid, k_full, k_half)))


@lru_cache(maxsize=32)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Two-thirds rule mask on the half layout: keep integer modes |m| <= N/3."""
    n = grid.points
    keep_full = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 3.0
    keep_half = np.fft.rfftfreq(n, d=1.0 / n) <= n / 3.0
    return reduce(np.logical_and, _half_mesh(grid, keep_full, keep_half))


@lru_cache(maxsize=32)
def hermitian_weight(grid: GridSpec) -> np.ndarray:
    """Multiplicity of each stored last-axis mode; broadcasts over the layout.

    2 for interior modes, which stand for themselves and their conjugates;
    1 for k_last = 0 and the Nyquist mode, whose conjugates are stored.
    """
    weight = np.full(grid.points // 2 + 1, 2.0)
    weight[0] = weight[-1] = 1.0
    return weight


@dataclass(frozen=True)
class SpectrumField:
    """Half-spectrum Fourier coefficients of a real field on a periodic grid.

    ``coeffs`` has shape ``grid.spectrum_shape`` (numpy ``rfftn`` layout);
    any other shape, such as a full spectrum, is rejected, and so are
    non-finite entries.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.spectrum_shape:
            raise ContractError(
                f"coefficient shape {self.coeffs.shape} does not match the "
                f"half-spectrum layout {self.grid.spectrum_shape}")
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        if not np.isfinite(self.coeffs).all():
            raise ContractError("non-finite spectrum coefficients")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _unitary_scales(grid: GridSpec) -> tuple[float, float]:
    """Factors (forward, inverse) that make ``_rfftn`` and ``_irfftn`` unitary."""
    return (grid.length ** (grid.dim / 2.0) / grid.points ** grid.dim,
            grid.length ** (-grid.dim / 2.0))


def _rfftn(samples: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Unnormalized forward transform of real samples into the half layout."""
    return np.fft.rfftn(samples, axes=grid.axes)


def _irfftn(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Unnormalized inverse, sum_k c_k e^{i k x}, as real samples."""
    return np.fft.irfftn(coeffs, s=grid.shape, axes=grid.axes, norm="forward")


def _forward_coeffs(samples: np.ndarray, grid: GridSpec) -> np.ndarray:
    return _rfftn(samples, grid) * _unitary_scales(grid)[0]


def transform_forward(samples: np.ndarray, grid: GridSpec) -> SpectrumField:
    """Unitary forward transform of real physical samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.shape:
        raise ContractError(
            f"sample shape {samples.shape} does not match grid {grid.shape}")
    return SpectrumField(grid, _forward_coeffs(samples, grid))


def transform_inverse(field: SpectrumField) -> np.ndarray:
    """Inverse transform back to real physical samples."""
    return _irfftn(field.coeffs * _unitary_scales(field.grid)[1], field.grid)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm_weights(grid: GridSpec, s: float) -> np.ndarray:
    """Weights w_k |k|^(2s) of the homogeneous order-s sum; k = 0 gets 0."""
    with np.errstate(divide="ignore"):
        weights = hermitian_weight(grid) * wavenumber_magnitude(grid) ** (2.0 * s)
    weights[(0,) * grid.dim] = 0.0
    return weights


def weighted_norms(coeffs: np.ndarray, weights) -> list[float]:
    """sqrt(sum_k w_k |c_k|^2) for each weight array w."""
    mag_sq = np.abs(coeffs) ** 2
    return [float(np.sqrt(np.sum(w * mag_sq))) for w in weights]


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _radius_squared(grid: GridSpec) -> np.ndarray:
    x = axis_coordinates(grid)
    mesh = np.meshgrid(*([x] * grid.dim), indexing="ij")
    return sum(m * m for m in mesh)


def make_initial_data(kind: str, grid: GridSpec, gamma: float,
                      amplitude: float = 1.0) -> np.ndarray:
    """The critical-tail profile A * <x>^-(n/2+gamma) / log(e + |x|), centered
    in the box: it sits exactly at the integrability edge of the order -gamma
    norm.  ``kind`` must be ``"critical_tail"``, the only kind."""
    if kind != "critical_tail":
        raise DomainError(f"unknown initial data kind {kind!r}")
    if amplitude <= 0:
        raise DomainError(f"critical_tail needs positive amplitude, got {amplitude}")
    if gamma <= 0:
        raise DomainError(f"critical_tail needs positive gamma, got {gamma}")
    r2 = _radius_squared(grid)
    bracket = np.sqrt(1.0 + r2)
    return amplitude * bracket ** (-(grid.dim / 2.0 + gamma)) \
        / np.log(np.e + np.sqrt(r2))
