"""Periodic-grid fields, unitary half-spectrum transforms, and Sobolev norms.

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
and Nyquist planes, which hold their own conjugates.  Every sum over modes
carries this weight.  The zero-order homogeneous norm equals the L2 norm on
mean-zero fields.  Homogeneous norms of negative order exclude the k = 0
mode and demand a nearly mean-free field: on the torus the continuum norm
diverges for nonzero mean, so the bias of dropping the single discrete zero
mode is made explicit instead of hidden.

``save_field`` writes a versioned file holding the half spectrum;
``load_field`` also reads the unversioned full-spectrum files of format 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np

from .errors import ContractError, DomainError

ZERO_MODE_TOLERANCE = 1e-10  # relative zero-mode mass allowed by negative orders


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
    if grid.dim == 1:
        return k_half
    return np.sqrt(sum(k * k for k in _half_mesh(grid, k_full, k_half)))


@lru_cache(maxsize=32)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Two-thirds rule mask on the half layout: keep integer modes |m| <= N/3."""
    n = grid.points
    keep_full = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 3.0
    keep_half = np.fft.rfftfreq(n, d=1.0 / n) <= n / 3.0
    if grid.dim == 1:
        return keep_half
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
    any other shape, such as a full spectrum, is rejected.  Entries must be
    finite unless the field is explicitly flagged ``diverged``.
    """

    grid: GridSpec
    coeffs: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        if self.coeffs.shape != self.grid.spectrum_shape:
            raise ContractError(
                f"coefficient shape {self.coeffs.shape} does not match the "
                f"half-spectrum layout {self.grid.spectrum_shape}")
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(self, "coeffs", self.coeffs.astype(np.complex128))
        if not self.diverged and not np.isfinite(self.coeffs).all():
            raise ContractError("non-finite coefficients in a field not flagged diverged")


@dataclass(frozen=True)
class NormOrder:
    """Sobolev order: ``s`` (negative allowed) and homogeneous/inhomogeneous."""

    s: float
    homogeneous: bool = True


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


def _inverse_samples(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    return _irfftn(coeffs * _unitary_scales(grid)[1], grid)


def transform_forward(samples: np.ndarray, grid: GridSpec) -> SpectrumField:
    """Unitary forward transform of real physical samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.shape:
        raise ContractError(
            f"sample shape {samples.shape} does not match grid {grid.shape}")
    return SpectrumField(grid, _forward_coeffs(samples, grid))


def transform_inverse(field: SpectrumField) -> np.ndarray:
    """Inverse transform back to real physical samples."""
    return _inverse_samples(field.coeffs, field.grid)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _weighted_mag_sq(field: SpectrumField) -> np.ndarray:
    """w_k |c_k|^2: each stored mode's share of the full-spectrum sum."""
    return hermitian_weight(field.grid) * np.abs(field.coeffs) ** 2


def sobolev_norm(field: SpectrumField, order: NormOrder | float) -> float:
    """Sobolev norm of the given order under the unitary convention.

    Homogeneous orders sum |k|^(2s) |c_k|^2 over k != 0; negative orders
    additionally require the zero mode to carry at most ``ZERO_MODE_TOLERANCE``
    of the field's L2 mass (remove the mean first if this trips).
    Inhomogeneous orders use the weight (1 + |k|^2)^s including k = 0.
    Every sum runs over the full spectrum through the Hermitian weights.
    """
    if not isinstance(order, NormOrder):
        order = NormOrder(float(order))
    mag_sq = _weighted_mag_sq(field)
    kmag = wavenumber_magnitude(field.grid)

    if not order.homogeneous:
        return float(np.sqrt(np.sum((1.0 + kmag ** 2) ** order.s * mag_sq)))

    total = float(np.sum(mag_sq))
    zero_index = (0,) * field.grid.dim
    if order.s < 0:
        zero_mass = abs(field.coeffs[zero_index])
        l2 = np.sqrt(total)
        if l2 > 0 and zero_mass > ZERO_MODE_TOLERANCE * l2:
            raise DomainError(
                f"zero mode carries {zero_mass:.3e} of L2 mass {l2:.3e}: homogeneous "
                f"negative orders require a mean-free field; remove the mean first")
    if order.s == 0:
        return float(np.sqrt(max(total - mag_sq[zero_index], 0.0)))
    with np.errstate(divide="ignore"):
        weights = kmag ** (2.0 * order.s)
    weights[zero_index] = 0.0
    return float(np.sqrt(np.sum(weights * mag_sq)))


def l2_norm(field: SpectrumField) -> float:
    """Physical L2 norm (includes the mean mode)."""
    return float(np.sqrt(np.sum(_weighted_mag_sq(field))))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _radius_squared(grid: GridSpec) -> np.ndarray:
    x = axis_coordinates(grid)
    if grid.dim == 1:
        return x * x
    mesh = np.meshgrid(*([x] * grid.dim), indexing="ij")
    return sum(m * m for m in mesh)


def make_initial_data(kind: str, grid: GridSpec, **params) -> np.ndarray:
    """Build physical initial data on the grid, centered in the box.

    Kinds:
      ``gaussian(amplitude, width)``       A * exp(-|x|^2 / (2 width^2))
      ``critical_tail(amplitude, gamma)``  A * <x>^-(n/2+gamma) / log(e + |x|),
                                           the profile sitting exactly at the
                                           integrability edge of the order
                                           -gamma norm
      ``single_mode(mode, amplitude)``     A * cos(2 pi m x_1 / L)
    """
    if kind == "gaussian":
        amplitude = params.pop("amplitude", 1.0)
        width = params.pop("width", 1.0)
        _reject_extra(params)
        if amplitude <= 0 or width <= 0:
            raise DomainError(
                f"gaussian needs positive amplitude and width, got {amplitude}, {width}")
        return amplitude * np.exp(-_radius_squared(grid) / (2.0 * width * width))

    if kind == "critical_tail":
        amplitude = params.pop("amplitude", 1.0)
        gamma = params.pop("gamma")
        _reject_extra(params)
        if amplitude <= 0:
            raise DomainError(f"critical_tail needs positive amplitude, got {amplitude}")
        if gamma <= 0:
            raise DomainError(f"critical_tail needs positive gamma, got {gamma}")
        r2 = _radius_squared(grid)
        bracket = np.sqrt(1.0 + r2)
        return amplitude * bracket ** (-(grid.dim / 2.0 + gamma)) \
            / np.log(np.e + np.sqrt(r2))

    if kind == "single_mode":
        mode = params.pop("mode")
        amplitude = params.pop("amplitude", 1.0)
        _reject_extra(params)
        if amplitude <= 0:
            raise DomainError(f"single_mode needs positive amplitude, got {amplitude}")
        mode = int(mode)
        if not (1 <= mode < grid.points // 2):
            raise DomainError(f"mode index must lie in [1, N/2), got {mode}")
        x = axis_coordinates(grid)
        wave = amplitude * np.cos(2.0 * np.pi * mode * x / grid.length)
        if grid.dim == 1:
            return wave
        shape = [1] * grid.dim
        shape[0] = grid.points
        return np.broadcast_to(wave.reshape(shape), grid.shape).copy()

    raise DomainError(f"unknown initial data kind {kind!r}")


def _reject_extra(params: dict) -> None:
    if params:
        raise DomainError(f"unexpected parameters: {sorted(params)}")


# ---------------------------------------------------------------------------
# binary serialization
# ---------------------------------------------------------------------------

FORMAT_VERSION = 2
_MAGIC = b"CRITEXF\0"
_PREAMBLE = struct.Struct("<8sq")  # magic, format version
_HEADER = struct.Struct("<qqd")  # dim, points, length


def save_field(field: SpectrumField, path: str | Path) -> None:
    """Write a field in format ``FORMAT_VERSION``.

    Layout, all values little-endian: the 8-byte magic ``CRITEXF\\0``, the
    format version (int64), the grid {dim (int64), N (int64), L (float64)},
    then the half-spectrum coefficients as (re, im) float64 pairs in
    row-major ``rfftn`` order.
    """
    data = np.ascontiguousarray(field.coeffs, dtype="<c16")
    with open(path, "wb") as handle:
        handle.write(_PREAMBLE.pack(_MAGIC, FORMAT_VERSION))
        handle.write(_HEADER.pack(field.grid.dim, field.grid.points, field.grid.length))
        handle.write(data.tobytes())


def load_field(path: str | Path) -> SpectrumField:
    """Read a field written by ``save_field``.

    Also reads format 1, which has no magic or version: the grid header
    followed by the full spectrum in ``fftn`` order; its half spectrum is
    kept.
    """
    raw = Path(path).read_bytes()
    offset, version = 0, 1
    try:
        if raw.startswith(_MAGIC):
            _, version = _PREAMBLE.unpack_from(raw)
            if version != FORMAT_VERSION:
                raise ContractError(f"unsupported field file version {version}")
            offset = _PREAMBLE.size
        dim, points, length = _HEADER.unpack_from(raw, offset)
    except struct.error as exc:
        raise ContractError(f"field file header truncated: {exc}") from None
    grid = GridSpec(dim=dim, length=length, points=points)
    payload = raw[offset + _HEADER.size:]
    shape = grid.spectrum_shape if version == FORMAT_VERSION else grid.shape
    expected = int(np.prod(shape)) * 16
    if len(payload) != expected:
        raise ContractError(
            f"field payload has {len(payload)} bytes, expected {expected}")
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(shape)
    return SpectrumField(grid, coeffs[..., :points // 2 + 1].astype(np.complex128))
