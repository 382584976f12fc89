"""Exact Fourier multipliers of the linear damped wave equation.

Per radial frequency r = |k| the Fourier modes obey y'' + y' + r^2 y = 0,
with characteristic roots lam = (-1 +- sqrt(1 - 4 r^2))/2: real for
r <= 1/2, a complex-conjugate pair for r > 1/2.  The fundamental matrix
mapping (y, y') at time 0 to time t has entries

    k00 = (lam1 e^{lam2 t} - lam2 e^{lam1 t}) / (lam1 - lam2)
    k01 = (e^{lam1 t} - e^{lam2 t}) / (lam1 - lam2)
    k10 = -r^2 k01
    k11 = (lam1 e^{lam1 t} - lam2 e^{lam2 t}) / (lam1 - lam2).

Near the double root r = 1/2 these quotients cancel catastrophically, so
they are rewritten through delta = sqrt(1 - 4 r^2)/2 and the even series

    g(z) = sum z^j / (2j+1)!     h(z) = sum z^j / (2j)!     z = (delta t)^2,

which extend sinh/cosh analytically through z <= 0:

    k01 = e^{-t/2} t g(z),   k00 = e^{-t/2} (h(z) + (t/2) g(z)),
    k11 = e^{-t/2} (h(z) - (t/2) g(z)).

For |z| <= 1e-2 a 12-term series evaluation is exact to < 1e-16; outside
that disc the closed forms are safe (sinh/cosh via plain exponentials of
negative arguments for r < 1/2, sin/cos for r > 1/2), and e^{-t/2} enters
only through factors that underflow gracefully to zero.

``forcing_weights`` integrates the kernel exactly against a forcing that
is linear in time over one step (ETD2); see its docstring for the weights
and the three regimes that keep them accurate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

SERIES_THRESHOLD = 1e-2
_N_TERMS = 12
_G_COEFFS = np.array([1.0 / math.factorial(2 * j + 1) for j in range(_N_TERMS)])
_H_COEFFS = np.array([1.0 / math.factorial(2 * j) for j in range(_N_TERMS)])
# Taylor terms of the forcing weights for t max(1, r) <= 1, and of phi_1,
# phi_2 for |z| < 1: both tails are below 1e-18 of the sum.
_TAYLOR_TERMS = 30
_PHI_TERMS = 20
_PHI1_COEFFS = np.array([1.0 / math.factorial(j + 1) for j in range(_PHI_TERMS)])
_PHI2_COEFFS = np.array([1.0 / math.factorial(j + 2) for j in range(_PHI_TERMS)])


def _series(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def kernel_entries(t: float, r: np.ndarray | float):
    """Vectorized (k00, k01, k10, k11) for scalar t >= 0 and array r >= 0."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radial frequency must be nonnegative")

    disc = 1.0 - 4.0 * r * r          # (2 delta)^2, signed
    z = 0.25 * t * t * disc           # (delta t)^2, signed

    k00 = np.empty_like(r)
    k01 = np.empty_like(r)
    k11 = np.empty_like(r)

    near = np.abs(z) <= SERIES_THRESHOLD
    if np.any(near):
        zn = z[near]
        envelope = math.exp(-0.5 * t)
        g = _series(_G_COEFFS, zn)
        h = _series(_H_COEFFS, zn)
        k01[near] = envelope * t * g
        k00[near] = envelope * (h + 0.5 * t * g)
        k11[near] = envelope * (h - 0.5 * t * g)

    grow = ~near & (disc > 0)
    if np.any(grow):
        delta = 0.5 * np.sqrt(disc[grow])
        lam1 = -0.5 + delta
        lam2 = -0.5 - delta
        e1 = np.exp(lam1 * t)
        e2 = np.exp(lam2 * t)
        two_delta = 2.0 * delta
        k01[grow] = (e1 - e2) / two_delta
        k00[grow] = (lam1 * e2 - lam2 * e1) / two_delta
        k11[grow] = (lam1 * e1 - lam2 * e2) / two_delta

    osc = ~near & (disc < 0)
    if np.any(osc):
        w = 0.5 * np.sqrt(-disc[osc])
        envelope = math.exp(-0.5 * t)
        sin_part = np.sin(w * t) / w
        cos_part = np.cos(w * t)
        k01[osc] = envelope * sin_part
        k00[osc] = envelope * (cos_part + 0.5 * sin_part)
        k11[osc] = envelope * (cos_part - 0.5 * sin_part)

    k10 = -(r * r) * k01 + 0.0  # +0.0 at r = 0; in place, unlike 0.0 - x
    return k00, k01, k10, k11


def _phi12(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_1(z) = (e^z - 1)/z and phi_2(z) = (e^z - 1 - z)/z^2 for real z <= 0."""
    phi1 = np.empty_like(z)
    phi2 = np.empty_like(z)
    small = np.abs(z) < 1.0
    phi1[small] = _series(_PHI1_COEFFS, z[small])
    phi2[small] = _series(_PHI2_COEFFS, z[small])
    big = z[~small]
    em1 = np.expm1(big)
    phi1[~small] = em1 / big
    phi2[~small] = (em1 - big) / (big * big)
    return phi1, phi2


def forcing_weights(t: float, r: np.ndarray | float, entries=None):
    """ETD2 forcing weights (I0, I1, J0, J1) for a step t > 0 and array r >= 0.

    With the forcing linear over the step, N(s) = N0 + (s/t)(N1 - N0), the
    variation-of-constants integrals add to (u, u_t)

        u   += I0 N0 + I1 (N1 - N0),   u_t += J0 N0 + J1 (N1 - N0),

    where I0 = int_0^t k01, I1 = (1/t) int_0^t (t - s) k01(s) ds, and,
    since k11 = k01', J0 = k01(t) and J1 = I0/t.  Integrating the mode
    equation once and twice gives I0 = (1 - k00)/r^2 and
    I1 = (t - k01 - I0)/(t r^2), which lose every digit as r^2 I1 -> 0, so:

    - t max(1, r) <= 1: Taylor series in t from the recurrence of
      y'' + y' + r^2 y = 0;
    - r < 1/4 (t > 1): divided differences of phi_1, phi_2 over the roots,
      I0 = t^2 phi_1[a, b], I1 = t^2 phi_2[a, b] with a, b = lam1 t, lam2 t,
      which reach r = 0 (I0 = t - 1 + e^{-t}) without cancellation;
    - otherwise the closed forms above, where r^2 I1 > 8e-3.

    ``entries`` is ``kernel_entries(t, r)`` when the caller has it already.
    """
    if t <= 0:
        raise DomainError(f"step must be positive, got {t}")
    r = np.asarray(r, dtype=float)
    k00, k01, _, _ = kernel_entries(t, r) if entries is None else entries
    i0 = np.empty_like(r)
    i1 = np.empty_like(r)

    taylor = t * np.maximum(r, 1.0) <= 1.0
    if np.any(taylor):
        # b_m = a_m t^m for k01 = sum a_m t^m: b_0 = 0, b_1 = t and
        # m (m+1) b_{m+1} = -(m t b_m + r^2 t^2 b_{m-1})
        rt_sq = (r[taylor] * t) ** 2
        prev, cur = np.zeros_like(rt_sq), np.full_like(rt_sq, t)
        s0 = cur / 2.0
        s1 = cur / 6.0
        for m in range(1, _TAYLOR_TERMS):
            prev, cur = cur, -(m * t * cur + rt_sq * prev) / (m * (m + 1))
            s0 = s0 + cur / (m + 2)
            s1 = s1 + cur / ((m + 2) * (m + 3))
        i0[taylor] = t * s0
        i1[taylor] = t * s1

    roots = ~taylor & (r < 0.25)
    if np.any(roots):
        r_sq = r[roots] ** 2
        delta = 0.5 * np.sqrt(1.0 - 4.0 * r_sq)
        lam2 = -0.5 - delta
        a_phi1, a_phi2 = _phi12(r_sq / lam2 * t)  # lam1 = r^2 / lam2
        b_phi1, b_phi2 = _phi12(lam2 * t)
        gap = 2.0 * delta * t                       # a - b
        i0[roots] = t * t * (a_phi1 - b_phi1) / gap
        i1[roots] = t * t * (a_phi2 - b_phi2) / gap

    closed = ~taylor & ~roots
    if np.any(closed):
        r_sq = r[closed] ** 2
        i0[closed] = (1.0 - k00[closed]) / r_sq
        i1[closed] = (t - k01[closed] - i0[closed]) / (t * r_sq)

    return i0, i1, k01, i0 / t


def heat_multiplier(t: float, r: np.ndarray | float):
    """Heat semigroup multiplier exp(-r^2 t)."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    return np.exp(-np.asarray(r, dtype=float) ** 2 * t)
