"""Exponent calculus for the damped wave equation with low-frequency-flat data.

Every threshold that decides between global existence and finite-time
blow-up for u_tt - Delta u + u_t = |u|^p with data measured in the
homogeneous negative-order norm of index gamma is a closed-form expression
in (n, gamma, s, p).  ``classify_regime`` returns the ones it compares
against as the right-hand sides of its verdict's reasons, so a caller that
has a verdict reads them there.  Its technical conditions p <= n/(n - 2s) and
p >= 1 + 2*gamma/n are the proof's Gagliardo-Nirenberg admissibility
conditions beta1 <= 1 and beta2 >= 0 in closed form.

All arithmetic is double precision.  Denominators are checked against zero
within 1e-14 before any division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DomainError

_DENOM_TOL = 1e-14


def _check_denominator(value: float, description: str) -> float:
    if abs(value) <= _DENOM_TOL:
        raise DomainError(f"denominator {description} vanishes (= {value!r})")
    return value


# ---------------------------------------------------------------------------
# parameter and verdict types
# ---------------------------------------------------------------------------

class Regime(str, Enum):
    GLOBAL_EXISTENCE = "GlobalExistence"
    BLOW_UP = "BlowUp"
    CRITICAL_OPEN = "CriticalOpen"
    OUTSIDE_THEORY = "OutsideTheory"


class Reason(NamedTuple):
    """One evaluated admissibility condition: name, outcome, both sides."""

    name: str
    passed: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class RegimeParams:
    """Parameter tuple (n, gamma, s, p) governing every threshold.

    ``n`` is the spatial dimension (real >= 1 for formula evaluation),
    ``gamma`` the negative-order index of the data norm, ``s`` the positive
    Sobolev regularity in (0, 1], and ``p`` the nonlinearity exponent.
    """

    n: float
    gamma: float
    s: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"dimension n must be >= 1, got {self.n}")
        if self.gamma <= 0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not (0 < self.s <= 1):
            raise DomainError(f"regularity s must lie in (0, 1], got {self.s}")
        if self.p <= 1:
            raise DomainError(f"exponent p must exceed 1, got {self.p}")


class RegimeVerdict(NamedTuple):
    regime: Regime
    reasons: tuple[Reason, ...]


class AdmissibilityReport(NamedTuple):
    admissible: bool
    reasons: tuple[Reason, ...]


# ---------------------------------------------------------------------------
# scalar exponent formulas
# ---------------------------------------------------------------------------

def p_fujita(n: float) -> float:
    """Heat-equation threshold exponent 1 + 2/n."""
    if n <= 0:
        raise DomainError(f"dimension must be positive, got {n}")
    return 1.0 + 2.0 / n


def p_crit(n: float, gamma: float) -> float:
    """Critical exponent 1 + 4/(n + 2*gamma) for data of negative order gamma.

    Evaluating formally at gamma = n/2 recovers ``p_fujita(n)``.
    """
    if n <= 0:
        raise DomainError(f"dimension must be positive, got {n}")
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    return 1.0 + 4.0 / _check_denominator(n + 2.0 * gamma, "n + 2*gamma")


def gamma_tilde(n: float) -> float:
    """Positive root of 2*g^2 + n*g - 2n = 0; stays below 2 for all n >= 1."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return (math.sqrt(n * n + 16.0 * n) - n) / 4.0


def conjugate_exponent(p: float) -> float:
    """Holder conjugate p/(p-1)."""
    if p <= 1:
        raise DomainError(f"conjugate exponent needs p > 1, got {p}")
    return p / _check_denominator(p - 1.0, "p - 1")


def lifespan_exponent(p: float, n: float, gamma: float) -> float:
    """Power of eps in the blow-up time scaling T ~ eps^a, subcritical p.

    Equal closed forms: -2/(2p' - 2 - n/2 - gamma) and
    -2(p-1)/(2 - (n/2+gamma)(p-1)); also -(p-1)/alpha0(p, n, gamma).
    """
    pc = p_crit(n, gamma)
    denominator = 2.0 * conjugate_exponent(p) - 2.0 - n / 2.0 - gamma
    if denominator <= _DENOM_TOL:
        raise DomainError(
            f"lifespan exponent requires 1 < p < p_crit(n, gamma) = {pc!r}; "
            f"got p = {p!r} (denominator 2p' - 2 - n/2 - gamma = {denominator!r} <= 0)")
    return -2.0 / denominator


def alpha0(p: float, n: float, gamma: float) -> float:
    """Time-weight exponent 1 - (n/2 + gamma)(p - 1)/2, in (0, 1) when admissible."""
    value = -(gamma / 2.0 + n / 4.0) * p + gamma / 2.0 + n / 4.0 + 1.0
    if not (0.0 < value < 1.0):
        raise DomainError(
            f"alpha0 = {value!r} falls outside (0, 1); "
            f"requires 1 < p < p_crit(n, gamma) = {p_crit(n, gamma)!r}")
    return value


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def classify_regime(params: RegimeParams) -> RegimeVerdict:
    """Classify (n, gamma, s, p) into one of the four regimes.

    BlowUp for 1 < p < p_crit; CriticalOpen exactly on p = p_crit;
    GlobalExistence above p_crit when gamma <= gamma_tilde, or for
    p >= 1 + 2*gamma/n when gamma > gamma_tilde, both subject to the
    technical cap p <= n/(n - 2s) when n > 2s; OutsideTheory otherwise.

    The boundary gamma = n/2 is rejected here (only ``p_crit`` evaluates
    it formally).
    """
    n, gamma, s, p = params.n, params.gamma, params.s, params.p
    if gamma >= n / 2.0:
        raise DomainError(
            f"classification requires gamma in (0, n/2); got gamma = {gamma!r}, n = {n!r}")

    pc = p_crit(n, gamma)
    gt = gamma_tilde(n)
    p_lower = 1.0 + 2.0 * gamma / n
    p_cap = n / (n - 2.0 * s) if n > 2.0 * s else math.inf

    reasons = (
        Reason("p > p_crit", p > pc, p, pc),
        Reason("p = p_crit", p == pc, p, pc),
        Reason("gamma <= gamma_tilde", gamma <= gt, gamma, gt),
        Reason("p >= 1 + 2*gamma/n", p >= p_lower, p, p_lower),
        Reason("p <= n/(n - 2s)", p <= p_cap, p, p_cap),
    )

    if p < pc:
        return RegimeVerdict(Regime.BLOW_UP, reasons)
    if p == pc:
        return RegimeVerdict(Regime.CRITICAL_OPEN, reasons)
    if p > p_cap:
        return RegimeVerdict(Regime.OUTSIDE_THEORY, reasons)
    if gamma <= gt or p >= p_lower:
        return RegimeVerdict(Regime.GLOBAL_EXISTENCE, reasons)
    # gamma > gamma_tilde leaves a gap p_crit < p < 1 + 2*gamma/n that no
    # covered result reaches.
    return RegimeVerdict(Regime.OUTSIDE_THEORY, reasons)


def sharp_lifespan_admissible(params: RegimeParams) -> AdmissibilityReport:
    """Whether the two-sided blow-up time scaling applies to these params.

    Requires gamma < 2, gamma <= n/2 (the formal boundary gamma = n/2 is
    allowed: there the scaling matches the classical integrable-data law),
    1 < p < p_crit, and 1 + 2*gamma/n <= p <= n/(n-2)_+ (no cap for n <= 2).
    Never raises; failures are reported as reasons.
    """
    n, gamma, p = params.n, params.gamma, params.p
    pc = p_crit(n, gamma)
    p_lower = 1.0 + 2.0 * gamma / n
    p_cap = n / (n - 2.0) if n > 2.0 else math.inf

    reasons = (
        Reason("gamma < 2", gamma < 2.0, gamma, 2.0),
        Reason("gamma <= n/2", gamma <= n / 2.0, gamma, n / 2.0),
        Reason("p < p_crit", p < pc, p, pc),
        Reason("p >= 1 + 2*gamma/n", p >= p_lower, p, p_lower),
        Reason("p <= n/(n-2)_+", p <= p_cap, p, p_cap),
    )
    return AdmissibilityReport(all(r.passed for r in reasons), reasons)
