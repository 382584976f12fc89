"""Numerical laboratory for the semilinear damped wave equation
u_tt - Delta u + u_t = |u|^p with initial data measured in homogeneous
Sobolev norms of negative order.

The package provides exact linear Fourier propagators, decay-rate and
diffusion-phenomenon measurement in arbitrary dimension, a mild-solution
nonlinear integrator with blow-up detection, and the exponent calculus
around the critical power 1 + 4/(n + 2*gamma).
"""

from .errors import (AccuracyError, ContractError, CritexError, DomainError,
                     InsufficientDataError)
from .exponents import (Regime, RegimeParams, RegimeVerdict, alpha0,
                        classify_regime, conjugate_exponent, gamma_tilde,
                        lifespan_exponent, p_crit, p_fujita,
                        sharp_lifespan_admissible)
from .fields import (GridSpec, SpectrumField, make_initial_data, transform_forward,
                     transform_inverse)
from .propagators import forcing_weights, heat_multiplier, kernel_entries
from .radial import (RadialProfile, diffusion_difference, evolve_damped,
                     evolve_heat, fit_rate, gaussian_profile, log_radial_grid,
                     norm_radial, power_law_profile)
from .solver import RunResult, SolverConfig, State, nonlinearity, run, step

__version__ = "0.1.0"
