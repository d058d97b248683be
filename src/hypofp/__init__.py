"""Hypocoercivity certificates and sharp entropy-decay envelopes for
linear Fokker-Planck equations with degenerate diffusion."""

from .system import SystemSpec, SteadyState, ConditionAReport
from .system import check_condition_A, steady_state, hoermander_tau, green_covariance
from .entropy import (
    LogEntropy,
    QuadraticEntropy,
    PowerEntropy,
    GaussianComponent,
    GaussianMixture,
    gauss_hermite_rule,
    gaussian_log_functionals,
)
from .certificates import (
    TransportMatrix,
    DecayCertificate,
    build_P,
    verify_P,
    lambda_P,
    compare_rates,
    entropy_envelope,
    optimize_weights,
)
from .spectrum import enumerate_spectrum, poly_operator_matrix
from .flow import (
    evolve_shift,
    evolve_cov,
    evolve_mixture,
    run_trajectory,
    sharpness_scenario,
    zero_tangent_initial,
    tangency_times,
)
from .kinetic import KineticSpec, assemble_linear, kappa0, build_P_kinetic, kinetic_rate, fd_simulate

__version__ = "0.1.0"

__all__ = [
    "SystemSpec", "SteadyState", "ConditionAReport",
    "check_condition_A", "steady_state", "hoermander_tau", "green_covariance",
    "LogEntropy", "QuadraticEntropy", "PowerEntropy",
    "GaussianComponent", "GaussianMixture", "gauss_hermite_rule", "gaussian_log_functionals",
    "TransportMatrix", "DecayCertificate", "build_P", "verify_P",
    "lambda_P", "compare_rates", "entropy_envelope",
    "optimize_weights",
    "enumerate_spectrum", "poly_operator_matrix",
    "evolve_shift", "evolve_cov", "evolve_mixture", "run_trajectory",
    "sharpness_scenario", "zero_tangent_initial", "tangency_times",
    "KineticSpec", "assemble_linear", "kappa0", "build_P_kinetic",
    "kinetic_rate", "fd_simulate",
]
