"""Typical entanglement entropy of fixed-charge sectors.

Three routes to the same quantity, built to cross-validate each other:
exact big-integer sector dimensions with the digamma formula,
thermodynamic-limit asymptotics, and Monte Carlo over Haar-random
fixed-charge states.
"""

from .models import (
    ChargeModel, GroupKind, catalog, catalog_names, load_model, weight_multiplicities,
)
from .sectors import (
    BlockTable, SectorTable, block_table, block_tables, realizable_charges,
    sector_dims, weight_counts,
)
from .thermo import (
    ChargeDistribution, ThermoPoint, density_interval, gibbs,
    infinite_temperature_density, solve_beta_star, thermo_point,
)
from .asymptotics import (
    EntropyEstimate, Regime, VarianceAsymptotics, asymptotic_log_dim,
    average_entropy_asymptotic, charge_density_moments, variance_asymptotic,
)
from .laplace import LaplaceProblem, laplace_discontinuous
from .exactavg import ExactAverage, block_average_entropy, exact_average_entropy
from .montecarlo import McConfig, McRun, run

__version__ = "0.1.0"

__all__ = [
    "ChargeModel", "GroupKind", "catalog", "catalog_names",
    "load_model", "weight_multiplicities",
    "BlockTable", "SectorTable", "block_table", "block_tables",
    "realizable_charges", "sector_dims", "weight_counts",
    "ChargeDistribution", "ThermoPoint", "density_interval", "gibbs",
    "infinite_temperature_density", "solve_beta_star", "thermo_point",
    "EntropyEstimate", "LaplaceProblem", "Regime", "VarianceAsymptotics",
    "asymptotic_log_dim", "average_entropy_asymptotic",
    "charge_density_moments", "laplace_discontinuous", "variance_asymptotic",
    "ExactAverage", "block_average_entropy", "exact_average_entropy",
    "McConfig", "McRun", "run",
    "__version__",
]
