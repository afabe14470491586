"""Quantum Battle of the Sexes: density-matrix simulation, noise-aware
qubit-pair mapping, noisy shot sampling and statistical validation."""

from .device import (
    CalibrationSnapshot,
    CouplingGraph,
    heavy_hex_graph,
    load_calibration,
    load_coupling_map,
    synth_calibration,
)
from .game import (
    CANONICAL_STRATEGIES,
    STRATEGY_H,
    STRATEGY_I,
    STRATEGY_RY_PI,
    STRATEGY_RY_PI_4,
    GameSpec,
    MixedEquilibrium,
    PayoffMatrix,
    Strategy,
    advantage_percent,
    analytical_curves,
    classical_mixed_equilibrium,
    default_gamma_grid,
    payoff_table,
)
from .gcm import (
    InfeasibleMappingError,
    MappingPlan,
    packed_plan,
    select_pairs,
    verify_separation,
)
from .noise import (
    JobCounts,
    NoiseModel,
    RunResult,
    simulate_job,
)
from .statevec import ShotCounts
from .stats import (
    ValidationReport,
    build_validation_report,
    propagate_count_error,
    relative_error_percent,
    rmse,
)

__version__ = "0.1.0"
