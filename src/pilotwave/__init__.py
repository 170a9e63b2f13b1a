"""Split-step spectral propagation of rapidly oscillating potentials with
Bohmian trajectory, measure and convergence diagnostics."""

__version__ = "0.1.0"

from .bohm import (
    DensityFields,
    FieldHistory,
    TrajectoryEnsemble,
    densities,
    hydrodynamic_residual,
    integrate_trajectories,
    newton_residual,
    quantum_potential,
    sample_initial_positions,
    velocity,
)
from .errors import (
    BoundaryMassExceeded,
    ConfigError,
    InconsistencyError,
    InputError,
    MonitorAbort,
    PilotwaveError,
    PlacementError,
    ResolutionError,
    SamplingError,
    TrajectoryEscape,
    UsageError,
    WaveBlowUp,
)
from .fieldio import load_field, save_field
from .grid import ComplexField, Grid, make_grid, norms, spectral_laplacian
from .harness import (
    ConvergenceReport,
    ExperimentConfig,
    SweepRow,
    emit_csv,
    emit_json,
    harmonic_benchmark_config,
    load_config,
    run_single,
    run_sweep,
)
from .measure import (
    PhaseSpaceMeasure,
    bohmian_measure,
    flat_distance,
    flow_injectivity_monitor,
    monokinetic_deviation,
    pair_with_test_function,
    trajectory_deviation_measure,
)
from .potential import (
    SpatialProfile,
    StaticPotential,
    TemporalProfile,
    TimePeriodicPotential,
    check_subquadratic,
    constant_profile,
    cosine_lattice,
    effective_potential,
    evaluate,
    exp_sin,
    gaussian_well,
    harmonic,
    one_plus_cos,
    one_plus_half_sin,
)
from .solver import (
    MIN_STEPS_PER_FAST_PERIOD,
    OscillatingSystem,
    WaveFunction,
    gaussian_packet,
    gronwall_integrand,
    h1_distance,
    propagate,
    wkb_state,
)
from .verify import run_suite
