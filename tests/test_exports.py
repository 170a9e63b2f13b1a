import importlib
import pkgutil
import types

import pilotwave


def test_every_exported_name_exists():
    # a deleted function left in __all__ breaks ``from pilotwave.<module> import *``
    checked = []
    for info in pkgutil.iter_modules(pilotwave.__path__):
        module = importlib.import_module(f"pilotwave.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"pilotwave.{info.name}.__all__ lists missing names {missing}"
        checked.append(info.name)
    assert {"bohm", "harness", "measure", "potential", "solver"} <= set(checked)


PUBLIC_NAMES = {
    # bohm
    "DensityFields", "FieldHistory", "TrajectoryEnsemble", "continuity_residual",
    "densities", "integrate_trajectories", "quantum_potential",
    "sample_initial_positions", "velocity",
    # errors
    "BoundaryMassExceeded", "ConfigError", "InconsistencyError", "InputError",
    "MonitorAbort", "PilotwaveError", "PlacementError", "ResolutionError",
    "SamplingError", "TrajectoryEscape", "UsageError", "WaveBlowUp",
    # fieldio, grid
    "load_field", "save_field", "Grid", "make_grid", "norms",
    # harness
    "ConvergenceReport", "ExperimentConfig", "SweepRow", "emit_csv", "emit_json",
    "harmonic_benchmark_config", "load_config", "run_sweep",
    # measure
    "PhaseSpaceMeasure", "bohmian_measure", "flat_distance", "flow_injectivity_monitor",
    "monokinetic_deviation", "trajectory_deviation_measure",
    # potential
    "SpatialProfile", "StaticPotential", "TemporalProfile", "TimePeriodicPotential",
    "check_subquadratic", "constant_profile", "cosine_lattice", "effective_potential",
    "evaluate", "exp_sin", "gaussian_well", "harmonic", "one_plus_cos", "one_plus_half_sin",
    # solver, verify
    "MIN_STEPS_PER_FAST_PERIOD", "OscillatingSystem", "WaveFunction", "gaussian_packet",
    "gronwall_integrand", "h1_distance", "propagate", "run_suite",
}


def test_the_public_surface_is_the_listed_one():
    # adding or dropping a public name is a deliberate edit of this list;
    # submodules are reached as attributes but are not names of the API
    public = {
        name
        for name, value in vars(pilotwave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
