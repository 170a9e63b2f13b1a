import dataclasses
import gc
import json
import math
import os
import pickle
import re
import threading
import time
import typing
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from pilotwave.cli import main as cli_main
from pilotwave.errors import BoundaryMassExceeded, ConfigError, PlacementError, TrajectoryEscape
from pilotwave.fieldio import load_field
from pilotwave.harness import (
    ConvergenceReport,
    ExperimentConfig,
    GridSpec,
    InitialStateSpec,
    MeasureSpec,
    OutputSpec,
    PotentialSpec,
    SolverSpec,
    SweepRow,
    SweepSpec,
    _step_plan,
    build_grid,
    build_initial_state,
    build_potential,
    config_from_mapping,
    emit_csv,
    emit_json,
    harmonic_benchmark_config,
    load_config,
    run_single,
    run_sweep,
)
from pilotwave.measure import flow_injectivity_monitor
from pilotwave.potential import effective_potential
from pilotwave.solver import (
    OscillatingSystem,
    StrangStepper,
    propagate,
)

BENCH_YAML = """
grid:
  dim: 1
  n_per_axis: 256
  half_width: 12.0
potential:
  temporal: one_plus_cos
  spatial: harmonic
initial_state:
  kind: gaussian
  center: [0.0]
  width: 1.0
  momentum: [0.0]
sweep:
  horizon: 0.5
  eps_list: [0.2, 0.1]
  delta_list: [0.05]
  ensemble_size: 200
  seed: 99
"""


def small_config(measure: MeasureSpec = MeasureSpec(), **sweep_kwargs) -> ExperimentConfig:
    sweep = dict(horizon=0.5, eps_list=(0.2, 0.1), delta_list=(0.05,), ensemble_size=200, seed=99)
    sweep.update(sweep_kwargs)
    return ExperimentConfig(
        grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
        sweep=SweepSpec(**sweep),
        measure=measure,
    )


class TestConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "bench.yaml"
        path.write_text(BENCH_YAML)
        cfg = load_config(path)
        assert cfg.grid.n_per_axis == 256
        assert cfg.sweep.eps_list == (0.2, 0.1)
        assert cfg.potential.temporal == "one_plus_cos"

    def test_unknown_section_rejected(self):
        data = yaml.safe_load(BENCH_YAML)
        data["gird"] = {"dim": 1}
        with pytest.raises(ConfigError, match="gird"):
            config_from_mapping(data)

    def test_unknown_key_rejected(self):
        data = yaml.safe_load(BENCH_YAML)
        data["sweep"]["horizonn"] = 2.0
        with pytest.raises(ConfigError, match="horizonn"):
            config_from_mapping(data)

    @pytest.mark.parametrize(
        "patch",
        [
            {"eps_list": (0.1, 0.2)},  # not decreasing
            {"eps_list": (1.5, 0.2)},  # above 1
            {"eps_list": ()},
            {"ensemble_size": 50},  # below measure-statistics floor
            {"horizon": 0.0},
            {"delta_list": (0.05, -0.1)},
            {"eps_list": (0.2000001, 0.2)},  # both rows would report under '0.2'
            {"delta_list": (0.05, 0.05, 0.0500001)},  # three deltas, one report key
            {"seed": -1},  # SeedSequence rejects it only once a row has propagated
            {"measure": MeasureSpec(dictionary_size=0)},  # no feature to take the max over
        ],
    )
    def test_invalid_sweeps_rejected(self, patch):
        with pytest.raises(ConfigError):
            small_config(**patch)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sweep", "seed", "abc"),
            ("sweep", "ensemble_size", "2000"),
            ("sweep", "ensemble_size", 2000.0),
            ("grid", "n_per_axis", "512"),  # once accepted through int()
            ("grid", "dim", True),
            ("solver", "dt_cap", "1e-3"),  # YAML reads 1e-3 without a dot as a string
            ("potential", "analytic_mean", "1"),
            ("potential", "temporal", 3),
            ("sweep", "eps_list", 0.2),
            ("sweep", "eps_list", [0.2, "0.1"]),
            ("initial_state", "center", [True]),
            ("output", "save_fields", 1),
            ("potential", "analytic_mean", math.nan),
            ("solver", "dt_cap", math.inf),
            ("initial_state", "center", [-math.inf]),
            # a float for every integer key: built in Python, these once
            # propagated a row or more before a raw TypeError
            ("grid", "dim", 1.0),
            ("grid", "n_per_axis", 256.0),
            ("potential", "lattice_periods", 4.0),
            ("solver", "steps_per_fast_period", 32.0),
            ("solver", "frames_per_fast_period", 16.0),
            ("solver", "quad_order", 16.0),
            ("sweep", "ensemble_size", 2000.5),
            ("sweep", "seed", 1.5),
            ("measure", "dictionary_size", 32.0),
            # numpy scalars other than np.float64: an np.int64 once ran every
            # row before the config hash could not serialize it
            ("grid", "n_per_axis", np.int64(256)),
            ("sweep", "seed", np.int64(99)),
            ("grid", "half_width", np.int64(12)),
            ("grid", "half_width", np.float32(12.0)),
            ("output", "save_fields", np.True_),
            ("initial_state", "eps_perturbation", np.False_),
            # a string where a number belongs
            ("sweep", "horizon", "0.5"),
            ("potential", "well_depth", "1.0"),
            ("sweep", "delta_list", ["0.05"]),
            # a non-finite list entry, and a tuple passed as given
            ("sweep", "delta_list", [math.nan]),
            ("sweep", "eps_list", (0.2, math.nan)),
            ("initial_state", "momentum", [0.0, math.inf]),
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, section, key, value, tmp_path, monkeypatch):
        """One rule on both entry paths: a YAML mapping and a config built
        in Python each end in a ConfigError naming the key, before any step
        and any write."""
        steps = []
        monkeypatch.setattr(StrangStepper, "advance", lambda *a, **k: steps.append(1))

        def from_yaml():
            data = yaml.safe_load(BENCH_YAML)
            data.setdefault(section, {})[key] = value
            return config_from_mapping(data)

        def in_python():
            base = config_from_mapping(yaml.safe_load(BENCH_YAML))
            sections = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
            sections[section] = dataclasses.replace(sections[section], **{key: value})
            return ExperimentConfig(**sections)

        for build in (from_yaml, in_python):
            out = tmp_path / build.__name__
            with pytest.raises(ConfigError, match=f"config key '{section}.{key}' must be "):
                run_sweep(build(), threads=1, out_dir=out)
            assert steps == []
            assert not out.exists()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sweep": SweepSpec(seed=1.5)}, "config key 'sweep.seed' must be an integer, got 1.5"),
            ({"sweep": SweepSpec(horizon=math.inf)}, "config key 'sweep.horizon' must be finite, got inf"),
        ],
    )
    def test_both_messages_keep_their_text(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**kwargs)
        assert str(info.value) == message
        data = {name: dataclasses.asdict(spec) for name, spec in kwargs.items()}
        with pytest.raises(ConfigError) as info:
            config_from_mapping(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("eps_list", [(0.2,), (0.2, 0.1, 0.05)])
    @pytest.mark.parametrize("threads", [2.5, True, "2", np.int64(2)])
    def test_worker_count_that_is_no_int_rejected(self, threads, eps_list, tmp_path, monkeypatch):
        # 2.5 once raised a raw TypeError in the row dealing of a three-row
        # sweep, and a one-row sweep ran with it
        steps = []
        monkeypatch.setattr(StrangStepper, "advance", lambda *a, **k: steps.append(1))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="the worker count must be an integer, got "):
            run_sweep(small_config(eps_list=eps_list), threads=threads, out_dir=out)
        assert steps == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            # once a bare OverflowError from the step plan
            ({"sweep": SweepSpec(horizon=math.inf)}, "sweep.horizon"),
            # once ran and reported the delta = 0 fraction under the key 'nan'
            ({"sweep": SweepSpec(delta_list=(math.nan,))}, "sweep.delta_list"),
            ({"sweep": SweepSpec(eps_list=(0.2, math.nan))}, "sweep.eps_list"),
            ({"grid": GridSpec(half_width=math.inf)}, "grid.half_width"),
            ({"solver": SolverSpec(dt_cap=math.inf)}, "solver.dt_cap"),
            ({"potential": PotentialSpec(analytic_mean=math.nan)}, "potential.analytic_mean"),
            ({"initial_state": InitialStateSpec(center=(-math.inf,))}, "initial_state.center"),
            # a list once skipped the check: the sweep ran a whole row before
            # a UsageError ended it with no report
            ({"sweep": SweepSpec(delta_list=[math.nan])}, "sweep.delta_list"),
            ({"initial_state": InitialStateSpec(center=[math.nan])}, "initial_state.center"),
            ({"initial_state": InitialStateSpec(momentum=[0.0, math.inf])}, "initial_state.momentum"),
        ],
    )
    def test_non_finite_number_built_in_python_rejected(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "section, spec",
        [("grid", "GridSpec"), ("potential", "PotentialSpec"), ("initial_state", "InitialStateSpec"),
         ("solver", "SolverSpec"), ("sweep", "SweepSpec"), ("measure", "MeasureSpec"),
         ("output", "OutputSpec")],
    )
    def test_section_of_another_type_built_in_python_rejected(self, section, spec):
        # a mapping once raised a raw AttributeError from the value walk
        other = OutputSpec() if section == "grid" else GridSpec()
        for value in ({"dim": 1}, None, other):
            with pytest.raises(ConfigError) as info:
                ExperimentConfig(**{section: value})
            assert str(info.value) == f"config section '{section}' must be a {spec}"

    def test_a_list_hashes_as_its_tuple(self):
        as_list = ExperimentConfig(
            initial_state=InitialStateSpec(center=[0.5], momentum=[1.0]),
            sweep=SweepSpec(delta_list=[0.05, 0.2]),
        )
        as_tuple = ExperimentConfig(
            initial_state=InitialStateSpec(center=(0.5,), momentum=(1.0,)),
            sweep=SweepSpec(delta_list=(0.05, 0.2)),
        )
        assert as_list.config_hash() == as_tuple.config_hash()

    def test_int_for_a_float_is_kept_as_given(self):
        data = yaml.safe_load(BENCH_YAML)
        data["grid"]["half_width"] = 12
        data["sweep"]["eps_list"] = [1, 0.5]
        data["potential"]["analytic_mean"] = 1
        cfg = config_from_mapping(data)
        assert type(cfg.grid.half_width) is int and cfg.grid.half_width == 12
        assert cfg.sweep.eps_list == (1, 0.5) and type(cfg.sweep.eps_list[0]) is int
        assert type(cfg.potential.analytic_mean) is int
        # not converted, so the hash is the one an unchecked config had
        assert '"half_width":12}' in json.dumps(cfg.to_mapping(), separators=(",", ":"))
        data["potential"]["analytic_mean"] = None
        assert config_from_mapping(data).potential.analytic_mean is None

    def test_canon_config_file_is_the_benchmark_config(self):
        # the canon_sweep benchmark reads the file; the canon test builds the config
        path = Path(__file__).resolve().parents[1] / "configs" / "harmonic_benchmark.yaml"
        cfg = load_config(path)
        assert cfg == harmonic_benchmark_config()
        assert cfg.config_hash() == harmonic_benchmark_config().config_hash()

    def test_fast_period_floor_rejected(self):
        with pytest.raises(ConfigError, match="steps_per_fast_period must be >= 32"):
            ExperimentConfig(solver=SolverSpec(steps_per_fast_period=16))

    @pytest.mark.parametrize("steps_per_fast_period", [32, 48, 64])
    def test_step_plan_keeps_the_fast_period_rule(self, steps_per_fast_period):
        # the rows trust the plan: nothing re-checks dt against eps later
        canon = harmonic_benchmark_config()
        for horizon in (0.1, 0.37, 0.5, 1.0, 1.3, 2.0, 3.7):
            for dt_cap in (1e-3, 0.0037, 0.01, 0.05, 1.0):
                cfg = dataclasses.replace(
                    canon,
                    solver=SolverSpec(steps_per_fast_period=steps_per_fast_period, dt_cap=dt_cap),
                    sweep=dataclasses.replace(canon.sweep, horizon=horizon),
                )
                for eps in cfg.sweep.eps_list:
                    n_steps, dt, stride = _step_plan(cfg, eps)
                    assert dt <= eps / steps_per_fast_period
                    assert dt <= dt_cap
                    assert n_steps % (4 * stride) == 0
                    assert n_steps * dt == pytest.approx(horizon, rel=1e-12)

    def test_hash_tracks_content(self):
        a = small_config()
        b = small_config(seed=100)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == small_config().config_hash()
        assert a.with_seed(100).config_hash() == b.config_hash()


class TestRunSingle:
    def test_time_independent_potential_degenerate(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            potential=PotentialSpec(temporal="constant", spatial="harmonic"),
            sweep=SweepSpec(
                horizon=1.0, eps_list=(0.2,), delta_list=(1e-4, 0.05), ensemble_size=200, seed=3
            ),
        )
        row = run_single(cfg, 0.2)
        assert row.valid
        assert row.h1_wave <= 5e-9
        assert dict(row.traj_dev)[1e-4] == 0.0
        assert dict(row.traj_dev)[0.05] == 0.0

    def test_zero_potential_free_case(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            potential=PotentialSpec(
                temporal="one_plus_cos", spatial="cosine_lattice", lattice_amplitude=0.0
            ),
            sweep=SweepSpec(horizon=0.5, eps_list=(0.1,), delta_list=(0.05,),
                            ensemble_size=200, seed=5),
        )
        row = run_single(cfg, 0.1)
        assert row.valid
        assert row.h1_wave <= 1e-9
        assert row.l1_rho <= 1e-9
        assert dict(row.traj_dev)[0.05] == 0.0

    def test_benchmark_row_is_finite_and_valid(self):
        row = run_single(harmonic_benchmark_config(), 0.1)
        assert row.valid and row.reason == ""
        # every float column, so a metric a stage forgets keeps its NaN default and fails
        floats = [name for name, t in typing.get_type_hints(SweepRow).items() if t is float]
        assert "regularized_fraction_eff" in floats and "wall_time" in floats
        # the one float that is NaN on a valid row: the injectivity proxy never tripped
        floats.remove("injectivity_first_violation")
        assert math.isnan(row.injectivity_first_violation)
        assert row.injectivity_ratio > 1e-3
        for name in floats:
            assert math.isfinite(getattr(row, name)), name
        assert all(math.isfinite(v) for _, v in row.traj_dev)

    def test_monitor_abort_marks_row_invalid(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            potential=PotentialSpec(temporal="one_plus_cos", spatial="cosine_lattice",
                                    lattice_amplitude=0.0),
            initial_state=InitialStateSpec(kind="gaussian", center=(0.0,), width=1.0,
                                           momentum=(5.0,)),
            sweep=SweepSpec(horizon=1.5, eps_list=(0.2,), delta_list=(0.05,),
                            ensemble_size=200, seed=1),
        )
        row = run_single(cfg, 0.2)
        assert not row.valid
        assert "boundary" in row.reason.lower()
        assert math.isnan(row.h1_wave)
        assert row.final_states is None

    def test_rows_with_nan_metrics_equal_their_copies(self):
        # NaN fields compare equal, so a row equals itself after a pipe or a copy
        aborting = dataclasses.replace(
            small_config(horizon=1.5, eps_list=(0.2,)),
            potential=PotentialSpec(temporal="one_plus_cos", spatial="cosine_lattice",
                                    lattice_amplitude=0.0),
            initial_state=InitialStateSpec(kind="gaussian", momentum=(5.0,)),
        )
        invalid = run_single(aborting, 0.2)
        valid = run_single(small_config(eps_list=(0.2,)), 0.2)
        assert not invalid.valid and math.isnan(invalid.h1_wave)
        assert valid.valid and math.isnan(valid.injectivity_first_violation)
        for row in (invalid, valid):
            copy = pickle.loads(pickle.dumps(row))
            assert copy == row and hash(copy) == hash(row)
            assert dataclasses.replace(copy, reason="other") != row
            assert dataclasses.replace(copy, h1_wave=1.0) != row

    def test_perturbed_initial_state_is_placement_checked(self):
        # the eps-scaled bump is much wider than the packet and leaks past |x| <= L/2
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=512, half_width=4.0),
            initial_state=InitialStateSpec(width=0.25, eps_perturbation=True),
            sweep=SweepSpec(horizon=0.5, eps_list=(0.2,), delta_list=(0.05,),
                            ensemble_size=200, seed=1),
        )
        with pytest.raises(PlacementError):
            run_single(cfg, 0.2)


class TestFrameDiagnostics:
    def test_each_frame_transforms_each_state_once(self, monkeypatch):
        # per frame and state: one forward and dim inverse transforms feed the
        # densities and the H1 monitor together; the Gronwall Laplacian adds 2.
        # A 1D row's two states go through each of those transforms as one
        # stack, so a frame makes 1 + dim + 2 calls and transforms
        # 2 * (1 + dim) + 2 states' worth of points.  Transforms are counted
        # on numpy's and scipy's backends both (one axis runs on numpy).
        import scipy.fft

        import pilotwave.harness as harness

        calls = []
        for module in (np.fft, scipy.fft):
            for name in ("fft", "ifft", "fftn", "ifftn"):
                def counted(*args, _real=getattr(module, name), **kwargs):
                    calls.append(np.size(args[0]))
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

        per_frame = []
        real_lockstep = harness.lockstep

        def lockstep(steppers, states, t0, n_steps, stride, on_frame, lane=None):
            def counted_frame(*args):
                before = len(calls)
                on_frame(*args)
                per_frame.append((len(calls) - before, sum(calls[before:])))

            return real_lockstep(steppers, states, t0, n_steps, stride, counted_frame, lane=lane)

        monkeypatch.setattr(harness, "lockstep", lockstep)
        cfg = small_config(eps_list=(0.2,))
        assert run_single(cfg, 0.2).valid
        n_steps, _, stride = _step_plan(cfg, 0.2)
        dim, points = cfg.grid.dim, cfg.grid.n_per_axis**cfg.grid.dim
        calls_and_points = (1 + dim + 2, (2 * (1 + dim) + 2) * points)
        assert per_frame == [calls_and_points] * (n_steps // stride + 1)


class TestRowStages:
    def test_velocity_histories_are_freed_before_the_flat_distance(self, monkeypatch):
        import pilotwave.harness as harness

        histories = []
        stored = []  # (times, frames, bytes) per history
        real_history = harness.FieldHistory

        def tracked_history(*args, **kwargs):
            history = real_history(*args, **kwargs)
            histories.append((weakref.ref(history), weakref.ref(history.values)))
            stored.append((len(history.times), history.values.shape[0], history.values.nbytes))
            return history

        seen = []
        real_mono = harness.monokinetic_deviation

        def checked_mono(*args, **kwargs):
            gc.collect()
            seen.append([(h() is None, values() is None) for h, values in histories])
            return real_mono(*args, **kwargs)

        monkeypatch.setattr(harness, "FieldHistory", tracked_history)
        monkeypatch.setattr(harness, "monokinetic_deviation", checked_mono)
        cfg = ExperimentConfig(
            grid=GridSpec(dim=2, n_per_axis=256, half_width=12.0),
            initial_state=InitialStateSpec(center=(0.0, 0.0), momentum=(0.0, 0.0)),
            sweep=SweepSpec(horizon=0.25, eps_list=(0.2,), delta_list=(0.05,),
                            ensemble_size=100, seed=4),
            measure=MeasureSpec(dictionary_size=32),
        )
        assert run_single(cfg, 0.2).valid
        # both histories were built (trajectories ran first) and neither they
        # nor their velocity arrays were reachable when the flat distance ran
        assert seen == [[(True, True), (True, True)]]
        # RK4 reads every second frame only, and only those are stored
        n_steps, _, stride = _step_plan(cfg, 0.2)
        frames = (n_steps // stride) // 2 + 1
        assert stored == [(frames, frames, frames * 2 * 256**2 * 8)] * 2

    @pytest.mark.parametrize("dim", [1, 2])
    def test_wave_metrics_run_once_the_steppers_are_gone(self, monkeypatch, dim):
        # the H1/L1 metrics computed while the steppers were alive raised
        # the peak RSS of a 2D row by 2-3 MB
        import pilotwave.harness as harness

        steppers = []
        real_stepper = harness.StrangStepper

        def tracked_stepper(*args, **kwargs):
            stepper = real_stepper(*args, **kwargs)
            steppers.append(weakref.ref(stepper))
            return stepper

        alive = []
        real_h1 = harness.h1_distance

        def checked_h1(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in steppers])
            return real_h1(*args, **kwargs)

        monkeypatch.setattr(harness, "StrangStepper", tracked_stepper)
        monkeypatch.setattr(harness, "h1_distance", checked_h1)
        cfg = small_config(eps_list=(0.2,)) if dim == 1 else tiny_2d_config()
        assert run_single(cfg, 0.2).valid
        # one stack on a small grid, one stepper per system on a large one
        assert alive == [[False] * dim]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_other_rows_inputs_are_alive_during_a_row(self, monkeypatch, threads):
        # the sweep checks its config without building any row's inputs;
        # each row builds its own, so while a row runs no other row's
        # inputs exist, and none outlives the sweep
        import pilotwave.harness as harness

        built = []  # (eps, weak reference) per _row_inputs result
        alive = []  # per row: the eps of every build alive when it steps
        real_row_inputs = harness._row_inputs

        def row_inputs(config, eps):
            inputs = real_row_inputs(config, eps)
            built.append((eps, weakref.ref(inputs)))
            return inputs

        def lockstep(*args, **kwargs):
            gc.collect()
            alive.append([eps for eps, ref in built if ref() is not None])
            raise BoundaryMassExceeded("stepping is not under test")

        monkeypatch.setattr(harness, "_row_inputs", row_inputs)
        monkeypatch.setattr(harness, "lockstep", lockstep)
        report = run_sweep(tiny_2d_config(eps_list=(0.2, 0.1)), threads=threads)
        assert [r.eps for r in report.rows] == [0.2, 0.1]
        assert alive == [[0.2], [0.1]]
        assert [eps for eps, _ in built] == [0.2, 0.1]  # one build per row
        gc.collect()
        assert all(ref() is None for _, ref in built)

    def test_config_is_checked_once_and_each_row_built_once(self, monkeypatch):
        # the theorem's hypotheses do not depend on eps: one check per
        # sweep, and a row only builds its inputs
        import pilotwave.harness as harness

        checked, built = [], []
        real_check, real_row_inputs = harness.check_subquadratic, harness._row_inputs

        def check_subquadratic(V, grid):
            checked.append(grid.n_per_axis)
            return real_check(V, grid)

        def row_inputs(config, eps):
            built.append(eps)
            return real_row_inputs(config, eps)

        def lockstep(*args, **kwargs):
            raise BoundaryMassExceeded("stepping is not under test")

        monkeypatch.setattr(harness, "check_subquadratic", check_subquadratic)
        monkeypatch.setattr(harness, "_row_inputs", row_inputs)
        monkeypatch.setattr(harness, "lockstep", lockstep)
        report = run_sweep(small_config(eps_list=(0.2, 0.1)), threads=1)
        assert [r.eps for r in report.rows] == [0.2, 0.1]
        assert checked == [256]
        assert built == [0.2, 0.1]

    @pytest.mark.parametrize("escape", [False, True, "both"])
    def test_pair_list_is_built_once_per_row(self, monkeypatch, escape):
        import scipy.spatial

        import pilotwave.harness as harness
        import pilotwave.measure as measure

        built = []  # points per pair list
        real_pairs = measure._injectivity_pairs

        def injectivity_pairs(points):
            built.append(len(points))
            return real_pairs(points)

        def no_tree(*args, **kwargs):
            raise AssertionError("a 1D row built a k-d tree")

        ensembles = []
        real_integrate = harness.integrate_trajectories

        def integrate(*args, **kwargs):
            ens = real_integrate(*args, **kwargs)
            # sample 7 escaped from the second ensemble, or from both
            if escape == "both" or (escape and ensembles):
                valid = ens.valid.copy()
                valid[7] = False
                ens = dataclasses.replace(ens, valid=valid)
            ensembles.append(ens)
            return ens

        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)  # measure imports it where it builds one
        monkeypatch.setattr(measure, "_injectivity_pairs", injectivity_pairs)
        monkeypatch.setattr(harness, "integrate_trajectories", integrate)
        row = run_single(small_config(eps_list=(0.2,)), 0.2)
        assert row.valid
        m = 200  # ensemble_size
        assert ensembles[0].valid.sum() == (m - 1 if escape == "both" else m)
        # each list is built once, by its monitor, of that ensemble's own
        # valid samples; a 1D list is sorted, never queried
        assert built == [e.valid.sum() for e in ensembles]
        assert built == {False: [m, m], True: [m, m - 1], "both": [m - 1, m - 1]}[escape]
        # the ratio is the one each ensemble gets from a pair list of its own
        want = min(flow_injectivity_monitor(e).min_pair_separation_ratio for e in ensembles)
        assert row.injectivity_ratio == want

    @pytest.mark.parametrize(
        "times, want",
        [((0.3, 0.2), 0.2), ((None, 0.25), 0.25), ((0.15, None), 0.15), ((None, None), None)],
    )
    def test_first_violation_is_the_earlier_of_both_ensembles(self, monkeypatch, times, want):
        import pilotwave.harness as harness

        reports = iter(times)
        real_monitor = harness.flow_injectivity_monitor

        def monitor(*args, **kwargs):
            rep = real_monitor(*args, **kwargs)
            return rep._replace(first_violation_time=next(reports))

        monkeypatch.setattr(harness, "flow_injectivity_monitor", monitor)
        row = run_single(small_config(eps_list=(0.2,)), 0.2)
        assert row.valid
        if want is None:
            assert math.isnan(row.injectivity_first_violation)
        else:
            assert row.injectivity_first_violation == want

    def test_regularized_fraction_is_the_largest_over_frames(self, monkeypatch):
        import pilotwave.harness as harness

        fractions = []
        real_densities = harness.densities

        def tracked(*args, **kwargs):
            fields = real_densities(*args, **kwargs)  # one call, a stack of both states
            fractions.extend(d.regularized_fraction for d in fields)
            return fields

        monkeypatch.setattr(harness, "densities", tracked)
        cfg = small_config(eps_list=(0.2,))
        row = run_single(cfg, 0.2)
        n_steps, _, stride = _step_plan(cfg, 0.2)
        assert len(fractions) == 2 * (n_steps // stride + 1)  # per frame: oscillating, effective
        assert row.regularized_fraction_osc == max(fractions[0::2])
        assert row.regularized_fraction_eff == max(fractions[1::2])
        assert 0.0 < row.regularized_fraction_osc < 1.0
        mapping = row.to_mapping()
        assert mapping["regularized_fraction_osc"] == row.regularized_fraction_osc
        assert mapping["regularized_fraction_eff"] == row.regularized_fraction_eff

    def test_one_deviation_call_per_row(self, monkeypatch):
        # one pass over the output times serves every delta of the row
        import pilotwave.harness as harness

        calls = []
        real_deviation = harness.trajectory_deviation_measure

        def counted(ens_eps, ens_eff, deltas):
            calls.append(tuple(deltas))
            return real_deviation(ens_eps, ens_eff, deltas)

        monkeypatch.setattr(harness, "trajectory_deviation_measure", counted)
        row = run_single(small_config(eps_list=(0.2,), delta_list=(1e-4, 0.05)), 0.2)
        assert row.valid
        assert calls == [(1e-4, 0.05)]
        assert [d for d, _ in row.traj_dev] == [1e-4, 0.05]

    def test_invalid_row_has_no_regularized_fraction(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            potential=PotentialSpec(temporal="one_plus_cos", spatial="cosine_lattice",
                                    lattice_amplitude=0.0),
            initial_state=InitialStateSpec(kind="gaussian", momentum=(5.0,)),
            sweep=SweepSpec(horizon=1.5, eps_list=(0.2,), delta_list=(0.05,),
                            ensemble_size=200, seed=1),
        )
        row = run_single(cfg, 0.2)
        assert not row.valid
        assert math.isnan(row.regularized_fraction_osc)
        assert math.isnan(row.regularized_fraction_eff)


class TestRunSweep:
    def test_singleton_sweep(self):
        cfg = small_config(eps_list=(0.2,))
        report = run_sweep(cfg, threads=1)
        assert len(report.rows) == 1
        assert all(len(v) == 0 for v in report.ratios().values())
        assert not report.partial

    def test_every_float_column_is_a_python_float(self):
        # h1_wave was once a numpy scalar, the one among the columns
        row = run_sweep(small_config(eps_list=(0.2,)), threads=1).rows[0]
        assert row.valid
        floats = [f.name for f in dataclasses.fields(SweepRow) if f.type == "float"]
        assert "h1_wave" in floats
        for name in floats:
            assert type(getattr(row, name)) is float, name
        assert all(type(d) is float and type(v) is float for d, v in row.traj_dev)

    def test_empty_delta_list_writes_rows_without_deviation_columns(self, tmp_path):
        report = run_sweep(small_config(eps_list=(0.2,), delta_list=()), threads=1, out_dir=tmp_path)
        assert report.rows[0].valid
        assert report.rows[0].traj_dev == ()
        header, line = (tmp_path / "report.csv").read_text().strip().split("\n")
        columns = header.split(",")
        assert "monokinetic_dev" in columns
        assert not any(c.startswith("traj_dev") for c in columns)
        assert len(line.split(",")) == len(columns)
        row = json.loads((tmp_path / "report.json").read_text())["rows"][0]
        assert row["traj_dev"] == {}
        assert row["valid"] is True

    @pytest.mark.parametrize("blocked", ["report.csv", "report.json", "psi_eps0_effective.field"])
    def test_failed_write_leaves_no_partial_report(self, tmp_path, blocked):
        # a directory in the way of one output; the sweep once raised a raw
        # IsADirectoryError and left the files written before it
        cfg = dataclasses.replace(small_config(eps_list=(0.2,)), output=OutputSpec(save_fields=True))
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {out / blocked}")):
            run_sweep(cfg, threads=1, out_dir=out)
        assert [p.name for p in out.iterdir()] == [blocked]

    @pytest.mark.parametrize("failing", ["emit_json", "save_field"])
    def test_write_that_fails_midway_leaves_no_partial_file(self, monkeypatch, tmp_path, failing):
        # a full disk after open(path, "wb") once left the truncated file
        import errno

        import pilotwave.harness as harness

        def write_then_fail(*args, **kwargs):
            path = args[-1]  # emit_json(report, path), save_field(path, wf=...)
            with open(path, "wb") as fh:
                fh.write(b"trunc")
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(harness, failing, write_then_fail)
        cfg = dataclasses.replace(small_config(eps_list=(0.2,)), output=OutputSpec(save_fields=True))
        out = tmp_path / "out"
        path = out / ("report.json" if failing == "emit_json" else "psi_eps0_oscillating.field")
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {path}")):
            run_sweep(cfg, threads=1, out_dir=out)
        assert list(out.iterdir()) == []

    def test_rows_ordered_and_ratios(self):
        cfg = small_config()
        report = run_sweep(cfg, threads=2)
        assert [r.eps for r in report.rows] == [0.2, 0.1]
        ratios = report.ratios()
        assert len(ratios["h1_wave"]) == 1
        assert 0.0 < ratios["h1_wave"][0] < 1.0

    def test_partial_report_keeps_invalid_rows(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            potential=PotentialSpec(temporal="one_plus_cos", spatial="cosine_lattice",
                                    lattice_amplitude=0.0),
            initial_state=InitialStateSpec(kind="gaussian", momentum=(5.0,)),
            sweep=SweepSpec(horizon=1.5, eps_list=(0.2, 0.1), delta_list=(0.05,),
                            ensemble_size=200, seed=1),
        )
        report = run_sweep(cfg, threads=1)
        assert report.partial
        assert len(report.rows) == 2
        assert all(not r.valid and r.reason for r in report.rows)

    def test_determinism_across_thread_counts(self, tmp_path):
        # 1 worker: serial rows; 2 and 4: rows in forked processes, whose
        # results cross a pipe, so the written reports and states must match
        cfg = small_config(eps_list=(0.2, 0.1, 0.05))
        reports = {t: run_sweep(cfg, threads=t, out_dir=tmp_path / f"t{t}") for t in (1, 2, 4)}
        for t in (2, 4):
            assert (tmp_path / f"t{t}" / "report.csv").read_bytes() == (
                tmp_path / "t1" / "report.csv"
            ).read_bytes()
            assert report_without_wall_time(tmp_path / f"t{t}" / "report.json") == (
                report_without_wall_time(tmp_path / "t1" / "report.json")
            )
            for row, serial_row in zip(reports[t].rows, reports[1].rows):
                assert row.valid and serial_row.valid
                for a, b in zip(row.final_states, serial_row.final_states):
                    assert a.time == b.time
                    assert (a.values == b.values).all()

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_workers_follow_cpu_affinity(self, monkeypatch, affinity):
        import pilotwave.harness as harness

        if affinity:
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep allowed one CPU started a thread pool")

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(harness, "_fork_pool", no_pool)
        report = run_sweep(small_config())
        assert [r.eps for r in report.rows] == [0.2, 0.1]
        assert all(r.valid for r in report.rows)

    def test_eps_perturbation_mode(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            initial_state=InitialStateSpec(eps_perturbation=True),
            sweep=SweepSpec(horizon=0.5, eps_list=(0.2, 0.05), delta_list=(0.05,),
                            ensemble_size=200, seed=9),
        )
        report = run_sweep(cfg, threads=1)
        assert not report.partial
        # the perturbed initial data still homogenizes: distances decrease
        assert report.rows[1].h1_wave < report.rows[0].h1_wave


class TestForkedRows:
    """Failures of a row run in a forked process end as they do serially."""

    def test_monitor_abort_in_a_child_is_the_serial_invalid_row(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            potential=PotentialSpec(temporal="one_plus_cos", spatial="cosine_lattice",
                                    lattice_amplitude=0.0),
            initial_state=InitialStateSpec(kind="gaussian", momentum=(5.0,)),
            sweep=SweepSpec(horizon=1.5, eps_list=(0.2, 0.1), delta_list=(0.05,),
                            ensemble_size=200, seed=1),
        )
        serial = run_sweep(cfg, threads=1)
        forked = run_sweep(cfg, threads=2)  # eps 0.2 runs in the child
        assert [dataclasses.replace(r, wall_time=0.0) for r in forked.rows] == [
            dataclasses.replace(r, wall_time=0.0) for r in serial.rows
        ]
        assert all(not r.valid and "BoundaryMassExceeded" in r.reason for r in forked.rows)

    def test_children_need_no_inherited_state(self, monkeypatch):
        # a forkserver child inherits nothing from the sweep: it gets the
        # config and its row indices, and builds its rows from them
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        import pilotwave.harness as harness

        def forkserver_pool(processes):
            return ProcessPoolExecutor(processes, mp_context=get_context("forkserver"))

        monkeypatch.setattr(harness, "_fork_pool", forkserver_pool)
        cfg = small_config(eps_list=(0.2, 0.1, 0.05))
        serial = run_sweep(cfg, threads=1)
        pooled = run_sweep(cfg, threads=2)
        assert all(r.valid for r in pooled.rows)
        assert [dataclasses.replace(r, wall_time=0.0) for r in pooled.rows] == [
            dataclasses.replace(r, wall_time=0.0) for r in serial.rows
        ]

    @staticmethod
    def _failing_child(monkeypatch, fail):
        """Make the eps 0.2 row call ``fail`` in a child; run_sweep on a
        three-row sweep gives that row to the child, with eps 0.1."""
        import pilotwave.harness as harness

        parent = os.getpid()
        real_run_single = harness.run_single

        def run_single(config, eps, lane=None):
            if eps == 0.2 and os.getpid() != parent:
                fail()
            return real_run_single(config, eps, lane)

        monkeypatch.setattr(harness, "run_single", run_single)

    def test_exception_in_a_child_reaches_the_caller(self, monkeypatch, tmp_path):
        def fail():
            raise KeyError("no such row table")

        self._failing_child(monkeypatch, fail)
        with pytest.raises(KeyError, match="no such row table"):
            run_sweep(small_config(eps_list=(0.2, 0.1, 0.05)), threads=2, out_dir=tmp_path)
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_child_that_dies_raises(self, monkeypatch, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        self._failing_child(monkeypatch, lambda: os._exit(1))
        with pytest.raises(BrokenProcessPool):
            run_sweep(small_config(eps_list=(0.2, 0.1, 0.05)), threads=2, out_dir=tmp_path)
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "report.json").exists()


def tiny_2d_config(**sweep_kwargs) -> ExperimentConfig:
    """The smallest 2D row the placement and resolution rules admit: 256**2 points."""
    sweep = dict(horizon=0.25, eps_list=(0.2,), delta_list=(0.05,), ensemble_size=100, seed=4)
    sweep.update(sweep_kwargs)
    return ExperimentConfig(
        grid=GridSpec(dim=2, n_per_axis=256, half_width=12.0),
        initial_state=InitialStateSpec(center=(0.0, 0.0), momentum=(0.0, 0.0)),
        sweep=SweepSpec(**sweep),
        measure=MeasureSpec(dictionary_size=32),
    )


def report_without_wall_time(path: Path) -> str:
    return "\n".join(line for line in path.read_text().splitlines() if '"wall_time"' not in line)


class Lane(ThreadPoolExecutor):
    """A one-thread lane that keeps every future it was given."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.futures.append(future)
        return future


class TestLanes:
    """A 2D row with a spare worker steps and measures its averaged system on
    a lane thread; nothing it reports may change."""

    @pytest.mark.parametrize(
        "eps_list, threads",
        [((0.2,), 2), ((0.2, 0.1), 4)],  # the second: two rows in turn on one lane
    )
    def test_lane_row_equals_the_serial_row(self, tmp_path, eps_list, threads):
        cfg = tiny_2d_config(eps_list=eps_list)
        serial = run_sweep(cfg, threads=1, out_dir=tmp_path / "serial")
        laned = run_sweep(cfg, threads=threads, out_dir=tmp_path / "laned")
        assert [dataclasses.replace(r, wall_time=0.0) for r in laned.rows] == [
            dataclasses.replace(r, wall_time=0.0) for r in serial.rows
        ]
        assert all(r.valid for r in laned.rows)
        assert (tmp_path / "laned" / "report.csv").read_bytes() == (
            tmp_path / "serial" / "report.csv"
        ).read_bytes()
        assert report_without_wall_time(tmp_path / "laned" / "report.json") == (
            report_without_wall_time(tmp_path / "serial" / "report.json")
        )
        for laned_row, serial_row in zip(laned.rows, serial.rows):
            for a, b in zip(laned_row.final_states, serial_row.final_states):
                assert a.time == b.time
                assert (a.values == b.values).all()

    def test_lane_steps_and_measures_on_a_second_thread(self, monkeypatch):
        import pilotwave.harness as harness

        threads = {"advance": set(), "densities": set(), "gronwall": set()}
        real_advance = StrangStepper.advance
        real_densities = harness.densities
        real_gronwall = harness.gronwall_integrand

        def advance(self, values, t):
            threads["advance"].add(threading.get_ident())
            return real_advance(self, values, t)

        def densities(psi):
            threads["densities"].add(threading.get_ident())
            return real_densities(psi)

        def gronwall_integrand(*args, **kwargs):
            threads["gronwall"].add(threading.get_ident())
            return real_gronwall(*args, **kwargs)

        monkeypatch.setattr(StrangStepper, "advance", advance)
        monkeypatch.setattr(harness, "densities", densities)
        monkeypatch.setattr(harness, "gronwall_integrand", gronwall_integrand)
        assert run_sweep(tiny_2d_config(), threads=2).rows[0].valid
        assert len(threads["advance"]) == 2
        assert threads["densities"] == threads["advance"]
        assert threading.get_ident() in threads["advance"]  # the row thread runs one half
        # the Gronwall term runs on the lane alone
        assert threads["gronwall"] == threads["advance"] - {threading.get_ident()}

    def test_a_2d_row_builds_one_kinetic_factor(self, monkeypatch):
        import pilotwave.harness as harness

        factors = []
        real_lockstep = harness.lockstep

        def lockstep(steppers, *args, **kwargs):
            factors.extend(s.kin for s in steppers)
            return real_lockstep(steppers, *args, **kwargs)

        monkeypatch.setattr(harness, "lockstep", lockstep)
        assert run_single(tiny_2d_config(), 0.2).valid
        assert len(factors) == 2 and factors[0] is factors[1]

    # ``lanes``: whether the calling process opens the lane, which it does
    # on a grid of at least LANE_MIN_POINTS points with a second worker; a
    # 1D sweep never does, even with workers to spare
    @pytest.mark.parametrize(
        "cfg, threads, lanes",
        [
            (small_config(eps_list=(0.2,)), 2, False),  # 1D, one row: a spare worker
            (small_config(eps_list=(0.2,)), 8, False),
            (tiny_2d_config(), 1, False),
            (tiny_2d_config(eps_list=(0.2, 0.1)), 3, True),  # rows share the one lane
            (tiny_2d_config(), 2, True),
            (tiny_2d_config(eps_list=(0.2, 0.1)), 4, True),
            (small_config(), 1, False),
            (small_config(), 4, False),  # 1D rows in 2 processes, 2 workers to spare
            (tiny_2d_config(eps_list=(0.2, 0.1)), 1, False),
            (small_config(eps_list=(0.2, 0.1, 0.05)), 2, False),  # no worker to spare
            (small_config(eps_list=(0.2, 0.1, 0.05)), 4, False),
        ],
    )
    def test_lane_needs_a_spare_worker_and_a_large_grid(self, monkeypatch, cfg, threads, lanes):
        import pilotwave.harness as harness

        seen = []  # rows run in this process; a child's entries stay in the child
        pools = []
        fork_pools = []
        real_pool = harness.ThreadPoolExecutor
        real_fork_pool = harness._fork_pool

        def run_single(config, eps, lane=None):
            seen.append((eps, threading.get_ident(), lane))
            # where the row ran travels back in its reason, across the pipe
            where = (os.getpid(), lane is not None, threading.active_count())
            return SweepRow(eps=eps, valid=False, reason=json.dumps(where), wall_time=0.0)

        def pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers", args[0] if args else None))
            return real_pool(*args, **kwargs)

        def fork_pool(processes):
            fork_pools.append(processes)
            return real_fork_pool(processes)

        monkeypatch.setattr(harness, "run_single", run_single)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(harness, "_fork_pool", fork_pool)
        report = run_sweep(cfg, threads=threads)
        eps_list = list(cfg.sweep.eps_list)
        assert [r.eps for r in report.rows] == eps_list
        where = [json.loads(r.reason) for r in report.rows]
        # only the calling process's rows take the lane; a child has none
        assert all(lane == (lanes and pid == os.getpid()) for pid, lane, _ in where)
        assert all(ident == threading.get_ident() for _, ident, _ in seen)
        assert len({id(lane) for _, _, lane in seen}) == 1
        # one pool of one lane thread, and no thread pool for the rows
        assert pools == ([1] if lanes else [])
        workers = min(threads, len(eps_list))
        if cfg.grid.dim == 1 and workers >= 2:
            # a fork pool of workers - 1 processes: the longest row, the
            # last, runs here, and every other row in a child that holds no
            # thread but its own
            assert fork_pools == [workers - 1]
            assert [eps for eps, _, _ in seen] == eps_list[-1:]
            assert all(pid != os.getpid() and count == 1 for pid, _, count in where[:-1])
        else:
            # the rows run on the calling thread, in eps_list order
            assert fork_pools == []
            assert [eps for eps, _, _ in seen] == eps_list
            assert all(pid == os.getpid() for pid, _, _ in where)

    def test_rows_are_dealt_longest_first_into_the_least_loaded_bin(self):
        import pilotwave.harness as harness

        # the canon's rows cost 1 : 2 : 4 : 8; each bin lists its rows in
        # eps_list order
        assert harness._deal_longest_first([160, 320, 640, 1280], 2) == [[3], [0, 1, 2]]
        assert harness._deal_longest_first([160, 320, 640, 1280], 3) == [[3], [2], [0, 1]]
        assert harness._deal_longest_first([160, 320, 640], 3) == [[2], [1], [0]]
        # one bin is the serial sweep, in eps_list order
        assert harness._deal_longest_first([160, 320, 640, 1280], 1) == [[0, 1, 2, 3]]
        # ties keep eps_list order and go to the first least loaded bin
        assert harness._deal_longest_first([320, 320, 320], 2) == [[0, 2], [1]]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_row_drops_its_inputs_once_it_has_run(self, monkeypatch, threads):
        # the sweep builds no row's inputs to check its config, and a row's
        # own inputs are gone when the next row starts
        import pilotwave.harness as harness

        built = []
        alive_at_row_start = []
        real_row_inputs = harness._row_inputs

        def row_inputs(config, eps):
            inputs = real_row_inputs(config, eps)
            built.append(weakref.ref(inputs.psi0.values))
            return inputs

        def run_single(config, eps, lane=None):
            gc.collect()
            alive_at_row_start.append(sum(ref() is not None for ref in built))
            harness._row_inputs(config, eps)  # as the row builds its own
            return SweepRow(eps=eps, valid=False, reason="not run", wall_time=0.0)

        monkeypatch.setattr(harness, "_row_inputs", row_inputs)
        monkeypatch.setattr(harness, "run_single", run_single)
        report = run_sweep(tiny_2d_config(eps_list=(0.2, 0.1)), threads=threads)
        assert len(built) == 2  # one build per row
        assert alive_at_row_start == [0, 0]
        assert list(report.metadata["dt_per_eps"]) == ["0.2", "0.1"]

    @pytest.mark.parametrize("where", ["monitors", "gronwall"])
    def test_mid_row_abort_leaves_no_lane_task(self, monkeypatch, where):
        # the middle frame aborts the row, from the monitors on the row
        # thread or from its Gronwall term on the lane; slow terms keep the
        # lane busy when the abort arrives
        import pilotwave.harness as harness

        cfg = tiny_2d_config()
        eps = cfg.sweep.eps_list[0]
        middle = cfg.sweep.horizon / 2
        armed = True
        real_check_monitors = harness.check_monitors
        real_gronwall = harness.gronwall_integrand

        def check_monitors(bmass, h1, h1_initial, t):
            if armed and where == "monitors" and t >= middle:
                raise BoundaryMassExceeded(f"test abort at t={t}")
            real_check_monitors(bmass, h1, h1_initial, t)

        def gronwall_integrand(psi_eps, *args, **kwargs):
            time.sleep(0.02)
            if armed and where == "gronwall" and psi_eps.time >= middle:
                raise BoundaryMassExceeded(f"test abort at t={psi_eps.time}")
            return real_gronwall(psi_eps, *args, **kwargs)

        monkeypatch.setattr(harness, "check_monitors", check_monitors)
        monkeypatch.setattr(harness, "gronwall_integrand", gronwall_integrand)
        with Lane() as lane:
            aborted = run_single(cfg, eps, lane)
            assert all(f.done() for f in lane.futures)
            assert not aborted.valid
            assert aborted.reason.startswith("BoundaryMassExceeded: test abort")
            armed = False
            after = run_single(cfg, eps, lane)
        serial = run_single(cfg, eps)
        assert after.valid
        assert dataclasses.replace(after, wall_time=0.0) == dataclasses.replace(serial, wall_time=0.0)
        for a, b in zip(after.final_states, serial.final_states):
            assert (a.values == b.values).all()

    def test_monitor_abort_under_a_lane(self):
        cfg = dataclasses.replace(
            tiny_2d_config(horizon=1.5),
            potential=PotentialSpec(temporal="one_plus_cos", spatial="cosine_lattice",
                                    lattice_amplitude=0.0),
            initial_state=InitialStateSpec(center=(0.0, 0.0), momentum=(5.0, 0.0)),
        )
        baseline = threading.active_count()
        serial = run_sweep(cfg, threads=1).rows[0]
        laned = run_sweep(cfg, threads=2).rows[0]
        assert not laned.valid
        assert "BoundaryMassExceeded" in laned.reason
        assert laned.reason == serial.reason
        assert threading.active_count() == baseline


class TestOneDimensionalLane:
    """A 1D row has no lane: it runs every stage on its own thread and runs
    the injectivity monitors in turn, each building its own pair list,
    whatever the worker count; nothing it reports may change with the
    count."""

    def test_one_row_sweep_is_byte_identical_at_one_and_two_threads(self, monkeypatch, tmp_path):
        import pilotwave.harness as harness
        import pilotwave.measure as measure

        cfg = dataclasses.replace(small_config(eps_list=(0.2,)), output=OutputSpec(save_fields=True))
        serial = run_sweep(cfg, threads=1, out_dir=tmp_path / "serial")

        names = {"densities": harness, "gronwall_integrand": harness,
                 "integrate_trajectories": harness, "_injectivity_pairs": measure,
                 "flow_injectivity_monitor": harness}
        threads = {name: [] for name in (*names, "advance")}
        for name, module in names.items():
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                threads[_name].append(threading.get_ident())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        real_advance = StrangStepper.advance

        def advance(self, values, t):
            threads["advance"].append(threading.get_ident())
            return real_advance(self, values, t)

        monkeypatch.setattr(StrangStepper, "advance", advance)
        two = run_sweep(cfg, threads=2, out_dir=tmp_path / "two")

        for name, calls in threads.items():
            assert calls and set(calls) == {threading.get_ident()}, name
        assert len(threads["_injectivity_pairs"]) == 2  # one per monitor
        assert len(threads["flow_injectivity_monitor"]) == 2

        assert two.rows[0].valid
        assert dataclasses.replace(two.rows[0], wall_time=0.0) == dataclasses.replace(
            serial.rows[0], wall_time=0.0
        )
        files = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
        assert {"psi_eps0_oscillating.field", "psi_eps0_effective.field"} <= set(files)
        for name in files:
            a, b = tmp_path / "serial" / name, tmp_path / "two" / name
            if name == "report.json":
                assert report_without_wall_time(a) == report_without_wall_time(b)
            else:
                assert a.read_bytes() == b.read_bytes(), name

    def test_escaped_samples_give_the_same_injectivity_with_a_lane(self, monkeypatch):
        # samples of the oscillating ensemble, each row's first, escape, so
        # its pair list has fewer points than the averaged one's; a lane
        # handed to a 1D row is given no task
        import pilotwave.harness as harness
        import pilotwave.measure as measure

        real_integrate = harness.integrate_trajectories
        real_monitor = harness.flow_injectivity_monitor
        real_pairs = measure._injectivity_pairs
        integrated = []
        given = []  # (every sample valid, list of its own valid samples) per monitor call
        built = []  # the points of every pair list

        def integrate(*args, **kwargs):
            ens = real_integrate(*args, **kwargs)
            integrated.append(ens)
            if len(integrated) % 2:
                valid = ens.valid.copy()
                valid[[3, 7, 11]] = False
                ens = dataclasses.replace(ens, valid=valid)
            return ens

        def injectivity_pairs(points):
            built.append(points)
            return real_pairs(points)

        def monitor(ens):
            report = real_monitor(ens)
            (points,) = built[len(given):]  # built by this call
            given.append((bool(ens.valid.all()), np.array_equal(points, ens.initial_points[ens.valid])))
            return report

        monkeypatch.setattr(harness, "integrate_trajectories", integrate)
        monkeypatch.setattr(harness, "flow_injectivity_monitor", monitor)
        monkeypatch.setattr(measure, "_injectivity_pairs", injectivity_pairs)
        cfg = small_config(eps_list=(0.2,))
        serial = run_single(cfg, 0.2)
        with Lane() as lane:
            laned = run_single(cfg, 0.2, lane)
            assert lane.futures == []
        # each monitor, in turn, builds the list of its own ensemble's valid samples
        assert given == [(False, True), (True, True)] * 2
        assert serial.valid and laned.valid
        for name in ("injectivity_ratio", "injectivity_first_violation"):
            assert repr(getattr(laned, name)) == repr(getattr(serial, name)), name
        assert dataclasses.replace(laned, wall_time=0.0) == dataclasses.replace(serial, wall_time=0.0)

    def test_trajectory_escape_is_the_same_row_at_one_and_two_threads(self, monkeypatch):
        # the averaged ensemble escapes, before any pair list is built
        import pilotwave.harness as harness
        import pilotwave.measure as measure

        real_integrate = harness.integrate_trajectories
        real_pairs = measure._injectivity_pairs
        calls = []
        builds = []

        def integrate(*args, **kwargs):
            calls.append(threading.get_ident())
            if len(calls) % 2 == 0:
                raise TrajectoryEscape("6.0% of trajectory samples left the box (cap 5%)")
            return real_integrate(*args, **kwargs)

        def injectivity_pairs(*args, **kwargs):
            builds.append(threading.get_ident())
            return real_pairs(*args, **kwargs)

        monkeypatch.setattr(harness, "integrate_trajectories", integrate)
        monkeypatch.setattr(measure, "_injectivity_pairs", injectivity_pairs)
        cfg = small_config(eps_list=(0.2,))
        baseline = threading.active_count()
        rows = [run_sweep(cfg, threads=t).rows[0] for t in (1, 2)]
        assert threading.active_count() == baseline
        assert set(calls) == {threading.get_ident()}
        for row in rows:
            assert not row.valid
            assert row.reason == "TrajectoryEscape: 6.0% of trajectory samples left the box (cap 5%)"
        assert dataclasses.replace(rows[0], wall_time=0.0) == dataclasses.replace(rows[1], wall_time=0.0)
        with Lane() as lane:
            row = run_single(cfg, 0.2, lane)
            assert lane.futures == []
        assert row.reason == rows[0].reason
        assert builds == []


class TestLaneCalls:
    """A one-row sweep makes the same pair list builds, all on the row's
    thread, one per monitor of its own ensemble's valid samples, at one
    thread and at two."""

    @staticmethod
    def _calls(monkeypatch, cfg, threads, escape):
        import pilotwave.harness as harness
        import pilotwave.measure as measure

        real_integrate = harness.integrate_trajectories
        real_pairs = measure._injectivity_pairs
        real_monitor = harness.flow_injectivity_monitor
        ensembles = []
        monitored = []  # ensemble index per monitor call
        built = []  # (monitored ensemble index, points, lo, hi) per pair list built
        laned = []  # whether each build ran off the calling thread

        def integrate(*args, **kwargs):
            ens = real_integrate(*args, **kwargs)
            if escape and not ensembles:  # samples of the oscillating ensemble escaped
                valid = ens.valid.copy()
                valid[[3, 7]] = False
                ens = dataclasses.replace(ens, valid=valid)
            ensembles.append(ens)
            return ens

        def injectivity_pairs(points):
            laned.append(threading.get_ident() != threading.main_thread().ident)
            lo, hi = real_pairs(points)
            built.append((monitored[-1], points.copy(), lo, hi))
            return lo, hi

        def monitor(ens):
            (k,) = [i for i, e in enumerate(ensembles) if e is ens]
            monitored.append(k)
            return real_monitor(ens)

        monkeypatch.setattr(harness, "integrate_trajectories", integrate)
        monkeypatch.setattr(measure, "_injectivity_pairs", injectivity_pairs)
        monkeypatch.setattr(harness, "flow_injectivity_monitor", monitor)
        row = run_sweep(cfg, threads=threads).rows[0]
        monkeypatch.undo()
        assert row.valid
        assert not any(laned)
        for k, points, _, _ in built:
            assert np.array_equal(points, ensembles[k].initial_points[ensembles[k].valid])
        return row, built

    @pytest.mark.parametrize("escape", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_and_two_threads_make_the_same_calls(self, monkeypatch, dim, escape):
        cfg = small_config(eps_list=(0.2,)) if dim == 1 else tiny_2d_config()
        serial, built_1 = self._calls(monkeypatch, cfg, 1, escape)
        laned, built_2 = self._calls(monkeypatch, cfg, 2, escape)
        m = cfg.sweep.ensemble_size
        # one list per monitor, in ensemble order: the escaped ensemble's
        # valid samples, then every sample of the other
        assert [(k, len(x)) for k, x, _, _ in built_1] == [(0, m - 2 if escape else m), (1, m)]
        assert len(built_2) == len(built_1)
        for a, b in zip(built_1, built_2):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        assert dataclasses.replace(laned, wall_time=0.0) == dataclasses.replace(serial, wall_time=0.0)


class TestEmitters:
    def _tiny_report(self):
        row = SweepRow(
            eps=0.2,
            h1_wave=1.25e-3,
            l1_rho=2.5e-4,
            l1_current=7.5e-4,
            b_eps_avg=5.5e-3,
            monokinetic_dev=1e-3,
            traj_dev=((0.05, 0.04),),
            boundary_mass=1e-15,
            injectivity_ratio=0.7,
            valid=True,
            reason="",
            wall_time=0.1,
        )
        return ConvergenceReport(rows=(row,), metadata={"config_hash": "abc", "code_version": "0.1.0"})

    def test_empty_report_header_only(self, tmp_path):
        report = ConvergenceReport(rows=(), metadata={})
        path = tmp_path / "empty.csv"
        emit_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("eps,h1_wave,l1_rho,l1_current,b_eps_avg,monokinetic_dev")

    def test_csv_format_contract(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(self._tiny_report(), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header == [
            "eps", "h1_wave", "l1_rho", "l1_current", "b_eps_avg", "monokinetic_dev",
            "traj_dev_delta_0.05", "boundary_mass", "injectivity_ratio",
            "injectivity_first_violation", "regularized_fraction_osc", "regularized_fraction_eff",
            "valid", "reason",
        ]
        cells = lines[1].split(",")
        assert cells[0] == "0.20000000000000001"  # 17 significant digits
        assert cells[-2] == "true"
        assert float(cells[1]) == 1.25e-3

    def test_json_round_trip(self, tmp_path):
        report = self._tiny_report()
        path = tmp_path / "report.json"
        emit_json(report, path)
        parsed = json.loads(path.read_text())
        assert parsed == json.loads(json.dumps(report.to_mapping()))
        # 17-significant-digit floats round-trip bit-exactly
        assert parsed["rows"][0]["h1_wave"] == 1.25e-3
        assert parsed["rows"][0]["eps"] == 0.2

    def test_integral_float_keeps_its_point(self, tmp_path):
        values = {"half_width": 16.0, "neg": -3.0, "zero": -0.0, "big": 1e16, "huge": 1e22,
                  "count": 16, "third": 1 / 3}
        report = ConvergenceReport(rows=self._tiny_report().rows, metadata=values)
        path = tmp_path / "report.json"
        emit_json(report, path)
        text = path.read_text()
        for line in ('"half_width": 16.0,', '"neg": -3.0,', '"zero": -0.0,',
                     '"big": 10000000000000000.0,', '"huge": 1e+22,', '"count": 16,',
                     '"third": 0.33333333333333331'):
            assert line in text
        parsed = json.loads(text)["metadata"]
        assert parsed == values
        assert {k: type(v) for k, v in parsed.items()} == {k: type(v) for k, v in values.items()}
        # the CSV keeps its 17-significant-digit cells
        emit_csv(ConvergenceReport(rows=(dataclasses.replace(report.rows[0], eps=1.0),), metadata={}),
                 tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_text().split("\n")[1].startswith("1,")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_report_config_reloads_to_its_own_hash(self, dim, tmp_path):
        # an integral float (half_width, width) once came back as an int,
        # which hashes as written
        cfg = ExperimentConfig(
            grid=GridSpec(dim=dim, n_per_axis=256, half_width=12.0 + 4.0 * (dim - 1)),
            initial_state=InitialStateSpec(center=(0.0,) * dim, width=1.0, momentum=(0.0,) * dim),
            sweep=SweepSpec(horizon=0.25, eps_list=(0.2,), delta_list=(0.05,), ensemble_size=100, seed=4),
        )
        assert run_sweep(cfg, threads=1, out_dir=tmp_path).rows[0].valid
        text = (tmp_path / "report.json").read_text()
        assert f'"half_width": {cfg.grid.half_width!r}\n' in text
        report = json.loads(text)
        reloaded = config_from_mapping(report["metadata"]["config"])
        assert reloaded == cfg
        assert reloaded.config_hash() == report["metadata"]["config_hash"] == cfg.config_hash()

    def test_json_handles_nan_rows(self, tmp_path):
        row = SweepRow(
            eps=0.1, h1_wave=float("nan"), l1_rho=float("nan"), l1_current=float("nan"),
            b_eps_avg=float("nan"), monokinetic_dev=float("nan"), traj_dev=((0.05, float("nan")),),
            boundary_mass=float("nan"), injectivity_ratio=float("nan"),
            valid=False, reason="BoundaryMassExceeded: boom", wall_time=0.0,
        )
        report = ConvergenceReport(rows=(row,), metadata={})
        path = tmp_path / "invalid.json"
        emit_json(report, path)
        parsed = json.loads(path.read_text())
        assert math.isnan(parsed["rows"][0]["h1_wave"])
        assert parsed["rows"][0]["reason"].startswith("BoundaryMassExceeded")
        assert parsed["partial"] is True


class TestReadmeContract:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def _block(self, after: str) -> str:
        """The first fenced block after the line ``after``."""
        text = self.README.read_text(encoding="utf-8")
        rest = text[text.index(after + "\n") :]
        start = rest.index("```")
        body = rest[rest.index("\n", start) + 1 :]
        return body[: body.index("```")]

    def test_schema_block_is_the_default_config(self):
        block = self._block("## Configuration schema (YAML)")
        assert config_from_mapping(yaml.safe_load(block)) == ExperimentConfig()

    def test_csv_column_block_is_the_emitted_header(self, tmp_path):
        block = self._block("`report.csv` columns:")
        documented = [c.strip() for c in block.replace("\n", " ").split(",")]
        path = tmp_path / "one.csv"
        row = SweepRow(eps=0.1, traj_dev=((0.05, 0.0),), valid=True, reason="", wall_time=0.0)
        emit_csv(ConvergenceReport(rows=(row,), metadata={}), path)
        header = path.read_text().split("\n")[0].split(",")
        placeholder = ["traj_dev_delta_<delta>..." if c == "traj_dev_delta_0.05" else c
                       for c in header]
        assert documented == placeholder


    def test_library_sketch_runs(self):
        exec(self._block("## Library sketch"), {})


class TestFieldSnapshots:
    def test_save_fields_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            sweep=SweepSpec(horizon=0.5, eps_list=(0.2,), delta_list=(0.05,),
                            ensemble_size=200, seed=2),
            output=OutputSpec(save_fields=True),
        )
        run_sweep(cfg, threads=1, out_dir=tmp_path)
        osc = load_field(tmp_path / "psi_eps0_oscillating.field")
        eff = load_field(tmp_path / "psi_eps0_effective.field")
        assert osc.grid.n_per_axis == 256
        assert osc.time == pytest.approx(0.5)
        assert eff.time == pytest.approx(0.5)
        # the two final states stay close for this configuration
        assert np.max(np.abs(osc.values - eff.values)) < 0.05

        # the snapshots are the row's own states, marched by the propagate loop
        grid = build_grid(cfg.grid)
        V = build_potential(cfg.potential, grid)
        Vstar = effective_potential(V, grid, cfg.solver.quad_order)
        psi0 = build_initial_state(cfg.initial_state, grid, eps=0.2)
        dt = _step_plan(cfg, 0.2)[1]
        ref_eff = propagate(psi0, Vstar, 0.5, dt, [0.5])[-1]
        ref_osc = propagate(psi0, OscillatingSystem(V, 0.2), 0.5, dt, [0.5])[-1]
        assert np.array_equal(eff.values, ref_eff.values)
        assert np.array_equal(osc.values, ref_osc.values)

    def test_invalid_row_saves_no_snapshot(self, tmp_path, capsys):
        cfg_path = tmp_path / "leaky.yaml"
        cfg_path.write_text(
            "grid: {dim: 1, n_per_axis: 256, half_width: 12.0}\n"
            "potential: {spatial: cosine_lattice, lattice_amplitude: 0.0}\n"
            "initial_state: {momentum: [5.0]}\n"
            "sweep: {horizon: 1.5, eps_list: [0.2]}\n"
            "output: {save_fields: true}\n"
        )
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert not list(out.glob("psi_eps0_*"))
        assert json.loads((out / "report.json").read_text())["partial"] is True


class TestCli:
    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML)
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", "2"])
        assert rc == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        parsed = json.loads((out / "report.json").read_text())
        assert len(parsed["rows"]) == 2

    def test_report_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML)
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / 'report.json'}")
        assert [p.name for p in out.iterdir()] == ["report.json"]

    def test_config_error_stops_the_sweep_before_any_row(self, tmp_path, monkeypatch, capsys):
        # the eps-scaled bump pushes the eps=1 state past |x| <= L/2; the
        # eps=1e-4 row is fine and would take 320,000 steps
        import pilotwave.harness as harness

        started = []

        def no_lockstep(*args, **kwargs):
            started.append(1)
            raise AssertionError("a row started propagating")

        monkeypatch.setattr(harness, "lockstep", no_lockstep)
        cfg_path = tmp_path / "narrow.yaml"
        cfg_path.write_text(
            "grid: {dim: 1, n_per_axis: 512, half_width: 6.0}\n"
            "initial_state: {width: 0.5, eps_perturbation: true}\n"
            "sweep: {eps_list: [1.0, 0.0001]}\n"
        )
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", "2"])
        assert rc == 2
        assert "outside |x| <= L/2" in capsys.readouterr().err
        assert started == []
        assert not out.exists() or not any(out.iterdir())

        # a negative seed or an empty feature dictionary fails here too, not
        # after the rows have propagated
        for extra, text, message in (
            (["--seed", "-1"], BENCH_YAML, "seed must be >= 0"),
            ([], BENCH_YAML + "measure: {dictionary_size: 0}\n", "dictionary_size must be >= 1"),
            # a value of the wrong type too, not a TypeError halfway
            ([], BENCH_YAML.replace("seed: 99", "seed: abc"), "'sweep.seed' must be an integer"),
            ([], BENCH_YAML.replace("ensemble_size: 200", 'ensemble_size: "2000"'),
             "'sweep.ensemble_size' must be an integer"),
            ([], BENCH_YAML.replace("n_per_axis: 256", 'n_per_axis: "256"'),
             "'grid.n_per_axis' must be an integer"),
            ([], BENCH_YAML.replace("eps_list: [0.2, 0.1]", "eps_list: [0.2000001, 0.2]"),
             "share a report key"),
            ([], BENCH_YAML.replace("kind: gaussian", "kind: wkb"), "got 'wkb'"),
            # unknown names of mixed types, which cannot be sorted as they are
            ([], BENCH_YAML.replace("  dim: 1\n", "  dim: 1\n  1: 2\n  foo: 3\n"),
             "unknown keys in section 'grid': ['foo', 1]"),
            ([], BENCH_YAML + "1: {}\nfoo: {}\n", "unknown config sections: ['foo', 1]"),
            # max d^2 V = 1.23e7 breaks the convergence theorem's hypotheses
            ([], BENCH_YAML.replace(
                "spatial: harmonic", "spatial: cosine_lattice\n  lattice_amplitude: 1.0e+7"
            ), "(bound 1e+06)"),
            (["--threads", "0"], BENCH_YAML, "worker count must be >= 1, got 0"),
            (["--threads", "-3"], BENCH_YAML, "worker count must be >= 1, got -3"),
        ):
            cfg_path.write_text(text)
            rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)] + extra)
            assert rc == 2
            assert message in capsys.readouterr().err
            assert started == []
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("case", ["missing", "bad_yaml", "out_under_file"])
    def test_unusable_config_or_output_exits_2_before_any_row(
        self, tmp_path, monkeypatch, capsys, case
    ):
        import pilotwave.harness as harness

        started = []
        real_run_single = harness.run_single

        def counted(*args, **kwargs):
            started.append(1)
            return real_run_single(*args, **kwargs)

        monkeypatch.setattr(harness, "run_single", counted)
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML)
        out = tmp_path / "out"
        if case == "missing":
            cfg_path = tmp_path / "absent.yaml"
            named = str(cfg_path)
        elif case == "bad_yaml":
            cfg_path.write_text("grid: {dim: 1\n")
            named = str(cfg_path)
        else:
            (tmp_path / "plain").write_text("not a directory\n")
            out = tmp_path / "plain" / "out"
            named = str(out)
        for command in (["sweep"], ["run", "--eps", "0.2"]):
            rc = cli_main(command + ["--config", str(cfg_path), "--out", str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert named in err
        assert started == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed: 99", "seed: 99\nsolver: {quad_order: 4}", "quad_order must be >= 8"),
            ("spatial: harmonic", "spatial: harmonic\n  analytic_mean: 2.0", "analytic mean 2.0"),
        ],
        ids=["quad_order", "analytic_mean"],
    )
    def test_quadrature_errors_exit_2_before_any_row(
        self, tmp_path, monkeypatch, capsys, old, new, message
    ):
        import pilotwave.harness as harness

        started = []
        monkeypatch.setattr(harness, "run_single", lambda *a, **k: started.append(1))
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML.replace(old, new))
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert started == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("horizon: 0.5", "horizon: .inf", "sweep.horizon"),
            ("delta_list: [0.05]", "delta_list: [.nan]", "sweep.delta_list"),
            ("spatial: harmonic", "spatial: gaussian_well\n  well_depth: .nan", "potential.well_depth"),
            ("temporal: one_plus_cos", "temporal: constant\n  temporal_value: .nan",
             "potential.temporal_value"),
            ("seed: 99", "seed: 99\nsolver: {dt_cap: .inf}", "solver.dt_cap"),  # once ran uncapped
        ],
        ids=["horizon", "delta_list", "well_depth", "temporal_value", "dt_cap"],
    )
    def test_non_finite_numbers_exit_2_before_any_row(
        self, tmp_path, monkeypatch, capsys, old, new, key
    ):
        import pilotwave.harness as harness

        started = []
        monkeypatch.setattr(harness, "run_single", lambda *a, **k: started.append(1))
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML.replace(old, new))
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"'{key}' must be" in err and "finite" in err
        assert started == []
        assert not out.exists()

    def test_run_command_requires_unambiguous_eps(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML)
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        rc = cli_main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--eps", "0.2"]
        )
        assert rc == 0
        parsed = json.loads((tmp_path / "o" / "report.json").read_text())
        assert parsed["rows"][0]["eps"] == 0.2
        rc = cli_main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--eps", "1.5"]
        )
        assert rc == 2
        assert "eps values must lie in (0, 1]" in capsys.readouterr().err

    def test_run_command_is_a_one_eps_sweep(self, tmp_path):
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML + "output:\n  save_fields: true\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--eps", "0.1"]) == 0
        assert (out / "psi_eps0_oscillating.field").exists()
        assert (out / "psi_eps0_effective.field").exists()
        metadata = json.loads((out / "report.json").read_text())["metadata"]
        assert metadata["config"]["sweep"]["eps_list"] == [0.1]
        assert list(metadata["dt_per_eps"]) == ["0.1"]

    def test_run_command_has_no_threads_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML)
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                      "--eps", "0.2", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = tmp_path / "bench.yaml"
        cfg_path.write_text(BENCH_YAML)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli_main(
            ["sweep", "--config", str(cfg_path), "--out", str(out_b), "--seed", "12345"]
        ) == 0
        ha = json.loads((out_a / "report.json").read_text())["metadata"]["config_hash"]
        hb = json.loads((out_b / "report.json").read_text())["metadata"]["config_hash"]
        assert ha != hb

    def test_verify_unknown_suite_is_usage_error(self, capsys):
        assert cli_main(["verify", "--suite", "unknown_name"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_verify_full_suite_runs_every_suite(self, capsys):
        from pilotwave.verify import SUITE_NAMES, run_suite

        assert cli_main(["verify", "--suite", "full"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "suite 'full': PASS"
        # one [PASS] line per check, every suite's checks in suite order
        suites = [name for name in SUITE_NAMES if name != "full"]
        want = [c.line() for name in suites for c in run_suite(name, printer=None).checks]
        assert "measure_metrics" in suites and all(w.startswith("[PASS] ") for w in want)
        assert lines[:-1] == want

    def test_verify_quantum_potential_suite(self, capsys):
        assert cli_main(["verify", "--suite", "quantum_potential"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
