"""What a run imports: a 1D run needs only numpy and yaml, and an nD config
loads scipy when it is built, so that no row pays the import.  Each check
runs in a fresh interpreter, whose ``sys.modules`` holds only what it
imported itself."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(script: str, tmp_path: Path) -> str:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_one_dimensional_cli_sweep_imports_no_scipy(tmp_path):
    # Any import of scipy fails, in the calling process and in the forked
    # one that runs the second row, and is recorded where it was made.
    out = run_python(
        """
        import sys

        tried = []

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    tried.append(name)
                    raise ImportError(f"a 1D run imported {name}")

        sys.meta_path.insert(0, NoScipy())
        import pilotwave.cli

        with open("sweep.yaml", "w") as fh:
            fh.write(
                "grid: {dim: 1, n_per_axis: 256, half_width: 12.0}\\n"
                "sweep: {horizon: 0.5, eps_list: [0.2, 0.1], delta_list: [0.05],"
                " ensemble_size: 200, seed: 99}\\n"
                "output: {save_fields: true}\\n"
            )
        assert pilotwave.cli.main(["sweep", "--config", "sweep.yaml", "--out", "out", "--threads", "2"]) == 0
        print(tried, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """,
        tmp_path,
    )
    assert out.splitlines()[-1] == "[] []"
    assert (tmp_path / "out" / "psi_eps1_effective.field").exists()  # both rows ran and were saved


def test_nd_config_loads_scipy_when_built(tmp_path):
    out = run_python(
        """
        import sys

        from pilotwave.harness import ExperimentConfig, GridSpec, InitialStateSpec, MeasureSpec, SweepSpec, run_sweep

        def ours(m):
            return m.split(".")[0] == "scipy" or m.startswith("numpy.")

        assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
        cfg = ExperimentConfig(
            grid=GridSpec(dim=2, n_per_axis=256, half_width=12.0),
            initial_state=InitialStateSpec(center=(0.0, 0.0), momentum=(0.0, 0.0)),
            sweep=SweepSpec(horizon=0.25, eps_list=(0.2,), delta_list=(0.05,), ensemble_size=100, seed=4),
            measure=MeasureSpec(dictionary_size=32),
        )
        assert {"scipy.fft", "scipy.spatial"} <= set(sys.modules)
        loaded = set(sys.modules)
        report = run_sweep(cfg, threads=2)
        assert report.rows[0].valid, report.rows[0].reason
        print(sorted(m for m in set(sys.modules) - loaded if ours(m)))
        """,
        tmp_path,
    )
    assert out.splitlines()[-1] == "[]"
