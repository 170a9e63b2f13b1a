"""pilotwave benchmark: sweeps driven through ``pilotwave.cli.main``.

Each CLI call runs in a fresh child process (``child.py``), one at a time:
a closed loop with one client.  Every call's outputs are checked.

    python3 bench/run.py --workload canon_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload canon_sweep --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --all --seed 1 --seconds 30
    python3 bench/run.py --record-reference --workload row_2d

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced calls (see ``spans.py``), ``--all`` a table of the
end-to-end metrics of every workload.  The last line of standard output is
one JSON object; the exit code is nonzero when any output check fails.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

import spans
from child import TRACE_ERROR_EXIT

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CANON_CONFIG = ROOT / "configs" / "harmonic_benchmark.yaml"
CANON_REPORT = ROOT / "tests" / "data" / "harmonic_benchmark_report.json"

REFERENCE_SEED = 20240811
# Propagation does not use the seed, so these columns match the reference
# at every seed; sampling and the feature dictionary do, so the others
# (monokinetic_dev, traj_dev, injectivity_ratio) match only at its seed.
SEED_FREE_COLUMNS = ("eps", "h1_wave", "l1_rho", "l1_current", "b_eps_avg", "boundary_mass", "valid")
UNITARITY_TOL = 1e-9  # the unitarity suite's L2 drift bound
SETUP_PROBES = 3  # set-up-only child starts per run, besides one per CLI call
CHILD_TIMEOUT_S = 120  # keeps a run with one hung call under 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict | None  # None: the repo's canon config file, as it stands
    reference: Path  # report.json at REFERENCE_SEED
    rel_tol: float
    saves_fields: bool = False

    def expected_spans(self) -> set[str]:
        names = set(spans.TARGETS) | {spans.FFT_SPAN}
        return names if self.saves_fields else names - {"fieldio.save"}


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline sweep and the pinned canon: 1D n=512, four
        # rows, so the only workload through the sweep thread pool.
        Workload("canon_sweep", None, CANON_REPORT, rel_tol=1e-12),
        # One FFT-bound 2D row; its velocity histories and feature matrix
        # set the peak RSS.
        Workload(
            "row_2d",
            {
                "grid": {"dim": 2, "n_per_axis": 256, "half_width": 16.0},
                "potential": {"temporal": "one_plus_cos", "spatial": "harmonic"},
                "initial_state": {"center": [0.0, 0.0], "width": 1.2, "momentum": [0.0, 0.0]},
                "sweep": {"horizon": 0.5, "eps_list": [0.1], "delta_list": [0.05], "ensemble_size": 200},
            },
            BENCH / "reference" / "row_2d.json",
            rel_tol=1e-10,
        ),
        # A large trajectory ensemble on the quadrature phase path
        # (exp_sin has no closed-form antiderivative), writing snapshots.
        Workload(
            "bohm_ensemble",
            {
                "grid": {"dim": 1, "n_per_axis": 512, "half_width": 16.0},
                "potential": {
                    "temporal": "exp_sin",
                    "spatial": "gaussian_well",
                    "well_depth": 2.0,
                    "well_width": 2.0,
                },
                "initial_state": {"center": [0.0], "width": 1.0, "momentum": [1.0]},
                "sweep": {
                    "horizon": 1.0,
                    "eps_list": [0.1],
                    "delta_list": [0.05, 0.2],
                    "ensemble_size": 20000,
                },
                "output": {"save_fields": True},
            },
            BENCH / "reference" / "bohm_ensemble.json",
            rel_tol=1e-10,
            saves_fields=True,
        ),
    )
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("row_pass_fraction", "fraction"),
]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def write_config(workload: Workload, seed: int, run_dir: Path) -> Path:
    if workload.config is None:
        return CANON_CONFIG
    config = json.loads(json.dumps(workload.config))
    config["sweep"]["seed"] = seed
    path = run_dir / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return path


def sweep_argv(config: Path, out: Path, seed: int) -> list[str]:
    return ["sweep", "--config", str(config), "--out", str(out), "--seed", str(seed)]


def spawn(call_dir: Path, config: Path, argv: list[str], traced: bool) -> dict | None:
    """Run child.py once; return its measurements, or None if it failed."""
    call_dir.mkdir(parents=True)
    request = {
        "src": str(SRC),
        "config": str(config),
        "argv": argv,
        "trace": str(call_dir / "spans.json") if traced else None,
        "result": str(call_dir / "child.json"),
    }
    request_path = call_dir / "request.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    request["spawned_at"] = time.monotonic()
    request_path.write_text(json.dumps(request), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(request_path)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s: {argv}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"child exited {proc.returncode}: {argv}", file=sys.stderr)
        if proc.returncode == TRACE_ERROR_EXIT:
            raise BenchError("tracing failed; see the child's error above")
        return None
    return json.loads((call_dir / "child.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output checks


def _close(got, want, rel_tol: float) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=rel_tol, abs_tol=1e-300)
    return got == want


def row_errors(got: dict, want: dict, rel_tol: float, all_columns: bool) -> list[str]:
    keys = [k for k in want if k not in ("wall_time", "reason")] if all_columns else SEED_FREE_COLUMNS
    errors = []
    for key in keys:
        if key not in got:
            errors.append(f"{key} missing")
        elif isinstance(want[key], dict):
            for sub, value in want[key].items():
                if not _close(got[key].get(sub), value, rel_tol):
                    errors.append(f"{key}[{sub}]={got[key].get(sub)!r}, reference {value!r}")
        elif not _close(got[key], want[key], rel_tol):
            errors.append(f"{key}={got[key]!r}, reference {want[key]!r}")
    if not got.get("valid", False):
        errors.append(f"invalid row: {got.get('reason')}")
    return errors


def snapshot_errors(call_dir: Path, index: int, config: dict) -> list[str]:
    """Snapshots of row ``index`` read back with the right grid, time and norm."""
    from pilotwave import load_field

    g = config["grid"]
    horizon = config["sweep"]["horizon"]
    errors = []
    for system in ("oscillating", "effective"):
        path = call_dir / f"psi_eps{index}_{system}.field"
        if not path.exists():
            errors.append(f"{path.name} missing")
            continue
        wf = load_field(path)
        grid = wf.grid
        if (grid.dim, grid.n_per_axis, grid.half_width) != (g["dim"], g["n_per_axis"], g["half_width"]):
            errors.append(f"{path.name}: grid {grid}")
        if not math.isclose(wf.time, horizon, rel_tol=1e-12):
            errors.append(f"{path.name}: time {wf.time}, expected {horizon}")
        l2 = math.sqrt(float((abs(wf.values) ** 2).sum()) * grid.cell_volume)
        if abs(l2 - 1.0) > UNITARITY_TOL:
            errors.append(f"{path.name}: L2 norm {l2!r}")
    return errors


def check_call(workload: Workload, reference: dict, seed: int, call_dir: Path, child: dict | None) -> list[list[str]]:
    """Errors per reference row; a call that failed fails every row."""
    n_rows = len(reference["rows"])
    if child is None:
        return [["child process failed"]] * n_rows
    if child["exit_code"] != 0:
        return [[f"CLI exited {child['exit_code']}"]] * n_rows
    report_path = call_dir / "report.json"
    csv_path = call_dir / "report.csv"
    if not report_path.exists() or not csv_path.exists():
        return [["report.json or report.csv missing"]] * n_rows
    rows = json.loads(report_path.read_text(encoding="utf-8"))["rows"]
    csv_lines = csv_path.read_text(encoding="utf-8").splitlines()
    if len(rows) != n_rows or len(csv_lines) != n_rows + 1:
        return [[f"report has {len(rows)} rows, CSV {len(csv_lines) - 1}; expected {n_rows}"]] * n_rows
    all_columns = seed == reference["metadata"]["config"]["sweep"]["seed"]
    out = []
    for i, (got, want) in enumerate(zip(rows, reference["rows"])):
        errors = row_errors(got, want, workload.rel_tol, all_columns)
        if workload.saves_fields:
            errors += snapshot_errors(call_dir, i, workload.config)
        out.append(errors)
    return out


# ---------------------------------------------------------------------------
# one benchmark run


def preflight() -> None:
    missing = [p for p in (SRC / "pilotwave" / "cli.py", CANON_CONFIG, CANON_REPORT) if not p.exists()]
    if missing:
        raise BenchError(f"not a pilotwave checkout; missing {', '.join(map(str, missing))}")
    sys.path.insert(0, str(SRC))


def machine() -> dict:
    """Where the numbers were measured.  Reads only; changes no setting."""
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "sched_getaffinity": affinity,
        "os_cpu_count": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for ``seconds``; return the result record."""
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = write_config(workload, seed, run_dir)
    reference = json.loads(workload.reference.read_text(encoding="utf-8"))

    setups = []
    for i in range(SETUP_PROBES):
        probe = spawn(run_dir / f"probe{i}", config, [], traced=False)
        if probe is None:
            raise BenchError("a set-up probe failed; see the child's error above")
        setups.append(probe["setup_s"])
        shutil.rmtree(run_dir / f"probe{i}")

    plain: list[dict] = []
    traced: list[dict] = []
    row_results: list[list[str]] = []
    modes = (False, True) if trace else (False,)
    started = time.perf_counter()
    rounds = 0
    while True:
        for traced_call in modes:
            call_dir = run_dir / f"call{len(plain) + len(traced)}"
            child = spawn(call_dir, config, sweep_argv(config, call_dir, seed), traced_call)
            row_results += check_call(workload, reference, seed, call_dir, child)
            if child is not None:
                if traced_call:
                    span_file = (call_dir / "spans.json").replace(run_dir / "spans.json")
                    child["layers"] = spans.layer_metrics(
                        json.loads(span_file.read_text(encoding="utf-8")), workload.expected_spans()
                    )
                    traced.append(child)
                else:
                    setups.append(child["setup_s"])
                    plain.append(child)
            shutil.rmtree(call_dir)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > seconds:
            break

    attempted = len(row_results)
    failed = sum(1 for errors in row_results if errors)
    for i, errors in enumerate(row_results):
        for e in errors:
            print(f"check failed (row {i % len(reference['rows'])}): {e}", file=sys.stderr)

    samples = {
        "wall_s": [c["wall_s"] for c in plain],
        "setup_s": setups,
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
    }
    if trace:
        if not traced or not plain:
            metrics = {}
        else:
            metrics = {
                name: statistics.median(c["layers"][name] for c in traced)
                for name, _ in spans.PER_LAYER
                if name != "trace.overhead_frac"
            }
            walls = [c["wall_s"] for c in traced]
            metrics["trace.overhead_frac"] = statistics.median(walls) / statistics.median(samples["wall_s"]) - 1.0
            samples["traced_wall_s"] = walls
        units = dict(spans.PER_LAYER)
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items() if values}
        metrics["row_pass_fraction"] = 1.0 - failed / attempted
        units = dict(END_TO_END)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_row_fraction": failed / attempted,
        "correct": failed == 0 and len(metrics) == len(units),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }


def save(record: dict) -> None:
    path = OUT / f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")


def print_record(record: dict) -> None:
    n = len(record["samples"]["wall_s"])
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{n} untraced calls, {record['attempted']} rows, {record['failed']} failed")
    for name, m in record["metrics"].items():
        count = len(record["samples"].get(name, ())) or None
        suffix = f"  (median of {count})" if count else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{suffix}")
    print("machine " + json.dumps(record["machine"]))


def summary(seed: int, seconds: float) -> int:
    """Every workload untraced; one table of the end-to-end metrics."""
    records = []
    for workload in WORKLOADS.values():
        record = run(workload, seed, seconds, trace=False)
        save(record)
        records.append(record)
    print(f"{'workload':16s} {'wall_s':>18s} {'setup_s':>18s} {'peak_rss_mb':>20s} {'failed_row_fraction':>20s}")
    for r in records:
        s, m = r["samples"], r["metrics"]
        cell = lambda name, unit: f"{m[name]['value']:.4g} {unit} (n={len(s[name])})" if name in m else "-"
        print(f"{r['workload']:16s} {cell('wall_s', 's'):>18s} {cell('setup_s', 's'):>18s} "
              f"{cell('peak_rss_mb', 'MB'):>20s} {r['failed_row_fraction']:>11.4g} of {r['attempted']:<5d}")
    print("machine " + json.dumps(records[0]["machine"]))
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


def record_reference(workload: Workload) -> int:
    """Rewrite a stored reference from one run at REFERENCE_SEED."""
    if workload.config is None:
        raise BenchError("the canon reference belongs to the test suite; regenerate it there")
    run_dir = OUT / f"reference-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = write_config(workload, REFERENCE_SEED, run_dir)
    call_dir = run_dir / "call"
    child = spawn(call_dir, config, sweep_argv(config, call_dir, REFERENCE_SEED), traced=False)
    if child is None or child["exit_code"] != 0:
        raise BenchError("reference run failed")
    report = json.loads((call_dir / "report.json").read_text(encoding="utf-8"))
    if report["partial"]:
        raise BenchError("reference run has invalid rows")
    workload.reference.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(call_dir / "report.json", workload.reference)
    print(f"wrote {workload.reference.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced, as one table")
    parser.add_argument("--record-reference", action="store_true", help="rewrite the workload's stored reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        preflight()
        OUT.mkdir(exist_ok=True)
        if args.all:
            return summary(args.seed, args.seconds)
        workload = WORKLOADS[args.workload]
        if args.record_reference:
            return record_reference(workload)
        record = run(workload, args.seed, args.seconds, bool(args.trace))
        save(record)
        print_record(record)
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
        return 0 if record["correct"] else 1
    except (BenchError, spans.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
