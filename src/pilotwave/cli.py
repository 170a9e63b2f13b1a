"""Command-line interface: run / sweep / verify."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import PilotwaveError
from .harness import ConvergenceReport, emit_csv, emit_json, load_config, run_single, run_sweep
from .verify import SUITE_NAMES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotwave",
        description="Oscillating-potential wave propagation and Bohmian trajectory sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single epsilon and write a one-row report")
    run_p.add_argument("--config", required=True, help="YAML experiment config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--eps", type=float, default=None, help="epsilon (default: sole eps_list entry)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--threads", type=int, default=None, help="worker threads (unused for run)")

    sweep_p = sub.add_parser("sweep", help="run the full epsilon sweep and write reports")
    sweep_p.add_argument("--config", required=True, help="YAML experiment config")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    sweep_p.add_argument("--threads", type=int, default=None, help="worker threads (default: the CPUs this process may run on)")

    verify_p = sub.add_parser("verify", help="run a named invariant suite")
    verify_p.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_NAMES)}")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return 0 if run_suite(args.suite).passed else 1

        config = load_config(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)

        if args.command == "run":
            eps = args.eps
            if eps is None:
                if len(config.sweep.eps_list) != 1:
                    print(
                        "error: config lists several eps values; pass --eps to pick one",
                        file=sys.stderr,
                    )
                    return 2
                eps = config.sweep.eps_list[0]
            row = run_single(config, eps)
            report = ConvergenceReport(
                rows=(row,),
                metadata={
                    "config_hash": config.config_hash(),
                    "code_version": __version__,
                    "config": config.to_mapping(),
                },
            )
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            emit_csv(report, out / "report.csv")
            emit_json(report, out / "report.json")
            print(f"wrote {out/'report.csv'} and {out/'report.json'}")
            return 0 if row.valid else 1

        report = run_sweep(config, threads=args.threads, out_dir=args.out)
        print(f"wrote reports to {args.out} ({len(report.rows)} rows, partial={report.partial})")
        return 0 if not report.partial else 1
    except PilotwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
