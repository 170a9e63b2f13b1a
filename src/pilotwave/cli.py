"""Command-line interface: run / sweep / verify."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import PilotwaveError
from .harness import load_config, run_sweep
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

    sweep_p = sub.add_parser("sweep", help="run the full epsilon sweep and write reports")
    sweep_p.add_argument("--config", required=True, help="YAML experiment config")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    sweep_p.add_argument("--threads", type=int, default=None, help="workers; 2 or more run the rows of a 1D sweep in processes, or give each 2D/3D row a lane thread (default: the CPUs this process may run on)")

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

        threads = None
        if args.command == "run":
            if args.eps is None and len(config.sweep.eps_list) != 1:
                print("error: config lists several eps values; pass --eps to pick one", file=sys.stderr)
                return 2
            eps = config.sweep.eps_list[0] if args.eps is None else args.eps
            config = dataclasses.replace(config, sweep=dataclasses.replace(config.sweep, eps_list=(eps,)))
        else:
            threads = args.threads

        report = run_sweep(config, threads=threads, out_dir=args.out)
        print(f"wrote reports to {args.out} ({len(report.rows)} rows, partial={report.partial})")
        return 0 if not report.partial else 1
    except PilotwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
