"""Command-line front end.

Subcommands: solve, gap-pdf, sweep, validate. A JSON config file may supply
any ExperimentSpec field; command-line flags override file values.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError
from .dual_solver import Protocol
from .harness import (ExperimentSpec, HarnessIOError, run_gap_pdf,
                      run_single, run_sweep_distance, run_validate)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

PROTOCOL_NAMES = tuple(p.value for p in Protocol)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdma-relay",
        description="Resource allocation for relay-aided downlink OFDMA")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "solve one scenario and print the report"),
                       ("gap-pdf", "randomized gap-certificate ensemble"),
                       ("sweep", "relay-distance sweep"),
                       ("validate", "solver-vs-oracle validation")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="JSON file with ExperimentSpec fields")
        p.add_argument("--protocol", action="append", choices=PROTOCOL_NAMES,
                       help="protocol to run (repeatable)")
        p.add_argument("--k", type=int, dest="K")
        p.add_argument("--users", type=int, dest="U")
        p.add_argument("--d-km", type=float, dest="d_km")
        p.add_argument("--snr-db", type=float, dest="snr_db")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--refill", action="store_true", default=None)
        p.add_argument("--raw", action="store_true", default=None)
        p.add_argument("--out", help="output path (CSV or JSON)")
        if name == "sweep":
            p.add_argument("--d-list", type=float, nargs="+", dest="sweep",
                           help="relay distances to sweep, km")
    return parser


def _merge_spec(args: argparse.Namespace) -> ExperimentSpec:
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values.update(json.load(fh))
        except OSError as exc:
            raise HarnessIOError(f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config file {args.config}: {exc}") from exc
    overrides = {
        "protocols": tuple(args.protocol) if args.protocol else None,
        "K": args.K, "U": args.U, "d_km": args.d_km, "snr_db": args.snr_db,
        "trials": args.trials, "seed": args.seed,
        "refill": args.refill, "raw": args.raw, "out": args.out,
        "sweep": tuple(getattr(args, "sweep", None) or ()) or None,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    values["kind"] = args.command
    for name in ("protocols", "sweep"):
        if isinstance(values.get(name), list):
            values[name] = tuple(values[name])
    known = {f.name for f in ExperimentSpec.__dataclass_fields__.values()}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentSpec(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _merge_spec(args)
        if spec.kind == "solve":
            result = run_single(spec)
            print(json.dumps(result, indent=2, sort_keys=True))
        elif spec.kind == "gap-pdf":
            records = run_gap_pdf(spec)
            worst = max((r.delta for r in records), default=0.0)
            print(f"gap-pdf: {len(records)} records, max delta {worst:.3e}")
        elif spec.kind == "sweep":
            rows, _ = run_sweep_distance(spec)
            print(f"sweep: {len(rows)} aggregate rows")
        else:
            verdict = run_validate(spec)
            print(json.dumps({k: v for k, v in verdict.items()
                              if k != "results"}, indent=2, sort_keys=True))
            if not verdict["pass"]:
                return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HarnessIOError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
