"""Command-line front end.

Subcommands: solve, gap-pdf, sweep, validate. Each takes, as flags and as
keys of a JSON config file, only the ExperimentSpec fields it reads
(harness.FIELDS); flags override file values.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O error, 4 unexpected error (the traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback

from .config import ConfigError
from .dual_solver import Protocol
from .harness import (FIELDS, ExperimentSpec, HarnessIOError, run_gap_pdf,
                      run_single, run_sweep_distance, run_validate, to_json)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_UNEXPECTED = 4

PROTOCOL_NAMES = tuple(p.value for p in Protocol)

# The flag of each ExperimentSpec field; argparse stores it under the field's
# name, and a flag left off stays None.
FLAGS = {
    "protocols": ("--protocol", dict(action="append", choices=PROTOCOL_NAMES,
                                     help="protocol to run (repeatable)")),
    "K": ("--k", dict(type=int)),
    "U": ("--users", dict(type=int)),
    "d_km": ("--d-km", dict(type=float)),
    "snr_db": ("--snr-db", dict(type=float)),
    "trials": ("--trials", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "refill": ("--refill", dict(action="store_true", default=None)),
    "out": ("--out", dict(help="output path (CSV or JSON)")),
    "sweep": ("--d-list", dict(type=float, nargs="+",
                               help="relay distances to sweep, km")),
}


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
        p.add_argument("--config", help="JSON object of the command's fields")
        for field in FIELDS[name]:
            flag, kwargs = FLAGS[field]
            p.add_argument(flag, dest=field, **kwargs)
    return parser


def _merge_spec(args: argparse.Namespace) -> ExperimentSpec:
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except OSError as exc:
            raise HarnessIOError(f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config file {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
    fields = FIELDS[args.command]
    unread = sorted(set(values) - set(fields))
    if unread:
        raise ConfigError(f"{args.command} does not read {unread}")
    values.update({name: getattr(args, name) for name in fields
                   if getattr(args, name) is not None})
    return ExperimentSpec(kind=args.command, **{
        k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _merge_spec(args)
        if spec.kind == "solve":
            result = run_single(spec)
            print(to_json(result))
        elif spec.kind == "gap-pdf":
            records = run_gap_pdf(spec)
            worst = max((r.delta for r in records), default=0.0)
            print(f"gap-pdf: {len(records)} records, max delta {worst:.3e}")
        elif spec.kind == "sweep":
            rows, _ = run_sweep_distance(spec)
            print(f"sweep: {len(rows)} aggregate rows")
        else:
            verdict = run_validate(spec)
            print(to_json({k: v for k, v in verdict.items()
                           if k != "results"}))
            if not verdict["pass"]:
                return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HarnessIOError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_UNEXPECTED
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
