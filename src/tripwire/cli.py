"""Command-line front end.

    tripwire run TRACE [options]

Exit codes: 0 clean run, 1 errors detected, 2 usage or trace errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .config import DETECTOR_NAMES, EngineConfig, parse_detectors
from .engine import run_events
from .errors import ConfigError, TraceError, TripwireError
from .reports import emit_json, emit_text
from .trace import parse_trace


def _auto_int(token: str) -> int:
    return int(token, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripwire", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = EngineConfig()

    run = sub.add_parser("run", help="execute a trace with the detectors enabled")
    run.add_argument("trace", help="trace file to execute")
    run.add_argument(
        "--detectors",
        default=",".join(DETECTOR_NAMES),
        help=f"comma-separated subset of {','.join(DETECTOR_NAMES)} (default: all)",
    )
    run.add_argument("--quarantine-bytes", dest="quarantine_max_bytes", type=_auto_int,
                     default=defaults.quarantine_max_bytes,
                     help="quarantine capacity-sum threshold in bytes")
    run.add_argument("--quarantine-count", dest="quarantine_max_count", type=_auto_int,
                     default=defaults.quarantine_max_count,
                     help="quarantine object-count threshold")
    run.add_argument("--uaf-fill", dest="uaf_fill_prefix", type=_auto_int,
                     default=defaults.uaf_fill_prefix,
                     help="canaried prefix of freed objects, in bytes")
    run.add_argument("--canary-byte", type=_auto_int, default=defaults.canary_byte,
                     help="canary fill byte (e.g. 0xCA)")
    run.add_argument("--max-watchpoints", type=_auto_int, default=defaults.max_watchpoints,
                     help="watchpoints armed per replay")
    run.add_argument("--dangling", action="store_true", default=defaults.dangling,
                     help="also report reachable freed objects")
    run.add_argument("--output", choices=("text", "json"), default="text")
    run.add_argument("--dump-state-hash", action="store_true",
                     help="print the final state hash, sha256 over the heap length, "
                          "its page digests and the globals (text output)")
    geometry = run.add_argument_group("heap geometry")
    for name in ("heap_base", "heap_size", "chunk_size", "globals_base", "globals_words",
                 "min_class", "max_class"):
        geometry.add_argument(f"--{name.replace('_', '-')}", type=_auto_int, default=getattr(defaults, name))
    return parser


def _config_from_args(args: argparse.Namespace) -> EngineConfig:
    """The EngineConfig of the parsed options; each option's dest is its field."""
    values = {f.name: getattr(args, f.name) for f in fields(EngineConfig)}
    return EngineConfig(**(values | {"detectors": parse_detectors(args.detectors)}))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    try:
        config = _config_from_args(args)
    except ConfigError as err:
        print(f"tripwire: {err}", file=sys.stderr)
        return 2

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"tripwire: cannot read {args.trace}: {err}", file=sys.stderr)
        return 2

    try:
        events = parse_trace(text)
    except TraceError as err:
        print(f"tripwire: {args.trace}: {err}", file=sys.stderr)
        return 2

    try:
        outcome = run_events(events, config)
    except TripwireError as err:
        print(f"tripwire: {args.trace}: {err}", file=sys.stderr)
        return 2

    if args.output == "json":
        sys.stdout.write(
            emit_json(
                outcome.reports,
                epochs=outcome.epochs,
                final_state_hash=outcome.final_state_hash,
                events=outcome.events_total,
                config=config,
            )
        )
    else:
        sys.stdout.write(emit_text(outcome.reports))
        if args.dump_state_hash:
            sys.stdout.write(f"final state hash: {outcome.final_state_hash}\n")
    return 1 if outcome.reports else 0


if __name__ == "__main__":
    sys.exit(main())
