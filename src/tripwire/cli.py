"""Command-line front end.

    tripwire run TRACE [options]

Exit codes: 0 clean run, 1 errors detected, 2 usage or trace errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import EngineConfig, parse_detectors
from .engine import run_events
from .errors import ConfigError, TraceError, TripwireError
from .reports import emit_json, emit_text
from .trace import parse_trace


def _auto_int(token: str) -> int:
    return int(token, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripwire", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a trace with the detectors enabled")
    run.add_argument("trace", help="trace file to execute")
    run.add_argument(
        "--detectors",
        default="overflow,uaf,leak",
        help="comma-separated subset of overflow,uaf,leak (default: all)",
    )
    run.add_argument("--quarantine-bytes", type=_auto_int, default=16 * 1024 * 1024,
                     help="quarantine capacity-sum threshold in bytes")
    run.add_argument("--quarantine-count", type=_auto_int, default=1024,
                     help="quarantine object-count threshold")
    run.add_argument("--uaf-fill", type=_auto_int, default=128,
                     help="canaried prefix of freed objects, in bytes")
    run.add_argument("--canary-byte", type=_auto_int, default=0xCA,
                     help="canary fill byte (e.g. 0xCA)")
    run.add_argument("--max-watchpoints", type=_auto_int, default=4,
                     help="watchpoints armed per replay")
    run.add_argument("--dangling", action="store_true",
                     help="also report reachable freed objects")
    run.add_argument("--output", choices=("text", "json"), default="text")
    run.add_argument("--dump-state-hash", action="store_true",
                     help="print the final state hash, sha256 over the heap length, "
                          "its page digests and the globals (text output)")
    geometry = run.add_argument_group("heap geometry")
    geometry.add_argument("--heap-base", type=_auto_int, default=0x1_0000_0000)
    geometry.add_argument("--heap-size", type=_auto_int, default=256 * 1024 * 1024)
    geometry.add_argument("--chunk-size", type=_auto_int, default=4 * 1024 * 1024)
    geometry.add_argument("--globals-base", type=_auto_int, default=0x10000)
    geometry.add_argument("--globals-words", type=_auto_int, default=4096)
    geometry.add_argument("--min-class", type=_auto_int, default=16)
    geometry.add_argument("--max-class", type=_auto_int, default=1024 * 1024)
    return parser


def _config_from_args(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        detectors=parse_detectors(args.detectors),
        quarantine_max_bytes=args.quarantine_bytes,
        quarantine_max_count=args.quarantine_count,
        uaf_fill_prefix=args.uaf_fill,
        canary_byte=args.canary_byte,
        max_watchpoints=args.max_watchpoints,
        dangling=args.dangling,
        heap_base=args.heap_base,
        heap_size=args.heap_size,
        chunk_size=args.chunk_size,
        globals_base=args.globals_base,
        globals_words=args.globals_words,
        min_class=args.min_class,
        max_class=args.max_class,
    )


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
