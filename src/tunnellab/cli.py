"""Command-line entry point.

    tunnellab run <scenario> [--config FILE] [--out PREFIX] [--json]
                             [--no-timestamp] [--threads N]
    tunnellab list

Exit codes: 0 ok, 2 config error (float failures included), 3 scenario error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone
from pathlib import Path

from .lab import (
    SCENARIO_NAMES,
    ConfigError,
    ScenarioError,
    emit_tables,
    parse_config,
    run_scenario,
    scenario_defaults,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCENARIO = 3
EXIT_IO = 4


@functools.cache   # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tunnellab",
                                     description="rectangular-barrier scattering laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named scenario and emit CSV tables")
    run.add_argument("scenario", help="scenario name (see 'tunnellab list')")
    run.add_argument("--config", help="JSON configuration file")
    run.add_argument("--out", default=None, help="output path prefix")
    run.add_argument("--json", action="store_true", help="also write JSON mirrors")
    run.add_argument("--no-timestamp", action="store_true",
                     help="suppress the generated_at line for byte-identical reruns")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored (must be >= 1): "
                          "every scenario runs in one thread")

    sub.add_parser("list", help="enumerate available scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in SCENARIO_NAMES:
            keys = ", ".join(sorted(scenario_defaults(name)))
            print(f"{name}: {keys}")
        return EXIT_OK

    try:
        if args.config:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                print(f"tunnellab: cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO
            spec = parse_config(text, scenario=args.scenario)
        else:
            spec = parse_config("{}", scenario=args.scenario)
    except ConfigError as exc:
        print(f"tunnellab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioError as exc:
        print(f"tunnellab: {exc}", file=sys.stderr)
        return EXIT_SCENARIO

    if args.threads < 1:
        print("tunnellab: config error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        tables = run_scenario(spec, threads=args.threads)
    except ConfigError as exc:
        print(f"tunnellab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioError as exc:
        print(f"tunnellab: scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO

    prefix = args.out or spec.output or f"tunnellab_{spec.name}"
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    try:
        paths = emit_tables(tables, prefix, json_mirror=args.json, timestamp=stamp)
    except OSError as exc:
        print(f"tunnellab: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
