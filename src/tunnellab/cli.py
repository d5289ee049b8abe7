"""Command-line entry point.

    tunnellab run <scenario> [--config FILE] [--out PREFIX] [--json] [--no-timestamp]
    tunnellab list

Exit codes: 0 ok, 2 config error (float failures, non-UTF-8 and over-nested
config files included), 3 scenario error, 4 I/O error.

Only a run past its config imports ``lab`` and numpy: ``list``, ``--help``
and a refused config start in about half the time (D22).
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone
from pathlib import Path

from .schema import (
    SCENARIO_NAMES,
    ConfigError,
    ScenarioError,
    parse_config,
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

    sub.add_parser("list", help="enumerate available scenarios")
    return parser


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in SCENARIO_NAMES:
            keys = ", ".join(sorted(scenario_defaults(name)))
            print(f"{name}: {keys}")
        return EXIT_OK

    try:
        text = _read_config(args.config) if args.config else "{}"
        spec = parse_config(text, scenario=args.scenario)
        from . import lab
        tables = lab.run_scenario(spec)
        stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
        paths = lab.emit_tables(tables, args.out or f"tunnellab_{spec.name}",
                            json_mirror=args.json, timestamp=stamp)
    except ConfigError as exc:
        print(f"tunnellab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioError as exc:
        print(f"tunnellab: scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except OSError as exc:
        print(f"tunnellab: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
