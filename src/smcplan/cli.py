"""Command-line entry point: ``plan-run <config.json>``."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import ConfigError
from .harness import (
    EXIT_CONFIG,
    EXIT_RUNTIME,
    config_from_dict,
    log,
    run,
    set_by_path,
)


def read_json(path):
    """Parse the JSON file at ``path``; a file that cannot be opened or
    parsed is a :class:`ConfigError` naming ``path`` (and the line of a
    syntax error)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def _parse_override(raw: str):
    key, sep, value = raw.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set {raw!r}: expected key=value")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value  # bare strings stay strings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plan-run", description="Run a planning/training experiment from a JSON config."
    )
    parser.add_argument("config", help="path to the experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="run only this seed")
    parser.add_argument("--force", action="store_true", help="overwrite existing results")
    parser.add_argument("--output", default=None, help="override the output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path (repeatable)",
    )
    return parser


def _run_with_progress(config, force: bool) -> int:
    """``run(config)`` with one ``plan-run: cell i/n ...`` line per
    finished cell on stderr."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("plan-run: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return run(config, force=force)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = read_json(args.config)
        for raw in args.overrides:
            key, value = _parse_override(raw)
            set_by_path(data, key, value, source=args.config)
        if args.seed is not None:
            data["seeds"] = [args.seed]
        if args.output is not None:
            data["output_dir"] = args.output
        config = config_from_dict(data, source=args.config)
        return _run_with_progress(config, args.force)
    except ConfigError as exc:
        print(f"plan-run: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"plan-run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
