"""Command-line experiment runner.

Exit codes: 0 success, 3 capacity error, 2 any other library error, 4 a run
whose verdict failed (with ``--check``).  The environment variable
``REPSOC_SEED`` overrides the config's master seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import CapacityError, RepsocError
from .experiments import run_experiment, setting, validate_config
from .population import read_json
from .privilege import build_privilege_graph, is_cyclically_privileged, to_dot
from .spaces import load_candidate_space

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_CHECK = 4


def _load_config(path: str) -> dict:
    config = read_json(path, "config")
    env_seed = os.environ.get("REPSOC_SEED")
    if env_seed is not None:
        config["seed"] = setting("seed", env_seed, "REPSOC_SEED")
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    out_dir = args.out or validate_config(config)["out"]
    report = run_experiment(config, out_dir)
    print(f"[{report.kind}] wrote {len(report.outputs)} files to {out_dir}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.check and not report.check_passed:
        print("check: FAILED", file=sys.stderr)
        return EXIT_CHECK
    if args.check:
        print("check: passed")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _load_config(args.config)
    validate_config(config)
    print("config ok")
    return EXIT_OK


def _cmd_privilege(args) -> int:
    space = load_candidate_space(args.space)
    issue = space.issue_space.resolve(args.issue)
    graph = build_privilege_graph(space, issue)
    print(f"issue {issue}: {len(graph.edges)} privileged pairs")
    print("\n".join(f"{u} {v}" for u, v in sorted(graph.edges)))
    print(f"cyclically privileged: {is_cyclically_privileged(graph)}")
    if args.dot:
        Path(args.dot).write_text(to_dot(graph))
        print(f"wrote {args.dot}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="repsoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config")
    run.add_argument("--check", action="store_true", help="exit 4 when the run's verdict fails")
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.set_defaults(fn=_cmd_run)

    validate = sub.add_parser("validate", help="validate a config without running it")
    validate.add_argument("config")
    validate.set_defaults(fn=_cmd_validate)

    privilege = sub.add_parser("privilege", help="privilege graph of one issue")
    privilege.add_argument("space")
    privilege.add_argument("--issue", required=True)
    privilege.add_argument("--dot", default=None, help="write a DOT rendering here")
    privilege.set_defaults(fn=_cmd_privilege)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except RepsocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
