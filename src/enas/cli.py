"""Command-line entry points: run experiments, audit outputs, write demo data."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import DatasetError
from .experiment import (
    AuditError,
    ExperimentConfig,
    ExperimentError,
    audit_output_dir,
    config_from_file,
    run_experiment,
)
from .synthetic import make_threshold_dataset, write_dataset_csv


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, its subcommands' included, are raised
    for ``main`` to report as one ``error:`` line, like every other error."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="enas",
        description="Neuroevolution of feed-forward binary classifiers with "
        "self-adapting evolutionary parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the experiment described by a JSON config")
    run_p.add_argument("--config", required=True, help="path to the experiment config JSON")
    run_p.add_argument(
        "--out", type=Path, help="output directory, relative to the working directory"
    )
    run_p.add_argument("--jobs", type=int, help="parallel cells")

    audit_p = sub.add_parser(
        "audit",
        help="replay each cell's search from events.jsonl on its recorded fitness values: every "
        "event, history and best genome must be what the engine writes, and summary.csv, "
        "efficiency.csv and the fold files what enas run builds from them",
    )
    audit_p.add_argument("--out", required=True, help="experiment output directory")

    demo_p = sub.add_parser("demo-data", help="generate small synthetic datasets to try the tool")
    demo_p.add_argument("--out", default="data", help="directory for the generated CSV files")
    demo_p.add_argument("--seed", type=int, default=7, help="generation seed")
    return parser


def apply_run_flags(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """``config`` with the fields that ``enas run``'s given flags replace.

    Each new value passes the same checks as a file value, and a failed
    check names its flag. Every other setting is read from the config file.
    """
    for flag, name, value in (("--jobs", "jobs", args.jobs), ("--out", "out_dir", args.out)):
        if value is not None:
            try:
                config = replace(config, **{name: value})
            except ExperimentError as exc:
                raise ExperimentError(f"{flag}: {exc}") from None
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = apply_run_flags(config_from_file(args.config), args)
    run_experiment(config)
    print(f"artifacts written to {config.out_dir}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    tables = "summary.csv, efficiency.csv" if audit_output_dir(args.out) else "summary.csv"
    print(
        "audit passed: the replay of every cell matches its events, history and best genome, "
        f"and {tables} and the fold files match their rebuild, under {args.out}"
    )
    return 0


# (name, instances, attributes, separation margin)
_DEMO_DATASETS = (
    ("demo_easy", 120, 4, 0.12),
    ("demo_wide", 140, 10, 0.08),
    ("demo_narrow", 160, 6, 0.03),
    ("demo_small", 60, 3, 0.10),
)


def _cmd_demo_data(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, (name, instances, attributes, margin) in enumerate(_DEMO_DATASETS):
        dataset = make_threshold_dataset(
            instances=instances,
            attributes=attributes,
            seed=args.seed + i,
            name=name,
            margin=margin,
        )
        path = write_dataset_csv(dataset, out / f"{name}.csv")
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    handlers = {"run": _cmd_run, "audit": _cmd_audit, "demo-data": _cmd_demo_data}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except AuditError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    # An OSError here is an input or output path the command cannot use,
    # such as an output directory that is an existing file.
    except (argparse.ArgumentError, ExperimentError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
