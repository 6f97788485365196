"""Command-line surface.

    cpdistill distill --config c.json --seed 7 --out runs/r0 [--strategy NAME]
    cpdistill eval    --out runs/r0 --stage K
    cpdistill report  --out runs/r0

A run directory holds one run (layout in `cpdistill.continual`). `distill`
continues the run in --out after its newest complete stage: an empty or
missing directory gets a straight run, a cut-off run trains its remaining
stages, and a finished run is left as it is and its table printed again.
It refuses another run's directory: when the run's config.json differs
from the given config (after --strategy), or its stages were written with
another seed, it raises StateError and writes nothing. `eval` rescores the
stage-K checkpoint of the run in --out under the run's own config and seed
(config.json and stage_K/state.json), and raises StateError when the
directory has no config.json or the stage is incomplete. `report` prints
the Acc/BWT table of the newest complete stage and renders that stage.

Exit codes: 0 success, 1 usage error, 2 runtime error.

BLAS threads: the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS and BLIS_NUM_THREADS to 1 when it is imported, before numpy
loads, unless they are already set; an explicit value in the environment
wins. The student's GEMMs are small, so a second BLAS thread gains little
on an idle machine, and a run took more than twice as long with the default
two threads while another process held the second of two cores. A program
that imports numpy before cpdistill keeps its own BLAS setting.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkpoint import read_record
from .config import ProtocolConfig, load_config
from .continual import open_stage, run_protocol
from .report import render_report, summary_table

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cpdistill", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    distill = sub.add_parser("distill", help="run, or continue, the staged distillation protocol")
    distill.add_argument("--config", type=Path, required=True,
                         help="protocol config JSON (see cpdistill.config)")
    distill.add_argument("--seed", type=int, default=0)
    distill.add_argument("--out", type=Path, help="run directory; a run there is continued")
    distill.add_argument("--strategy", help="override the config strategy")

    evalp = sub.add_parser("eval", help="score a stage checkpoint on its tasks")
    evalp.add_argument("--out", type=Path, required=True, help="run directory")
    evalp.add_argument("--stage", type=int, required=True)

    report = sub.add_parser("report", help="render the report of a finished or crashed run")
    report.add_argument("--out", type=Path, required=True, help="run directory")
    return parser


def _cmd_distill(args) -> int:
    config = load_config(args.config)
    if args.strategy:
        config = ProtocolConfig.from_dict({**config.to_dict(), "strategy": args.strategy})
    matrix, runner = run_protocol(config, args.seed, out_dir=args.out)
    print(summary_table(matrix, config.strategy), end="")
    return 0


def _cmd_eval(args) -> int:
    """Score a stage checkpoint on the episodes the run evaluated it on."""
    runner = open_stage(args.out, args.stage)
    rates = runner.stage_rates(args.stage)
    print("task_id\tsuccess_rate")
    for task_id, rate in rates.items():
        print(f"{task_id}\t{rate}")
    return 0


def _cmd_report(args) -> int:
    report_dir = render_report(args.out)
    print(read_record(report_dir / "summary.tsv", str), end="")
    print(f"report written to {report_dir}")
    return 0


_COMMANDS = {
    "distill": _cmd_distill,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"cpdistill: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
