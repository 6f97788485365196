"""Write the byte matrix of a cpdistill tree: every run-directory file and
the output of every command, so that two trees can be compared with one
``diff -r``.

    PYTHONPATH=src python3 tests/byte_matrix.py OUT

imports `cpdistill` from ``PYTHONPATH`` and, with OUT as the working
directory, runs through the command-line entry point:

- ``distill`` for all 7 strategies at top-1 and top-2 on a tiny 3-stage
  config (2 tasks per stage, hidden 16, depth 2, 3 experts) at seed 11;
- ``distill`` for the three benchmark workload configs
  (``perfbench/workloads.py``) at seed 7;
- ``distill`` for ``ours``, ``ewc``, ``kl`` and ``independent`` into
  copies of their tiny top-1 runs cut back to stage 1 and to stage 2,
  which continues each copy after its last stage;
- a second ``distill`` into every finished straight run, which leaves it
  as it is, and a ``distill`` of a 2-stage config into the finished
  ``tiny_ours_top1``, which is refused (exit 2);
- then, on every run directory, ``eval --stage k`` for each stage and
  ``report``.

OUT/commands.txt records each command's arguments, exit code, stdout and
stderr, whether each continued run directory equals its straight run, and
whether each run directory stayed unchanged under a second ``distill`` or
a refused one. All paths are relative to OUT, so the outputs of two trees
differ only where the trees do:

    PYTHONPATH=/path/to/parent/src python3 tests/byte_matrix.py /tmp/a
    PYTHONPATH=src python3 tests/byte_matrix.py /tmp/b
    diff -r /tmp/a /tmp/b

Across a change to the command line, run each tree's own copy of this
script (the parent's on the parent, this one on the change), then ``diff
-r`` the run directories and compare the exit code and stdout of every
``eval`` and ``report`` in the two commands.txt files; the command lines,
and so commands.txt as a whole, differ by design. A change that moves
bytes on purpose records the diff it expects in its ``CHANGES.md`` entry.

One matrix took about 60 s on a 2-core machine with one BLAS thread.
pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import cpdistill
from cpdistill.cli import main as cpdistill_main
from cpdistill.config import STRATEGIES
from oracles import tree_bytes

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, protocol_dict  # noqa: E402

TINY_SEED = 11
WORKLOAD_SEED = 7
RESUMED = ("ours", "ewc", "kl", "independent")


def tiny_config(strategy: str, top_k: int) -> dict:
    return dict(
        strategy=strategy, n_stages=3, tasks_per_stage=2, episodes_per_task=10,
        support_episodes=3, eval_episodes=16, epochs_stage1=2, epochs_later=2,
        batch_size=64, replay_m=1,
        model=dict(hidden_dim=16, depth=2, experts_per_layer=3, n_heads=2,
                   mlp_multiplier=2, encoder_hidden=8, top_k=top_k),
    )


class Log:
    """Runs CLI commands in this process and records what each printed."""

    def __init__(self, fh):
        self.fh = fh

    def run(self, *argv: str) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cpdistill_main(list(argv))
        self.fh.write(f"$ cpdistill {' '.join(argv)}\nexit {code}\n")
        self.fh.write(f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}\n")
        self.fh.flush()
        return code

    def note(self, line: str) -> None:
        self.fh.write(line + "\n")


def distill(log: Log, name: str, config: dict, seed: int) -> int:
    path = Path("configs") / f"{name}.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return log.run("distill", "--config", str(path), "--seed", str(seed), "--out", name)


def inspect_run(log: Log, name: str, n_stages: int) -> None:
    for k in range(1, n_stages + 1):
        log.run("eval", "--out", name, "--stage", str(k))
    log.run("report", "--out", name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write the matrix into (emptied)")
    args = parser.parse_args(argv)
    print(f"cpdistill from {Path(cpdistill.__file__).parent}", file=sys.stderr)
    if args.out.exists():
        shutil.rmtree(args.out)
    (args.out / "configs").mkdir(parents=True)
    os.chdir(args.out)
    with Path("commands.txt").open("w") as fh:
        runs = write_matrix(Log(fh))
    print(f"wrote {len(runs)} run directories", file=sys.stderr)
    return 0


def write_matrix(log: Log) -> list[tuple[str, int, int]]:
    """Run every command of the matrix; the (name, seed, stage count) of
    each run directory."""
    runs = []
    for strategy in STRATEGIES:
        for top_k in (1, 2):
            name = f"tiny_{strategy}_top{top_k}"
            distill(log, name, tiny_config(strategy, top_k), TINY_SEED)
            runs.append((name, TINY_SEED, 3))
    for workload in WORKLOADS:
        config = protocol_dict(workload)
        distill(log, workload, config, WORKLOAD_SEED)
        runs.append((workload, WORKLOAD_SEED, config["n_stages"]))

    # a continued run starts from a copy of the straight run cut back to its
    # first `cut` stages, as a run that crashed in stage cut + 1 leaves it
    finished = list(runs)
    for strategy in RESUMED:
        straight = f"tiny_{strategy}_top1"
        for cut in (1, 2):
            name = f"resume_{strategy}_cut{cut}"
            shutil.copytree(straight, name)
            (Path(name) / "metrics.tsv").unlink()
            for k in range(cut + 1, 4):
                shutil.rmtree(Path(name) / f"stage_{k}")
            shutil.copy(Path("configs") / f"{straight}.json", Path("configs") / f"{name}.json")
            log.run("distill", "--config", str(Path("configs") / f"{name}.json"),
                    "--seed", str(TINY_SEED), "--out", name)
            same = tree_bytes(Path(name)) == tree_bytes(Path(straight))
            log.note(f"{name} equals {straight}: {same}")
            runs.append((name, TINY_SEED, 3))

    # a finished run is left as it is, and another run's config is refused
    for name, seed, _ in finished:
        before = tree_bytes(Path(name))
        log.run("distill", "--config", str(Path("configs") / f"{name}.json"),
                "--seed", str(seed), "--out", name)
        log.note(f"{name} unchanged by a second distill: {tree_bytes(Path(name)) == before}")
    name, shorter = "tiny_ours_top1", Path("configs") / "tiny_ours_top1_2stages.json"
    shorter.write_text(json.dumps({**tiny_config("ours", 1), "n_stages": 2}, indent=1,
                                  sort_keys=True))
    before = tree_bytes(Path(name))
    log.run("distill", "--config", str(shorter), "--seed", str(TINY_SEED), "--out", name)
    log.note(f"{name} unchanged by a refused distill: {tree_bytes(Path(name)) == before}")

    for name, _, stages in runs:
        inspect_run(log, name, stages)
    return runs


if __name__ == "__main__":
    raise SystemExit(main())
