#!/usr/bin/env python3
"""Benchmark of the `cpdistill distill` code path.

    python3 perfbench/run.py --workload stream-ours --seed 0 --seconds 45 --trace 0

An untraced run (`--trace 0`) times set-up in fresh child processes, then
runs `--seconds / ROUND_S` rounds of the workload, each a whole protocol run
plus its correctness checks at its own protocol seed derived from `--seed`,
and prints the end-to-end metrics. A traced run (`--trace 1`) runs the
same round three times, untraced, with spans on every layer and untraced
again, then the reference batch, writes the spans under `.perfbench-out/`,
and prints the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it records the machine.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import bootstrap

PROBES = 5
# each workload is sized so that one round, checks included, takes about
# this long on one core; a run makes --seconds / ROUND_S rounds
ROUND_S = 15.0


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests")
    parser.add_argument("--setup-probe", metavar="CONFIG", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.setup_probe and (args.workload is None or args.seconds is None or args.seconds <= 0):
        parser.error("--workload and a positive --seconds are required")
    return args


def setup_probe(config_path: str, seed: int) -> None:
    """Child process: import the program as `cpdistill distill` does, load
    the config and construct the runner, then print the monotonic clock."""
    import cpdistill.cli  # noqa: F401
    from cpdistill.config import load_config
    from cpdistill.continual import ProtocolRunner

    ProtocolRunner(load_config(config_path), seed)
    print(repr(_clock()), flush=True)


def time_setup(config_path, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to a constructed runner."""
    samples = []
    for _ in range(PROBES):
        spawned = _clock()
        done = subprocess.run(
            [sys.executable, __file__, "--seed", str(seed), "--setup-probe", str(config_path)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - spawned)
    return samples


def main(argv=None) -> int:
    args = _parse(argv)
    bootstrap.pin_threads()
    try:
        bootstrap.use_checkout_source()
    except bootstrap.SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0

    import figures
    import machine
    import tracing
    from cpdistill.config import load_config
    from harness import Bench, round_seeds
    from refbatch import reference_batch

    out_dir = bootstrap.ROOT / ".perfbench-out"
    bench = Bench(args.workload, args.size, out_dir)
    config = load_config(bench.config_path)
    seq_len, batch = config.model_config().seq_len, config.batch_size
    rounds, seeds = [], []
    if args.trace:
        # the first round of a process runs cold, so the traced round is
        # compared with the untraced round after it
        seeds = round_seeds(args.seed, 1) * 3
        tracer = tracing.Tracer(tracing.TRACE, count_kernels=True)
        for seed, t in zip(seeds, (tracing.Tracer(), tracer, tracing.Tracer())):
            rounds.append(bench.round(seed, t))
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = figures.per_layer(
            tracer, rounds[1], rounds[2], reference_batch(args.seed), seq_len, batch
        )
    else:
        seeds = round_seeds(args.seed, max(1, round(args.seconds / ROUND_S)))
        setup = time_setup(bench.config_path, seeds[0])
        for seed in seeds:
            began = _clock()
            rounds.append(bench.round(seed, tracing.Tracer()))
            print(f"perfbench: round at seed {seed}: run_s {rounds[-1].run_s:.2f}, "
                  f"with checks {_clock() - began:.2f} s", file=sys.stderr)
        full = sum(len(figures.full_steps(r, seq_len, batch)) for r in rounds)
        if full < figures.MIN_TAIL_STEPS:
            print(f"perfbench: step_ms.p90 from only {full} steps", file=sys.stderr)
        metrics = figures.end_to_end(rounds, setup, seq_len, batch)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for failure in r.failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": figures.unit(k)} for k, v in metrics.items()},
    }
    info = machine.describe()
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "machine": info,
            "rounds": [
                {"seed": seed, "run_s": r.run_s, "probe_mse": r.probe_mse, "probe_nmse": r.probe_nmse,
                 "failures": r.failures}
                for seed, r in zip(seeds, rounds)
            ],
            **result,
        }, indent=1)
    )
    print("machine " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
