"""Stage-1 success of `ours` on the default desk config, next to the
teacher's success on the same tasks and evaluation seeds: the teacher is
rolled out by `rollout_success_batch` on the seeds stage 1 evaluates the
student on.

    python3 perfbench/desk_success.py [--seed 0]

A desk stage 1 trains 16 epochs of 96 episodes per task, about 1100 train
steps, so one run takes minutes: too long for a benchmark workload, which
is why it is a separate command.
"""
from __future__ import annotations

import argparse
import tempfile
import time

import bootstrap

bootstrap.pin_threads()
bootstrap.use_checkout_source()

from cpdistill.config import desk_config  # noqa: E402
from cpdistill.continual import (  # noqa: E402
    _EVAL, ProtocolRunner, _int_seed, rollout_success_batch,
)

from checks import scripted_teacher  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    config = desk_config("ours")
    config.n_stages = 1
    with tempfile.TemporaryDirectory() as out:
        runner = ProtocolRunner(config, args.seed, out_dir=out)
        start = time.perf_counter()
        rates = runner.run_stage(runner.stage_config(1), runner.stream[0])
        elapsed = time.perf_counter() - start
    print("task_id\tstudent\tteacher")
    seq_len = config.model_config().seq_len
    for idx, spec in enumerate(runner.stream[0]):
        # the seeds run_stage evaluates the stage-1 student on
        teacher = rollout_success_batch(
            scripted_teacher(spec, seq_len), spec, runner.provider.get(spec.task_id),
            config.eval_episodes, seed=_int_seed(args.seed, 1, _EVAL, idx),
        )
        print(f"{spec.task_id}\t{rates[spec.task_id]}\t{teacher}")
    print(f"stage 1: {runner.global_step} train steps in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
