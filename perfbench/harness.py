"""One benchmark round: the `cpdistill distill` code path on a workload,
then the correctness checks on what it wrote.

A round calls `run_protocol`, as `cpdistill distill` does, with a temporary
run directory, which the round deletes when its checks are done. The
round's tracer keeps what the checks need from the run: the constructed
runner and each stage's teacher pools.
"""
from __future__ import annotations

import functools
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from cpdistill.config import ProtocolConfig, load_config, save_config
from cpdistill.continual import run_protocol
from cpdistill.model import StudentModel

import checks
from tracing import INIT, ROLLOUT, STEP, Tracer
from workloads import WORKLOADS, protocol_dict

KL_PROBE_WINDOWS = 64
# fresh teacher episodes per task in the probe set behind probe_nmse
PROBE_EPISODES = 4


@dataclass
class Round:
    run_s: float
    steps: list[tuple[int, int, float]]  # (window length, batch size, seconds)
    eval_episodes: int
    eval_s: float
    probe_mse: float
    probe_nmse: float
    checkpoint_bytes: int
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def round_seeds(seed: int, rounds: int) -> list[int]:
    """Protocol seeds of a run's rounds, distinct for distinct run seeds."""
    return [seed * 1000 + r for r in range(rounds)]


class Bench:
    """A workload at one size: its config file and the rounds run on it."""

    def __init__(self, workload: str, size: str, out_dir: Path):
        self.workload = WORKLOADS[workload]
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = out_dir / f"config-{workload}-{size}.json"
        save_config(self.config_path, ProtocolConfig(**protocol_dict(workload, size)))

    # ------------------------------------------------------------------

    def round(self, seed: int, tracer: Tracer) -> Round:
        """Run the workload once at a protocol seed in a fresh run
        directory, check it, and delete the directory."""
        config = load_config(self.config_path)
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.out_dir))
        try:
            run_s = self.execute(config, seed, run_dir, tracer)
            done = tracer.stages_done
            result = self._measure(tracer, run_s, run_dir)
            result.attempted, result.failed = config.n_stages, config.n_stages - done
            if done < config.n_stages:
                result.failures.append(f"stage {done + 1} raised")
            for name, check in self._checks(config, seed, tracer, run_dir, result):
                result.attempted += 1
                if done < config.n_stages:
                    result.failed += 1
                    continue
                try:
                    check()
                except Exception as err:  # noqa: BLE001 - a failed check is counted
                    result.failed += 1
                    result.failures.append(f"{name}: {type(err).__name__}: {err}")
            return result
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    @staticmethod
    def execute(config: ProtocolConfig, seed: int, run_dir: Path, tracer: Tracer) -> float:
        """`run_protocol` under the tracer. Returns the wall time from the
        constructed runner to the last artifact written (metrics.tsv), also
        when the run raised; the tracer counts the stages that returned."""
        with tracer:
            try:
                run_protocol(config, seed, out_dir=run_dir)
            except Exception:  # noqa: BLE001 - a failed stage is a counted operation
                traceback.print_exc(file=sys.stderr)
            end = perf_counter()
        built = [s.end for s in tracer.spans if s.name == INIT]
        return end - built[0] if built else 0.0

    @staticmethod
    def _measure(tracer: Tracer, run_s: float, run_dir: Path) -> Round:
        steps, eval_episodes, eval_s = [], 0, 0.0
        for span in tracer.spans:
            if span.name == STEP:
                steps.append((span.info["length"], span.info["size"], span.duration))
            elif span.name == ROLLOUT:
                eval_episodes += span.info["episodes"]
                eval_s += span.duration
        size = sum(p.stat().st_size for p in run_dir.glob("stage_*/**/*") if p.is_file())
        return Round(run_s, steps, eval_episodes, eval_s, float("nan"), float("nan"), size)

    def _checks(self, config, seed: int, tracer: Tracer, run_dir: Path, result: Round):
        """(name, callable) for every check of this workload, in order. The
        checks read the run only when called."""
        last = run_dir / f"stage_{config.n_stages}"
        pools = tracer.pools

        def stream():
            return tracer.runner.stream

        @functools.cache
        def probe_set():
            specs = {s.task_id: s for stage in stream() for s in stage}
            trajs = checks.probe_trajectories(list(specs.values()), PROBE_EPISODES, seed)
            return specs, trajs, checks.ProbeSet.build(trajs, config.model_config().seq_len)

        def contexts():
            return checks.read_contexts(last / "contexts.tsv")

        def dynamics():
            specs, probe_trajs, _ = probe_set()
            checks.check_fresh_probe(probe_trajs, pools)
            buffer = checks.read_buffer(last / "buffer.jsonl")
            checks.check_dynamics(probe_trajs + buffer, specs)

        def eval_rollout():
            checks.check_eval_rollout(
                checks.load_student(last), stream()[-1], contexts(),
                config.eval_episodes, seed=checks.probe_seed(seed, 1023),
            )

        def metrics():
            checks.check_metrics(run_dir, config.n_stages, config.eval_episodes)

        def ours():
            checks.check_ours(run_dir, config, pools)

        def buffer():
            checks.check_buffer(run_dir, config, pools)

        def kl():
            windows, z = probe_set()[2].full_windows(contexts(), KL_PROBE_WINDOWS)
            checks.check_kl(
                checks.load_student(run_dir / "stage_1"), checks.load_student(last),
                windows, z, config.kl_sigma0,
            )

        def learning():
            ctx, probe = contexts(), probe_set()[2]
            result.probe_mse = probe.mse(checks.load_student(last), ctx)
            result.probe_nmse = result.probe_mse / probe.action_energy()
            untrained = StudentModel(config.model_config(), seed=seed)
            checks.check_learning(result.probe_mse, probe.mse(untrained, ctx))

        strategy_check = {
            "ours": ("ours", ours), "kl": ("kl", kl), "replay_only": ("buffer", buffer),
        }[config.strategy]
        return [
            ("dynamics", dynamics),
            ("eval_rollout", eval_rollout),
            ("metrics", metrics),
            strategy_check,
            ("learning", learning),
        ]
