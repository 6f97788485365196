"""The benchmark's own tests: a tiny pass of every workload, each check
against a corrupted input, and the tracer's clean-up.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bootstrap

bootstrap.use_checkout_source()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from cpdistill import continual  # noqa: E402
from cpdistill.config import load_config  # noqa: E402
from harness import Bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def _patched_attrs():
    targets = [(o, a) for o, a, _, _ in tracing.TRACE]
    targets += [(tracing.tensor, k) for k in tracing.KERNELS]
    return {(id(o), a): getattr(o, a) for o, a in targets}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One tiny distill run per workload, kept on disk for the checks."""
    out = {}
    for name in WORKLOADS:
        bench = Bench(name, size="tiny", out_dir=tmp_path_factory.mktemp(name))
        config = load_config(bench.config_path)
        run_dir = bench.out_dir / "run"
        run_dir.mkdir()
        tracer = tracing.Tracer()
        bench.execute(config, 3, run_dir, tracer)
        assert tracer.stages_done == config.n_stages
        out[name] = SimpleNamespace(bench=bench, config=config, run_dir=run_dir,
                                    runner=tracer.runner, pools=tracer.pools)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_passes_every_check(name, tmp_path):
    bench = Bench(name, size="tiny", out_dir=tmp_path)
    result = bench.round(1, tracing.Tracer())
    assert result.failures == []
    assert result.failed == 0
    assert result.attempted == bench.workload.config["n_stages"] + 5
    assert result.steps and result.eval_episodes > 0
    assert list(tmp_path.glob("run-*")) == []


def test_a_stage_that_raises_fails_itself_and_every_check(tmp_path, monkeypatch):
    real = continual.ProtocolRunner.run_stage

    def second_stage_raises(self, stage, specs):
        if stage.index == 2:
            raise RuntimeError("stage 2")
        return real(self, stage, specs)

    monkeypatch.setattr(continual.ProtocolRunner, "run_stage", second_stage_raises)
    result = Bench("stream-kl", size="tiny", out_dir=tmp_path).round(1, tracing.Tracer())
    # stream-kl: 2 stages and 5 checks; stage 2 and every check fail
    assert (result.attempted, result.failed) == (7, 6)
    assert result.failures == ["stage 2 raised"]


def test_traced_round_restores_every_wrapper(tmp_path):
    before = _patched_attrs()
    tracer = tracing.Tracer(tracing.TRACE, count_kernels=True)
    result = Bench("stream-kl", size="tiny", out_dir=tmp_path).round(2, tracer)
    assert result.failed == 0
    assert _patched_attrs() == before
    names = {s.name for s in tracer.spans}
    assert {name for _, _, name, _ in tracing.TRACE} - names <= {"continual.ewc_penalty",
                                                                 "continual.select_replay",
                                                                 "continual.update_buffer"}
    assert tracer.kernel_calls > 0


def test_tracer_restores_after_an_exception():
    before = _patched_attrs()
    with pytest.raises(RuntimeError):
        with tracing.Tracer(tracing.TRACE, count_kernels=True):
            raise RuntimeError("boom")
    assert _patched_attrs() == before


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span(0, "a", None, 0, 0.0, 10.0),
        tracing.Span(1, "b", 0, 0, 1.0, 4.0),
        tracing.Span(2, "c", 1, 0, 2.0, 3.0),
        tracing.Span(3, "b", 0, 0, 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.ancestor_index(spans, "b") == [None, 1, 1, 3]


# ---------------------------------------------------------------------------
# every check fails on a corrupted input


def _specs(run):
    return {s.task_id: s for stage in run.runner.stream for s in stage}


def _copy_traj(traj):
    return SimpleNamespace(task_id=traj.task_id, seed=traj.seed,
                           states=traj.states.copy(), actions=traj.actions.copy())


def test_dynamics_check(runs):
    run = runs["stream-ours"]
    trajs = [t for pool in run.pools.values() for t in pool[:2]]
    checks.check_dynamics(trajs, _specs(run))
    for corrupt in (
        lambda t: t.states.__setitem__((5, 0), t.states[5, 0] + 1e-6),  # off the dynamics
        lambda t: t.states.__setitem__((7, 3), t.states[7, 3] + 1e-3),  # goal moved
        lambda t: t.actions.__setitem__((3, 1), 1.5),  # |a| > 1
    ):
        bad = _copy_traj(trajs[0])
        corrupt(bad)
        with pytest.raises(checks.CheckFailed):
            checks.check_dynamics([bad], _specs(run))


def test_teacher_must_reach_target(runs):
    run = runs["stream-ours"]
    specs = _specs(run)
    # a teacher that stopped moving after 3 steps: consistent dynamics, missed target
    traj = next(
        _copy_traj(t) for pool in run.pools.values() for t in pool
        if not checks.reaches_target(specs[t.task_id], t.states[3])[0]
    )
    traj.actions[3:] = 0.0
    traj.states[4:] = traj.states[3]
    with pytest.raises(checks.CheckFailed, match="missed"):
        checks.check_dynamics([traj], _specs(run))


def test_eval_rollout_check(runs, monkeypatch):
    run = runs["stream-ours"]
    last = run.run_dir / f"stage_{run.config.n_stages}"
    args = (checks.load_student(last), run.runner.stream[-1],
            checks.read_contexts(last / "contexts.tsv"), 4)
    checks.check_eval_rollout(*args, seed=11)
    real = checks.rollout_success_batch

    def one_episode_short(model, spec, z, n_episodes, seed):
        return max(0.0, real(model, spec, z, n_episodes, seed) - 1.0 / n_episodes)

    monkeypatch.setattr(checks, "rollout_success_batch", one_episode_short)
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_rollout(*args, seed=11)


def _write_matrix(run_dir: Path, rows: list[str]) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    header = ["stage\ta\tb\tc", "intro\t1\t1\t2"]
    (run_dir / "metrics.tsv").write_text("\n".join(header + rows) + "\n")


def test_metrics_check(tmp_path):
    good = ["1\t0.25\t0.5\tnan", "2\t0.0\t0.75\t1.0"]
    _write_matrix(tmp_path / "good", good)
    checks.check_metrics(tmp_path / "good", 2, 4)
    for name, rows in {
        "off_grid": ["1\t0.3\t0.5\tnan", good[1]],
        "outside": [good[0], "2\t0.0\t1.25\t1.0"],
        "incomplete": [good[0], "2\tnan\t0.75\t1.0"],
        "early": ["1\t0.25\t0.5\t0.5", good[1]],
        "missing_row": [good[0]],
    }.items():
        _write_matrix(tmp_path / name, rows)
        with pytest.raises(checks.CheckFailed):
            checks.check_metrics(tmp_path / name, 2, 4)


def test_acc_bwt_recomputed_against_report(tmp_path, monkeypatch):
    _write_matrix(tmp_path, ["1\t0.25\t0.5\tnan", "2\t0.0\t0.75\t1.0"])
    assert checks.acc_bwt(checks.read_matrix(tmp_path / "metrics.tsv")) == {
        1: (0.375, None), 2: (0.5833333333333334, 0.0),
    }
    monkeypatch.setattr(checks, "acc_bwt", lambda m: {1: (0.375, None), 2: (0.5, 0.0)})
    with pytest.raises(checks.CheckFailed, match="Acc"):
        checks.check_metrics(tmp_path, 2, 4)


def _copy_run(run, tmp_path) -> Path:
    dest = tmp_path / "run"
    shutil.copytree(run.run_dir, dest)
    return dest


def test_ours_check(runs, tmp_path):
    run = runs["stream-ours"]
    checks.check_ours(run.run_dir, run.config, run.pools)
    n = run.config.n_stages

    # a changed backbone byte
    bad = _copy_run(run, tmp_path / "byte")
    manifest, _ = checks.read_checkpoint(bad / f"stage_{n}" / "model")
    group = next(g for g in manifest["groups"] if g["name"] == "embed.w")
    blob = bytearray((bad / f"stage_{n}" / "model" / "params.bin").read_bytes())
    blob[group["offset"]] ^= 1
    (bad / f"stage_{n}" / "model" / "params.bin").write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed, match="backbone"):
        checks.check_ours(bad, run.config, run.pools)

    # an expert count that did not grow
    bad = _copy_run(run, tmp_path / "experts")
    path = bad / f"stage_{n}" / "model" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["extra"]["expert_counts"][0] -= 1
    path.write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed, match="experts"):
        checks.check_ours(bad, run.config, run.pools)

    # a buffer episode that was never in its task's pool
    bad = _copy_run(run, tmp_path / "buffer")
    path = bad / f"stage_{n}" / "buffer.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["seed"] = -1
    path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    with pytest.raises(checks.CheckFailed, match="pool"):
        checks.check_ours(bad, run.config, run.pools)


def test_kl_check(runs, monkeypatch):
    run = runs["stream-kl"]
    last = run.run_dir / f"stage_{run.config.n_stages}"
    ctx = checks.read_contexts(last / "contexts.tsv")
    probe = checks.ProbeSet.build(
        checks.probe_trajectories(list(_specs(run).values()), 1, seed=3), 20
    )
    windows, z = probe.full_windows(ctx, 16)
    old, new = checks.load_student(run.run_dir / "stage_1"), checks.load_student(last)
    checks.check_kl(old, new, windows, z, run.config.kl_sigma0)
    with pytest.raises(checks.CheckFailed, match="equals"):
        checks.check_kl(new, new, windows, z, run.config.kl_sigma0)
    real = checks.kl_penalty
    monkeypatch.setattr(checks, "kl_penalty", lambda *a: real(*a) * 2.0)
    with pytest.raises(checks.CheckFailed, match="kl_penalty"):
        checks.check_kl(old, new, windows, z, run.config.kl_sigma0)


def test_learning_and_fresh_probe_checks(runs):
    checks.check_learning(0.1, 0.2)
    with pytest.raises(checks.CheckFailed):
        checks.check_learning(0.2, 0.2)
    run = runs["stream-ours"]
    pool = next(iter(run.pools.values()))
    with pytest.raises(checks.CheckFailed, match="reuse"):
        checks.check_fresh_probe(pool[:1], run.pools)


def test_probe_mse_matches_direct_sum(runs):
    run = runs["stream-ours"]
    last = run.run_dir / f"stage_{run.config.n_stages}"
    ctx = checks.read_contexts(last / "contexts.tsv")
    trajs = checks.probe_trajectories(list(_specs(run).values())[:1], 1, seed=5)
    model = checks.load_student(last)
    expected = []
    for t in range(len(trajs[0].actions)):
        window = trajs[0].states[max(0, t - 19): t + 1]
        pred = model.predict_batch(window[None], ctx[trajs[0].task_id][None])[0]
        expected.append(((pred - trajs[0].actions[t]) ** 2).sum())
    probe = checks.ProbeSet.build(trajs, 20)
    assert probe.mse(model, ctx) == pytest.approx(np.mean(expected), rel=1e-12)
    zero = SimpleNamespace(predict_batch=lambda windows, z: np.zeros((len(windows), 2)))
    assert probe.action_energy() == pytest.approx(probe.mse(zero, ctx), rel=1e-12)


# ---------------------------------------------------------------------------
# the command-line contract


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace,key,rounds", [(0, "end_to_end", 1), (1, "per_layer", 3)])
def test_command_prints_every_metric(trace, key, rounds):
    done = _run(["perfbench/run.py", "--workload", "stream-kl", "--seed", "4",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"], bootstrap.ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # stream-kl: 2 stages and 5 checks per round
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 7 * rounds
    wanted = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_benchmark_json_lists_the_workloads():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_command_fails_without_program_source(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(SPEC["command"][1:] + ["--workload", "stream-ours", "--seed", "0",
                                        "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
