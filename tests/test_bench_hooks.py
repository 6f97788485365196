"""The program names the benchmark under `perfbench/` patches or calls.

`perfbench/tracing.py` replaces functions and methods with span wrappers
and counts every tensor kernel; `checks.py` and `refbatch.py` call the
program directly. A refactor that renames one of these, or changes how it
is called, would make benchmark operations fail; these tests fail first.
"""
import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cpdistill import continual, model, optim, teachers, tensor
from cpdistill.config import ProtocolConfig
from cpdistill.teachers import Trajectory, make_task_stream

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
    return True


def test_traced_names_exist():
    tracing = bench_module("tracing")
    for owner, attr, name, _ in tracing.TRACE:
        assert callable(getattr(owner, attr, None)), name
    for name in tracing.KERNELS:
        assert callable(getattr(tensor, name, None)), name
    assert "_getitem" in tracing.KERNELS
    assert set(tensor.__all__) - set(tracing.KERNELS) == {
        "Tensor", "DimensionError", "NumericError", "no_grad"}


@pytest.mark.parametrize("op,kernel", [
    (lambda a, b: a + b, "add"), (lambda a, b: a + 2.0, "add"), (lambda a, b: a * b, "mul"),
    (lambda a, b: a * 2.0, "mul"), (lambda a, b: a - b, "sub"), (lambda a, b: a - 2.0, "sub"),
    (lambda a, b: a / b, "div"), (lambda a, b: a / 2.0, "div"), (lambda a, b: a @ b, "matmul"),
    (lambda a, b: a[0], "_getitem"),
])
def test_tensor_operators_reach_kernels_through_module_globals(monkeypatch, op, kernel):
    calls = []
    real = getattr(tensor, kernel)
    monkeypatch.setattr(tensor, kernel, lambda *a, **kw: calls.append(kernel) or real(*a, **kw))
    a = tensor.Tensor(np.full((2, 2), 2.0))
    b = tensor.Tensor(np.full((2, 2), 4.0))
    op(a, b)
    assert calls == [kernel]


def test_call_forms_used_by_the_benchmark():
    checks, refbatch = bench_module("checks"), bench_module("refbatch")
    assert checks.kl_penalty is continual.kl_penalty
    assert checks.rollout_success_batch is continual.rollout_success_batch
    assert checks.collect is teachers.collect
    assert checks.expert_action is teachers.expert_action
    assert checks.TeacherPolicy is teachers.TeacherPolicy
    assert refbatch.distill_loss is continual.distill_loss
    assert refbatch.moe_route is model.moe_route
    assert refbatch.AdamW is optim.AdamW
    runner = object()
    batch = SimpleNamespace(length=2, windows=np.zeros((1, 2, 4)))
    assert binds(continual.ProtocolRunner._train_step, runner, batch, None, False, None, None, None)
    assert binds(continual.ProtocolRunner.stage_config, runner, 1)
    assert binds(continual.ProtocolRunner.run_stage, runner, "stage", "specs")
    assert binds(continual.rollout_success_batch, "model", "spec", "z", 4, 7)
    assert binds(continual.rollout_success_batch, "model", "spec", "z", 4, seed=7)
    assert binds(continual.kl_penalty, "new", "old", "windows", "contexts", 1.0)
    assert binds(continual.distill_loss, "model", "windows", "z", "targets", 0.01)
    assert binds(continual.run_protocol, "config", 3, out_dir="run")
    assert binds(teachers.collect, "spec", "teacher", 4, base_seed=7)
    assert binds(model.moe_route, "x", "layer", 1)
    assert binds(model.StudentModel.block_forward, "self", "h", 0)
    assert binds(model.StudentModel.predict_batch, "self", "windows", "z")
    assert binds(tensor.layer_norm, "x", "gain", "bias")
    # refbatch steps its own optimizer over the student's groups
    group = optim.ParamGroup("w", tensor.Tensor(np.ones(2)))
    optimizer = optim.AdamW([group], lr=1e-4)
    group.tensor.grad = np.ones(2)
    optimizer.zero_grad()
    assert group.tensor.grad is None
    group.tensor.grad = np.ones(2)
    optimizer.step()
    assert np.all(group.tensor.data < 1.0)


def test_config_and_checkpoint_reads_of_the_benchmark(tmp_path):
    # harness.py and checks.py read these config values, build an untrained
    # student, and read a stage's checkpoint back
    checks = bench_module("checks")
    cfg = ProtocolConfig(strategy="ours", n_stages=2, tasks_per_stage=1, episodes_per_task=10,
                         eval_episodes=3, replay_m=1, budget_fraction=0.2, kl_sigma0=0.5,
                         model=dict(hidden_dim=8, depth=2, experts_per_layer=2, n_heads=2,
                                    mlp_multiplier=2, encoder_hidden=4))
    model_cfg = cfg.model_config()
    added = cfg.expansion_config().experts_added
    assert (cfg.kl_sigma0, cfg.budget_fraction, cfg.replay_m) == (0.5, 0.2, 1)
    assert (cfg.n_stages, cfg.eval_episodes, cfg.strategy) == (2, 3, "ours")
    student = model.StudentModel(cfg.model_config(), seed=3)
    model.expand_experts(student, cfg.expansion_config(), seed=1)
    student.save(tmp_path / "model")
    manifest, _ = checks.read_checkpoint(tmp_path / "model")
    counts = manifest["extra"]["expert_counts"]
    assert counts == [model_cfg.experts_per_layer + added] * model_cfg.depth
    assert all(type(c) is int for c in counts)
    loaded = checks.load_student(tmp_path)
    assert isinstance(loaded, model.StudentModel) and loaded.expert_counts == counts
    windows = np.random.default_rng(0).normal(size=(2, 3, model_cfg.obs_dim))
    z = np.zeros((2, model_cfg.task_embed_dim))
    assert np.array_equal(loaded.predict_batch(windows, z), student.predict_batch(windows, z))


def test_train_step_calls_the_loss_hooks_through_module_globals(monkeypatch):
    cfg = ProtocolConfig(strategy="kl", n_stages=2, tasks_per_stage=1, episodes_per_task=10, replay_m=0,
                         model=dict(hidden_dim=8, depth=1, experts_per_layer=2, n_heads=2,
                                    mlp_multiplier=2, encoder_hidden=4))
    runner = continual.ProtocolRunner(cfg, seed=1)
    runner.prev_model = runner.model.clone()
    calls = []
    for name in ("distill_loss", "kl_penalty"):
        real = getattr(continual, name)
        monkeypatch.setattr(continual, name,
                            lambda *a, _n=name, _f=real, **kw: calls.append(_n) or _f(*a, **kw))
    rng = np.random.default_rng(0)
    obs = runner.model_cfg.obs_dim
    batch = SimpleNamespace(length=3, windows=rng.normal(size=(4, 3, obs)),
                            targets=rng.normal(size=(4, runner.model_cfg.action_dim)),
                            task_idx=np.zeros(4, dtype=np.intp))
    ctx = np.ones((1, runner.model_cfg.task_embed_dim)) / 4.0
    runner._train_step(batch, ctx, False, None, None, rng)
    assert calls == ["distill_loss", "kl_penalty"]
    spec = make_task_stream(1, 1, seed=0)[0][0]
    rate = continual.rollout_success_batch(runner.model, spec, ctx[0], 2, 5)
    assert 0.0 <= rate <= 1.0


def test_inference_reaches_predict_batch_through_the_class(monkeypatch):
    # the tracing wrapper on StudentModel.predict_batch reads windows from args[1]
    cfg = ProtocolConfig(strategy="kl", n_stages=2, tasks_per_stage=1, episodes_per_task=10, replay_m=0,
                         model=dict(hidden_dim=8, depth=1, experts_per_layer=2, n_heads=2,
                                    mlp_multiplier=2, encoder_hidden=4))
    runner = continual.ProtocolRunner(cfg, seed=1)
    student, snapshot = runner.model, runner.model.clone()
    calls = []
    real = model.StudentModel.predict_batch

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(model.StudentModel, "predict_batch", recorder)
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(4, 3, runner.model_cfg.obs_dim))
    contexts = np.ones((4, runner.model_cfg.task_embed_dim)) / 4.0
    continual.kl_penalty(student, snapshot, windows, contexts, 1.0)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {} and len(args) == 3
    assert args[0] is snapshot and args[1] is windows and args[2] is contexts

    calls.clear()
    spec = make_task_stream(1, 1, seed=0)[0][0]
    continual.rollout_success_batch(student, spec, contexts[0], 2, 5)
    assert len(calls) == spec.horizon
    for args, kwargs in calls:
        assert kwargs == {} and len(args) == 3 and args[0] is student
        assert args[1].shape[0] == 2 and args[2].shape == (2, contexts.shape[1])


def test_teacher_calls_made_by_the_checks():
    spec = make_task_stream(1, 1, seed=0)[0][0]
    trajs = teachers.collect(spec, teachers.TeacherPolicy(spec), 3, base_seed=2**32 + 5)
    assert len(trajs) == 3 and all(isinstance(t, Trajectory) for t in trajs)
    for traj in trajs:
        assert traj.states.shape == (spec.horizon + 1, 4)
        assert traj.actions.shape == (spec.horizon, 2)
    assert teachers.expert_action(spec, trajs[0].states[0]).shape == (2,)


def test_teacher_data_reaches_collect_through_module_globals(monkeypatch):
    cfg = ProtocolConfig(n_stages=1, tasks_per_stage=1, episodes_per_task=3, support_episodes=3,
                         replay_m=0)
    runner = continual.ProtocolRunner(cfg, seed=1)
    calls = []
    real = continual.collect
    monkeypatch.setattr(continual, "collect", lambda *a, **kw: calls.append(a[2]) or real(*a, **kw))
    trajs = runner.teacher_data(runner.stream[0][0], 1, 0)
    assert calls == [3] and len(trajs) == 3
