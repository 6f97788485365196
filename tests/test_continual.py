import json
import shutil
from dataclasses import fields

import numpy as np
import pytest

from cpdistill import continual, replay, teachers
from cpdistill import tensor as T
from cpdistill.config import STRATEGIES, ProtocolConfig, desk_config, save_config
from cpdistill.continual import (
    DistillDataset,
    EWCState,
    ProtocolRunner,
    aux_lambda,
    distill_loss,
    estimate_fisher,
    ewc_penalty,
    kl_penalty,
    open_stage,
    run_protocol,
)
from cpdistill.errors import ConfigError
from cpdistill.metrics import accuracy, bwt
from cpdistill.model import ModelConfig, StudentModel
from cpdistill.teachers import TeacherPolicy, collect, make_task_stream
from cpdistill.tensor import Tensor
from oracles import tree_bytes


def tiny_protocol(**over):
    base = dict(
        strategy="ours",
        n_stages=2,
        tasks_per_stage=2,
        episodes_per_task=10,
        support_episodes=3,
        eval_episodes=2,
        epochs_stage1=1,
        epochs_later=2,
        batch_size=64,
        replay_m=1,
        model=dict(hidden_dim=16, depth=1, experts_per_layer=2, n_heads=2,
                   mlp_multiplier=2, encoder_hidden=8),
    )
    base.update(over)
    return ProtocolConfig(**base)


def small_model(seed=0):
    cfg = ModelConfig(
        obs_dim=4, action_dim=2, hidden_dim=16, depth=1, experts_per_layer=2,
        n_heads=2, mlp_multiplier=2, seq_len=20, encoder_hidden=8,
    )
    return StudentModel(cfg, seed=seed)


def batch_for(model, n=6, seed=0):
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(n, 5, model.config.obs_dim))
    ctx = rng.normal(size=(n, model.config.task_embed_dim))
    ctx /= np.linalg.norm(ctx, axis=1, keepdims=True)
    targets = rng.normal(size=(n, model.config.action_dim))
    return windows, ctx, targets


def test_aux_lambda_values():
    assert aux_lambda(0) == 0.01
    assert aux_lambda(100) == pytest.approx(0.005)
    assert aux_lambda(10**6) == 0.0001
    grid = [aux_lambda(t) for t in range(0, 5000, 37)]
    assert all(b <= a for a, b in zip(grid, grid[1:]))


def test_distill_loss_values():
    model = small_model()
    windows, ctx, _ = batch_for(model, n=1)
    # lam=0 reduces to the pure regression term
    with T.no_grad():
        mu, _, _ = model.forward(windows, ctx)
    loss = distill_loss(model, windows, ctx, mu.data, lam=0.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-15)

    # single sample, mu=(0,0), teacher=(1,0) -> 1.0 under sum-of-squares
    model.params["head.w"].tensor.data[:] = 0.0
    model.params["head.b"].tensor.data[:] = 0.0
    loss = distill_loss(model, windows, ctx, np.array([[1.0, 0.0]]), lam=0.0)
    assert loss.item() == pytest.approx(1.0, abs=1e-15)

    with_aux = distill_loss(model, windows, ctx, np.array([[1.0, 0.0]]), lam=0.01)
    assert with_aux.item() >= loss.item()


def test_estimate_fisher():
    model = small_model()
    windows, ctx, targets = batch_for(model, n=4)
    from types import SimpleNamespace

    batches = [SimpleNamespace(windows=windows, contexts=ctx, targets=targets)]
    fisher = estimate_fisher(model, batches)
    assert all(np.all(f >= 0.0) for f in fisher.values())

    # teacher equal to the model output -> zero gradients -> zero fisher
    with T.no_grad():
        mu, _, _ = model.forward(windows, ctx)
    flat = [SimpleNamespace(windows=windows, contexts=ctx, targets=mu.data)]
    fisher0 = estimate_fisher(model, flat)
    assert all(np.allclose(f, 0.0, atol=1e-20) for f in fisher0.values())


def test_fisher_constant_gradient_oracle():
    # scalar toy: loss = g * theta has constant gradient g, so F = g^2
    from types import SimpleNamespace

    from cpdistill.optim import ParamGroup

    theta = ParamGroup("theta", Tensor(np.array([[0.3]])))
    g_const = 1.7

    class Toy:
        config = SimpleNamespace(use_aux=False)

        def groups(self):
            return [theta]

        def forward(self, windows, ctx):
            return theta.tensor * Tensor(np.array([[g_const]])), Tensor(0.0), []

    batches = [
        SimpleNamespace(windows=np.zeros((1, 1, 1)), contexts=np.zeros((1, 1)),
                        targets=np.zeros((1, 1)))
        for _ in range(3)
    ]
    # loss = mean(sum((g*theta - 0)^2)) -> dL/dtheta = 2 g^2 theta, constant
    # over identical batches; fisher = (2 g^2 theta)^2 for every batch
    fisher = estimate_fisher(Toy(), batches)
    expected = (2 * g_const**2 * 0.3) ** 2
    assert fisher["theta"][0, 0] == pytest.approx(expected, rel=1e-12)


def test_ewc_penalty_values():
    model = small_model()
    anchors = {n: g.tensor.data.copy() for n, g in model.params.items()}
    fisher = {n: np.ones_like(a) for n, a in anchors.items()}
    state = EWCState(anchors, fisher, lam=1.0)
    assert ewc_penalty(model, state).item() == pytest.approx(0.0, abs=1e-18)

    zero_f = EWCState(anchors, {n: np.zeros_like(a) for n, a in anchors.items()}, lam=1.0)
    model.params["head.b"].tensor.data += 0.5
    assert ewc_penalty(model, zero_f).item() == 0.0

    scalar = EWCState(
        {"head.b": model.params["head.b"].tensor.data - 0.5},
        {"head.b": np.full_like(anchors["head.b"], 2.0)},
        lam=1.0,
    )
    # per entry: (1/2) * 2 * 0.25 = 0.25, two entries -> 0.5
    assert ewc_penalty(model, scalar).item() == pytest.approx(0.5, abs=1e-12)


def test_kl_penalty_values():
    model = small_model(seed=1)
    twin = model.clone()
    windows, ctx, _ = batch_for(model, n=3)
    assert kl_penalty(model, twin, windows, ctx, 1.0).item() == pytest.approx(0.0, abs=1e-18)

    twin.params["head.b"].tensor.data += np.array([1.0, 0.0])
    val = kl_penalty(model, twin, windows, ctx, sigma0=1.0).item()
    assert val == pytest.approx(0.5, abs=1e-12)
    val_wide = kl_penalty(model, twin, windows, ctx, sigma0=1e6).item()
    assert val_wide < 1e-9


def test_dataset_buckets_and_full_pass():
    horizon = teachers.HORIZON
    task = make_task_stream(1, 1, seed=2)[0][0]
    trajs = collect(task, TeacherPolicy(task), 4, base_seed=0)
    ds = DistillDataset(trajs, seq_len=20, task_ids=[task.task_id])
    n_samples = sum(b.windows.shape[0] for b in ds.buckets.values())
    assert n_samples == 4 * horizon
    # lengths 1..19 once per trajectory, length 20 for the rest
    assert sorted(ds.buckets) == list(range(1, 21))
    assert ds.buckets[20].windows.shape[0] == 4 * (horizon - 19)

    rng = np.random.default_rng(0)
    targets = []
    for batch in ds.epoch_batches(rng, batch_size=32):
        assert batch.windows.shape[1] == batch.length
        assert len(batch.targets) <= 32
        targets.extend(map(tuple, batch.targets))
    # full-pass contract: the batches' targets are every trajectory's every
    # action, each once
    assert sorted(targets) == sorted(tuple(a) for t in trajs for a in t.actions)


def test_config_rejects_removed_knobs():
    # the point-mass suite, the aux-loss weight, the InfoNCE temperature and
    # batch, the Fisher batch count and expert expansion are constants, and
    # AdamW runs without weight decay
    for key, value in (("suite", {}), ("lambda_schedule", {"start": 0.01}), ("workers", 4),
                       ("weight_decay", 0.0), ("infonce_tau", 0.1), ("infonce_trajs", 32),
                       ("ewc_batches", 8), ("expansion", {})):
        with pytest.raises(ConfigError, match=key):
            ProtocolConfig.from_dict({**tiny_protocol().to_dict(), key: value})


def test_config_surface_is_29_settable_values(tmp_path):
    # every settable value is named here, so a new knob is an edit to this test
    top = {
        "strategy", "n_stages", "tasks_per_stage", "episodes_per_task", "support_episodes",
        "eval_episodes", "epochs_stage1", "epochs_later", "batch_size", "lr", "max_steps",
        "replay_m", "replay_strategy", "budget_fraction", "teacher_noise", "infonce_weight",
        "ewc_lambda", "kl_sigma0",
    }
    model = {
        "hidden_dim", "depth", "experts_per_layer", "mlp_multiplier", "top_k", "seq_len",
        "task_embed_dim", "n_heads", "stats_chunks", "encoder_hidden", "dtype",
    }
    save_config(tmp_path / "config.json", ProtocolConfig())
    saved = json.loads((tmp_path / "config.json").read_text())
    assert set(saved) == top | {"model"} and len(saved) == 19
    # the model section takes every ModelConfig field but the suite's dims
    assert {f.name for f in fields(ModelConfig)} - {"obs_dim", "action_dim"} == model
    defaults = ModelConfig(obs_dim=teachers.OBS_DIM, action_dim=teachers.ACTION_DIM)
    cfg = ProtocolConfig(model={key: getattr(defaults, key) for key in model})
    assert cfg.model_config() == defaults
    assert len(top) + len(model) == 29


@pytest.mark.parametrize("over,key", [
    (dict(model={"hiden_dim": 3}), "hiden_dim"),
    (dict(model={"seq_len": 0}), "seq_len"),
    (dict(n_stages="3"), "n_stages"),
    (dict(batch_size=0), "batch_size"),
    (dict(eval_episodes=0), "eval_episodes"),
    (dict(epochs_stage1=-1), "epochs_stage1"),
    (dict(replay_strategy="dpp_exact"), "replay_strategy"),
    # the dims are fixed by the point-mass suite, so even their own values
    # are refused
    (dict(model={"obs_dim": teachers.OBS_DIM}), "obs_dim"),
    (dict(model={"action_dim": teachers.ACTION_DIM}), "action_dim"),
    (dict(lr="0.1"), "lr"),
    (dict(max_steps="5"), "max_steps"),
    (dict(model={"obs_dim": 5}), "obs_dim"),
    (dict(model={"action_dim": 3}), "action_dim"),
    (dict(replay_m=-1), "replay_m"),
    (dict(lr=-1.0), "lr"),
    (dict(lr=0.0), "lr"),
    (dict(kl_sigma0=0.0), "kl_sigma0"),
    (dict(budget_fraction=0.0), "budget_fraction"),
    (dict(teacher_noise=-1.0), "teacher_noise"),
    (dict(epochs_later=-1), "epochs_later"),
    (dict(max_steps=0), "max_steps"),
    (dict(model={"stats_chunks": 0}), "stats_chunks"),
    (dict(model={"encoder_hidden": 0}), "encoder_hidden"),
    (dict(budget_fraction=-0.1), "budget_fraction"),
    (dict(budget_fraction=1.5), "budget_fraction"),
    (dict(strategy="nope"), "strategy"),
    (dict(infonce_weight=-1.0), "infonce_weight"),
    (dict(ewc_lambda=-1.0), "ewc_lambda"),
    (dict(model=5), "model"),
    (dict(model=None), "model"),
    (dict(n_stages=2.5), "n_stages"),
    (dict(eval_episodes=3.0), "eval_episodes"),
    (dict(episodes_per_task=10.0), "episodes_per_task"),
    (dict(batch_size=True), "batch_size"),
    (dict(model={"hidden_dim": "16"}), "hidden_dim"),
    (dict(model={"dtype": 64}), "dtype"),
    (dict(budget_fraction="0.1"), "budget_fraction"),
    (dict(tasks_per_stage=0), "tasks_per_stage"),
    (dict(support_episodes=11), "support_episodes"),
    # non-finite rates pass the sign checks, so finiteness is checked apart
    (dict(ewc_lambda=float("nan")), "ewc_lambda"),
    (dict(kl_sigma0=float("nan")), "kl_sigma0"),
    (dict(budget_fraction=float("inf")), "budget_fraction"),
    (dict(teacher_noise=float("inf")), "teacher_noise"),
    (dict(model={"dtype": "float16"}), "dtype"),
    (dict(kl_sigma0=float("inf")), "kl_sigma0"),
    (dict(ewc_lambda=float("inf")), "ewc_lambda"),
    (dict(infonce_weight=float("inf")), "infonce_weight"),
    (dict(replay_m=2), "replay_m"),  # over the 10% budget of 10 episodes
    (dict(lr=float("inf")), "lr"),
    (dict(lr=float("nan")), "lr"),
    (dict(lr=10**400), "lr"),
    # 2 * kl_sigma0**2 underflows to 0 or overflows
    (dict(kl_sigma0=1e-320), "kl_sigma0"),
    (dict(kl_sigma0=1e200), "kl_sigma0"),
])
def test_config_rejects_bad_values_at_construction(over, key):
    with pytest.raises(ConfigError, match=key):
        tiny_protocol(**over)


def test_config_accepts_a_small_kl_sigma0():
    # 2 * kl_sigma0**2 is still a positive float here
    assert tiny_protocol(kl_sigma0=1e-150).kl_sigma0 == 1e-150


def test_config_accepts_zero_weights():
    cfg = tiny_protocol(infonce_weight=0.0, ewc_lambda=0.0)
    assert cfg.infonce_weight == 0.0 and cfg.ewc_lambda == 0.0


def test_config_accepts_ints_for_rates_and_equal_support():
    cfg = tiny_protocol(lr=1, teacher_noise=0, support_episodes=10, max_steps=None)
    assert cfg.lr == 1 and cfg.support_episodes == cfg.episodes_per_task
    assert ProtocolConfig.from_dict(cfg.to_dict()) == cfg


def test_horizon_follows_the_replay_slice_not_the_window():
    # the fixed horizon is a whole number of replay slices, whatever window
    # the student reads
    assert teachers.HORIZON % replay.SLICE_LEN == 0
    assert tiny_protocol(model={**tiny_protocol().model, "seq_len": 3}).model_config().seq_len == 3


def test_replay_selection_reads_no_window(tmp_path):
    # replay averages fixed 20-step slices, so the student's window changes
    # neither the trajectories a stage keeps nor their audit
    kept = set()
    for seq_len in (20, 4, 3, 1):
        cfg = tiny_protocol(n_stages=1, model={**tiny_protocol().model, "seq_len": seq_len})
        run_protocol(cfg, seed=5, out_dir=tmp_path / str(seq_len))
        stage = tmp_path / str(seq_len) / "stage_1"
        kept.add(((stage / "audits.tsv").read_bytes(), (stage / "buffer.jsonl").read_bytes()))
    assert len(kept) == 1


def test_config_rejects_unknown_replay_strategy():
    with pytest.raises(ValueError, match="replay_strategy"):
        ProtocolConfig(replay_strategy="dppp")
    # farthest-first selection was removed
    with pytest.raises(ConfigError, match="replay_strategy 'ffs'"):
        ProtocolConfig(replay_strategy="ffs")


def test_epochs_zero_debug_mode():
    cfg = tiny_protocol(n_stages=1, epochs_stage1=0)
    runner = ProtocolRunner(cfg, seed=3)
    before = {n: g.tensor.data.copy() for n, g in runner.model.params.items()}
    rates = runner.run_stage(runner.stage_config(1), runner.stream[0])
    for name, snap in before.items():
        assert np.array_equal(runner.model.params[name].tensor.data, snap), name
    assert len(runner.buffer) == cfg.replay_m * cfg.tasks_per_stage
    assert set(rates) == {s.task_id for s in runner.stream[0]}


def test_ours_expands_and_finetune_does_not():
    cfg = tiny_protocol(strategy="ours")
    runner = ProtocolRunner(cfg, seed=4)
    runner.run()
    assert runner.model.expert_counts == [3]
    assert len(runner.audits) == 4
    assert len(runner.buffer) == 4

    ft = ProtocolRunner(tiny_protocol(strategy="finetune"), seed=4)
    ft.run()
    assert ft.model.expert_counts == [2]
    assert len(ft.audits) == 0
    assert len(ft.buffer) == 0
    names = {n for n, g in ft.model.params.items() if g.tensor.requires_grad}
    assert names == set(ft.model.params)


def test_phase_masks_hold_during_training():
    cfg = tiny_protocol(strategy="ours", epochs_later=3, episodes_per_task=10)
    runner = ProtocolRunner(cfg, seed=5)
    runner.run_stage(runner.stage_config(1), runner.stream[0])

    backbone = {
        n: g.tensor.data.copy()
        for n, g in runner.model.params.items()
        if ".attn." in n or n.startswith(("embed.", "pos", "head.")) or ".ln" in n
    }
    old_experts_names = [
        n for n in runner.model.params if ".experts.0." in n or ".experts.1." in n
    ]

    stage2 = runner.stage_config(2)
    specs = runner.stream[1]

    old_before = {n: runner.model.params[n].tensor.data.copy() for n in old_experts_names}
    runner.run_stage(stage2, specs)

    for name, snap in backbone.items():
        assert np.array_equal(runner.model.params[name].tensor.data, snap), name
    # gate froze in phase 2 but moved in phase 1; old experts moved in phase 2
    assert not np.array_equal(
        runner.model.params["blocks.0.gate.w"].tensor.data[:, :2],
        np.zeros((16, 2)),
    )
    moved = any(
        not np.array_equal(runner.model.params[n].tensor.data, old_before[n])
        for n in old_experts_names
    )
    assert moved  # phase 2 fine-tunes old experts


def test_run_protocol_shapes_and_rows():
    cfg = tiny_protocol(n_stages=1, tasks_per_stage=2)
    matrix, _ = run_protocol(cfg, seed=6)
    assert len(matrix.stages()) == 1
    assert len(matrix.task_ids) == 2

    cfg5 = tiny_protocol(n_stages=5, tasks_per_stage=2, episodes_per_task=10,
                         epochs_stage1=1, epochs_later=1, replay_m=0)
    cfg5 = ProtocolConfig.from_dict({**cfg5.to_dict(), "strategy": "finetune"})
    matrix5, _ = run_protocol(cfg5, seed=6)
    assert len(matrix5.task_ids) == 10
    for k in range(1, 6):
        filled = (~np.isnan(matrix5.rows[k])).sum()
        assert filled == 2 * k
        accuracy(matrix5, k)  # raises if incomplete


def test_strategy_roster_runs():
    rates = {}
    for strategy in ("ours", "finetune", "ewc", "kl", "replay_only", "expert_only", "independent"):
        cfg = tiny_protocol(strategy=strategy, episodes_per_task=10, epochs_stage1=1,
                            epochs_later=1, eval_episodes=2, replay_m=0 if strategy
                            in ("finetune", "ewc", "kl", "expert_only", "independent") else 1)
        matrix, runner = run_protocol(cfg, seed=7)
        assert len(matrix.stages()) == 2
        rates[strategy] = accuracy(matrix, 2)
        if strategy == "independent":
            # old-task entries carry their introduction values -> BWT exactly 0
            assert bwt(matrix, 2) == 0.0
        if strategy == "ewc":
            assert runner.ewc_state is not None
        if strategy == "kl":
            assert runner.prev_model is not None
    assert set(rates) == {
        "ours", "finetune", "ewc", "kl", "replay_only", "expert_only", "independent"
    }


def test_stage_1_does_not_depend_on_the_strategy(tmp_path):
    # no seed key holds the strategy, and every strategy trains stage 1 alike;
    # what differs is written after training
    after_training = {"state.json", "buffer.jsonl", "audits.tsv", "fisher"}
    files = {}
    for strategy in STRATEGIES:
        runner = ProtocolRunner(tiny_protocol(strategy=strategy), seed=11,
                                out_dir=tmp_path / strategy)
        runner.run_stage(runner.stage_config(1), runner.stream[0])
        stage = tmp_path / strategy / "stage_1"
        files[strategy] = {
            p.relative_to(stage).as_posix(): p.read_bytes() for p in stage.rglob("*")
            if p.is_file() and not after_training & set(p.relative_to(stage).parts)
        }
    ours = files.pop("ours")
    assert {"model/params.bin", "optimizer/params.bin", "metrics.tsv", "contexts.tsv"} <= set(ours)
    for strategy, got in files.items():
        differ = sorted(n for n in ours.keys() | got.keys() if ours.get(n) != got.get(n))
        assert differ == [], strategy


class _NoTraits:
    def __getattr__(self, name):
        raise AssertionError(f"stage 1 read the strategy trait {name!r}")


def test_stage_1_training_reads_no_strategy_trait():
    # what lets every strategy share one stage-1 student: training and
    # evaluating stage 1 neither read a trait nor build strategy state
    runner = ProtocolRunner(tiny_protocol(), seed=11)
    runner.traits = _NoTraits()
    rates, _ = runner.train_stage(runner.stage_config(1), runner.stream[0])
    assert set(rates) == {s.task_id for s in runner.stream[0]}
    assert runner.global_step > 0
    assert runner.ewc_state is None and runner.prev_model is None
    assert len(runner.buffer) == 0


@pytest.mark.parametrize("over", [
    dict(infonce_trajs=4),  # stage 2 pools 4 tasks: 2 new, 2 from replay
    dict(n_stages=1, tasks_per_stage=3, infonce_trajs=3),
    dict(n_stages=1, episodes_per_task=1, support_episodes=1, replay_m=0),  # no task has two
])
def test_contrastive_batches_without_a_positive_pair_do_not_stop_the_run(over, monkeypatch):
    over = dict(over)
    monkeypatch.setattr(continual, "INFONCE_TRAJS", over.pop("infonce_trajs", continual.INFONCE_TRAJS))
    cfg = tiny_protocol(**over)
    matrix, _ = run_protocol(cfg, seed=14)
    assert matrix.stages() == list(range(1, cfg.n_stages + 1))


@pytest.mark.parametrize("labels,tasks", [
    ([0, 0, 1, 2, 3], 2),  # round-robin would take one of each of 3 tasks
    ([0, 1, 2, 3, 3], 2),  # the pair comes from the one task that has two
    ([0, 0, 0, 1], 2),     # round-robin already holds a pair: unchanged
])
def test_nce_sample_holds_a_positive_pair(labels, tasks, monkeypatch):
    monkeypatch.setattr(continual, "INFONCE_TRAJS", 3)
    runner = ProtocolRunner(tiny_protocol(), seed=0)
    labels = np.array(labels)
    idx = runner._nce_sample(np.random.default_rng(0), labels)
    assert idx.size == 3 and len(set(idx.tolist())) == 3
    assert len(set(labels[idx].tolist())) == tasks
    assert runner._nce_sample(np.random.default_rng(0), np.array([0, 1, 2])) is None


def test_lambda_uses_cumulative_step(monkeypatch):
    cfg = tiny_protocol(n_stages=2, episodes_per_task=10, epochs_stage1=1, epochs_later=1)
    runner = ProtocolRunner(cfg, seed=8)
    runner.run_stage(runner.stage_config(1), runner.stream[0])
    steps_after_1 = runner.global_step
    assert steps_after_1 > 0
    # stage 2 weighs its aux loss from the step count stage 1 reached
    lams = []
    real = continual.distill_loss
    monkeypatch.setattr(continual, "distill_loss",
                        lambda *a, **kw: lams.append(a[4]) or real(*a, **kw))
    runner.run_stage(runner.stage_config(2), runner.stream[1])
    assert lams[0] == aux_lambda(steps_after_1)
    assert lams == [aux_lambda(steps_after_1 + i) for i in range(len(lams))]
    assert lams[0] == pytest.approx(0.01 - steps_after_1 * 0.00005)


def test_determinism_two_identical_runs(tmp_path):
    cfg = tiny_protocol(episodes_per_task=10, epochs_stage1=1, epochs_later=1)
    m1, _ = run_protocol(cfg, seed=9, out_dir=tmp_path / "a")
    m2, _ = run_protocol(cfg, seed=9, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "metrics.tsv").read_bytes() == (
        tmp_path / "b" / "metrics.tsv"
    ).read_bytes()
    for k in m1.stages():
        assert m1.rows[k].tobytes() == m2.rows[k].tobytes()


@pytest.mark.parametrize("strategy,n_stages,cut", [
    *(pytest.param(s, 2, 1, id=s) for s in STRATEGIES),
    *(pytest.param(s, 3, 2, id=f"{s}-cut 2 of 3") for s in STRATEGIES),
])
def test_resume_matches_straight_run(tmp_path, strategy, n_stages, cut):
    # a cut after stage 1 of 2 makes the resume load the stage-1 student,
    # buffer, EWC Fisher and anchors or KL snapshot that stage 2 trains with;
    # a cut after stage 2 of 3 loads a student that ours and expert_only saved
    # under phase-2 masks, which the resumed stage 3 must set again
    cfg = tiny_protocol(strategy=strategy, n_stages=n_stages, epochs_stage1=1, epochs_later=1)
    straight, _ = run_protocol(cfg, seed=10, out_dir=tmp_path / "full")

    # the run as a crash in stage cut + 1 leaves it
    for k in range(1, cut + 1):
        shutil.copytree(tmp_path / "full" / f"stage_{k}", tmp_path / "part" / f"stage_{k}")
    resumed = ProtocolRunner(cfg, seed=10, out_dir=tmp_path / "part")
    ran, run_stage = [], resumed.run_stage
    resumed.run_stage = lambda stage, specs: ran.append(stage.index) or run_stage(stage, specs)
    matrix = resumed.run()
    assert ran == list(range(cut + 1, n_stages + 1))  # it continues after stage cut
    for k in straight.stages():
        assert straight.rows[k].tobytes() == matrix.rows[k].tobytes()
    for k in range(1, n_stages + 1):
        full = tree_bytes(tmp_path / "full" / f"stage_{k}")
        part = tree_bytes(tmp_path / "part" / f"stage_{k}")
        assert sorted(full) == sorted(part)
        for name, blob in full.items():
            assert part[name] == blob, f"stage_{k}/{name}"


def test_a_planted_fisher_is_ignored_outside_ewc(tmp_path):
    # only ewc reads fisher/: a finetune run continued beside one trains the
    # stage 2 of its straight run
    cfg = tiny_protocol(strategy="finetune", epochs_stage1=1, epochs_later=1, replay_m=0)
    run_protocol(cfg, seed=10, out_dir=tmp_path / "full")
    ewc = ProtocolRunner(tiny_protocol(strategy="ewc", epochs_stage1=1, replay_m=0), seed=10,
                         out_dir=tmp_path / "ewc")
    ewc.run_stage(ewc.stage_config(1), ewc.stream[0])
    shutil.copytree(tmp_path / "full" / "stage_1", tmp_path / "part" / "stage_1")
    shutil.copytree(tmp_path / "ewc" / "stage_1" / "fisher", tmp_path / "part" / "stage_1" / "fisher")
    run_protocol(cfg, seed=10, out_dir=tmp_path / "part")
    shutil.rmtree(tmp_path / "part" / "stage_1" / "fisher")
    assert tree_bytes(tmp_path / "part") == tree_bytes(tmp_path / "full")


def test_the_student_is_float32_by_default(tmp_path):
    # tiny_protocol sets no dtype, so test_resume_matches_straight_run
    # continues float32 runs too
    assert "dtype" not in tiny_protocol().model and "dtype" not in desk_config().model
    assert desk_config().model_config().dtype == "float32"
    run_protocol(tiny_protocol(epochs_stage1=1, epochs_later=1), seed=10, out_dir=tmp_path)
    for k in (1, 2):
        for checkpoint in ("model", "optimizer"):
            manifest = json.loads((tmp_path / f"stage_{k}" / checkpoint).joinpath(
                "manifest.json").read_text())
            assert {e["dtype"] for e in manifest["groups"]} == {"<f4"}, f"stage_{k}/{checkpoint}"
    model = open_stage(tmp_path, 2).model
    windows, ctx, _ = batch_for(model)
    assert model.predict_batch(windows, ctx).dtype == np.float32
    # the routing dump's fractions are of the counts, not of float32 loads
    rows = [line.split("\t") for line in
            (tmp_path / "stage_2" / "routing_layer0.tsv").read_text().splitlines()[1:]]
    total = sum(int(load) for _, load, _ in rows)
    assert [float(f) for _, _, f in rows] == [int(load) / total for _, load, _ in rows]


def test_kl_step_runs_the_student_once(monkeypatch):
    from types import SimpleNamespace

    # float64, so that the two sweeps' rounding stays below the 1e-12 bound
    runner = ProtocolRunner(
        tiny_protocol(strategy="kl", model={**tiny_protocol().model, "dtype": "float64"}),
        seed=12)
    model = runner.model
    # a later-stage state: a snapshot that differs from the student
    runner.prev_model = model.clone()
    rng = np.random.default_rng(3)
    for g in runner.prev_model.params.values():
        g.tensor.data = g.tensor.data + rng.normal(0.0, 0.01, g.tensor.data.shape)
    windows, ctx, targets = batch_for(model, n=8, seed=4)
    batch = SimpleNamespace(length=5, windows=windows, targets=targets, task_idx=np.arange(8))
    lam = aux_lambda(runner.global_step)

    student_passes = []
    forward = StudentModel.forward

    def counted(self, *args):
        if self is model:
            student_passes.append(T._grad_enabled)
        return forward(self, *args)

    monkeypatch.setattr(StudentModel, "forward", counted)
    one_pass = {}
    monkeypatch.setattr(runner.optimizer, "step", lambda: one_pass.update(
        {g.name: g.tensor.grad.copy() for g in model.groups() if g.tensor.grad is not None}))
    runner._train_step(batch, ctx, False, None, None, rng)
    assert student_passes == [True]

    # the two-pass reference: the penalty runs its own student forward
    runner.optimizer.zero_grad()
    loss = distill_loss(model, windows, ctx, targets, lam) + kl_penalty(
        model, runner.prev_model, windows, ctx, runner.config.kl_sigma0
    )
    loss.backward()
    assert student_passes == [True, True, True]
    two_pass = {g.name: g.tensor.grad for g in model.groups() if g.tensor.grad is not None}
    assert set(one_pass) == set(two_pass) and "head.w" in one_pass
    # relative to the largest entry: some groups (key biases) have a zero
    # gradient that both sweeps only round
    scale = max(np.max(np.abs(g)) for g in two_pass.values())
    for name, g in two_pass.items():
        assert np.max(np.abs(one_pass[name] - g)) <= 1e-12 * scale, name


def test_ewc_fisher_only_before_a_later_stage(tmp_path, monkeypatch):
    calls = []
    real = continual.estimate_fisher
    monkeypatch.setattr(continual, "estimate_fisher", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    cfg = tiny_protocol(strategy="ewc", n_stages=3, epochs_stage1=1, epochs_later=1, replay_m=0)
    run_protocol(cfg, seed=11, out_dir=tmp_path / "run")
    assert len(calls) == 2

    # reference: the same three stages with a fourth to come, so stage 3
    # estimates its Fisher as well
    ref = ProtocolRunner(ProtocolConfig(**{**cfg.to_dict(), "n_stages": 4}), seed=11,
                         out_dir=tmp_path / "ref")
    for k in (1, 2, 3):
        ref.run_stage(ref.stage_config(k), ref.stream[k - 1])
    assert len(calls) == 5
    run_dir, ref_dir = tmp_path / "run", tmp_path / "ref"
    for k in (1, 2):
        assert tree_bytes(run_dir / f"stage_{k}") == tree_bytes(ref_dir / f"stage_{k}")
    run3, ref3 = tree_bytes(run_dir / "stage_3"), tree_bytes(ref_dir / "stage_3")
    assert {p for p in ref3 if p.parts[0] == "fisher"} == set(ref3) - set(run3)
    assert all(run3[p] == ref3[p] for p in run3)


def test_kl_snapshot_only_before_a_later_stage(monkeypatch):
    clones = []
    clone = StudentModel.clone
    monkeypatch.setattr(StudentModel, "clone", lambda self: clones.append(1) or clone(self))
    cfg = tiny_protocol(strategy="kl", epochs_stage1=1, epochs_later=1, replay_m=0)
    _, runner = run_protocol(cfg, seed=13)
    assert len(clones) == 1 and runner.prev_model is not None
