"""Stage orchestration: collect teacher data, train the student under the
chosen strategy, evaluate, select replay, and checkpoint.

Strategies
    ours         expert expansion + two-phase masks + replay mixing
    finetune     sequential training, no anti-forgetting machinery
    ewc          quadratic penalty against Fisher-weighted anchors
    kl           penalty toward the previous stage's action means
    replay_only  replay mixing without expansion or masks
    expert_only  expansion + masks without replay
    independent  a fresh student per stage (plasticity reference; BWT n/a)

The expand-and-mask strategies (``ours``, ``expert_only``) gate a later
stage's training by epoch: phase 1 is epoch 1 (gate + new experts + task
encoder train, old experts frozen), phase 2 is every later epoch (gate
frozen, all experts train), and the backbone stays frozen after stage 1.
Every other strategy trains every group at every stage. The contrastive
objective runs jointly with distillation during stage 1 and during epoch 1
of later stages. The load-balancing term is weighted by `aux_lambda` of the
run's cumulative optimizer step.

Run directory (``out_dir``)
    config.json             the protocol config
    metrics.tsv             the metrics matrix, written when the run ends
    stage_k/                one per finished stage k:
      model/, optimizer/    the stage-k student and its AdamW state
      buffer.jsonl          the replay buffer, in selection order
      metrics.tsv           the metrics matrix through row k
      contexts.tsv          each seen task's context vector
      audits.tsv            every replay selection so far
      fisher/               EWC's Fisher estimate, before a later stage only
      routing_layer*.tsv    per-layer expert loads on a fixed probe
      state.json            stage, strategy, seed, global step

Stage lifecycle
    `ProtocolRunner.run_stage` runs stage k in two parts. `train_stage`
    takes the student (a fresh one per stage for a fresh-model strategy),
    collects teacher data, expands experts and sets the masks (from stage
    2), trains on the stage's data plus the replay buffer and evaluates
    every task seen. At stage 1 it reads no strategy trait: the buffer is
    still empty and no penalty state exists, so every strategy trains the
    same stage-1 student. `close_stage` then selects replay from the
    stage's teacher data, builds the next stage's EWC or KL state when a
    stage follows, and writes ``stage_k/``, ``state.json`` last.

A run directory holds one run and is its record. A stage is complete when
its ``state.json`` exists (`completed_stages`). `run_protocol` continues
the run in ``out_dir`` after its newest complete stage; a missing or empty
directory is a straight run, and a finished run is left as it is. It
raises `StateError`, writing nothing, when ``config.json`` holds another
config, and `load_stage` raises it when the newest stage was written with
another seed or model config (a run written in float64 before float32
became the default needs ``"dtype": "float64"`` in its config's model);
``config.json`` is written, when absent, only after that stage has loaded.
`open_stage` (``cpdistill eval``) restores stage k from the
directory alone: the config from ``config.json``, the seed from
``stage_k/state.json``. ``cpdistill report`` picks its stage with
`completed_stages`. Every record is read through one reader,
`cpdistill.checkpoint.read_record`, so a damaged one raises `StateError`
naming the file, or `ConfigError` where `load_config` reads ``config.json``.

`ProtocolRunner.load_stage` is the one reader of a stage directory;
`open_stage` takes only the seed, through the completeness check
`load_stage` makes. It restores through the methods a straight run uses: `_adopt` takes the
loaded student and optimizer, as `_fresh_student` takes a new one, with an
empty context cache that the stage's ``contexts.tsv`` then fills; `_carry`
builds the EWC anchors from the saved ``fisher/`` and the KL snapshot, as
`close_stage` builds them from the Fisher it has just estimated. It reads
``fisher/`` for ``ewc`` only, before a later stage, and ignores one in any
other run. Each record must be the one this run wrote at stage k, or
`load_stage` raises `StateError` naming it: ``state.json`` holds a str
strategy and an int seed and global step, each >= 0; ``metrics.tsv``
scores the stream's tasks through stage k, at their introduction stages, in
rows 1..k of rates in [0, 1] or NaN; ``contexts.tsv`` holds a
``task_embed_dim`` vector for each task the context cache held (stage k's
alone for a fresh-model strategy); ``buffer.jsonl`` holds ``replay_m``
trajectories of each task through stage k, in stream order, for a replay
strategy and none otherwise, each of the suite's shapes; and ``fisher/``
holds the student's groups.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import seeds
from . import tensor as T
from .checkpoint import json_object, load_groups, load_optimizer, read_json_object, read_record
from .checkpoint import save_groups, save_optimizer, write_json, write_table
from .config import STRATEGY_TRAITS, ProtocolConfig, load_config, save_config
from .errors import ConfigError, InputError, StateError
from .metrics import MetricsMatrix
from .model import (
    StudentModel,
    apply_mask_schedule,
    expand_experts,
)
from .optim import AdamW, ParamGroup
from .replay import SelectionAudit, select_replay, update_buffer
from .replay import read_audits, write_audits
from .seeds import EVAL as _EVAL, int_seed as _int_seed  # noqa: F401 (perfbench/desk_success.py)
from .taskctx import ContextProvider, ContrastiveBatch, infonce_loss, traj_stats
from .taskctx import load_contexts, write_contexts
from .teachers import (
    TaskSpec,
    TeacherPolicy,
    Trajectory,
    collect,
    make_task_stream,
    read_trajectories,
    rollout,
    write_trajectories,
)
from .tensor import Tensor

__all__ = [
    "StageConfig",
    "EWCState",
    "aux_lambda",
    "DistillDataset",
    "distill_loss",
    "estimate_fisher",
    "ewc_penalty",
    "kl_penalty",
    "rollout_success_batch",
    "ProtocolRunner",
    "run_protocol",
    "open_stage",
    "completed_stages",
]

# trajectories per InfoNCE batch and batches per EWC Fisher estimate, read
# when a batch is drawn
INFONCE_TRAJS = 32
EWC_BATCHES = 8


@dataclass
class StageConfig:
    index: int
    epochs: int  # 0 is the debug no-train mode


@dataclass
class EWCState:
    anchors: dict[str, np.ndarray]
    fisher: dict[str, np.ndarray]
    lam: float


# ---------------------------------------------------------------------------
# training data


class DistillDataset:
    """(window, context index, teacher action) samples bucketed by window
    length so batches need no padding and gating stats see no pad tokens.
    Every trajectory's task must be among ``task_ids``."""

    def __init__(self, trajs: list[Trajectory], seq_len: int, task_ids: list[str]):
        self.task_ids = list(task_ids)
        index = {tid: i for i, tid in enumerate(self.task_ids)}
        raw: dict[int, list] = {}
        for traj in trajs:
            tix = index[traj.task_id]
            for t in range(len(traj.actions)):
                length = min(t + 1, seq_len)
                raw.setdefault(length, []).append(
                    (traj.states[t + 1 - length : t + 1], traj.actions[t], tix)
                )
        self.buckets: dict[int, SimpleNamespace] = {}
        for length in sorted(raw):
            rows = raw[length]
            self.buckets[length] = SimpleNamespace(
                windows=np.stack([r[0] for r in rows]),
                targets=np.stack([r[1] for r in rows]),
                task_idx=np.array([r[2] for r in rows], dtype=np.intp),
            )

    def epoch_batches(self, rng: np.random.Generator, batch_size: int):
        """One full shuffled pass: every sample appears exactly once."""
        plan = []
        for length in sorted(self.buckets):
            bucket = self.buckets[length]
            perm = rng.permutation(bucket.windows.shape[0])
            for lo in range(0, perm.size, batch_size):
                plan.append((length, perm[lo : lo + batch_size]))
        order = rng.permutation(len(plan))
        for i in order:
            length, rows = plan[i]
            bucket = self.buckets[length]
            yield SimpleNamespace(
                length=length,
                windows=bucket.windows[rows],
                targets=bucket.targets[rows],
                task_idx=bucket.task_idx[rows],
            )


# ---------------------------------------------------------------------------
# loss surfaces


def aux_lambda(step: int) -> float:
    """The load-balancing weight at cumulative optimizer step ``step``:
    0.01, falling by 5e-5 a step to a floor of 1e-4."""
    return max(1e-4, 0.01 - step * 5e-5)


def distill_loss(
    model: StudentModel,
    windows: np.ndarray,
    contexts: np.ndarray,
    targets: np.ndarray,
    lam: float,
    *,
    with_actions: bool = False,
) -> Tensor | tuple[Tensor, Tensor]:
    """Batch mean of per-sample sum-of-squares action error, plus the
    annealed load-balancing term averaged over MoE layers.

    With ``with_actions`` it returns ``(loss, actions)``: the student's
    action means from the same forward pass, for a penalty on the same batch
    to reuse (``kl_penalty(..., actions=...)``)."""
    if len(windows) == 0:
        raise InputError("empty distillation batch")
    actions, aux, _ = model.forward(windows, contexts)
    diff = actions - Tensor(np.asarray(targets, dtype=actions.dtype))
    loss = T.tmean(T.tsum(diff * diff, axis=1))
    if lam != 0.0:
        loss = loss + aux * lam
    return (loss, actions) if with_actions else loss


def estimate_fisher(model: StudentModel, batches, lam: float = 0.0) -> dict[str, np.ndarray]:
    """Diagonal Fisher surrogate: per-parameter mean squared gradient of the
    training loss over the given batches."""
    trainable = [g for g in model.groups() if g.trainable]
    sums = {g.name: np.zeros_like(g.tensor.data) for g in trainable}
    count = 0
    for batch in batches:
        for g in trainable:
            g.tensor.grad = None
        loss = distill_loss(model, batch.windows, batch.contexts, batch.targets, lam)
        loss.backward()
        for g in trainable:
            if g.tensor.grad is not None:
                sums[g.name] += g.tensor.grad**2
        count += 1
    if count == 0:
        raise InputError("fisher estimation needs at least one batch")
    return {name: s / count for name, s in sums.items()}


def ewc_penalty(model: StudentModel, state: EWCState) -> Tensor:
    """(lam/2) * sum_i F_i (theta_i - anchor_i)^2 over anchored groups:
    each group the model's Fisher estimate or its saved ``fisher/`` holds."""
    total: Tensor | None = None
    for name, anchor in state.anchors.items():
        d = model.params[name].tensor - Tensor(anchor)
        term = T.tsum(Tensor(state.fisher[name]) * d * d)
        total = term if total is None else total + term
    return total * (state.lam / 2.0)


def kl_penalty(
    model: StudentModel,
    prev_model: StudentModel | None,
    windows: np.ndarray,
    contexts: np.ndarray,
    sigma0: float,
    *,
    actions: Tensor | None = None,
) -> Tensor:
    """Closed-form KL between fixed-variance Gaussians with shared sigma0:
    mean over the batch of ||mu_new - mu_old||^2 / (2 sigma0^2).

    ``actions`` are the student's action means on exactly these windows and
    contexts, from a grad-enabled forward pass the caller already ran (the
    train step takes them from ``distill_loss(..., with_actions=True)``).
    The penalty then joins that graph, so one backward sweep gives the
    gradient of both terms and the student runs forward and backward once
    per step; value and gradient equal those of a second student pass up to
    rounding. Without ``actions`` the student is run here."""
    if prev_model is None:
        raise StateError("KL penalty needs the previous stage's snapshot")
    mu_old = prev_model.predict_batch(windows, contexts)
    if actions is None:
        actions, _, _ = model.forward(windows, contexts)
    diff = actions - Tensor(mu_old)
    return T.tmean(T.tsum(diff * diff, axis=1)) * (1.0 / (2.0 * sigma0**2))


# ---------------------------------------------------------------------------
# evaluation (episodes stepped in lockstep; one batched forward per step)


def rollout_success_batch(
    model: StudentModel,
    spec: TaskSpec,
    z: np.ndarray,
    n_episodes: int,
    seed: int,
) -> float:
    """Fraction of the episodes seeded seed + i that ``model``, acting on
    its last ``seq_len`` states under context ``z``, ends on target."""
    seq_len = model.config.seq_len
    zb = np.broadcast_to(z, (n_episodes, z.size))
    *_, success = rollout(
        spec,
        lambda history: model.predict_batch(history[:, -seq_len:], zb),
        range(seed, seed + n_episodes),
    )
    return float(success.mean())


# ---------------------------------------------------------------------------
# the protocol runner


class ProtocolRunner:
    def __init__(self, config: ProtocolConfig, seed: int, out_dir=None):
        if seed < 0:
            raise ConfigError(f"the run seed must be >= 0, got {seed}")
        self.config = config
        self.seed = seed
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.traits = STRATEGY_TRAITS[config.strategy]
        self.model_cfg = config.model_config()
        self.stream = make_task_stream(config.n_stages, config.tasks_per_stage, seed)
        self.matrix = MetricsMatrix()
        self.audits: list[SelectionAudit] = []
        self.buffer: list[Trajectory] = []
        self.global_step = 0
        self.ewc_state: EWCState | None = None
        self.prev_model: StudentModel | None = None
        self.stage_data: dict[str, list[Trajectory]] = {}
        self._fresh_student(0)

    def _fresh_student(self, stage: int) -> None:
        model = StudentModel(self.model_cfg, seed=seeds.int_seed(self.seed, stage, seeds.INIT))
        self._adopt(model, AdamW(model.groups(), lr=self.config.lr))

    def _adopt(self, model: StudentModel, optimizer: AdamW) -> None:
        """Make ``model``, stepped by ``optimizer``, the runner's student,
        with an empty context cache over its task encoder."""
        self.model = model
        self.optimizer = optimizer
        self.provider = ContextProvider(model.encoder, n_chunks=self.model_cfg.stats_chunks)

    def stage_config(self, k: int) -> StageConfig:
        cfg = self.config
        return StageConfig(index=k, epochs=cfg.epochs_stage1 if k == 1 else cfg.epochs_later)

    # ------------------------------------------------------------------

    def run(self) -> MetricsMatrix:
        """Run the stages after the newest complete one in ``out_dir``, or
        every stage when it holds none. Raises `StateError`, writing
        nothing, when ``out_dir`` holds another run; writes
        ``config.json``, when absent, once the newest stage has loaded."""
        done = []
        if self.out_dir is not None:
            saved = self.out_dir / "config.json"
            # compared as config.json holds it: JSON turns tuples into lists
            if saved.exists() and read_json_object(saved) != json.loads(
                json.dumps(self.config.to_dict())
            ):
                raise StateError(
                    f"{saved} holds another config: {self.out_dir} is another run's directory"
                )
            done = completed_stages(self.out_dir)
            if done:
                self.load_stage(done[-1])
            if not saved.exists():
                save_config(saved, self.config)
        for k in range(done[-1] + 1 if done else 1, self.config.n_stages + 1):
            self.run_stage(self.stage_config(k), self.stream[k - 1])
        return self.matrix

    def run_stage(self, stage: StageConfig, specs: list[TaskSpec]) -> dict[str, float]:
        """Train and close stage ``stage.index`` on ``specs``; its metrics row."""
        rates, dataset = self.train_stage(stage, specs)
        self.close_stage(stage.index, dataset)
        return rates

    def train_stage(
        self, stage: StageConfig, specs: list[TaskSpec]
    ) -> tuple[dict[str, float], DistillDataset]:
        """Stage k up to its metrics row: the student (a fresh one for a
        fresh-model strategy), teacher data, expansion and masks, the epochs
        over the stage's data plus the replay buffer, and evaluation. Returns
        the row and the training pool. At stage 1 it reads no strategy trait."""
        k = stage.index
        if k >= 2 and self.traits.fresh_model:
            self._fresh_student(k)

        for spec in specs:
            self.matrix.add_task(spec.task_id, k)

        # 1. collect teacher demonstrations
        self.stage_data = {}
        first = sum(len(earlier) for earlier in self.stream[: k - 1])
        for i, spec in enumerate(specs):
            trajs = self.teacher_data(spec, k, first + i)
            self.stage_data[spec.task_id] = trajs
            self.provider.set_support(spec.task_id, trajs[: self.config.support_episodes])

        # 2. expansion + phase-1 masks
        masked = k >= 2 and self.traits.expand_and_mask
        if masked:
            seed = seeds.int_seed(self.seed, k, seeds.EXPAND)
            expand_experts(self.model, self.config.expansion_config(), seed=seed)
            self.optimizer.groups = self.model.groups()
            apply_mask_schedule(self.model, 1)

        # 3. training pool: current distill data plus the whole replay buffer,
        # which only replay strategies fill
        train_trajs = [t for spec in specs for t in self.stage_data[spec.task_id]]
        train_trajs += self.buffer
        present = {t.task_id for t in train_trajs}
        data_task_ids = [
            s.task_id for seen in self.stream[:k] for s in seen if s.task_id in present
        ]
        dataset = DistillDataset(train_trajs, self.model_cfg.seq_len, data_task_ids)
        nce_stats = np.stack(
            [traj_stats(t, self.model_cfg.stats_chunks) for t in train_trajs]
        )
        nce_labels = np.array([data_task_ids.index(t.task_id) for t in train_trajs])

        # 4. epochs
        rng = seeds.rng(self.seed, k, seeds.TRAIN)
        current_ids = [s.task_id for s in specs]
        steps = 0
        capped = False
        for epoch in range(1, stage.epochs + 1):
            if masked and epoch == 2:
                apply_mask_schedule(self.model, 2)
            self.provider.refresh(current_ids)
            ctx = self.provider.context_matrix(data_task_ids)
            infonce_on = (k == 1 or epoch == 1) and self.config.infonce_weight > 0
            for batch in dataset.epoch_batches(rng, self.config.batch_size):
                if self.config.max_steps is not None and steps >= self.config.max_steps:
                    capped = True
                    break
                self._train_step(batch, ctx, infonce_on, nce_stats, nce_labels, rng)
                steps += 1
            if capped:
                break
        self.provider.refresh(current_ids)

        # 5. evaluate everything seen so far
        rates = self.stage_rates(k)
        for task_id, rate in rates.items():
            self.matrix.record(k, task_id, rate)
        return rates, dataset

    def close_stage(self, k: int, dataset: DistillDataset) -> None:
        """After `train_stage` of stage k: replay selection from the stage's
        teacher data, the next stage's EWC or KL state from ``dataset`` when
        a stage follows, then ``stage_k/``."""
        if self.traits.replay and self.config.replay_m > 0:
            for i, pool in enumerate(self.stage_data.values()):
                chosen, audit = select_replay(
                    pool,
                    m=self.config.replay_m,
                    strategy=self.config.replay_strategy,
                    seed=seeds.int_seed(self.seed, k, seeds.SELECT, i),
                    stage=k,
                )
                update_buffer(self.buffer, chosen)
                self.audits.append(audit)

        if k < self.config.n_stages:
            fisher = None
            if self.traits.ewc:
                fisher = estimate_fisher(
                    self.model,
                    self._fisher_batches(dataset, k),
                    lam=aux_lambda(self.global_step),
                )
            self._carry(fisher)

        if self.out_dir is not None:
            self._write_stage(k)

    def _carry(self, fisher: dict[str, np.ndarray] | None) -> None:
        """The state the next stage's penalties read, anchored at the student
        as it stands: EWC's anchors on the groups ``fisher`` weights, when it
        is given, and the `kl` strategy's snapshot."""
        if fisher is not None:
            anchors = {name: self.model.params[name].tensor.data.copy() for name in fisher}
            self.ewc_state = EWCState(anchors, fisher, lam=self.config.ewc_lambda)
        if self.traits.kl:
            self.prev_model = self.model.clone()

    # ------------------------------------------------------------------
    # seeded collection and evaluation; `cpdistill eval` rescores a loaded
    # stage through `stage_rates`

    def teacher_data(self, spec: TaskSpec, k: int, ordinal: int) -> list[Trajectory]:
        """Stage k's teacher demonstrations of ``spec``, the task at position
        ``ordinal`` (from 0) of the whole stream."""
        return collect(
            spec,
            TeacherPolicy(spec),
            self.config.episodes_per_task,
            base_seed=seeds.int_seed(self.seed, k, seeds.COLLECT, ordinal),
            noise_std=self.config.teacher_noise,
        )

    def stage_rates(self, k: int) -> dict[str, float]:
        """Stage k's row of the metrics matrix: the success of ``self.model``,
        the stage-k student, on every task seen by stage k, under the context
        ``self.provider`` holds for it, each on the episodes stage k evaluates
        it on. A fresh-model strategy's student is trained on the stage's own
        tasks only, so an earlier task keeps the rate ``self.matrix`` holds
        from the stage that introduced it."""
        current = {s.task_id for s in self.stream[k - 1]}
        rates = {}
        for idx, spec in enumerate(s for stage in self.stream[:k] for s in stage):
            tid = spec.task_id
            if tid not in current and self.traits.fresh_model:
                intro = self.matrix.intro_stage[self.matrix.task_ids.index(tid)]
                rates[tid] = self.matrix.value(intro, tid)
            else:
                rates[tid] = rollout_success_batch(
                    self.model, spec, self.provider.get(tid), self.config.eval_episodes,
                    seed=seeds.int_seed(self.seed, k, seeds.EVAL, idx),
                )
        return rates

    # ------------------------------------------------------------------

    def _train_step(self, batch, ctx, infonce_on, nce_stats, nce_labels, rng) -> None:
        self.optimizer.zero_grad()
        lam = aux_lambda(self.global_step)
        contexts = ctx[batch.task_idx]
        loss, actions = distill_loss(
            self.model, batch.windows, contexts, batch.targets, lam, with_actions=True
        )
        if infonce_on:
            idx = self._nce_sample(rng, nce_labels)
            if idx is not None:
                z = self.model.encoder.encode(nce_stats[idx])
                nce = infonce_loss(ContrastiveBatch(z, nce_labels[idx]))
                loss = loss + nce * self.config.infonce_weight
        if self.ewc_state is not None:
            loss = loss + ewc_penalty(self.model, self.ewc_state)
        if self.prev_model is not None:
            loss = loss + kl_penalty(
                self.model,
                self.prev_model,
                batch.windows,
                contexts,
                self.config.kl_sigma0,
                actions=actions,
            )
        loss.backward()
        self.optimizer.step()
        self.global_step += 1

    def _nce_sample(self, rng, labels) -> np.ndarray | None:
        """Up to `INFONCE_TRAJS` trajectories, round-robin over tasks so
        that a batch holds negatives when more than one task exists, and a
        positive pair whenever a task has two trajectories; None when no
        task has two."""
        size = min(INFONCE_TRAJS, labels.size)
        per_label = []
        for lab in np.unique(labels):
            idx = np.nonzero(labels == lab)[0]
            per_label.append(idx[rng.permutation(idx.size)])
        if all(idx.size < 2 for idx in per_label):
            return None
        if len(per_label) >= size:
            # one trajectory of each of the first `size` tasks would hold no
            # positive pair: open with two of the first task that has two
            pair = next(idx for idx in per_label if idx.size >= 2)
            rest = [idx[0] for idx in per_label if idx is not pair]
            return np.array([*pair[:2], *rest[: size - 2]], dtype=np.intp)
        deepest = max(idx.size for idx in per_label)
        order = [idx[d] for d in range(deepest) for idx in per_label if d < idx.size][:size]
        return np.array(order, dtype=np.intp)

    def _fisher_batches(self, dataset: DistillDataset, k: int) -> list:
        """The first `EWC_BATCHES` batches of a shuffled pass over stage k's
        training pool, with their contexts."""
        ctx = self.provider.context_matrix(dataset.task_ids)
        rng = seeds.rng(self.seed, k, seeds.FISHER)
        batches = dataset.epoch_batches(rng, self.config.batch_size)
        return [
            SimpleNamespace(windows=b.windows, contexts=ctx[b.task_idx], targets=b.targets)
            for b in islice(batches, EWC_BATCHES)
        ]

    # ------------------------------------------------------------------
    # artifacts

    def _stage_dir(self, k: int) -> Path:
        return self.out_dir / f"stage_{k}"

    def _write_stage(self, k: int) -> None:
        d = self._stage_dir(k)
        d.mkdir(parents=True, exist_ok=True)
        self.model.save(d / "model")
        save_optimizer(d / "optimizer", self.optimizer)
        write_trajectories(d / "buffer.jsonl", self.buffer)
        self.matrix.save(d / "metrics.tsv")
        write_contexts(d / "contexts.tsv", self.provider.cache, self.matrix.task_ids)
        write_audits(d / "audits.tsv", self.audits)
        if self.ewc_state is not None and k < self.config.n_stages:
            save_groups(
                d / "fisher",
                [
                    ParamGroup(name, Tensor(f), trainable=False)
                    for name, f in self.ewc_state.fisher.items()
                ],
            )
        self._write_routing(d)
        state = {
            "stage": k,
            "global_step": self.global_step,
            "strategy": self.config.strategy,
            "seed": self.seed,
        }
        write_json(d / "state.json", state)

    def _write_routing(self, d: Path) -> None:
        """Per-layer expert loads on a fixed probe: one full-length window
        per distill trajectory of the current stage."""
        windows, zs = [], []
        for tid, trajs in sorted(self.stage_data.items()):
            z = self.provider.get(tid)
            for traj in trajs[:16]:
                windows.append(traj.states[: self.model_cfg.seq_len])
                zs.append(z)
        loads = self.model.routing_loads(np.stack(windows), np.stack(zs))
        for l, layer_loads in enumerate(loads):
            # counts held in the model's dtype; the fraction is of the ints
            counts = [int(c) for c in layer_loads]
            total = sum(counts)
            write_table(d / f"routing_layer{l}.tsv", [
                ["expert", "load", "fraction"],
                *([i, c, c / total if total else 0.0] for i, c in enumerate(counts)),
            ])

    def load_stage(self, k: int) -> None:
        """Restore the runner to the end of stage k from ``stage_k/``: the
        student, optimizer, contexts, metrics matrix, replay buffer, global
        step, replay audits, and the EWC or KL state the next stage needs.
        Raises `StateError` when the stage is not complete, was written by
        another strategy, seed, task stream or model config, or holds a
        record this run did not write there (the module docstring lists the
        checks)."""
        if self.out_dir is None:
            raise StateError("the runner has no run directory to load a stage from")
        d = self._stage_dir(k)
        state = _stage_state(d)
        _require(state["strategy"] == self.config.strategy and state["seed"] == self.seed, d,
                 f"was written by strategy {state['strategy']} with seed {state['seed']}, "
                 f"not {self.config.strategy} with seed {self.seed}")
        seen = [(s.task_id, j) for j, stage in enumerate(self.stream[:k], 1) for s in stage]
        matrix = MetricsMatrix.load(d / "metrics.tsv")
        _require(list(zip(matrix.task_ids, matrix.intro_stage)) == seen, d / "metrics.tsv",
                 "scores tasks other than this config's stream, or at other stages")
        _require(matrix.stages() == list(range(1, k + 1)), d / "metrics.tsv",
                 f"holds rows other than stages 1..{k}")
        self.matrix = matrix
        model, _ = StudentModel.load(d / "model")
        stored, ours = asdict(model.config), asdict(self.model_cfg)
        differ = [f"{key} {stored[key]!r}, not the run's {ours[key]!r}"
                  for key in ours if stored[key] != ours[key]]
        _require(not differ, d / "model" / "manifest.json",
                 f"holds a student of another model config: {', '.join(differ)}")
        self._adopt(model, load_optimizer(d / "optimizer", model.groups(), self.config.lr))
        # a fresh-model strategy's context cache is as new as its student
        held = [tid for tid, j in seen if j == k or not self.traits.fresh_model]
        ids, vecs = load_contexts(d / "contexts.tsv")
        _require(ids == held and vecs.shape == (len(ids), self.model_cfg.task_embed_dim),
                 d / "contexts.tsv", f"does not hold a {self.model_cfg.task_embed_dim}-wide "
                 f"context for each of {held}")
        self.provider.cache.update(zip(ids, vecs))
        kept = self.config.replay_m if self.traits.replay else 0
        self.buffer = read_trajectories(d / "buffer.jsonl")
        _require([t.task_id for t in self.buffer] == [tid for tid, _ in seen for _ in range(kept)],
                 d / "buffer.jsonl", f"does not hold {kept} trajectories of each task "
                 f"through stage {k}, in stream order")
        self.global_step = state["global_step"]
        self.audits = read_audits(d / "audits.tsv")
        if k < self.config.n_stages:
            fisher = None
            if self.traits.ewc:
                _require((d / "fisher").exists(), d, f"has no fisher/, which ewc reads in stage {k + 1}")
                specs = {g.name: (g.tensor.shape, g.tensor.dtype) for g in model.groups()}
                groups, _ = load_groups(d / "fisher", lambda extra, stored: _require(
                    stored == specs, "its groups", "are not the student's names, shapes and dtype"))
                fisher = {g.name: g.tensor.data for g in groups}
            self._carry(fisher)


def _require(ok: bool, record, what: str) -> None:
    """`StateError` naming ``record`` unless ``ok``."""
    if not ok:
        raise StateError(f"{record} {what}")


def _stage_state(d: Path) -> dict:
    """The ``state.json`` of stage directory ``d``; `StateError` when the
    stage is not complete or the file lacks a value `load_stage` reads."""
    if not (d / "state.json").exists():
        raise StateError(f"{d} is not a complete stage: it has no state.json")
    return read_record(d / "state.json", _state)


def _state(text: str) -> dict:
    state = json_object(text)
    missing = {"strategy", "seed", "global_step"} - set(state)
    _require(not missing, "it", f"lacks {sorted(missing)}")
    _require(isinstance(state["strategy"], str), "its strategy", "is not a str")
    for key in ("seed", "global_step"):
        _require(type(state[key]) is int and state[key] >= 0, f"its {key}", "is not an int >= 0")
    return state


def open_stage(run_dir, k: int) -> ProtocolRunner:
    """The runner of the run in ``run_dir`` restored to the end of stage k,
    under the run's own config (``config.json``) and seed
    (``stage_k/state.json``). Raises `StateError` when ``run_dir`` holds no
    config or stage k is not complete."""
    run_dir = Path(run_dir)
    if not (run_dir / "config.json").exists():
        raise StateError(f"{run_dir} holds no run: it has no config.json")
    seed = _stage_state(run_dir / f"stage_{k}")["seed"]
    runner = ProtocolRunner(load_config(run_dir / "config.json"), seed, out_dir=run_dir)
    runner.load_stage(k)
    return runner


def completed_stages(run_dir) -> list[int]:
    """The indices of the complete stages in ``run_dir``, ascending: those
    whose ``stage_k/state.json``, the last file a stage writes, exists."""
    names = (p.parent.name[len("stage_"):] for p in Path(run_dir).glob("stage_*/state.json"))
    return sorted(int(n) for n in names if n.isdigit())


def run_protocol(
    config: ProtocolConfig, seed: int, out_dir=None
) -> tuple[MetricsMatrix, ProtocolRunner]:
    """Run the staged protocol. With ``out_dir`` it continues the run there
    (`ProtocolRunner.run`), writes checkpoints and artifacts, and echoes the
    config for reproducibility."""
    runner = ProtocolRunner(config, seed, out_dir=out_dir)
    matrix = runner.run()
    if out_dir is not None:
        matrix.save(Path(out_dir) / "metrics.tsv")
    return matrix, runner
