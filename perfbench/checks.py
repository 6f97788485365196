"""Correctness checks run at the end of every round.

Each check compares the program's output with a computation made here,
apart from the program, or with a property the method must have. A check
raises `CheckFailed` with the first discrepancy it finds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from cpdistill.cli import main as cli_main
from cpdistill.continual import kl_penalty, rollout_success_batch
from cpdistill.model import StudentModel
from cpdistill.teachers import TeacherPolicy, collect, expert_action

DYNAMICS_TOL = 1e-12
BACKBONE_PREFIXES = ("embed.", "pos", "head.")
BACKBONE_MARKS = (".ln1.", ".ln2.", ".attn.")


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# the point-mass task, computed here


def target(spec, goals: np.ndarray) -> np.ndarray:
    """The rewarded point for each (n, 2) goal, by the task's target mode."""
    g = np.asarray(goals, dtype=np.float64)
    mode = spec.target_mode
    if mode == "direct":
        return g
    if mode == "offset":
        return g + np.asarray(spec.offset)
    if mode == "flip":
        return -g
    if mode == "half":
        return 0.5 * g
    if mode == "mirror":
        return np.stack([-g[:, 0], g[:, 1]], axis=1)
    raise CheckFailed(f"task {spec.task_id} has unknown target mode {mode!r}")


def initial_states(spec, seeds) -> np.ndarray:
    """Start position uniform in the start square, goal jittered in a disc
    around the task's centre; one generator per episode seed."""
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-spec.start_range, spec.start_range, 2)
        angle = rng.uniform(0.0, 2 * np.pi)
        radius = spec.goal_radius * np.sqrt(rng.uniform())
        goal = np.asarray(spec.goal_center) + radius * np.array([np.cos(angle), np.sin(angle)])
        rows.append(np.concatenate([pos, goal]))
    return np.stack(rows)


def reaches_target(spec, final_states: np.ndarray) -> np.ndarray:
    final_states = np.atleast_2d(final_states)
    gap = final_states[:, :2] - target(spec, final_states[:, 2:4])
    return np.sqrt((gap * gap).sum(axis=1)) < spec.success_threshold


def check_dynamics(trajs, specs: dict) -> None:
    """pos' = pos + gain clip(a), the goal stays fixed, |a| <= 1, and every
    scripted-teacher episode ends on its target."""
    require(len(trajs) > 0, "no trajectories to check")
    for traj in trajs:
        spec = specs[traj.task_id]
        s, a = np.asarray(traj.states), np.asarray(traj.actions)
        name = f"{traj.task_id}:{traj.seed}"
        require(s.shape == (spec.horizon + 1, 4) and a.shape == (spec.horizon, 2),
                f"{name}: states {s.shape}, actions {a.shape}")
        require(bool(np.all(np.abs(a) <= 1.0)), f"{name}: an action exceeds 1 in magnitude")
        require(bool(np.all(s[:, 2:4] == s[0, 2:4])), f"{name}: the goal moved")
        expected = s[:-1, :2] + np.clip(a, -1.0, 1.0) @ np.asarray(spec.gain).T
        err = float(np.abs(s[1:, :2] - expected).max())
        require(err <= DYNAMICS_TOL, f"{name}: positions off the dynamics by {err:.3g}")
        require(bool(reaches_target(spec, s[-1])[0]), f"{name}: the teacher missed its target")


# ---------------------------------------------------------------------------
# evaluation rollouts


def own_success_rate(predict, spec, z, n_episodes: int, seed: int, seq_len: int) -> float:
    """Episodes seeded seed + i, stepped in lockstep on the last seq_len
    states, scored on the final distance to the target."""
    states = initial_states(spec, range(seed, seed + n_episodes))
    history = [states]
    zb = np.broadcast_to(z, (n_episodes, np.size(z)))
    for t in range(spec.horizon):
        window = np.stack(history[max(0, t + 1 - seq_len):], axis=1)
        actions = np.clip(predict(window, zb), -1.0, 1.0)
        pos = states[:, :2] + actions @ np.asarray(spec.gain).T
        states = np.concatenate([pos, states[:, 2:4]], axis=1)
        history.append(states)
    return float(reaches_target(spec, states).mean())


def scripted_teacher(spec, seq_len: int):
    """A policy with the student's inference interface that acts as the
    scripted teacher on each window's last state."""

    def predict_batch(windows, z):
        return np.stack([expert_action(spec, w[-1]) for w in windows])

    return SimpleNamespace(config=SimpleNamespace(seq_len=seq_len), predict_batch=predict_batch)


def check_eval_rollout(model, specs, contexts: dict, n_episodes: int, seed: int) -> None:
    """rollout_success_batch agrees with the rollout here for the student
    and, so that a non-zero rate is compared too, for the teacher."""
    seq_len = model.config.seq_len
    for spec in specs:
        z = contexts[spec.task_id]
        for label, policy in (("student", model), ("teacher", scripted_teacher(spec, seq_len))):
            program = rollout_success_batch(policy, spec, z, n_episodes, seed=seed)
            own = own_success_rate(policy.predict_batch, spec, z, n_episodes, seed, seq_len)
            require(program == own,
                    f"{spec.task_id} {label}: rollout_success_batch gave {program}, own rollout {own}")
            if label == "teacher":
                require(own == 1.0, f"{spec.task_id}: the teacher scored {own}")


# ---------------------------------------------------------------------------
# the metrics matrix


@dataclass
class Matrix:
    task_ids: list[str]
    intro: list[int]
    rows: dict[int, list[float]]


def read_matrix(path: Path) -> Matrix:
    lines = Path(path).read_text().strip().split("\n")
    head, intro = lines[0].split("\t"), lines[1].split("\t")
    require(head[0] == "stage" and intro[0] == "intro", f"{path}: unexpected header")
    rows = {}
    for line in lines[2:]:
        cells = line.split("\t")
        rows[int(cells[0])] = [float(c) for c in cells[1:]]
    return Matrix(head[1:], [int(c) for c in intro[1:]], rows)


def acc_bwt(m: Matrix) -> dict[int, tuple[float, float | None]]:
    out = {}
    for k, row in sorted(m.rows.items()):
        seen = [j for j, s in enumerate(m.intro) if s <= k]
        acc = sum(row[j] for j in seen) / len(seen)
        earlier = [j for j, s in enumerate(m.intro) if s < k]
        bwt = (
            sum(row[j] - m.rows[m.intro[j]][j] for j in earlier) / len(earlier)
            if k >= 2 and earlier else None
        )
        out[k] = (acc, bwt)
    return out


def report_summary(run_dir: Path) -> dict[int, tuple[float, float | None]]:
    """The Acc/BWT table printed by `cpdistill report`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["report", "--out", str(run_dir)])
    require(code == 0, f"cpdistill report exited {code}")
    out = {}
    for line in buf.getvalue().splitlines():
        cells = line.split("\t")
        if len(cells) == 3 and cells[0].isdigit():
            out[int(cells[0])] = (float(cells[1]), None if cells[2] == "n/a" else float(cells[2]))
    return out


def check_metrics(run_dir: Path, n_stages: int, eval_episodes: int) -> None:
    """Rates lie in [0, 1] on the 1/eval_episodes grid, row k covers every
    task introduced by stage k, and Acc/BWT recomputed here match the
    report."""
    m = read_matrix(run_dir / "metrics.tsv")
    require(sorted(m.rows) == list(range(1, n_stages + 1)), f"stage rows {sorted(m.rows)}")
    for k, row in m.rows.items():
        for j, rate in enumerate(row):
            if m.intro[j] > k:
                require(math.isnan(rate), f"stage {k} rates {m.task_ids[j]} before it is introduced")
                continue
            require(not math.isnan(rate), f"stage {k} row misses {m.task_ids[j]}")
            require(0.0 <= rate <= 1.0, f"stage {k} {m.task_ids[j]} rate {rate} outside [0, 1]")
            count = rate * eval_episodes
            require(abs(count - round(count)) < 1e-9,
                    f"stage {k} {m.task_ids[j]} rate {rate} is not a multiple of 1/{eval_episodes}")
    ours, reported = acc_bwt(m), report_summary(run_dir)
    require(sorted(reported) == sorted(ours), f"report stages {sorted(reported)}")
    for k, (acc, bwt) in ours.items():
        racc, rbwt = reported[k]
        require(abs(acc - racc) <= 1e-12, f"stage {k} Acc {acc} but the report says {racc}")
        require((bwt is None) == (rbwt is None) and (bwt is None or abs(bwt - rbwt) <= 1e-12),
                f"stage {k} BWT {bwt} but the report says {rbwt}")


# ---------------------------------------------------------------------------
# strategy properties


def read_checkpoint(path: Path) -> tuple[dict, bytes]:
    return json.loads((path / "manifest.json").read_text()), (path / "params.bin").read_bytes()


def is_backbone(name: str) -> bool:
    return name.startswith(BACKBONE_PREFIXES) or any(m in name for m in BACKBONE_MARKS)


def read_buffer(path: Path) -> list[SimpleNamespace]:
    out = []
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out.append(SimpleNamespace(
                task_id=rec["task_id"], seed=int(rec["seed"]),
                states=np.asarray(rec["states"]), actions=np.asarray(rec["actions"]),
            ))
    return out


def check_ours(run_dir: Path, config, pools: dict) -> None:
    """Experts grow by `experts_added` per stage, the backbone is frozen
    after stage 1, and the replay buffer is as `check_buffer` requires."""
    model_cfg = config.model_config()
    added = config.expansion_config().experts_added
    n = config.n_stages
    for k in range(1, n + 1):
        manifest, _ = read_checkpoint(run_dir / f"stage_{k}" / "model")
        expected = [model_cfg.experts_per_layer + (k - 1) * added] * model_cfg.depth
        counts = manifest["extra"]["expert_counts"]
        require(counts == expected, f"stage {k} has experts {counts}, expected {expected}")
    first, first_blob = read_checkpoint(run_dir / "stage_1" / "model")
    last, last_blob = read_checkpoint(run_dir / f"stage_{n}" / "model")
    last_groups = {g["name"]: g for g in last["groups"]}
    backbone = [g for g in first["groups"] if is_backbone(g["name"])]
    require(len(backbone) > 0, "no backbone groups in the stage-1 checkpoint")
    for g in backbone:
        h = last_groups[g["name"]]
        a = first_blob[g["offset"]: g["offset"] + g["nbytes"]]
        b = last_blob[h["offset"]: h["offset"] + h["nbytes"]]
        require(a == b, f"backbone group {g['name']} changed after stage 1")
    check_buffer(run_dir, config, pools)


def check_buffer(run_dir: Path, config, pools: dict) -> None:
    """The buffer holds replay_m distinct episodes of each task, all from
    that task's teacher pool, and at most budget_fraction of the pools."""
    n = config.n_stages
    buffer = read_buffer(run_dir / f"stage_{n}" / "buffer.jsonl")
    by_task: dict[str, list[int]] = {}
    for traj in buffer:
        by_task.setdefault(traj.task_id, []).append(traj.seed)
    require(sorted(by_task) == sorted(pools), f"buffer tasks {sorted(by_task)}")
    for tid, seeds in by_task.items():
        pool = {t.seed for t in pools[tid]}
        require(len(seeds) == config.replay_m and len(set(seeds)) == len(seeds),
                f"{tid}: buffer holds seeds {seeds}, expected {config.replay_m} distinct")
        require(set(seeds) <= pool, f"{tid}: buffer seeds {sorted(set(seeds) - pool)} not in its pool")
    seen = sum(len(p) for p in pools.values())
    require(len(buffer) <= config.budget_fraction * seen,
            f"buffer of {len(buffer)} exceeds {config.budget_fraction} of {seen}")


def check_kl(old, new, windows, contexts, sigma0: float) -> None:
    """kl_penalty equals ||mu_new - mu_old||^2 / (2 sigma0^2), batch mean."""
    program = kl_penalty(new, old, windows, contexts, sigma0).item()
    diff = new.predict_batch(windows, contexts) - old.predict_batch(windows, contexts)
    own = float((diff * diff).sum(axis=1).mean() / (2.0 * sigma0 * sigma0))
    require(own > 0.0, "the final student still equals its stage-1 snapshot")
    require(abs(program - own) <= 1e-9 * own, f"kl_penalty gave {program}, own {own}")


# ---------------------------------------------------------------------------
# held-out probe


def probe_seed(seed: int, task_index: int) -> int:
    """Probe episodes start at 2**32, above every 31-bit training seed."""
    return 2**32 + (seed * 1024 + task_index) * 1024


def probe_trajectories(specs, episodes: int, seed: int) -> list:
    out = []
    for j, spec in enumerate(specs):
        out.extend(collect(spec, TeacherPolicy(spec), episodes, base_seed=probe_seed(seed, j)))
    return out


@dataclass
class ProbeSet:
    """Every timestep of the probe episodes as (window, task, action),
    bucketed by window length."""

    buckets: dict[int, tuple[np.ndarray, list[str], np.ndarray]]

    @classmethod
    def build(cls, trajs, seq_len: int) -> "ProbeSet":
        raw: dict[int, list] = {}
        for traj in trajs:
            for t in range(len(traj.actions)):
                lo = max(0, t + 1 - seq_len)
                raw.setdefault(t + 1 - lo, []).append((traj.states[lo: t + 1], traj.task_id, traj.actions[t]))
        return cls({
            n: (np.stack([r[0] for r in rows]), [r[1] for r in rows], np.stack([r[2] for r in rows]))
            for n, rows in sorted(raw.items())
        })

    def mse(self, model, contexts: dict, chunk: int = 256) -> float:
        """Squared action error summed over action dimensions, averaged
        over samples."""
        total, count = 0.0, 0
        for windows, tids, actions in self.buckets.values():
            z = np.stack([contexts[t] for t in tids])
            for lo in range(0, len(windows), chunk):
                pred = model.predict_batch(windows[lo: lo + chunk], z[lo: lo + chunk])
                err = pred - actions[lo: lo + chunk]
                total += float((err * err).sum())
                count += len(err)
        return total / count

    def action_energy(self) -> float:
        """Squared teacher action summed over action dimensions, averaged
        over samples: the error of a student that always predicts zero."""
        actions = np.concatenate([a for _, _, a in self.buckets.values()])
        return float((actions * actions).sum(axis=1).mean())

    def full_windows(self, contexts: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
        windows, tids, _ = self.buckets[max(self.buckets)]
        return windows[:n], np.stack([contexts[t] for t in tids[:n]])


def read_contexts(path: Path) -> dict[str, np.ndarray]:
    out = {}
    for line in path.read_text().strip().split("\n"):
        cells = line.split("\t")
        out[cells[0]] = np.array([float(c) for c in cells[1:]])
    return out


def check_learning(final_mse: float, untrained_mse: float) -> None:
    require(final_mse < untrained_mse,
            f"probe_mse {final_mse} is not below the untrained student's {untrained_mse}")


def check_fresh_probe(probe_trajs, pools: dict) -> None:
    train = {(tid, t.seed) for tid, trajs in pools.items() for t in trajs}
    shared = {(t.task_id, t.seed) for t in probe_trajs} & train
    require(not shared, f"probe episodes reuse training seeds: {sorted(shared)[:3]}")


def load_student(stage_dir: Path) -> StudentModel:
    return StudentModel.load(stage_dir / "model")[0]
