"""Synthetic task suite with scripted optimal controllers.

Ten parametric families over a 2-D point mass stand in for robot
manipulation tasks: the observation is (position, episode goal), but what
"solving" the task means — reach the goal, reach a fixed offset from it,
its sign-flip or mirror image, approach it through a detour waypoint, or
move under rotated/slow dynamics — is family-specific and never visible in
the observation. That forces the student to infer the task from context,
while all families share the same move-toward-a-point primitive.

The suite's geometry is fixed, not configured: every episode runs
HORIZON = 40 steps, each task's goal center lies at a radius drawn from
GOAL_RING = (0.30, 0.55), and the `TaskSpec` defaults hold the rest (start
positions uniform in [-0.35, 0.35]^2, goal jitter within 0.12 of the
center, success within 0.05 of the target).

Teachers are deterministic proportional controllers toward the current
waypoint; an optional Gaussian action-noise knob models imperfect teachers.

The environment is written once, over batches: `task_target`, `step` and
`expert_action` take arrays with any number of leading episode axes, and
`rollout` steps a batch of seeded episodes in lockstep, calling the policy
once per step on every episode's state history. Teacher collection
(`collect`) and student evaluation (`continual.rollout_success_batch`) are
both a `rollout`; each episode's result depends only on its own seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds as seeding  # `seeds` names episode seeds here
from .checkpoint import json_lines, read_record, write_json_lines
from .errors import ConfigError, StateError

__all__ = [
    "OBS_DIM",
    "ACTION_DIM",
    "HORIZON",
    "GOAL_RING",
    "TaskSpec",
    "Trajectory",
    "TeacherPolicy",
    "FAMILIES",
    "make_task_stream",
    "initial_state",
    "task_target",
    "step",
    "expert_action",
    "rollout",
    "collect",
    "write_trajectories",
    "read_trajectories",
]


def _rot(deg: float) -> np.ndarray:
    a = np.deg2rad(deg)
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


# family -> (target_mode, offset, detour, gain, kappa)
FAMILIES: dict[str, dict] = {
    "reach": dict(target_mode="direct", offset=(0.0, 0.0), detour=(0.0, 0.0), gain=0.08 * np.eye(2), kappa=4.0),
    "reach-north": dict(target_mode="offset", offset=(0.0, 0.35), detour=(0.0, 0.0), gain=0.08 * np.eye(2), kappa=4.0),
    "reach-east": dict(target_mode="offset", offset=(0.35, 0.0), detour=(0.0, 0.0), gain=0.08 * np.eye(2), kappa=4.0),
    "flip": dict(target_mode="flip", offset=(0.0, 0.0), detour=(0.0, 0.0), gain=0.08 * np.eye(2), kappa=4.0),
    "half": dict(target_mode="half", offset=(0.0, 0.0), detour=(0.0, 0.0), gain=0.08 * np.eye(2), kappa=4.0),
    "push-north": dict(target_mode="direct", offset=(0.0, 0.0), detour=(0.0, 0.30), gain=0.08 * np.eye(2), kappa=4.0),
    "push-east": dict(target_mode="direct", offset=(0.0, 0.0), detour=(0.30, 0.0), gain=0.08 * np.eye(2), kappa=4.0),
    "spin": dict(target_mode="direct", offset=(0.0, 0.0), detour=(0.0, 0.0), gain=0.08 * _rot(25.0), kappa=4.0),
    "creep": dict(target_mode="direct", offset=(0.0, 0.0), detour=(0.0, 0.0), gain=0.05 * np.eye(2), kappa=6.0),
    "mirror": dict(target_mode="mirror", offset=(0.0, 0.0), detour=(0.0, 0.0), gain=0.08 * np.eye(2), kappa=4.0),
}


# an observation is (position, goal) and an action a 2-D move
OBS_DIM, ACTION_DIM = 4, 2


# episode length, and the radii between which task goal centers lie
HORIZON = 40
GOAL_RING = (0.30, 0.55)


@dataclass
class TaskSpec:
    task_id: str
    family: str
    goal_center: np.ndarray
    gain: np.ndarray
    offset: np.ndarray
    detour: np.ndarray
    target_mode: str
    kappa: float
    horizon: int = HORIZON
    success_threshold: float = 0.05
    start_range: float = 0.35       # start positions uniform in [-r, r]^2
    goal_radius: float = 0.12       # per-episode jitter around the task center


@dataclass
class Trajectory:
    task_id: str
    seed: int
    states: np.ndarray   # (H+1, OBS_DIM)
    actions: np.ndarray  # (H, ACTION_DIM), clipped to [-1, 1]
    rewards: np.ndarray  # (H,)
    success: bool


@dataclass
class TeacherPolicy:
    """Proportional controller toward the current waypoint, for one state or
    a batch of states."""

    spec: TaskSpec

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return expert_action(self.spec, states)


def make_task_stream(n_stages: int, tasks_per_stage: int, seed: int) -> list[list[TaskSpec]]:
    """Deterministic stream of task specs grouped into stages; the families
    come in a seeded order and repeat, each with its own goal center."""
    rng = seeding.rng(seed, seeding.STREAM)
    names = list(FAMILIES)
    order = [names[i] for i in rng.permutation(len(names))]
    specs = []
    for i in range(n_stages * tasks_per_stage):
        family = order[i % len(order)]
        fam = FAMILIES[family]
        angle = rng.uniform(0.0, 2 * np.pi)
        radius = rng.uniform(*GOAL_RING)
        center = radius * np.array([np.cos(angle), np.sin(angle)])
        specs.append(
            TaskSpec(
                task_id=f"{family}-{i:02d}",
                family=family,
                goal_center=center,
                gain=np.array(fam["gain"], dtype=np.float64),
                offset=np.asarray(fam["offset"], dtype=np.float64),
                detour=np.asarray(fam["detour"], dtype=np.float64),
                target_mode=fam["target_mode"],
                kappa=float(fam["kappa"]),
            )
        )
    return [specs[k * tasks_per_stage : (k + 1) * tasks_per_stage] for k in range(n_stages)]


# ---------------------------------------------------------------------------
# dynamics, over any number of leading (episode) axes

_MIRROR = np.array([-1.0, 1.0])


def task_target(spec: TaskSpec, goals: np.ndarray) -> np.ndarray:
    """The point the task actually rewards, given each observed goal."""
    if spec.target_mode == "direct":
        return goals
    if spec.target_mode == "offset":
        return goals + spec.offset
    if spec.target_mode == "flip":
        return -goals
    if spec.target_mode == "half":
        return 0.5 * goals
    if spec.target_mode == "mirror":
        return goals * _MIRROR
    raise ConfigError(f"unknown target mode {spec.target_mode}")


def initial_state(spec: TaskSpec, seed: int) -> np.ndarray:
    """Seeded episode initialization: start position, then goal jitter."""
    rng = seeding.rng(seed)
    pos = rng.uniform(-spec.start_range, spec.start_range, 2)
    jitter_angle = rng.uniform(0.0, 2 * np.pi)
    jitter_r = spec.goal_radius * np.sqrt(rng.uniform())
    goal = spec.goal_center + jitter_r * np.array(
        [np.cos(jitter_angle), np.sin(jitter_angle)]
    )
    return np.concatenate([pos, goal])


def step(
    spec: TaskSpec, states: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Point-mass dynamics: pos' = pos + gain @ clip(action), rewarded with
    minus the distance from pos' to the task target.

    The gain product is a stacked matvec and the distance the square root of
    a stacked dot, the arithmetic of one state at a time, so a batch of
    episodes gets the bits each episode would get alone."""
    a = np.clip(np.asarray(actions, dtype=np.float64), -1.0, 1.0)
    goals = states[..., 2:4]
    pos = states[..., :2] + (spec.gain @ a[..., None])[..., 0]
    d = pos - task_target(spec, goals)
    rewards = -np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    return np.concatenate([pos, goals], axis=-1), rewards


_ALIGN_EPS = 0.04


def expert_action(spec: TaskSpec, states: np.ndarray) -> np.ndarray:
    """clip(kappa * (waypoint - position)); memoryless and deterministic.

    A detour task first heads for the target shifted back along the detour
    axis, and turns to the target once aligned with it across that axis and
    past the shifted point."""
    states = np.asarray(states)
    pos, goals = states[..., :2], states[..., 2:4]
    waypoint = task_target(spec, goals)
    if spec.detour.any():
        axis = 0 if spec.detour[0] else 1  # detour axis; the other must align
        cross = 1 - axis
        w0 = waypoint - spec.detour
        aligned = np.abs(pos[..., cross] - waypoint[..., cross]) < _ALIGN_EPS
        past = pos[..., axis] >= w0[..., axis] - _ALIGN_EPS
        waypoint = np.where((aligned & past)[..., None], waypoint, w0)
    return np.clip(spec.kappa * (waypoint - pos), -1.0, 1.0)


def rollout(
    spec: TaskSpec, policy, seeds, noise_std: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step one episode per seed, all in lockstep.

    Episode i starts at ``initial_state(spec, seeds[i])`` and draws its
    action noise from its own generator, keyed ``(seeds[i], NOISE)`` in the
    `cpdistill.seeds` table, so it does not depend on the other episodes.
    ``policy`` is called once per step with the (n, t+1, OBS_DIM) state
    history of all n episodes and returns their (n, ACTION_DIM) actions.
    Returns states (n, H+1, OBS_DIM), clipped noisy actions (n, H,
    ACTION_DIM), rewards (n, H) and whether each episode ended within the
    success threshold of its target."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("a rollout needs at least one episode")
    n, horizon = len(seeds), spec.horizon
    states = np.empty((n, horizon + 1, OBS_DIM))
    states[:, 0] = [initial_state(spec, seed) for seed in seeds]
    actions = np.empty((n, horizon, ACTION_DIM))
    rewards = np.empty((n, horizon))
    noise = None
    if noise_std > 0:
        noise = np.stack([
            seeding.rng(seed, seeding.NOISE).normal(0.0, noise_std, (horizon, ACTION_DIM))
            for seed in seeds
        ])
    for t in range(horizon):
        a = np.asarray(policy(states[:, : t + 1]), dtype=np.float64)
        if noise is not None:
            a = a + noise[:, t]
        actions[:, t] = np.clip(a, -1.0, 1.0)
        states[:, t + 1], rewards[:, t] = step(spec, states[:, t], actions[:, t])
    # the last reward is minus the final distance to the target
    success = -rewards[:, -1] < spec.success_threshold
    return states, actions, rewards, success


def collect(
    spec: TaskSpec,
    teacher,
    n_episodes: int,
    base_seed: int,
    noise_std: float = 0.0,
) -> list[Trajectory]:
    """Rollouts of ``teacher``, a controller from (n, OBS_DIM) states to
    actions, with per-episode seeds base_seed + i, in episode order."""
    seeds = range(base_seed, base_seed + n_episodes)
    states, actions, rewards, success = rollout(
        spec, lambda history: teacher(history[:, -1]), seeds, noise_std
    )
    return [
        Trajectory(spec.task_id, seed, states[i], actions[i], rewards[i], bool(success[i]))
        for i, seed in enumerate(seeds)
    ]


# ---------------------------------------------------------------------------
# trajectory files: JSON lines, one record per trajectory


def write_trajectories(path, trajs: list[Trajectory]) -> None:
    write_json_lines(path, (
        {"task_id": t.task_id, "seed": t.seed, "states": t.states.tolist(),
         "actions": t.actions.tolist(), "rewards": t.rewards.tolist(), "success": t.success}
        for t in trajs
    ))


_SHAPES = {"states": (HORIZON + 1, OBS_DIM), "actions": (HORIZON, ACTION_DIM), "rewards": (HORIZON,)}


def _trajectory(rec: dict) -> Trajectory:
    arrays = {k: np.asarray(rec[k], dtype=np.float64) for k in _SHAPES}
    for k, shape in _SHAPES.items():
        if arrays[k].shape != shape:
            raise StateError(f"a trajectory's {k} have shape {arrays[k].shape}, not {shape}")
    return Trajectory(rec["task_id"], int(rec["seed"]), success=bool(rec["success"]), **arrays)


def read_trajectories(path) -> list[Trajectory]:
    """The trajectories `write_trajectories` wrote, in order; each must have
    the suite's shapes."""
    return read_record(path, lambda text: [_trajectory(rec) for rec in json_lines(text)])
