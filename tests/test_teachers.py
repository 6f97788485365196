from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cpdistill.continual import rollout_success_batch
from cpdistill.errors import ConfigError
from cpdistill.teachers import (
    ACTION_DIM,
    FAMILIES,
    HORIZON,
    OBS_DIM,
    TeacherPolicy,
    collect,
    expert_action,
    initial_state,
    make_task_stream,
    read_trajectories,
    rollout,
    step,
    task_target,
    write_trajectories,
)


def stream_tasks(n_stages=5, per_stage=2, seed=0):
    return make_task_stream(n_stages, per_stage, seed)


def flat(stages):
    return [t for stage in stages for t in stage]


def all_families(seed=11):
    tasks = flat(make_task_stream(5, 2, seed=seed))
    assert {t.family for t in tasks} == set(FAMILIES)
    return tasks


# ---------------------------------------------------------------------------
# the per-episode environment that the lockstep rollout replaced, one state
# at a time, kept as the reference


def reference_target(spec, goal):
    if spec.target_mode == "direct":
        return goal
    if spec.target_mode == "offset":
        return goal + spec.offset
    if spec.target_mode == "flip":
        return -goal
    if spec.target_mode == "half":
        return 0.5 * goal
    if spec.target_mode == "mirror":
        return np.array([-goal[0], goal[1]])
    raise AssertionError(spec.target_mode)


def reference_teacher(spec, state):
    pos, goal = state[:2], state[2:4]
    target = reference_target(spec, goal)
    waypoint = target
    if spec.detour.any():
        w0 = target - spec.detour
        axis = 0 if spec.detour[0] else 1
        cross = 1 - axis
        aligned = abs(pos[cross] - target[cross]) < 0.04
        past = pos[axis] >= w0[axis] - 0.04
        waypoint = target if (aligned and past) else w0
    return np.clip(spec.kappa * (waypoint - pos), -1.0, 1.0)


def reference_step(spec, state, action):
    a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    pos, goal = state[:2], state[2:4]
    new_pos = pos + spec.gain @ a
    reward = -float(np.linalg.norm(new_pos - reference_target(spec, goal)))
    return np.concatenate([new_pos, goal]), reward


def reference_episode(spec, policy, seed, noise_std=0.0):
    """One seeded episode under a state-history policy."""
    state = initial_state(spec, seed)
    noise_rng = np.random.default_rng((seed, 0xA0)) if noise_std > 0 else None
    states, actions, rewards = [state], [], []
    for _ in range(spec.horizon):
        action = np.asarray(policy(np.asarray(states)), dtype=np.float64)
        if noise_rng is not None:
            action = action + noise_rng.normal(0.0, noise_std, ACTION_DIM)
        action = np.clip(action, -1.0, 1.0)
        state, reward = reference_step(spec, state, action)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
    dist = np.linalg.norm(state[:2] - reference_target(spec, state[2:4]))
    return (np.asarray(states), np.asarray(actions), np.asarray(rewards),
            bool(dist < spec.success_threshold))


# ---------------------------------------------------------------------------


def test_stream_shape_and_determinism():
    stages = stream_tasks()
    tasks = flat(stages)
    assert len(stages) == 5 and all(len(s) == 2 for s in stages)
    assert len({t.task_id for t in tasks}) == 10

    again = flat(stream_tasks())
    for a, b in zip(tasks, again):
        assert a.task_id == b.task_id
        assert np.array_equal(a.goal_center, b.goal_center)

    big = make_task_stream(5, 5, seed=3)
    assert len(flat(big)) == 25 and all(len(s) == 5 for s in big)


def test_a_long_stream_cycles_the_families():
    # no cap on the stream: past ten tasks the families repeat, each repeat
    # with its own goal center
    stages = stream_tasks(26, 2)
    tasks = flat(stages)
    assert len(stages) == 26 and all(len(s) == 2 for s in stages)
    assert len({t.task_id for t in tasks}) == 52
    assert [t.family for t in tasks[10:]] == [t.family for t in tasks[:42]]
    assert len({t.goal_center.tobytes() for t in tasks}) == 52
    for a, b in zip(tasks, flat(stream_tasks(26, 2))):
        assert a.task_id == b.task_id
        assert a.goal_center.tobytes() == b.goal_center.tobytes()


def test_step_contract():
    task = flat(stream_tasks())[0]
    state = initial_state(task, seed=5)
    nxt, _ = step(task, state, np.zeros(2))
    assert np.array_equal(nxt, state)

    # reward is zero at the target and strictly improves approaching it
    goal = state[2:4]
    target = task_target(task, goal)
    at_goal = np.concatenate([target, goal])
    _, r_goal = step(task, at_goal, np.zeros(2))
    assert r_goal == 0.0

    start = target + np.array([0.8, -0.4])
    fracs = np.linspace(0.0, 0.9, 10)
    approach = np.array([np.concatenate([start + f * (target - start), goal]) for f in fracs])
    _, rewards = step(task, approach, np.zeros((len(fracs), 2)))
    assert rewards.shape == (len(fracs),)
    assert np.all(np.diff(rewards) > 0)

    # actions are clipped to [-1, 1] before the gain
    far, _ = step(task, state, np.array([5.0, -5.0]))
    unit, _ = step(task, state, np.array([1.0, -1.0]))
    assert np.array_equal(far, unit)


def test_expert_action_values():
    task = flat(stream_tasks())[0]
    state = initial_state(task, seed=1)
    goal = state[2:4]
    target = task_target(task, goal)
    at_goal = np.concatenate([target, goal])
    assert np.allclose(expert_action(task, at_goal), 0.0, atol=1e-12)

    reach = [t for t in flat(stream_tasks()) if t.family == "reach"][0]
    probe = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(expert_action(replace(reach, kappa=5.0), probe), np.array([1.0, 0.0]))

    s = initial_state(task, seed=9)
    assert np.array_equal(expert_action(task, s), expert_action(task, s))


def test_batched_env_matches_row_by_row():
    rng = np.random.default_rng(3)
    for task in all_families():
        goals = task.goal_center + rng.uniform(-0.1, 0.1, (64, 2))
        targets = task_target(task, goals)
        # positions near the target, so detour tasks head for both waypoints
        states = np.concatenate([targets + rng.uniform(-0.3, 0.3, (64, 2)), goals], axis=1)
        actions = rng.uniform(-1.5, 1.5, (64, 2))
        nxt, rewards = step(task, states, actions)
        expert = expert_action(task, states)
        for i in range(len(states)):
            assert task_target(task, goals[i]).tobytes() == targets[i].tobytes()
            row_next, row_reward = step(task, states[i], actions[i])
            assert row_next.tobytes() == nxt[i].tobytes()
            assert row_reward == rewards[i]
            assert expert_action(task, states[i]).tobytes() == expert[i].tobytes()
            assert expert[i].tobytes() == reference_teacher(task, states[i]).tobytes()
            ref_next, ref_reward = reference_step(task, states[i], actions[i])
            assert ref_next.tobytes() == row_next.tobytes() and ref_reward == row_reward


def test_every_family_teacher_succeeds():
    for task in all_families():
        trajs = collect(task, TeacherPolicy(task), 50, base_seed=123)
        rate = np.mean([t.success for t in trajs])
        assert rate >= 0.95, f"{task.task_id} teacher only reached {rate}"


def test_collect_seeds_and_counts():
    task = flat(stream_tasks())[3]
    teacher = TeacherPolicy(task)
    trajs = collect(task, teacher, 8, base_seed=100)
    assert [t.seed for t in trajs] == [100 + i for i in range(8)]
    assert all(t.task_id == task.task_id for t in trajs)
    # an episode does not depend on the episodes collected with it
    alone = collect(task, teacher, 1, base_seed=105)[0]
    assert alone.states.tobytes() == trajs[5].states.tobytes()
    assert alone.rewards.tobytes() == trajs[5].rewards.tobytes()

    assert len(collect(task, teacher, 131, base_seed=0)) == 131

    with pytest.raises(ConfigError):
        collect(task, teacher, 0, base_seed=0)


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
def test_collect_matches_per_episode_reference(noise_std):
    for task in all_families():
        for traj in collect(task, TeacherPolicy(task), 6, base_seed=900, noise_std=noise_std):
            states, actions, rewards, success = reference_episode(
                task, lambda h: reference_teacher(task, h[-1]), traj.seed, noise_std)
            name = f"{task.task_id}:{traj.seed}"
            assert traj.states.tobytes() == states.tobytes(), name
            assert traj.actions.tobytes() == actions.tobytes(), name
            assert traj.rewards.tobytes() == rewards.tobytes(), name
            assert traj.success == success, name


def test_trajectory_invariants():
    for task in flat(stream_tasks())[:4]:
        for traj in collect(task, TeacherPolicy(task), 3, base_seed=7, noise_std=0.5):
            assert traj.states.shape == (HORIZON + 1, OBS_DIM)
            assert traj.actions.shape == (HORIZON, ACTION_DIM)
            assert traj.rewards.shape == (HORIZON,)
            assert np.all(np.abs(traj.actions) <= 1.0)
            assert np.isfinite(traj.states).all()
            assert np.all(traj.states[:, 2:4] == traj.states[0, 2:4])


def test_noisy_teacher_deterministic_per_seed():
    task = flat(stream_tasks())[0]
    teacher = TeacherPolicy(task)
    a = collect(task, teacher, 3, base_seed=40, noise_std=0.1)
    b = collect(task, teacher, 3, base_seed=40, noise_std=0.1)
    clean = collect(task, teacher, 3, base_seed=40)
    assert all(np.array_equal(x.actions, y.actions) for x, y in zip(a, b))
    assert not np.array_equal(a[0].actions, clean[0].actions)


def test_rollout_calls_the_policy_once_per_step_on_the_history():
    task = flat(stream_tasks())[0]
    shapes = []

    def policy(history):
        shapes.append(history.shape)
        return np.zeros((history.shape[0], 2))

    seeds = [4, 9, 2]
    states, actions, rewards, success = rollout(task, policy, seeds)
    assert shapes == [(3, t + 1, 4) for t in range(task.horizon)]
    assert states.shape == (3, task.horizon + 1, 4)
    assert np.array_equal(states[:, 0], [initial_state(task, s) for s in seeds])
    assert np.all(states == states[:, :1])  # a zero policy never moves
    assert not success.any()
    with pytest.raises(ConfigError):
        rollout(task, policy, [])


def student_like(seq_len, predict_batch):
    """The inference interface `rollout_success_batch` uses of a student."""
    return SimpleNamespace(config=SimpleNamespace(seq_len=seq_len), predict_batch=predict_batch)


def test_rollout_success_batch_matches_per_episode_reference():
    z = np.zeros(3)
    for task in all_families():
        teacher = student_like(
            20, lambda windows, z, task=task: np.stack([reference_teacher(task, w[-1]) for w in windows]))
        zero = student_like(20, lambda windows, z: np.zeros((len(windows), 2)))
        for model, expected in ((teacher, 1.0), (zero, 0.0)):
            rate = rollout_success_batch(model, task, z, 12, seed=50)

            def policy(history, model=model):
                return model.predict_batch(history[None, -20:], z[None])[0]

            hits = [reference_episode(task, policy, 50 + i)[3] for i in range(12)]
            assert rate == np.mean(hits) == expected, task.task_id


def test_trajectory_files_round_trip(tmp_path):
    task = flat(stream_tasks())[2]
    trajs = collect(task, TeacherPolicy(task), 5, base_seed=77)
    path = tmp_path / "trajs.jsonl"
    write_trajectories(path, trajs)
    loaded = read_trajectories(path)
    assert len(loaded) == 5
    for a, b in zip(trajs, loaded):
        assert a.task_id == b.task_id and a.seed == b.seed and a.success == b.success
        assert a.states.tobytes() == b.states.tobytes()
        assert a.actions.tobytes() == b.actions.tobytes()
        assert a.rewards.tobytes() == b.rewards.tobytes()
