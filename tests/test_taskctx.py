from types import SimpleNamespace

import numpy as np
import pytest

from cpdistill import tensor as T
from cpdistill.errors import InputError
from cpdistill.taskctx import (
    ContextProvider,
    ContrastiveBatch,
    TaskEncoder,
    infonce_loss,
    task_context_for,
    traj_stats,
)
from cpdistill.tensor import Tensor
from oracles import encode_trajectory, eval_with_gradients, finite_difference_grads


def fake_traj(seed=0, h=16, obs=4, act=2, reward_scale=1.0):
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        states=rng.normal(size=(h + 1, obs)),
        actions=rng.normal(size=(h, act)),
        rewards=rng.normal(size=h) * reward_scale,
    )


def test_traj_stats_shape_and_reward_channel():
    traj = fake_traj(seed=1)
    stats = traj_stats(traj, n_chunks=8)
    assert stats.shape == (8 * (4 + 2 + 1),)
    doubled = SimpleNamespace(
        states=traj.states, actions=traj.actions, rewards=traj.rewards * 2.0
    )
    other = traj_stats(doubled, n_chunks=8)
    assert not np.array_equal(stats, other)
    # only the reward slots moved
    keep = np.ones_like(stats, dtype=bool)
    keep[6::7] = False
    assert np.array_equal(stats[keep], other[keep])


def test_empty_trajectory_rejected():
    empty = SimpleNamespace(states=np.zeros((1, 4)), actions=np.zeros((0, 2)), rewards=np.zeros(0))
    with pytest.raises(InputError):
        traj_stats(empty, n_chunks=8)


def test_encoder_outputs_unit_norm_and_pure():
    enc = TaskEncoder(input_dim=7 * 8, hidden_dim=64, embed_dim=16, rng=np.random.default_rng(5),
                      dtype=np.float64)
    traj = fake_traj(seed=2)
    z1 = encode_trajectory(enc, traj)
    z2 = encode_trajectory(enc, traj)
    assert z1.shape == (16,)
    assert abs(np.linalg.norm(z1) - 1.0) < 1e-9
    assert np.array_equal(z1, z2)


def test_infonce_symmetric_case():
    # three anchors, all pairwise similarities equal, one positive each for
    # the two same-task anchors -> -log(1/2)
    ang = 2 * np.pi / 3
    z = np.zeros((3, 16))
    for i in range(3):
        z[i, 0], z[i, 1] = np.cos(i * ang), np.sin(i * ang)
    batch = ContrastiveBatch(Tensor(z), np.array([0, 0, 1]), temperature=0.7)
    assert infonce_loss(batch).item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_infonce_two_candidate_case():
    z = np.zeros((3, 16))
    z[0, 0] = 1.0
    z[1, 0] = 1.0
    z[2, 1] = 1.0
    batch = ContrastiveBatch(Tensor(z), np.array([0, 0, 1]), temperature=1.0)
    expected = -np.log(np.e / (np.e + 1.0))
    assert infonce_loss(batch).item() == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.3133, abs=5e-5)


def test_infonce_saturates_to_zero_at_low_temperature():
    z = np.zeros((4, 16))
    z[0, 0] = z[1, 0] = 1.0  # identical positives
    z[2, 1] = 1.0            # orthogonal negatives
    z[3, 2] = 1.0
    batch = ContrastiveBatch(Tensor(z), np.array([0, 0, 1, 2]), temperature=0.01)
    assert infonce_loss(batch).item() < 1e-12


def test_infonce_excludes_anchor_without_positive_and_errors_when_empty():
    z = np.eye(3, 16)
    with pytest.raises(InputError):
        infonce_loss(ContrastiveBatch(Tensor(z), np.array([0, 1, 2])))
    with pytest.raises(InputError):
        infonce_loss(ContrastiveBatch(Tensor(z[:1]), np.array([0])))


def test_infonce_permutation_invariant():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(6, 16))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = np.array([0, 0, 1, 1, 2, 2])
    base = infonce_loss(ContrastiveBatch(Tensor(z), labels)).item()
    perm = rng.permutation(6)
    shuffled = infonce_loss(ContrastiveBatch(Tensor(z[perm]), labels[perm])).item()
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_infonce_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    enc = TaskEncoder(input_dim=10, hidden_dim=6, embed_dim=5, rng=rng, dtype=np.float64)
    stats = rng.normal(size=(4, 10))
    labels = np.array([0, 0, 1, 1])

    def build():
        return infonce_loss(ContrastiveBatch(enc.encode(stats), labels, temperature=0.5))

    _, grads = eval_with_gradients(build, enc.groups)
    fd = finite_difference_grads(build, enc.groups)
    for name, f in fd.items():
        a = grads[name]
        err = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        assert err.max() < 1e-4, f"{name}: {err.max()}"


class StubEncoder:
    """Returns pre-set embedding rows regardless of input."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def encode(self, stats):
        return Tensor(self.rows[: len(np.atleast_2d(stats))])


def test_task_context_mean_semantics():
    traj = fake_traj(seed=3)
    e1 = np.zeros(16)
    e1[0] = 1.0
    e2 = np.zeros(16)
    e2[1] = 1.0

    single = task_context_for(StubEncoder([e1]), [traj], n_chunks=8)
    assert np.allclose(single, e1, atol=1e-9)

    dup = task_context_for(StubEncoder([e1, e1]), [traj, traj], n_chunks=8)
    assert np.allclose(dup, single, atol=1e-12)

    mid = task_context_for(StubEncoder([e1, e2]), [traj, traj], n_chunks=8)
    expected = (e1 + e2) / np.sqrt(2.0)
    assert np.allclose(mid, expected, atol=1e-9)

    with pytest.raises(InputError):
        task_context_for(StubEncoder([e1]), [], n_chunks=8)


def test_context_provider_cache_and_refresh():
    enc = TaskEncoder(input_dim=7 * 8, hidden_dim=64, embed_dim=16, rng=np.random.default_rng(11),
                      dtype=np.float64)
    provider = ContextProvider(enc, n_chunks=8)
    provider.set_support("a", [fake_traj(seed=4)])
    with pytest.raises(InputError):
        provider.get("a")  # not refreshed yet
    provider.refresh(["a"])
    first = provider.get("a")
    enc.groups[0].tensor.data += 0.5  # encoder moved; cache must not
    assert np.array_equal(provider.get("a"), first)
    provider.refresh(["a"])
    assert not np.array_equal(provider.get("a"), first)
