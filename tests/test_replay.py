from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpdistill.replay import (
    build_kernel,
    featurize,
    preprocess_features,
    select,
    select_replay,
    subset_log_det,
    update_buffer,
)
from oracles import check_kernel, exact_dpp


def traj_with_states(states, task_id="t", seed=0):
    states = np.asarray(states, dtype=np.float64)
    h = len(states) - 1
    return SimpleNamespace(
        task_id=task_id,
        seed=seed,
        states=states,
        actions=np.zeros((h, 2)),
        rewards=np.zeros(h),
        success=True,
    )


def test_featurize_dimensions():
    rng = np.random.default_rng(0)
    traj = traj_with_states(rng.normal(size=(41, 4)))
    assert featurize(traj).shape == (2 * 4,)

    const = traj_with_states(np.full((41, 4), 3.25))
    assert np.all(featurize(const) == 3.25)

    long = traj_with_states(rng.normal(size=(501, 4)))
    assert featurize(long).shape == (25 * 4,)


def test_kernel_construction():
    eye = build_kernel(np.eye(3))
    assert np.array_equal(eye, np.eye(3))
    check_kernel(eye)

    hand = build_kernel(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.array_equal(hand, np.array([[1.0, 1.0], [1.0, 2.0]]))

    dup = build_kernel(np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 0.1]]))
    assert subset_log_det(dup, [0, 1]) == -np.inf

    with pytest.raises(AssertionError):
        check_kernel(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_dpp_picks_largest_orthogonal_norms():
    feats = np.diag([3.0, 2.0, 1.0])
    # oracle: brute force over all 2-subsets of the Gram determinant
    gram = feats @ feats.T
    best = max(
        combinations(range(3), 2),
        key=lambda s: np.linalg.det(gram[np.ix_(s, s)]),
    )
    assert set(best) == {0, 1}
    assert np.linalg.det(gram[np.ix_(best, best)]) == 36.0
    assert set(select(feats, 2, strategy="dpp")) == {0, 1}
    assert set(exact_dpp(build_kernel(feats), 2)) == {0, 1}


def test_select_m_equals_n():
    feats = np.random.default_rng(1).normal(size=(4, 3))
    for strategy in ("dpp", "random"):
        assert sorted(select(feats, 4, strategy=strategy)) == [0, 1, 2, 3]
    assert sorted(exact_dpp(build_kernel(feats), 4)) == [0, 1, 2, 3]


def test_dpp_avoids_exact_duplicates():
    feats = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 0.5], [0.3, 0.3]])
    chosen = select(feats, 3, strategy="dpp")
    assert not {0, 1} <= set(chosen)


def test_selection_deterministic_per_seed():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(9, 5))
    for strategy in ("dpp", "random"):
        a = select(feats, 3, strategy=strategy, seed=17)
        b = select(feats, 3, strategy=strategy, seed=17)
        assert a == b
    assert select(feats, 3, strategy="random", seed=1) != select(
        feats, 3, strategy="random", seed=2
    )


def test_dpp_dominates_baselines_on_random_pools():
    wins_rand = 0
    trials = 200
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(5, 13))
        m = int(rng.integers(2, 5))
        feats = rng.normal(size=(n, 6))
        gram = build_kernel(feats)
        check_kernel(gram)
        d_exact = subset_log_det(gram, exact_dpp(gram, m))
        d_greedy = subset_log_det(gram, select(feats, m, strategy="dpp"))
        d_rand = subset_log_det(gram, select(feats, m, strategy="random", seed=trial))
        assert d_exact >= d_greedy - 1e-9
        wins_rand += d_greedy >= d_rand - 1e-9
    assert wins_rand >= 0.9 * trials


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.data())
def test_greedy_dpp_never_beats_the_exact_map(data):
    n = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(1, min(4, n)))
    x = data.draw(hnp.arrays(np.float64, (n, data.draw(st.integers(1, 4))),
                             elements=st.floats(-2.0, 2.0, allow_nan=False)))
    # an identity block adds I/4 to the Gram matrix: every minor is
    # nonsingular, so the exhaustive search is not decided by rounding
    feats = np.hstack([x, 0.5 * np.eye(n)])
    gram = build_kernel(feats)
    greedy = select(feats, m, strategy="dpp")
    assert len(set(greedy)) == m
    assert subset_log_det(gram, greedy) <= subset_log_det(gram, exact_dpp(gram, m)) + 1e-9
    # and each pick is the one-item extension of largest log-det
    for i in range(1, m):
        rest = [j for j in range(n) if j not in greedy[:i]]
        best = max(subset_log_det(gram, greedy[:i] + [j]) for j in rest)
        assert subset_log_det(gram, greedy[: i + 1]) >= best - 1e-9
    assert select(feats, 1, strategy="dpp") == exact_dpp(gram, 1)


def test_buffer_accumulates_across_stages():
    # the buffer is the chosen trajectories in selection order
    pool = [traj_with_states(np.zeros((41, 4)), task_id="ab"[i // 5], seed=i) for i in range(10)]
    buffer = []
    assert update_buffer(buffer, pool[:5]) is buffer
    update_buffer(buffer, [])
    update_buffer(buffer, pool[5:])
    assert buffer == pool
    assert [t.task_id for t in buffer] == ["a"] * 5 + ["b"] * 5


def test_select_replay_pipeline_and_audit():
    rng = np.random.default_rng(7)
    trajs = [
        traj_with_states(rng.normal(size=(41, 4)) + i, task_id="push-00", seed=i)
        for i in range(12)
    ]
    chosen, audit = select_replay(trajs, m=3, strategy="dpp", seed=5, stage=2)
    assert len(chosen) == 3
    assert audit.task_id == "push-00"
    assert audit.strategy == "dpp"
    assert len(audit.chosen_ids) == 3
    assert np.isfinite(audit.log_det)
    again, _ = select_replay(trajs, m=3, strategy="dpp", seed=5, stage=2)
    assert [t.seed for t in again] == [t.seed for t in chosen]


def test_preprocess_centers_and_scales():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(20, 6)) * 50 + 10
    prepped = preprocess_features(feats)
    assert np.allclose(prepped.mean(axis=0), 0.0, atol=1e-12)
    assert np.linalg.norm(prepped, axis=1).mean() == pytest.approx(1.0, abs=1e-12)
    flat = preprocess_features(np.full((4, 3), 2.0))
    assert np.all(flat == 0.0)
