import numpy as np
import pytest

from cpdistill.errors import InputError
from cpdistill.metrics import (
    MetricsMatrix,
    accuracy,
    bwt,
    pca_project,
)


def matrix_from(rows, intro):
    """rows: {stage: [rates...]}, intro: stage per task."""
    m = MetricsMatrix()
    for j, s in enumerate(intro):
        m.add_task(f"task{j}", s)
    for k, vals in rows.items():
        for j, v in enumerate(vals):
            if not np.isnan(v):
                m.record(k, f"task{j}", v)
    return m


# three fixed matrices with hand-computed oracles
TWO_STAGE = matrix_from(
    {1: [0.8, np.nan], 2: [0.7, 0.9]},
    intro=[1, 2],
)
TWO_STAGE_PAIR = matrix_from(
    {1: [0.5, 0.7, np.nan, np.nan], 2: [0.4, 0.8, 0.9, 1.0]},
    intro=[1, 1, 2, 2],
)
THREE_STAGE = matrix_from(
    {
        1: [1.0, np.nan, np.nan],
        2: [0.75, 0.5, np.nan],
        3: [0.5, 0.25, 1.0],
    },
    intro=[1, 2, 3],
)


def test_accuracy_hand_values():
    assert accuracy(matrix_from({2: [0.5, 0.7]}, intro=[1, 2]), 2) == pytest.approx(0.6)
    assert accuracy(matrix_from({1: [1.0, 1.0]}, intro=[1, 1]), 1) == 1.0
    # hand: (0.5 + 0.25 + 1.0) / 3
    assert accuracy(THREE_STAGE, 3) == pytest.approx((0.5 + 0.25 + 1.0) / 3, abs=1e-15)
    assert accuracy(THREE_STAGE, 2) == pytest.approx((0.75 + 0.5) / 2, abs=1e-15)


def test_bwt_hand_values():
    assert bwt(TWO_STAGE, 2) == pytest.approx(-0.1, abs=1e-15)
    no_forget = matrix_from({1: [0.8, np.nan], 2: [0.8, 0.6]}, intro=[1, 2])
    assert bwt(no_forget, 2) == 0.0
    # hand: ((0.5-1.0) + (0.25-0.5)) / 2
    assert bwt(THREE_STAGE, 3) == pytest.approx(-0.375, abs=1e-15)
    assert bwt(TWO_STAGE_PAIR, 2) == pytest.approx(((0.4 - 0.5) + (0.8 - 0.7)) / 2, abs=1e-15)


def test_metric_errors():
    with pytest.raises(InputError):
        bwt(TWO_STAGE, 1)
    incomplete = matrix_from({2: [0.5, np.nan]}, intro=[1, 2])
    with pytest.raises(InputError):
        accuracy(incomplete, 2)
    with pytest.raises(InputError):
        accuracy(TWO_STAGE, 5)
    with pytest.raises(InputError):
        TWO_STAGE.record(1, "task0", 1.5)


def test_serialization_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = MetricsMatrix()
    intro = [1, 1, 2, 2, 3, 3]
    for j, s in enumerate(intro):
        m.add_task(f"t{j}", s)
    for k in (1, 2, 3):
        for j, s in enumerate(intro):
            if s <= k:
                m.record(k, f"t{j}", float(rng.uniform()))
    path = tmp_path / "metrics.tsv"
    m.save(path)
    loaded = MetricsMatrix.load(path)
    assert loaded.task_ids == m.task_ids
    assert loaded.intro_stage == m.intro_stage
    for k in m.stages():
        assert m.rows[k].tobytes() == loaded.rows[k].tobytes()
    for k in (2, 3):
        assert accuracy(loaded, k) == accuracy(m, k)
        assert bwt(loaded, k) == bwt(m, k)
    # a second save round-trips to the identical file
    path2 = tmp_path / "again.tsv"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_pca_two_points_and_identical():
    two = np.zeros((2, 16))
    two[0, 3] = 1.0
    two[1, 3] = -1.0
    coords, fractions = pca_project(two)
    assert fractions[0] == pytest.approx(1.0)
    assert fractions[1] == pytest.approx(0.0)
    assert np.allclose(coords[:, 1], 0.0)

    same = np.ones((4, 16)) * 0.25
    coords, fractions = pca_project(same)
    assert np.all(coords == 0.0)
    assert np.all(fractions == 0.0)


def test_pca_square_corners():
    pts = np.zeros((4, 16))
    pts[:, 2] = [1.0, 1.0, -1.0, -1.0]
    pts[:, 7] = [1.0, -1.0, 1.0, -1.0]
    _, fractions = pca_project(pts)
    assert fractions[0] == pytest.approx(0.5, abs=1e-12)
    assert fractions[1] == pytest.approx(0.5, abs=1e-12)


def test_pca_translation_invariant():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(8, 16))
    coords, fractions = pca_project(pts)
    shifted, fractions2 = pca_project(pts + 3.7)
    assert np.max(np.abs(coords - shifted)) < 1e-9
    assert np.allclose(fractions, fractions2, atol=1e-12)


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(6, 16))
    c1, _ = pca_project(pts)
    c2, _ = pca_project(pts.copy())
    assert np.array_equal(c1, c2)
    with pytest.raises(InputError):
        pca_project(pts[:1])
