import numpy as np
import pytest

from cpdistill import tensor as T
from cpdistill.errors import DimensionError
from cpdistill.optim import AdamW, ParamGroup
from oracles import eval_with_gradients, mse, step_with


def reference_adamw(p, grads, lr=1e-4, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam recurrence used as the oracle."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_first_step_is_signed_lr():
    lr = 1e-4
    for gval in (0.37, -5.0):
        g = ParamGroup("p", T.Tensor(np.array([1.0])))
        opt = AdamW([g], lr=lr)
        step_with(opt, {"p": np.array([gval])})
        delta = g.tensor.data[0] - 1.0
        assert abs(delta - (-lr * np.sign(gval))) < 1e-9


def test_matches_reference_recurrence_over_steps():
    rng = np.random.default_rng(4)
    grads = rng.normal(size=7)
    g = ParamGroup("p", T.Tensor(np.array([0.5])))
    opt = AdamW([g], lr=1e-2)
    for gr in grads:
        step_with(opt, {"p": np.array([gr])})
    expected = reference_adamw(0.5, grads, lr=1e-2)
    assert g.tensor.data[0] == pytest.approx(expected, rel=1e-12)


def test_frozen_group_bit_identical_after_training():
    rng = np.random.default_rng(8)
    w = ParamGroup("w", T.Tensor(rng.normal(size=(3, 3))))
    frozen = ParamGroup("f", T.Tensor(rng.normal(size=(3, 3))), trainable=False)
    snapshot = frozen.tensor.data.copy()
    opt = AdamW([w, frozen], lr=1e-2)
    x = rng.normal(size=(5, 3))
    for _ in range(10):

        def build():
            out = (T.Tensor(x) @ w.tensor) @ frozen.tensor
            return mse(out, np.zeros((5, 3)))

        _, grads = eval_with_gradients(build, [w, frozen])
        assert "f" not in grads
        step_with(opt, grads)
    assert np.array_equal(frozen.tensor.data, snapshot)
    assert not np.array_equal(w.tensor.data, np.zeros((3, 3)))


def test_step_counter_monotone_and_per_group_counts():
    a = ParamGroup("a", T.Tensor(np.array([1.0])))
    b = ParamGroup("b", T.Tensor(np.array([1.0])))
    opt = AdamW([a, b], lr=1e-4)
    step_with(opt, {"a": np.array([0.1])})
    step_with(opt, {"a": np.array([0.1]), "b": np.array([0.2])})
    assert opt.t == {"a": 2, "b": 1}


def test_shape_mismatch_rejected():
    g = ParamGroup("p", T.Tensor(np.ones((2, 2))))
    opt = AdamW([g], lr=1e-4)
    with pytest.raises(DimensionError):
        step_with(opt, {"p": np.ones(3)})


def test_state_grows_with_group():
    g = ParamGroup("gate", T.Tensor(np.ones((2, 3))))
    opt = AdamW([g], lr=0.0)  # lr 0 isolates the state bookkeeping
    step_with(opt, {"gate": np.full((2, 3), 0.5)})
    old_m = opt.m["gate"].copy()
    # group grows by one column, as the gate does at expert expansion
    g.tensor.data = np.ones((2, 4))
    step_with(opt, {"gate": np.zeros((2, 4))})
    assert opt.m["gate"].shape == (2, 4)
    assert np.allclose(opt.m["gate"][:, :3], old_m * 0.9)
    assert np.all(opt.m["gate"][:, 3] == 0.0)
