import json

import numpy as np
import pytest

from cpdistill import tensor as T
from cpdistill.checkpoint import load_groups, load_optimizer, save_groups, save_optimizer
from cpdistill.optim import AdamW, ParamGroup
from oracles import step_with


def random_groups(rng):
    return [
        ParamGroup("embed.w", T.Tensor(rng.normal(size=(7, 5))), trainable=True),
        ParamGroup("blocks.0.gate.b", T.Tensor(rng.normal(size=(3,))), trainable=False),
        ParamGroup(
            "head.w",
            T.Tensor(rng.normal(size=(5, 2)).astype(np.float32)),
            trainable=True,
        ),
    ]


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    groups = random_groups(rng)
    extra = {"stage": 3, "config": {"hidden_dim": 64}}
    save_groups(tmp_path / "ck", groups, extra=extra)
    loaded, got_extra = load_groups(tmp_path / "ck")
    assert got_extra == extra
    assert [g.name for g in loaded] == [g.name for g in groups]
    for a, b in zip(groups, loaded):
        assert a.trainable == b.trainable
        assert a.tensor.data.dtype == b.tensor.data.dtype
        assert np.array_equal(a.tensor.data, b.tensor.data)
        assert (a.tensor.data.tobytes() == b.tensor.data.tobytes())


def test_optimizer_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    g = ParamGroup("p", T.Tensor(rng.normal(size=(4, 4))))
    opt = AdamW([g], lr=3e-4, weight_decay=0.02)
    for _ in range(5):
        step_with(opt, {"p": rng.normal(size=(4, 4))})
    save_optimizer(tmp_path / "opt", opt)
    restored = load_optimizer(tmp_path / "opt", [g])
    assert restored.step_count == opt.step_count
    assert restored.lr == opt.lr
    assert restored.weight_decay == opt.weight_decay
    assert restored.t == opt.t
    assert np.array_equal(restored.m["p"], opt.m["p"])
    assert np.array_equal(restored.v["p"], opt.v["p"])


def test_bad_format_rejected(tmp_path):
    d = tmp_path / "ck"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"format": "other"}))
    (d / "params.bin").write_bytes(b"")
    with pytest.raises(ValueError):
        load_groups(d)
