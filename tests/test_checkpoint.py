import ast
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import cpdistill
from cpdistill import tensor as T
from cpdistill.checkpoint import (
    load_groups, load_optimizer, read_record, save_groups, save_optimizer, table, write_table,
)
from cpdistill.errors import StateError
from cpdistill.model import ExpansionConfig, ModelConfig, StudentModel, expand_experts
from cpdistill.optim import AdamW, ParamGroup
from oracles import DAMAGED_HEADERS, step_with


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
    opt = AdamW([g], lr=3e-4)
    for _ in range(5):
        step_with(opt, {"p": rng.normal(size=(4, 4))})
    save_optimizer(tmp_path / "opt", opt)
    manifest = json.loads((tmp_path / "opt" / "manifest.json").read_text())
    assert manifest["extra"] == {"optimizer": {"t": {"p": 5}}}  # the lr is the config's
    restored = load_optimizer(tmp_path / "opt", [g], 3e-4)
    assert restored.lr == opt.lr
    assert restored.t == opt.t
    assert restored.m["p"].tobytes() == opt.m["p"].tobytes()
    assert restored.v["p"].tobytes() == opt.v["p"].tobytes()

    # moments smaller than their group load, and grow at its next step
    grown = ParamGroup("p", T.Tensor(np.ones((4, 5))))
    restored = load_optimizer(tmp_path / "opt", [grown], 3e-4)
    step_with(restored, {"p": np.zeros((4, 5))})
    assert restored.m["p"].shape == restored.v["p"].shape == (4, 5)
    assert np.array_equal(restored.m["p"][:, :4], opt.m["p"] * 0.9)
    assert not restored.m["p"][:, 4].any()


def _student_and_optimizer(path, rng):
    """A tiny student with added experts and its optimizer, saved in
    ``path`` after three steps on every group."""
    student = StudentModel(
        ModelConfig(obs_dim=4, action_dim=2, hidden_dim=8, depth=1, experts_per_layer=2,
                    n_heads=2, mlp_multiplier=2, encoder_hidden=4, task_embed_dim=4, seq_len=3),
        seed=1)
    expand_experts(student, ExpansionConfig(), seed=2)
    opt = AdamW(student.groups(), lr=3e-4)
    for _ in range(3):
        step_with(opt, {g.name: rng.normal(size=g.tensor.shape) for g in opt.groups})
    student.save(path / "model")
    save_optimizer(path / "optimizer", opt)
    return student, opt


def _edit_header(path, edit) -> None:
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_headers_of_the_previous_format_load(tmp_path):
    # the previous format also wrote the model's stage, and the optimizer's
    # lr, betas, eps, step count and weight decay
    student, opt = _student_and_optimizer(tmp_path / "new", np.random.default_rng(23))
    shutil.copytree(tmp_path / "new", tmp_path / "old")
    _edit_header(tmp_path / "old" / "model", lambda m: m["extra"].update(stage=2))
    _edit_header(tmp_path / "old" / "optimizer", lambda m: m["extra"]["optimizer"].update(
        lr=3e-4, betas=[0.9, 0.999], eps=1e-8, step_count=7, weight_decay=0.0))
    states = []
    for run in ("new", "old"):
        model, _ = StudentModel.load(tmp_path / run / "model")
        restored = load_optimizer(tmp_path / run / "optimizer", model.groups(), 3e-4)
        states.append((
            model._layout(),
            {n: (g.tensor.data.tobytes(), g.trainable) for n, g in model.params.items()},
            restored.lr,
            restored.t,
            {n: (restored.m[n].tobytes(), restored.v[n].tobytes()) for n in restored.m},
        ))
    assert states[0] == states[1]
    assert states[0][0] == student._layout() and states[0][3] == opt.t


# a damaged header is refused by the reader of its manifest.json, before
# any step
@pytest.mark.parametrize("record,edit", [
    pytest.param("model", lambda m: m.update(format="other"), id="format"),
    *(pytest.param(checkpoint, edit, id=label) for checkpoint, edit, label in DAMAGED_HEADERS),
])
def test_bad_format_rejected(tmp_path, record, edit):
    _student_and_optimizer(tmp_path, np.random.default_rng(24))
    _edit_header(tmp_path / record, edit)
    with pytest.raises(StateError, match=re.escape(f"{tmp_path / record / 'manifest.json'} ")):
        model, _ = StudentModel.load(tmp_path / "model")
        load_optimizer(tmp_path / "optimizer", model.groups(), 3e-4)


def test_table_cells_keep_every_bit(tmp_path):
    third = 1.0 / 3.0
    rows = [["id", 7, np.int64(8)], ["a", third, np.float64(third), np.float32(0.1)], []]
    write_table(tmp_path / "t.tsv", rows)
    text = (tmp_path / "t.tsv").read_text()
    # a numpy float goes through float(), so it is written as Python writes it
    assert text == f"id\t7\t8\na\t{third!r}\t{third!r}\t{float(np.float32(0.1))!r}\n\n"
    cells = read_record(tmp_path / "t.tsv", table)
    assert float(cells[1][1]) == third and float(cells[1][3]) == np.float32(0.1)
    write_table(tmp_path / "empty.tsv", [])
    assert (tmp_path / "empty.tsv").read_text() == "\n"


def test_a_failed_parse_names_the_file(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("a\tb\n")
    with pytest.raises(StateError, match=re.escape(f"{path} is damaged: ValueError: could not")):
        read_record(path, lambda text: float(table(text)[0][0]))
    path.write_bytes(b"\xff")
    with pytest.raises(StateError, match=re.escape(f"{path} is damaged: UnicodeDecodeError")):
        read_record(path, table)


# A run record is read and written by `cpdistill.checkpoint` alone, so that a
# new record cannot bring its own parser. shutil.copyfile copies without
# parsing.
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
EXEMPT = set()


def test_only_checkpoint_reads_or_writes_files():
    found = set()
    for path in sorted(Path(cpdistill.__file__).resolve().parent.glob("*.py")):
        if path.name == "checkpoint.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_CALLS:
                    assert (path.name, name) in EXEMPT, f"{path.name}:{node.lineno} calls {name}"
                    found.add((path.name, name))
    assert found == EXEMPT  # no stale exemption
