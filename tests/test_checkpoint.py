import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import cpdistill
from cpdistill import tensor as T
from cpdistill.checkpoint import (
    load_groups, load_optimizer, read_record, save_groups, save_optimizer, table, write_table,
)
from cpdistill.errors import StateError
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
# new record cannot bring its own parser. `cpdistill report` echoes the
# summary.tsv it has just written; shutil.copyfile copies without parsing.
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
EXEMPT = {("cli.py", "read_text")}


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
