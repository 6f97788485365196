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
from cpdistill.cli import main
from cpdistill.config import ProtocolConfig
from cpdistill.continual import ProtocolRunner, run_protocol
from cpdistill.errors import StateError
from cpdistill.model import ExpansionConfig, ModelConfig, StudentModel, expand_experts
from cpdistill.optim import AdamW, ParamGroup
from oracles import DAMAGED_HEADERS, step_with, tree_bytes


def random_arrays(rng):
    return {
        "embed.w": rng.normal(size=(7, 5)),
        "blocks.0.gate.b": rng.normal(size=(3,)),
        "head.w": rng.normal(size=(5, 2)).astype(np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(21)
    arrays = random_arrays(rng)
    extra = {"stage": 3, "config": {"hidden_dim": 64}}
    save_groups(tmp_path / "ck", arrays, extra=extra)
    loaded, got_extra = load_groups(tmp_path / "ck")
    assert got_extra == extra
    assert list(loaded) == list(arrays)
    for name, a in arrays.items():
        assert a.dtype == loaded[name].dtype
        assert np.array_equal(a, loaded[name])
        assert a.tobytes() == loaded[name].tobytes()


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


def _previous_formats(stage_dir, model) -> None:
    """Rewrite the records of ``stage_dir`` as earlier formats wrote them:
    each array entry with a ``trainable`` flag (a group's as ``model``, the
    student that wrote the stage, holds it; False for a moment or a Fisher
    sum), the model header with the stage and ``new_expert_start``, the
    optimizer header with its lr, betas, eps, step count and weight decay,
    and ``state.json`` with the stage."""
    k = int(stage_dir.name[len("stage_"):])

    def flag(flags):
        return lambda m: [e.update(trainable=flags.get(e["name"], False)) for e in m["groups"]]

    _edit_header(stage_dir / "model", flag({n: g.tensor.requires_grad
                                            for n, g in model.params.items()}))
    _edit_header(stage_dir / "model", lambda m: m["extra"].update(
        stage=k, new_expert_start=list(model.new_expert_start)))
    _edit_header(stage_dir / "optimizer", flag({}))
    _edit_header(stage_dir / "optimizer", lambda m: m["extra"]["optimizer"].update(
        lr=3e-4, betas=[0.9, 0.999], eps=1e-8, step_count=7, weight_decay=0.0))
    if (stage_dir / "fisher").exists():
        _edit_header(stage_dir / "fisher", flag({}))
    state = json.loads((stage_dir / "state.json").read_text())
    (stage_dir / "state.json").write_text(json.dumps({**state, "stage": k}, indent=1,
                                                     sort_keys=True))


def test_headers_of_the_previous_format_load(tmp_path, capsys):
    # a stage written in the earlier formats loads, continues and evaluates
    # as the same stage in the current one: ours saves stage 2 under phase-2
    # masks with new experts, ewc saves a Fisher estimate
    for strategy in ("ours", "ewc"):
        cfg = ProtocolConfig.from_dict(dict(
            strategy=strategy, n_stages=3, tasks_per_stage=2, episodes_per_task=10,
            support_episodes=3, eval_episodes=2, epochs_stage1=1, epochs_later=2, batch_size=64,
            replay_m=1, model=dict(hidden_dim=16, depth=1, experts_per_layer=2, n_heads=2,
                                   mlp_multiplier=2, encoder_hidden=8)))
        new, old = tmp_path / strategy / "new", tmp_path / strategy / "old"
        runner = ProtocolRunner(cfg, seed=23, out_dir=new)
        for k in (1, 2):
            runner.run_stage(runner.stage_config(k), runner.stream[k - 1])
            shutil.copytree(new / f"stage_{k}", old / f"stage_{k}")
            _previous_formats(old / f"stage_{k}", runner.model)
        assert tree_bytes(old / "stage_2") != tree_bytes(new / "stage_2")

        states = []
        for run in (new, old):
            model, layout = StudentModel.load(run / "stage_2" / "model")
            restored = load_optimizer(run / "stage_2" / "optimizer", model.groups(), cfg.lr)
            states.append((
                layout,
                {n: g.tensor.data.tobytes() for n, g in model.params.items()},
                restored.lr,
                restored.t,
                {n: (restored.m[n].tobytes(), restored.v[n].tobytes()) for n in restored.m},
            ))
        assert states[0] == states[1]
        assert states[0][0] == runner.model._header() and states[0][3] == runner.optimizer.t

        for run in (new, old):
            run_protocol(cfg, 23, out_dir=run)
        assert tree_bytes(old / "stage_3") == tree_bytes(new / "stage_3")
        assert (old / "metrics.tsv").read_bytes() == (new / "metrics.tsv").read_bytes()
        capsys.readouterr()
        for k in (1, 2, 3):
            printed = []
            for run in (new, old):
                assert main(["eval", "--out", str(run), "--stage", str(k)]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1], (strategy, k)


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
