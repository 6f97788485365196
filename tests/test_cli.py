import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cpdistill import cli
from cpdistill.cli import main
from cpdistill.config import ProtocolConfig, load_config, save_config
from cpdistill.continual import ProtocolRunner
from cpdistill.metrics import MetricsMatrix
from cpdistill.report import render_report, summary_table
from cpdistill.taskctx import load_contexts
from oracles import DAMAGED_HEADERS, tree_bytes


def tiny_cli_config() -> ProtocolConfig:
    return ProtocolConfig(
        strategy="ours",
        n_stages=2,
        tasks_per_stage=2,
        episodes_per_task=10,
        support_episodes=3,
        eval_episodes=2,
        epochs_stage1=1,
        epochs_later=2,
        batch_size=64,
        replay_m=1,
        model=dict(hidden_dim=16, depth=1, experts_per_layer=2, n_heads=2,
                   mlp_multiplier=2, encoder_hidden=8),
    )


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(path, tiny_cli_config())
    return path


def test_usage_errors_exit_1(capsys):
    assert main(["unknown-sub"]) == 1
    assert main(["distill", "--nope"]) == 1
    assert main(["distill"]) == 1  # --config is required
    for gone in ("teach", "select"):
        assert main([gone, "--config", "c.json"]) == 1
        assert "invalid choice" in capsys.readouterr().err


def test_docstring_usage_names_every_command():
    usage = [line.split()[1] for line in cli.__doc__.splitlines()
             if line.startswith("    cpdistill ")]
    assert usage == list(cli._COMMANDS)


def test_runtime_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text(json.dumps({"strategy": "nope"}))
    assert main(["distill", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err


@pytest.mark.parametrize("text", ["[]", "null", '"ours"', '{"strategy": "ours"', None])
def test_distill_refuses_a_config_file_that_is_not_an_object(tmp_path, capsys, text):
    bad = tmp_path / "c.json"
    if text is not None:  # None: no such file
        bad.write_text(text)
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(bad), "--out", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConfigError" in captured.err and str(bad) in captured.err
    assert not run_dir.exists()


def test_distill_deterministic_files(config_path, tmp_path, capsys):
    a, b = tmp_path / "runA", tmp_path / "runB"
    assert main(["distill", "--config", str(config_path), "--seed", "7", "--out", str(a)]) == 0
    assert main(["distill", "--config", str(config_path), "--seed", "7", "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "metrics.tsv").read_bytes() == (b / "metrics.tsv").read_bytes()
    assert (a / "stage_2" / "contexts.tsv").read_bytes() == (
        b / "stage_2" / "contexts.tsv"
    ).read_bytes()


def test_eval_and_report(config_path, tmp_path, capsys):
    # enough episodes for the barely trained student's chance successes to tell
    # one set of evaluation seeds from another
    save_config(config_path, ProtocolConfig.from_dict(
        {**load_config(config_path).to_dict(), "eval_episodes": 64}))
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "11",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()

    assert main(["eval", "--out", str(run_dir), "--stage", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "task_id\tsuccess_rate"
    assert len(out) == 5  # header + 4 tasks
    # the checkpoint, scored on the run's own evaluation episodes, gives the
    # run's stage-2 row
    run_matrix = MetricsMatrix.load(run_dir / "metrics.tsv")
    for line in out[1:]:
        task_id, rate = line.split("\t")
        assert float(rate) == run_matrix.value(2, task_id)

    assert main(["report", "--out", str(run_dir)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("stage\tacc\tbwt")
    report_dir = run_dir / "report"
    assert (report_dir / "summary.tsv").exists()
    assert (report_dir / "embeddings.tsv").exists()
    assert (report_dir / "embedding_pca.tsv").exists()
    assert (report_dir / "metrics.tsv").exists()
    assert (report_dir / "routing_layer0.tsv").exists()
    summary = (report_dir / "summary.tsv").read_text().strip().split("\n")
    assert summary[1].split("\t")[2] == "n/a"  # stage-1 BWT undefined
    assert len(summary) == 3

    ids, vecs = load_contexts(report_dir / "embeddings.tsv")
    assert len(ids) == 4 and vecs.shape == (4, 16)
    norms = np.linalg.norm(vecs, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)

    matrix = MetricsMatrix.load(report_dir / "metrics.tsv")
    assert matrix.task_ids == ids


def test_eval_of_an_independent_run_prints_its_metrics_row(config_path, tmp_path, capsys):
    # a fresh student per stage: earlier tasks carry their introduction rates
    save_config(config_path, ProtocolConfig.from_dict(
        {**load_config(config_path).to_dict(), "strategy": "independent"}))
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "11",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["eval", "--out", str(run_dir), "--stage", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    run_matrix = MetricsMatrix.load(run_dir / "metrics.tsv")
    rows = dict(line.split("\t") for line in out[1:])
    assert list(rows) == run_matrix.task_ids
    for task_id, rate in rows.items():
        assert float(rate) == run_matrix.value(2, task_id)


def test_report_is_read_only(config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    main(["distill", "--config", str(config_path), "--seed", "2", "--out", str(run_dir)])
    capsys.readouterr()
    before = {
        p: p.read_bytes()
        for p in run_dir.rglob("*")
        if p.is_file() and "report" not in str(p)
    }
    render_report(run_dir)
    for p, blob in before.items():
        assert p.read_bytes() == blob


def test_eval_refuses_another_run_or_an_incomplete_stage(config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "11",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()

    def refused(run, stage):
        assert main(["eval", "--out", str(run), "--stage", stage]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "StateError" in captured.err
        return captured.err

    # a directory that holds no run's config, a stage the run never reached,
    # and a stage whose state.json (written last) is missing
    bare = tmp_path / "bare"
    shutil.copytree(run_dir / "stage_2", bare / "stage_2")
    assert "config.json" in refused(bare, "2")
    assert "stage_3" in refused(run_dir, "3")
    shutil.copytree(run_dir, tmp_path / "cut")
    (tmp_path / "cut" / "stage_2" / "state.json").unlink()
    assert "stage_2" in refused(tmp_path / "cut", "2")
    # a config.json of another strategy next to the run's stages
    save_config(run_dir / "config.json", ProtocolConfig.from_dict(
        {**load_config(config_path).to_dict(), "strategy": "finetune"}))
    assert "finetune" in refused(run_dir, "2")


def test_report_renders_the_newest_complete_stage(config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "5",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert not (run_dir / "run.json").exists()
    for k in (1, 2):
        assert "counters" not in json.loads((run_dir / f"stage_{k}" / "state.json").read_text())

    # state.json is written last: without it stage 2 is incomplete
    (run_dir / "stage_2" / "state.json").unlink()
    assert main(["report", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    report_dir = run_dir / "report"
    assert (report_dir / "embeddings.tsv").read_bytes() == (
        run_dir / "stage_1" / "contexts.tsv"
    ).read_bytes()

    # a crash leaves no top-level metrics.tsv: the table comes from the
    # newest complete stage
    (run_dir / "metrics.tsv").unlink()
    assert main(["report", "--out", str(run_dir)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("stage\tacc\tbwt\n1\t")
    assert "\n2\t" not in printed
    assert (report_dir / "metrics.tsv").read_bytes() == (
        run_dir / "stage_1" / "metrics.tsv"
    ).read_bytes()

    # with neither the run's table nor a complete stage, a named error
    (run_dir / "stage_1" / "state.json").unlink()
    assert main(["report", "--out", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "StateError" in captured.err


def test_negative_seed_is_a_config_error(config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "-1",
                 "--out", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConfigError" in captured.err and "-1" in captured.err
    assert not run_dir.exists()


def test_resume_refuses_a_changed_config(config_path, tmp_path, capsys, monkeypatch):
    save_config(config_path, ProtocolConfig.from_dict(
        {**load_config(config_path).to_dict(), "n_stages": 1}))
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "3",
                 "--out", str(run_dir)]) == 0
    table = capsys.readouterr().out
    before = tree_bytes(run_dir)
    changed = tmp_path / "changed.json"
    save_config(changed, ProtocolConfig.from_dict(
        {**load_config(config_path).to_dict(), "lr": 3e-3, "epochs_later": 3}))
    for config, extra in ((changed, []), (config_path, ["--strategy", "finetune"])):
        assert main(["distill", "--config", str(config), "--seed", "3",
                     "--out", str(run_dir), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "StateError" in captured.err and "config.json" in captured.err
    assert tree_bytes(run_dir) == before

    # the run's own config continues it: every stage is complete, so nothing
    # trains or changes, and the run's table is printed again
    def no_training(*args):
        raise AssertionError("a finished run trained again")

    monkeypatch.setattr(ProtocolRunner, "_train_step", no_training)
    assert main(["distill", "--config", str(config_path), "--seed", "3",
                 "--out", str(run_dir)]) == 0
    assert capsys.readouterr().out == table
    assert tree_bytes(run_dir) == before


def test_distill_refuses_another_runs_directory(config_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "3",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    before = tree_bytes(run_dir)
    # a shorter run into it would leave stage_2 of this one behind, and a
    # second seed would continue stages trained under the first
    shorter = tmp_path / "shorter.json"
    save_config(shorter, ProtocolConfig.from_dict(
        {**load_config(config_path).to_dict(), "n_stages": 1}))
    for config, seed, names in ((shorter, "3", "config.json"), (config_path, "4", "seed")):
        assert main(["distill", "--config", str(config), "--seed", seed,
                     "--out", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "StateError" in captured.err and names in captured.err
        assert tree_bytes(run_dir) == before

    # without config.json only the newest stage tells the seed, and a
    # refused run writes no config.json beside it
    bare = tmp_path / "bare"
    shutil.copytree(run_dir, bare)
    (bare / "config.json").unlink()
    before = tree_bytes(bare)
    assert main(["distill", "--config", str(config_path), "--seed", "4",
                 "--out", str(bare)]) == 2
    captured = capsys.readouterr()
    assert "StateError" in captured.err and "seed" in captured.err
    assert tree_bytes(bare) == before


def test_distill_refuses_a_run_with_suite_or_lambda_schedule_keys(config_path, tmp_path, capsys):
    # a run directory whose config.json still holds the sections and values
    # that became constants was written under another config format
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(config_path), "--seed", "3",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    saved = json.loads((run_dir / "config.json").read_text())
    removed = {"lambda_schedule": {}, "suite": {}, "weight_decay": 0.0, "infonce_tau": 0.1,
               "infonce_trajs": 32, "ewc_batches": 8, "expansion": {}}
    (run_dir / "config.json").write_text(
        json.dumps({**saved, **removed}, indent=1, sort_keys=True))
    (run_dir / "stage_2" / "state.json").unlink()
    before = tree_bytes(run_dir)
    assert main(["distill", "--config", str(config_path), "--seed", "3",
                 "--out", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "StateError" in captured.err and "config.json" in captured.err
    assert tree_bytes(run_dir) == before

    # eval rebuilds the config, which refuses the removed keys by name
    assert main(["eval", "--out", str(run_dir), "--stage", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ConfigError" in captured.err
    assert all(key in captured.err for key in removed)
    assert tree_bytes(run_dir) == before

    # report reads only the strategy, so it still renders the stage-1 table
    assert main(["report", "--out", str(run_dir)]) == 0
    table = summary_table(MetricsMatrix.load(run_dir / "stage_1" / "metrics.tsv"), "ours")
    assert capsys.readouterr().out.startswith(table + "report written to")
    assert (run_dir / "report" / "config.json").read_bytes() == before[Path("config.json")]


def test_a_stage_of_another_model_config_is_refused(tmp_path, capsys):
    # a float64 run written before float32 became the default: its
    # config.json holds no dtype, so its config now builds a float32 student
    cfg = tiny_cli_config()
    save_config(tmp_path / "c.json", ProtocolConfig.from_dict(
        {**cfg.to_dict(), "model": {**cfg.model, "dtype": "float64"}}))
    run_dir = tmp_path / "run"
    assert main(["distill", "--config", str(tmp_path / "c.json"), "--seed", "3",
                 "--out", str(run_dir)]) == 0
    written = (run_dir / "config.json").read_text()
    saved = json.loads(written)
    del saved["model"]["dtype"]
    (run_dir / "config.json").write_text(json.dumps(saved, indent=1, sort_keys=True))
    before = tree_bytes(run_dir)
    for command, args in (
        ("eval", ["--stage", "2"]),
        ("distill", ["--config", str(run_dir / "config.json"), "--seed", "3"]),
    ):
        capsys.readouterr()
        assert main([command, *args, "--out", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"StateError: {run_dir / 'stage_2' / 'model' / 'manifest.json'} holds a student "
                "of another model config: dtype 'float64', not the run's 'float32'"
                ) in captured.err
        assert tree_bytes(run_dir) == before

    # the run's own dtype in its config.json makes it a run of this config again
    (run_dir / "config.json").write_text(written)
    assert main(["eval", "--stage", "2", "--out", str(run_dir)]) == 0


def _finished(tmp_path_factory, strategy):
    root = tmp_path_factory.mktemp(f"finished_{strategy}")
    cfg = ProtocolConfig.from_dict({**tiny_cli_config().to_dict(), "strategy": strategy})
    save_config(root / "config.json", cfg)
    assert main(["distill", "--config", str(root / "config.json"), "--seed", "3",
                 "--out", str(root / "run")]) == 0
    return root


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished 2-stage ``ours`` run, for tests to copy and damage."""
    return _finished(tmp_path_factory, "ours")


@pytest.fixture(scope="module")
def finished_ewc_run(tmp_path_factory):
    """The same run under ``ewc``, whose stage 1 also holds ``fisher/``."""
    return _finished(tmp_path_factory, "ewc")


def _drop(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def _set_strategy(text):
    return json.dumps({**json.loads(text), "strategy": "nope"})


def _header(edit):
    """A checkpoint manifest text edited in place by ``edit``."""
    def damage(text):
        manifest = json.loads(text)
        edit(manifest)
        return json.dumps(manifest)
    return damage


def _first_line(edit):
    """A JSON-lines text whose first record is edited in place by ``edit``."""
    def damage(text):
        first, rest = text.split("\n", 1)
        record = json.loads(first)
        edit(record)
        return json.dumps(record) + "\n" + rest
    return damage


# a damaged record of stage 1 (text None: the record is removed), read by
# `eval --stage 1` and by `distill` into the ewc run cut back to stage 1, or
# for buffer.jsonl the ours run, which keeps one trajectory of each task
_STAGE_1 = [
    ("metrics.tsv", None, "removed"),
    ("metrics.tsv", "stage\tx", "two cells"),
    ("metrics.tsv", lambda text: text[:text.rindex("\t")] + "\t7.5\n", "rate 7.5"),
    ("metrics.tsv", lambda text: text.replace("intro\t1", "intro\t2", 1), "intro 2"),
    ("metrics.tsv", lambda text: "".join(text.splitlines(keepends=True)[:2]), "no row"),
    ("contexts.tsv", None, "removed"),
    ("contexts.tsv", "a\tnope\n", "non-float"),
    ("contexts.tsv", lambda text: "".join(line[:line.rindex("\t")] + "\n"
                                          for line in text.splitlines()), "dropped column"),
    ("contexts.tsv", lambda text: "nope" + text[text.index("\t"):], "renamed task"),
    ("audits.tsv", "stage\ttask_id\n1\ta\n", "two columns"),
    ("buffer.jsonl", '{"task_id": "a"}\n', "no seed"),
    ("buffer.jsonl", _first_line(lambda rec: rec.update(task_id="nope")), "unknown task"),
    ("buffer.jsonl", _first_line(lambda rec: rec.update(states=rec["states"][:-3])),
     "3 states cut"),
    ("buffer.jsonl", lambda text: text + text, "doubled"),
    ("state.json", lambda text: json.dumps({**json.loads(text), "global_step": "x"}),
     "global_step x"),
    ("state.json", lambda text: json.dumps({**json.loads(text), "seed": True}), "seed true"),
    ("state.json", lambda text: json.dumps({**json.loads(text), "strategy": 1}), "strategy 1"),
    ("model/manifest.json", "[]", "[]"),
    ("optimizer/manifest.json", _drop("extra"), "no extra"),
    *((f"{checkpoint}/manifest.json", _header(edit), label)
      for checkpoint, edit, label in DAMAGED_HEADERS),
    ("fisher/manifest.json", "{", "{"),
    ("fisher/manifest.json", _header(lambda m: m["groups"][0].update(name="nope")),
     "renamed group"),
    ("model/params.bin", "", "empty"),
    ("model/params.bin", None, "removed"),
]


def _cut_back(run_dir):
    """Cut a finished 2-stage run back to stage 1, as a crash in stage 2
    leaves it, so that distill reads stage 1."""
    shutil.rmtree(run_dir / "stage_2")
    (run_dir / "metrics.tsv").unlink()


@pytest.mark.parametrize("record,text,command", [
    ("config.json", "[]", "report"),
    ("config.json", "{", "report"),
    ("config.json", "[]", "distill"),
    ("config.json", "{", "distill"),
    ("stage_2/state.json", "{", "eval"),
    ("stage_2/state.json", "[]", "distill"),
    pytest.param("config.json", _set_strategy, "report", id="config.json-unknown strategy-report"),
    pytest.param("stage_2/metrics.tsv", "stage\tx", "report", id="stage_2/metrics.tsv-two cells-report"),
    pytest.param("stage_2/metrics.tsv", lambda text: text[:text.rindex("\t")] + "\n", "report",
                 id="stage_2/metrics.tsv-short row-report"),
    pytest.param("stage_2/state.json", _drop("seed"), "eval", id="stage_2/state.json-no seed-eval"),
    *(pytest.param(f"stage_1/{name}", text, command, id=f"stage_1/{name}-{label}-{command}")
      for name, text, label in _STAGE_1 for command in ("eval", "distill")),
])
def test_a_damaged_run_record_raises_a_state_error_naming_it(
    finished_run, finished_ewc_run, tmp_path, capsys, record, text, command
):
    stage_1 = record.startswith("stage_1/")
    run = finished_ewc_run if stage_1 and record != "stage_1/buffer.jsonl" else finished_run
    run_dir = shutil.copytree(run / "run", tmp_path / "run")
    if stage_1:
        _cut_back(run_dir)
    path = run_dir / record
    if text is None:
        path.unlink()
    else:
        path.write_text(text(path.read_text()) if callable(text) else text)
    before = tree_bytes(run_dir)
    args = {
        "report": [],
        "distill": ["--config", str(run / "config.json"), "--seed", "3"],
        "eval": ["--stage", "1" if record.startswith("stage_1/") else "2"],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--out", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"StateError: {path}" in captured.err
    assert tree_bytes(run_dir) == before


def test_an_ewc_stage_without_its_fisher_is_refused(finished_ewc_run, tmp_path, capsys):
    # the anchors of stage 2's penalty: without them stage 2 would train as
    # finetune does
    run_dir = shutil.copytree(finished_ewc_run / "run", tmp_path / "run")
    _cut_back(run_dir)
    shutil.rmtree(run_dir / "stage_1" / "fisher")
    before = tree_bytes(run_dir)
    for command, args in (
        ("eval", ["--stage", "1"]),
        ("distill", ["--config", str(finished_ewc_run / "config.json"), "--seed", "3"]),
    ):
        capsys.readouterr()
        assert main([command, *args, "--out", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"StateError: {run_dir / 'stage_1'} has no fisher/" in captured.err
        assert tree_bytes(run_dir) == before
