"""Read-only rendering of run artifacts: the Acc/BWT table, per-layer
routing-load histograms, the task-embedding dump and its 2-D PCA
projection, and a config echo, all from the run's newest complete stage
(see `cpdistill.continual` for the run-directory layout). For a finished
run that stage's `metrics.tsv` is the run's top-level one; a directory
with no complete stage gets the table of its top-level `metrics.tsv`
alone. Output is tabular text; plotting is left to external tooling."""
from __future__ import annotations

import shutil
from pathlib import Path

from .checkpoint import json_object, read_record, table_text, write_table
from .config import STRATEGY_TRAITS
from .continual import completed_stages
from .errors import StateError
from .metrics import MetricsMatrix, accuracy, bwt, pca_project
from .taskctx import load_contexts

__all__ = ["summary_table", "render_report"]


def _summary_rows(matrix: MetricsMatrix, strategy: str | None) -> list[list]:
    fresh = strategy is not None and STRATEGY_TRAITS[strategy].fresh_model
    return [["stage", "acc", "bwt"]] + [
        [k, accuracy(matrix, k), "n/a" if k < 2 or fresh else bwt(matrix, k)]
        for k in matrix.stages()
    ]


def summary_table(matrix: MetricsMatrix, strategy: str | None = None) -> str:
    """Per-stage Acc and BWT; BWT is n/a at stage 1 and for a fresh-model
    strategy (no continuity between its per-stage models)."""
    return table_text(_summary_rows(matrix, strategy))


def _strategy(text: str) -> str | None:
    """The strategy of a ``config.json``, None when it names none."""
    strategy = json_object(text).get("strategy")
    if strategy is not None and strategy not in STRATEGY_TRAITS:
        raise StateError(f"it names an unknown strategy {strategy!r}")
    return strategy


def render_report(run_dir) -> Path:
    """Render ``run_dir/report`` from a finished (or partial) run. Raises
    `StateError`, writing nothing, when the run has neither a complete stage
    nor a `metrics.tsv`, or a record it reads is damaged: ``config.json``
    holds no JSON object or an unknown strategy, or the stage's
    ``metrics.tsv`` or ``contexts.tsv`` does not parse."""
    run_dir = Path(run_dir)
    done = completed_stages(run_dir)
    last = run_dir / f"stage_{done[-1]}" if done else None
    metrics = (last or run_dir) / "metrics.tsv"
    if not metrics.exists():
        raise StateError(f"{run_dir} has no complete stage and no metrics.tsv")
    config_path = run_dir / "config.json"
    has_config = config_path.exists()
    strategy = read_record(config_path, _strategy) if has_config else None
    summary = _summary_rows(MetricsMatrix.load(metrics), strategy)
    ids, vecs = load_contexts(last / "contexts.tsv") if last else ([], None)

    report_dir = run_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    if has_config:
        shutil.copyfile(config_path, report_dir / "config.json")
    shutil.copyfile(metrics, report_dir / "metrics.tsv")
    write_table(report_dir / "summary.tsv", summary)
    if last is None:
        return report_dir
    shutil.copyfile(last / "contexts.tsv", report_dir / "embeddings.tsv")
    if len(ids) >= 2:
        coords, fractions = pca_project(vecs)
        write_table(report_dir / "embedding_pca.tsv", [
            ["# explained_variance", *fractions],
            ["task_id", "pc1", "pc2"],
            *([tid, x, y] for tid, (x, y) in zip(ids, coords)),
        ])
    shutil.copyfile(last / "audits.tsv", report_dir / "audits.tsv")
    for hist in last.glob("routing_layer*.tsv"):
        shutil.copyfile(hist, report_dir / hist.name)
    return report_dir
