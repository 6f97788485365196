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

from .config import STRATEGY_TRAITS, read_json_object
from .continual import completed_stages
from .errors import StateError
from .metrics import MetricsMatrix, accuracy, bwt, pca_project
from .taskctx import load_contexts

__all__ = ["summary_table", "render_report"]


def summary_table(matrix: MetricsMatrix, strategy: str | None = None) -> str:
    """Per-stage Acc and BWT; BWT is n/a at stage 1 and for a fresh-model
    strategy (no continuity between its per-stage models)."""
    fresh = strategy is not None and STRATEGY_TRAITS[strategy].fresh_model
    lines = ["stage\tacc\tbwt"]
    for k in matrix.stages():
        acc = accuracy(matrix, k)
        b = "n/a" if k < 2 or fresh else repr(bwt(matrix, k))
        lines.append(f"{k}\t{repr(acc)}\t{b}")
    return "\n".join(lines) + "\n"


def render_report(run_dir, report_dir=None) -> Path:
    """Render a report directory from a finished (or partial) run. Raises
    `StateError`, writing nothing, when the run has neither a complete stage
    nor a `metrics.tsv`, or its ``config.json`` holds no JSON object."""
    run_dir = Path(run_dir)
    done = completed_stages(run_dir)
    last = run_dir / f"stage_{done[-1]}" if done else None
    metrics = (last or run_dir) / "metrics.tsv"
    if not metrics.exists():
        raise StateError(f"{run_dir} has no complete stage and no metrics.tsv")
    config_path = run_dir / "config.json"
    has_config = config_path.exists()
    strategy = read_json_object(config_path).get("strategy") if has_config else None
    report_dir = Path(report_dir) if report_dir else run_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    if has_config:
        shutil.copyfile(config_path, report_dir / "config.json")

    shutil.copyfile(metrics, report_dir / "metrics.tsv")
    (report_dir / "summary.tsv").write_text(summary_table(MetricsMatrix.load(metrics), strategy))

    if last is None:
        return report_dir
    shutil.copyfile(last / "contexts.tsv", report_dir / "embeddings.tsv")
    ids, vecs = load_contexts(last / "contexts.tsv")
    if len(ids) >= 2:
        coords, fractions = pca_project(vecs)
        lines = [
            "# explained_variance\t" + "\t".join(repr(float(f)) for f in fractions),
            "task_id\tpc1\tpc2",
        ]
        for tid, (x, y) in zip(ids, coords):
            lines.append(f"{tid}\t{repr(float(x))}\t{repr(float(y))}")
        (report_dir / "embedding_pca.tsv").write_text("\n".join(lines) + "\n")
    shutil.copyfile(last / "audits.tsv", report_dir / "audits.tsv")
    for hist in last.glob("routing_layer*.tsv"):
        shutil.copyfile(hist, report_dir / hist.name)
    return report_dir
