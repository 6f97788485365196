"""Success-rate bookkeeping across stages: the lower-triangular matrix of
per-task rates, average accuracy, backward transfer, and the PCA projection
used for embedding plots. Serialization is exact (repr floats) so derived
values recompute bit-identically from disk.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_record, table, write_table
from .errors import InputError, StateError

__all__ = [
    "MetricsMatrix",
    "accuracy",
    "bwt",
    "pca_project",
]


@dataclass
class MetricsMatrix:
    """a[k][j]: success rate on task j after stage k, for tasks introduced by
    stage k. Rows are stages (1-based), columns follow introduction order."""

    task_ids: list[str] = field(default_factory=list)
    intro_stage: list[int] = field(default_factory=list)
    rows: dict[int, np.ndarray] = field(default_factory=dict)

    def add_task(self, task_id: str, stage: int) -> None:
        if task_id in self.task_ids:
            raise InputError(f"task {task_id} already registered")
        self.task_ids.append(task_id)
        self.intro_stage.append(stage)
        for k in self.rows:
            self.rows[k] = np.append(self.rows[k], np.nan)

    def record(self, stage: int, task_id: str, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InputError(f"success rate {rate} outside [0, 1]")
        j = self._column(task_id)
        if stage not in self.rows:
            self.rows[stage] = np.full(len(self.task_ids), np.nan)
        self.rows[stage][j] = rate

    def value(self, stage: int, task_id: str) -> float:
        j = self._column(task_id)
        if stage not in self.rows:
            raise InputError(f"no row recorded for stage {stage}")
        return float(self.rows[stage][j])

    def _column(self, task_id: str) -> int:
        if task_id not in self.task_ids:
            raise InputError(f"task {task_id} was never added to the matrix")
        return self.task_ids.index(task_id)

    def stages(self) -> list[int]:
        return sorted(self.rows)

    def tasks_through(self, stage: int) -> list[int]:
        return [j for j, s in enumerate(self.intro_stage) if s <= stage]

    # ------------------------------------------------------------------
    # ``metrics.tsv``: a `cpdistill.checkpoint` table

    def save(self, path) -> None:
        write_table(path, [
            ["stage", *self.task_ids],
            ["intro", *self.intro_stage],
            *([k, *self.rows[k]] for k in self.stages()),
        ])

    @classmethod
    def load(cls, path) -> "MetricsMatrix":
        return read_record(path, cls._parse)

    @classmethod
    def _parse(cls, text: str) -> "MetricsMatrix":
        header, intro, *rows = table(text)
        if header[0] != "stage" or intro[0] != "intro":
            raise StateError("it is not a metrics matrix")
        if any(len(cells) != len(header) for cells in (intro, *rows)):
            raise StateError("its rows differ in length")
        matrix = cls(task_ids=header[1:], intro_stage=[int(s) for s in intro[1:]])
        for cells in rows:
            rates = np.array([float(c) for c in cells[1:]])
            if ((rates < 0.0) | (rates > 1.0)).any():  # NaN, a task not yet seen, passes
                raise StateError(f"its stage {cells[0]} row holds a rate outside [0, 1]")
            matrix.rows[int(cells[0])] = rates
        return matrix


def accuracy(matrix: MetricsMatrix, stage: int) -> float:
    """Mean success rate over every task introduced by the stage."""
    if stage not in matrix.rows:
        raise InputError(f"no row recorded for stage {stage}")
    cols = matrix.tasks_through(stage)
    if not cols:
        raise InputError(f"no tasks introduced by stage {stage}")
    vals = matrix.rows[stage][cols]
    if np.isnan(vals).any():
        missing = [matrix.task_ids[c] for c in cols if np.isnan(matrix.rows[stage][c])]
        raise InputError(f"stage {stage} row missing entries for {missing}")
    return float(vals.mean())


def bwt(matrix: MetricsMatrix, stage: int) -> float:
    """Mean change on earlier tasks relative to their introduction-stage
    rate; negative means forgetting. Undefined at stage 1."""
    if stage < 2:
        raise InputError("backward transfer needs at least two stages")
    if stage not in matrix.rows:
        raise InputError(f"no row recorded for stage {stage}")
    diffs = []
    for j, intro in enumerate(matrix.intro_stage):
        if intro >= stage:
            continue
        now = matrix.rows[stage][j]
        then = matrix.rows[intro][j] if intro in matrix.rows else np.nan
        if np.isnan(now) or np.isnan(then):
            raise InputError(f"missing entries for task {matrix.task_ids[j]}")
        diffs.append(now - then)
    if not diffs:
        raise InputError(f"no earlier tasks at stage {stage}")
    return float(np.mean(diffs))


def pca_project(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-centered projection onto the top-2 principal axes.

    Sign convention: each axis's largest-magnitude loading is positive.
    Returns (coords (n, 2), explained-variance fractions (2,)); identical
    inputs give zero coordinates and zero fractions.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError("pca_project needs at least two vectors")
    centered = x - x.mean(axis=0, keepdims=True)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    total = (svals**2).sum()
    if total < 1e-24:
        return np.zeros((x.shape[0], 2)), np.zeros(2)
    coords = np.zeros((x.shape[0], 2))
    fractions = np.zeros(2)
    for comp in range(min(2, len(svals))):
        axis = vt[comp]
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        coords[:, comp] = centered @ axis
        fractions[comp] = svals[comp] ** 2 / total
    return coords, fractions
