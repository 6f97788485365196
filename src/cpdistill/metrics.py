"""Success-rate bookkeeping across stages: the lower-triangular matrix of
per-task rates, average accuracy, backward transfer, and the PCA projection
used for embedding plots. Serialization is exact (repr floats) so derived
values recompute bit-identically from disk.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import read_record, table, write_table
from .errors import StateError

__all__ = [
    "MetricsMatrix",
    "accuracy",
    "bwt",
    "pca_project",
]


@dataclass
class MetricsMatrix:
    """a[k][j]: success rate on task j after stage k, for tasks introduced by
    stage k. Rows are stages (1-based), columns follow introduction order.

    Each matrix a run saves, and each that `load` accepts, has rows for
    stages 1..K, each task introduced at one of them and at least one at
    stage 1, and in row k a rate in [0, 1] for each task introduced by stage
    k and NaN for each later one. `accuracy` and `bwt` read such a matrix
    and check nothing."""

    task_ids: list[str] = field(default_factory=list)
    intro_stage: list[int] = field(default_factory=list)
    rows: dict[int, np.ndarray] = field(default_factory=dict)

    def add_task(self, task_id: str, stage: int) -> None:
        self.task_ids.append(task_id)
        self.intro_stage.append(stage)
        for k in self.rows:
            self.rows[k] = np.append(self.rows[k], np.nan)

    def record(self, stage: int, task_id: str, rate: float) -> None:
        if stage not in self.rows:
            self.rows[stage] = np.full(len(self.task_ids), np.nan)
        self.rows[stage][self.task_ids.index(task_id)] = rate

    def value(self, stage: int, task_id: str) -> float:
        return float(self.rows[stage][self.task_ids.index(task_id)])

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
        last = len(rows)
        if [int(cells[0]) for cells in rows] != list(range(1, last + 1)):
            raise StateError(f"its rows are not stages 1..{last}")
        if 1 not in matrix.intro_stage or not all(1 <= s <= last for s in matrix.intro_stage):
            raise StateError(f"it does not introduce each task at a stage in 1..{last}, "
                             "and one at stage 1")
        intro_at = np.array(matrix.intro_stage)
        for k, cells in enumerate(rows, 1):
            rates = np.array([float(c) for c in cells[1:]])
            in_range = (rates >= 0.0) & (rates <= 1.0)
            if not np.where(intro_at <= k, in_range, np.isnan(rates)).all():
                raise StateError(f"its stage {k} row does not hold a rate in [0, 1] for each "
                                 f"task introduced by stage {k} and NaN for each later one")
            matrix.rows[k] = rates
        return matrix


def accuracy(matrix: MetricsMatrix, stage: int) -> float:
    """Mean success rate over every task introduced by the stage."""
    return float(matrix.rows[stage][matrix.tasks_through(stage)].mean())


def bwt(matrix: MetricsMatrix, stage: int) -> float:
    """Mean change on earlier tasks relative to their introduction-stage
    rate; negative means forgetting. Defined from stage 2 on."""
    return float(np.mean([matrix.rows[stage][j] - matrix.rows[intro][j]
                          for j, intro in enumerate(matrix.intro_stage) if intro < stage]))


def pca_project(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-centered projection of two or more vectors onto the top-2
    principal axes.

    Sign convention: each axis's largest-magnitude loading is positive.
    Returns (coords (n, 2), explained-variance fractions (2,)); identical
    inputs give zero coordinates and zero fractions.
    """
    x = np.asarray(embeddings, dtype=np.float64)
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
