"""Contrastive task embeddings inferred from trajectory statistics.

A trajectory is summarized as a fixed number of chunk means over its
(state, action, reward) triples, pushed through a two-layer encoder and
L2-normalized into a 16-dim context vector. The encoder trains with an
InfoNCE objective where positives are same-task trajectories; at policy
time each task gets one cached context vector, the renormalized mean of
its support-trajectory embeddings. A run stores the cached vectors in
`contexts.tsv` (`write_contexts`, `load_contexts`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import read_record, table, write_table
from .optim import ParamGroup
from .tensor import Tensor

__all__ = [
    "ContrastiveBatch",
    "TaskEncoder",
    "ContextProvider",
    "traj_stats",
    "infonce_loss",
    "task_context_for",
    "write_contexts",
    "load_contexts",
]


def traj_stats(traj, n_chunks: int) -> np.ndarray:
    """Chunk-mean featurization: per chunk the mean state, mean action and
    mean reward, concatenated in chunk order (reward last in each triple)."""
    actions = np.asarray(traj.actions, dtype=np.float64)
    rewards = np.asarray(traj.rewards, dtype=np.float64)
    states = np.asarray(traj.states, dtype=np.float64)[: len(actions)]
    parts = []
    for chunk in np.array_split(np.arange(len(actions)), n_chunks):
        if chunk.size == 0:
            chunk = np.array([len(actions) - 1])
        parts.append(states[chunk].mean(axis=0))
        parts.append(actions[chunk].mean(axis=0))
        parts.append(rewards[chunk].mean(keepdims=True))
    return np.concatenate(parts)


class TaskEncoder:
    """Two-layer feed-forward encoder producing unit-norm embeddings, in the
    dtype of its groups. The student's layout (`cpdistill.model._layout`)
    holds the four groups, ``taskenc.w1``, ``b1``, ``w2`` and ``b2``."""

    def __init__(self, w1: ParamGroup, b1: ParamGroup, w2: ParamGroup, b2: ParamGroup):
        self.groups = [w1, b1, w2, b2]
        self.input_dim = w1.tensor.shape[0]

    def encode(self, stats: np.ndarray) -> Tensor:
        """(B, input_dim) statistics -> (B, embed_dim) unit-norm embeddings."""
        w1, b1, w2, b2 = (g.tensor for g in self.groups)
        stats = np.atleast_2d(np.asarray(stats, dtype=w1.dtype))
        h = T.gelu(Tensor(stats) @ w1 + b1)
        z = h @ w2 + b2
        norm = T.sqrt(T.tsum(z * z, axis=1, keepdims=True) + 1e-12)
        return z / norm


@dataclass
class ContrastiveBatch:
    embeddings: Tensor  # (B, embed_dim), unit-norm rows
    labels: np.ndarray  # (B,) task labels
    temperature: float = 0.1


def infonce_loss(batch: ContrastiveBatch) -> Tensor:
    """Mean over anchors of -log( sum_pos exp(sim/tau) / sum_others exp(sim/tau) ).

    Similarity is cosine (embeddings are unit-norm, so a plain dot product).
    Anchors without an in-batch positive are excluded; the batch must hold
    at least one positive pair, as each one the training step draws does.
    """
    z = batch.embeddings
    labels = np.asarray(batch.labels)
    n = z.shape[0]
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)
    pos_mask = (same & ~eye).astype(np.float64)
    cand_mask = (~eye).astype(np.float64)
    included = np.nonzero(pos_mask.any(axis=1))[0]

    sims = z @ T.transpose(z, (1, 0))
    scaled = sims * (1.0 / batch.temperature)
    # row-max over candidates, detached: cancels in the ratio, keeps exp tame
    row_max = np.where(eye, -np.inf, scaled.data).max(axis=1, keepdims=True)
    e = T.exp(scaled - Tensor(row_max.astype(z.dtype)))
    pos_sum = T.tsum(e * Tensor(pos_mask.astype(z.dtype)), axis=1)
    cand_sum = T.tsum(e * Tensor(cand_mask.astype(z.dtype)), axis=1)
    per_anchor = T.log(T.take_rows(cand_sum, included)) - T.log(
        T.take_rows(pos_sum, included)
    )
    return T.tmean(per_anchor)


def task_context_for(
    encoder: TaskEncoder, support_trajs: list, n_chunks: int
) -> np.ndarray:
    """Renormalized mean of the (one or more) support trajectories'
    embeddings."""
    stats = np.stack([traj_stats(t, n_chunks) for t in support_trajs])
    with T.no_grad():
        z = encoder.encode(stats).data
    mean = z.mean(axis=0)
    norm = np.sqrt((mean * mean).sum() + 1e-12)
    return mean / norm


@dataclass
class ContextProvider:
    """Per-task context cache. Current-stage tasks may be refreshed while the
    stage is open; once a stage closes its contexts stay as last computed."""

    encoder: TaskEncoder
    n_chunks: int
    support: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def set_support(self, task_id: str, trajs: list) -> None:
        self.support[task_id] = list(trajs)

    def refresh(self, task_ids) -> None:
        for tid in task_ids:
            self.cache[tid] = task_context_for(
                self.encoder, self.support[tid], self.n_chunks
            )

    def get(self, task_id: str) -> np.ndarray:
        return self.cache[task_id]

    def context_matrix(self, task_ids) -> np.ndarray:
        return np.stack([self.get(t) for t in task_ids])


def write_contexts(path, contexts: dict, task_ids) -> None:
    """`contexts.tsv`: one line per task of ``task_ids`` that ``contexts``
    holds, its id then its vector."""
    write_table(path, ([tid, *contexts[tid]] for tid in task_ids if tid in contexts))


def _parse_contexts(text: str) -> tuple[list[str], np.ndarray]:
    rows = table(text)
    vectors = np.array([[float(c) for c in cells[1:]] for cells in rows])
    return [cells[0] for cells in rows], vectors


def load_contexts(path) -> tuple[list[str], np.ndarray]:
    """The task ids and context vectors `write_contexts` wrote, in order."""
    return read_record(path, _parse_contexts)
