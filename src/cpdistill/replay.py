"""Diversity-aware trajectory selection for the replay buffer.

Each trajectory is featurized as the concatenation of its state means over
consecutive slices of a fixed SLICE_LEN = 20 steps, not the window the
student reads, so the window changes no selection. Features are centered
and scaled to unit average norm, and the Gram matrix L = V V^T feeds the
selector. Selection strategies: greedy MAP for a determinantal point
process (log-det gain), and seeded random as its ablation. Each selection
is recorded as a `SelectionAudit`; `write_audits` and `read_audits` keep a
run's audits in a stage's ``audits.tsv``. A pool is one task's teacher
trajectories, all of the suite's horizon, and `ProtocolConfig` keeps each
request within it: a known strategy, and 1 <= m <= the pool's size when
replay selects at all. The replay buffer is the list of chosen
trajectories in selection order; its budget is a `ProtocolConfig` rule.

Greedy DPP picks at most as many trajectories by gain as the feature
matrix has rank. An observation is (position, goal), and the goal is fixed
for an episode, so its mean fills the same two columns in both slices: on
the desk config's 30 teacher pools (stream seeds 0-2, 10 tasks each, 96
episodes per pool) every feature matrix had rank 6 of its 8 columns, and
greedy DPP made exactly 6 picks by log-det gain. At the default
``replay_m`` of 8, the max-min fallback in `_greedy_dpp` makes the last 2
picks of each task.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeds
from .checkpoint import read_record, table, write_table

__all__ = [
    "SelectionAudit",
    "write_audits",
    "read_audits",
    "featurize",
    "preprocess_features",
    "build_kernel",
    "select",
    "subset_log_det",
    "select_replay",
    "update_buffer",
]

STRATEGIES = ("dpp", "random")
SLICE_LEN = 20


def featurize(traj) -> np.ndarray:
    """Concatenate per-slice state means; the trajectory's length must be a
    multiple of SLICE_LEN."""
    states = np.asarray(traj.states, dtype=np.float64)[: len(traj.actions)]
    h = states.shape[0]
    return states.reshape(h // SLICE_LEN, SLICE_LEN, -1).mean(axis=1).reshape(-1)


def preprocess_features(features: np.ndarray) -> np.ndarray:
    """Mean-center and scale to unit average norm (raw state scales vary)."""
    v = np.asarray(features, dtype=np.float64)
    v = v - v.mean(axis=0, keepdims=True)
    avg_norm = np.linalg.norm(v, axis=1).mean()
    if avg_norm > 1e-12:
        v = v / avg_norm
    return v


def build_kernel(features) -> np.ndarray:
    """The symmetrized Gram matrix L = V V^T of the feature rows."""
    v = np.asarray(features, dtype=np.float64)
    l = v @ v.T
    return (l + l.T) / 2.0


def subset_log_det(L: np.ndarray, idx) -> float:
    """log det of the principal minor; -inf when singular."""
    idx = np.asarray(sorted(idx), dtype=np.intp)
    sign, logdet = np.linalg.slogdet(L[np.ix_(idx, idx)])
    return logdet if sign > 0 else -np.inf


def _greedy_dpp(L: np.ndarray, m: int, eps: float = 1e-12) -> list[int]:
    """Greedy MAP: repeatedly add the item with the largest log-det gain.

    Incremental Cholesky form: di2[j] tracks the conditional variance of j
    given the current selection, which is exactly the determinant gain.
    Near-singular candidates (gain < eps) are passed over while any
    informative candidate remains.
    """
    n = L.shape[0]
    cis = np.zeros((m, n))
    di2 = np.clip(np.diag(L).copy().astype(np.float64), 0.0, None)
    chosen: list[int] = []
    remaining = np.ones(n, dtype=bool)
    while len(chosen) < m:
        gains = np.where(remaining, di2, -np.inf)
        best = int(np.argmax(gains))  # argmax ties resolve to lowest index
        if gains[best] < eps:
            # everything left is (numerically) dependent; honor the requested
            # m by max-min kernel distance so exact duplicates go last
            while len(chosen) < m:
                best_j, best_d = -1, -np.inf
                for j in range(n):
                    if not remaining[j]:
                        continue
                    if chosen:
                        d = min(L[j, j] - 2.0 * L[j, c] + L[c, c] for c in chosen)
                    else:
                        d = L[j, j]
                    if d > best_d:
                        best_j, best_d = j, d
                chosen.append(best_j)
                remaining[best_j] = False
            break
        k = len(chosen)
        di_opt = np.sqrt(di2[best])
        eis = (L[best, :] - cis[:k, best] @ cis[:k, :]) / di_opt
        cis[k, :] = eis
        di2 = np.clip(di2 - eis * eis, 0.0, None)
        chosen.append(best)
        remaining[best] = False
    return chosen


def select(
    features: np.ndarray,
    m: int,
    strategy: str,
    seed: int = 0,
) -> list[int]:
    """Pick m pool indices, by seeded ``random`` choice or else greedy DPP.
    Deterministic for a given seed and strategy."""
    features = np.asarray(features, dtype=np.float64)
    if strategy == "random":
        rng = seeds.rng(seed)
        return [int(i) for i in rng.choice(features.shape[0], size=m, replace=False)]
    return _greedy_dpp(build_kernel(features), m)


# ---------------------------------------------------------------------------
# the buffer and its audits


@dataclass
class SelectionAudit:
    stage: int
    task_id: str
    strategy: str
    seed: int
    chosen_ids: list[str]
    log_det: float


def write_audits(path, audits: list[SelectionAudit]) -> None:
    """One table row per audit, under a header; the chosen ids are joined
    by ``;``."""
    write_table(path, [
        ["stage", "task_id", "strategy", "seed", "log_det", "chosen_ids"],
        *([a.stage, a.task_id, a.strategy, a.seed, a.log_det, ";".join(a.chosen_ids)]
          for a in audits),
    ])


def _audit(stage, task_id, strategy, seed, log_det, chosen) -> SelectionAudit:
    chosen_ids = chosen.split(";") if chosen else []
    return SelectionAudit(int(stage), task_id, strategy, int(seed), chosen_ids, float(log_det))


def read_audits(path) -> list[SelectionAudit]:
    """The audits `write_audits` wrote, field for field."""
    return read_record(path, lambda text: [_audit(*cells) for cells in table(text)[1:]])


def update_buffer(buffer: list, selected: list) -> list:
    """Append the selected trajectories to the buffer."""
    buffer.extend(selected)
    return buffer


def select_replay(
    trajs: list,
    m: int,
    strategy: str,
    seed: int = 0,
    stage: int = 0,
) -> tuple[list, SelectionAudit]:
    """Full pipeline for one task: featurize, preprocess, select, audit."""
    feats = [featurize(t) for t in trajs]
    prepped = preprocess_features(np.stack(feats))
    idx = select(prepped, m, strategy=strategy, seed=seed)
    log_det = subset_log_det(build_kernel(prepped), idx)
    chosen = [trajs[i] for i in idx]
    audit = SelectionAudit(
        stage=stage,
        task_id=trajs[0].task_id,
        strategy=strategy,
        seed=seed,
        chosen_ids=[f"{trajs[i].task_id}:{trajs[i].seed}" for i in idx],
        log_det=log_det,
    )
    return chosen, audit
