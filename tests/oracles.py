"""Reference implementations the tests compare the program against.

None of these run in a protocol: finite-difference gradients, the
exhaustive DPP MAP, the small helpers the tests build on them, and the
damaged checkpoint headers that the checkpoint readers must refuse.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from cpdistill import tensor as T
from cpdistill.errors import InputError, NumericError
from cpdistill.optim import AdamW, ParamGroup
from cpdistill.taskctx import traj_stats
from cpdistill.tensor import Tensor


def eval_with_gradients(
    computation: Callable[[], Tensor], groups: Iterable[ParamGroup]
) -> tuple[float, dict[str, np.ndarray]]:
    """Run a scalar-producing computation and collect per-group gradients.

    Returns the loss value and a dict mapping each trainable group's name to
    the exact gradient of the scalar w.r.t. that group. Frozen groups get no
    entry. Trainable groups untouched by the computation get zeros.
    """
    groups = list(groups)
    for g in groups:
        g.tensor.grad = None
    loss = computation()
    if loss.data.size != 1:
        raise NumericError("computation did not reduce to a scalar")
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is non-finite")
    loss.backward()
    grads: dict[str, np.ndarray] = {}
    for g in groups:
        if not g.trainable:
            continue
        grads[g.name] = (
            g.tensor.grad if g.tensor.grad is not None else np.zeros_like(g.tensor.data)
        )
    return loss.item(), grads


def finite_difference_grads(
    computation: Callable[[], Tensor],
    groups: Iterable[ParamGroup],
    h: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central-difference gradients, the oracle the analytic path is checked
    against. O(2 * n_params) evaluations; use small probes."""
    out: dict[str, np.ndarray] = {}
    for g in groups:
        if not g.trainable:
            continue
        data = g.tensor.data
        fd = np.zeros_like(data)
        flat = data.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = computation().item()
            flat[i] = orig - h
            down = computation().item()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * h)
        out[g.name] = fd
    return out


def step_with(opt: AdamW, grads: Mapping[str, np.ndarray]) -> None:
    """One AdamW step from an explicit gradient per group name; a group
    with no entry gets no gradient and is skipped."""
    for g in opt.groups:
        g.tensor.grad = grads.get(g.name)
    opt.step()


def mse(pred: Tensor, target) -> Tensor:
    """Mean over all entries of the squared difference, composed from the
    kernels."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=pred.dtype))
    d = pred - target
    return T.tmean(d * d)


def exact_dpp(L: np.ndarray, m: int) -> list[int]:
    """The m-subset of largest Gram determinant, by exhaustive search."""
    n = L.shape[0]
    if n > 15 or m > 5:
        raise ValueError("exact DPP search is limited to n <= 15, m <= 5")
    best_det, best_subset = -np.inf, None
    for subset in combinations(range(n), m):
        det = np.linalg.det(L[np.ix_(subset, subset)])
        if det > best_det:
            best_det, best_subset = det, subset
    return list(best_subset)


def check_kernel(L: np.ndarray, sym_tol: float = 1e-10, psd_tol: float = -1e-8) -> None:
    """A DPP kernel must be symmetric and positive semidefinite."""
    if not np.allclose(L, L.T, atol=sym_tol, rtol=0):
        raise InputError("kernel is not symmetric")
    if np.linalg.eigvalsh(L).min() < psd_tol:
        raise InputError("kernel is not positive semidefinite")


def predict_one(model, window: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The student's action mean for one (t, obs) state window."""
    return model.predict_batch(np.asarray(window)[None], np.asarray(z)[None])[0]


def encode_trajectory(encoder, traj, n_chunks: int = 8) -> np.ndarray:
    """One trajectory's unit-norm embedding, with no graph."""
    with T.no_grad():
        return encoder.encode(traj_stats(traj, n_chunks)[None, :]).data[0]


def tree_bytes(d) -> dict:
    """Every file under ``d``, by its path relative to ``d``, to its bytes."""
    return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def _rename_first_moments(manifest: dict) -> None:
    t = manifest["extra"]["optimizer"]["t"]
    t["nope"] = t.pop(manifest["groups"][0]["name"][:-2])
    for entry in manifest["groups"][:2]:
        entry["name"] = "nope" + entry["name"][-2:]


def _widen_first_moment(manifest: dict) -> None:
    manifest["groups"][0]["shape"][-1] += 1


def _other_dtype_first(manifest: dict) -> None:
    """The first group stored in the other precision, at the same offset."""
    entry = manifest["groups"][0]
    entry["dtype"] = {"<f4": "<f8", "<f8": "<f4"}[entry["dtype"]]


# (checkpoint, edit of its parsed manifest.json, label): each header the
# reader of a saved model/ or optimizer/ manifest.json refuses. An optimizer
# stores each group's moments as <group>.m and <group>.v, in group order.
DAMAGED_HEADERS = [
    *(("model", lambda m, key=key: m["extra"].pop(key), f"no {key}")
      for key in ("config", "expert_counts", "new_expert_start")),
    ("optimizer", lambda m: m["extra"]["optimizer"].pop("t"), "no t"),
    ("optimizer", lambda m: m["extra"]["optimizer"]["t"].update(nope=1), "t names differ"),
    ("optimizer", lambda m: m["groups"].pop(1), ".m without .v"),
    ("optimizer", lambda m: m["groups"].pop(0), ".v without .m"),
    ("optimizer", _rename_first_moments, "moment of an unknown group"),
    ("optimizer", _widen_first_moment, "moment larger than its group"),
    ("model", _other_dtype_first, "group of another dtype"),
    ("optimizer", _other_dtype_first, "moment of another dtype"),
]
