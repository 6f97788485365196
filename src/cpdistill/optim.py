"""Parameter groups, the gradient contract, and AdamW with freeze masks."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .tensor import NumericError, Tensor

__all__ = ["ParamGroup", "AdamW", "eval_with_gradients", "finite_difference_grads"]


@dataclass
class ParamGroup:
    """A named parameter tensor plus its trainability flag.

    The flag and ``tensor.requires_grad`` are kept in sync through
    ``set_trainable``; a frozen group's values are bit-identical before and
    after any optimizer step.
    """

    name: str
    tensor: Tensor
    trainable: bool = True

    def __post_init__(self):
        self.tensor.requires_grad = self.trainable

    def set_trainable(self, flag: bool) -> None:
        self.trainable = bool(flag)
        self.tensor.requires_grad = self.trainable


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


@dataclass
class AdamW:
    """Decoupled-weight-decay Adam over ParamGroups.

    Frozen groups are skipped entirely (no decay, no moment update), so their
    values stay bit-identical. Moments for groups first seen mid-run start at
    zero, and a group whose shape grew (gate expansion) has its moments
    corner-embedded into the new shape with zeros in the new slots.
    bias-correction counts are per group so late-added groups warm up like
    fresh Adam; ``step_count`` is the global monotone counter.
    """

    groups: list[ParamGroup]
    lr: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.groups = list(self.groups)

    def zero_grad(self) -> None:
        for g in self.groups:
            g.tensor.grad = None

    def _state_for(self, name: str, shape: tuple[int, ...], dtype) -> None:
        if name not in self.m:
            self.m[name] = np.zeros(shape, dtype=dtype)
            self.v[name] = np.zeros(shape, dtype=dtype)
            self.t[name] = 0
        elif self.m[name].shape != shape:
            for store in (self.m, self.v):
                grown = np.zeros(shape, dtype=dtype)
                old = store[name]
                grown[tuple(slice(0, n) for n in old.shape)] = old
                store[name] = grown

    def step(self, grads: Mapping[str, np.ndarray] | None = None) -> None:
        """Apply one update. Gradients come from ``grads`` or, when omitted,
        from each group tensor's accumulated ``.grad``."""
        b1, b2 = self.betas
        for g in self.groups:
            if not g.trainable:
                continue
            grad = grads.get(g.name) if grads is not None else g.tensor.grad
            if grad is None:
                continue
            p = g.tensor.data
            if grad.shape != p.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match group "
                    f"{g.name} shape {p.shape}"
                )
            self._state_for(g.name, p.shape, p.dtype)
            self.t[g.name] += 1
            tg = self.t[g.name]
            m = self.m[g.name]
            v = self.v[g.name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            mhat = m / (1.0 - b1**tg)
            vhat = v / (1.0 - b2**tg)
            delta = self.lr * (mhat / (np.sqrt(vhat) + self.eps))
            if self.weight_decay:
                delta += self.lr * self.weight_decay * p
            p -= delta
        self.step_count += 1

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "betas": list(self.betas),
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self.step_count,
            "t": dict(self.t),
        }

    def load_state(self, state: dict, m: dict[str, np.ndarray], v: dict[str, np.ndarray]) -> None:
        self.lr = float(state["lr"])
        self.betas = tuple(state["betas"])  # type: ignore[assignment]
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self.step_count = int(state["step_count"])
        self.t = {k: int(x) for k, x in state["t"].items()}
        self.m = m
        self.v = v
