"""Parameter groups, and Adam over them (Kingma & Ba, arXiv:1412.6980) with
BETAS (0.9, 0.999), EPS 1e-8 and no weight decay: AdamW (Loshchilov &
Hutter, arXiv:1711.05101) at decay 0. Its state is the learning rate, a
run's config value, and per group the moments m and v and step count t."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .tensor import Tensor

__all__ = ["ParamGroup", "AdamW", "BETAS", "EPS"]

BETAS = (0.9, 0.999)
EPS = 1e-8


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


@dataclass
class AdamW:
    """Adam over ParamGroups. Frozen groups are skipped (no moment update),
    so their values stay bit-identical. Moments for groups first seen
    mid-run start at zero, and a group whose shape grew (gate expansion) has
    its moments corner-embedded into the new shape with zeros in the new
    slots. Step counts are per group, so late-added groups warm up like
    fresh Adam."""

    groups: list[ParamGroup]
    lr: float
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
            return
        for store in (self.m, self.v):
            old = store[name]
            if old.shape != shape:
                grown = np.zeros(shape, dtype=dtype)
                grown[tuple(slice(0, n) for n in old.shape)] = old
                store[name] = grown

    def step(self) -> None:
        """Apply one update from each trainable group tensor's accumulated
        ``.grad``; a group with no gradient is skipped."""
        b1, b2 = BETAS
        for g in self.groups:
            if not g.trainable:
                continue
            grad = g.tensor.grad
            if grad is None:
                continue
            p = g.tensor.data
            if grad.shape != p.shape:
                raise DimensionError(
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
            p -= self.lr * (mhat / (np.sqrt(vhat) + EPS))
