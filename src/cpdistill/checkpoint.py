"""Checkpoint container: a JSON manifest plus one flat binary of values.

Layout of a checkpoint directory:

    manifest.json   group table [{name, dtype, shape, trainable, offset, nbytes}]
                    plus an arbitrary "extra" header (model config, stage, ...)
    params.bin      row-major little-endian values, one contiguous segment per
                    group at the manifest offset

Round-trips are bit-exact; that is the whole point of the format.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import StateError
from .optim import AdamW, ParamGroup
from .tensor import Tensor

__all__ = ["save_groups", "load_groups", "save_optimizer", "load_optimizer"]

_FORMAT = "cpdistill-params-v1"


def _le_dtype(dtype: np.dtype) -> str:
    kind = np.dtype(dtype)
    if kind == np.float64:
        return "<f8"
    if kind == np.float32:
        return "<f4"
    raise StateError(f"unsupported checkpoint dtype {dtype}")


def save_groups(path, groups: list[ParamGroup], extra: dict | None = None) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    table = []
    blobs = []
    offset = 0
    for g in groups:
        raw = np.ascontiguousarray(g.tensor.data).astype(
            _le_dtype(g.tensor.data.dtype), copy=False
        )
        buf = raw.tobytes()
        table.append(
            {
                "name": g.name,
                "dtype": _le_dtype(g.tensor.data.dtype),
                "shape": list(g.tensor.data.shape),
                "trainable": bool(g.trainable),
                "offset": offset,
                "nbytes": len(buf),
            }
        )
        blobs.append(buf)
        offset += len(buf)
    manifest = {"format": _FORMAT, "groups": table, "extra": extra or {}}
    (path / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    (path / "params.bin").write_bytes(b"".join(blobs))


def load_groups(path) -> tuple[list[ParamGroup], dict]:
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if manifest.get("format") != _FORMAT:
        raise StateError(f"unrecognized checkpoint format in {path}")
    blob = (path / "params.bin").read_bytes()
    groups = []
    for entry in manifest["groups"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(
            blob, dtype=dtype, count=count, offset=entry["offset"]
        ).reshape(shape)
        arr = arr.astype(dtype.newbyteorder("="), copy=True)
        groups.append(
            ParamGroup(entry["name"], Tensor(arr), trainable=entry["trainable"])
        )
    return groups, manifest.get("extra", {})


def save_optimizer(path, opt: AdamW) -> None:
    """Moments are stored as pseudo-groups named <group>.m / <group>.v, in
    the order of the optimizer's groups, not in the order the groups first
    took a step."""
    rank = {g.name: i for i, g in enumerate(opt.groups)}
    moment_groups = []
    for name in sorted(opt.m, key=lambda n: rank.get(n, len(rank))):
        moment_groups.append(ParamGroup(name + ".m", Tensor(opt.m[name]), trainable=False))
        moment_groups.append(ParamGroup(name + ".v", Tensor(opt.v[name]), trainable=False))
    save_groups(path, moment_groups, extra={"optimizer": opt.state_dict()})


def load_optimizer(path, groups: list[ParamGroup]) -> AdamW:
    moment_groups, extra = load_groups(path)
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    for g in moment_groups:
        if g.name.endswith(".m"):
            m[g.name[:-2]] = g.tensor.data
        elif g.name.endswith(".v"):
            v[g.name[:-2]] = g.tensor.data
    opt = AdamW(groups)
    opt.load_state(extra["optimizer"], m, v)
    return opt
