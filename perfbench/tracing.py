"""Spans and counters recorded around the program's functions.

A `Tracer` replaces functions and methods of the cpdistill modules with
wrappers from the benchmark's own files, so no program file changes, and
puts every original back when it is closed. Each wrapped call records a
span: its name, start, end, parent span and the tensor-kernel call count at
its start and end. Spans stay in memory and are written out once the run
ends. A span's self time is its duration minus the time its direct child
spans cover.

Untraced runs install only `TIMERS`, the spans the round itself needs:
the constructed runner (where `run_s` starts), each completed stage (whose
teacher pools the checks read), train steps and evaluation rollouts. Traced
runs install `TRACE` plus a counter on every tensor kernel.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from cpdistill import continual, model, optim, taskctx, tensor

INIT = "continual.ProtocolRunner.__init__"
STAGE = "continual.ProtocolRunner.run_stage"
STEP = "continual.ProtocolRunner._train_step"
ROLLOUT = "continual.rollout_success_batch"
FORWARD = "model.StudentModel.forward"
PREDICT = "model.StudentModel.predict_batch"


def _step_info(args, kwargs, result):
    batch = args[1]
    return {"length": int(batch.length), "size": int(batch.windows.shape[0])}


def _rollout_info(args, kwargs, result):
    n = kwargs["n_episodes"] if "n_episodes" in kwargs else args[3]
    return {"episodes": int(n)}


def _predict_info(args, kwargs, result):
    windows = args[1]
    return {"size": int(windows.shape[0]), "length": int(windows.shape[1])}


def _collect_info(args, kwargs, result):
    return {"episodes": len(result)}


# (owner, attribute, span name, info function); module functions are
# patched in the module that calls them, which for names imported with
# `from .x import f` is not the module that defines them.
TIMERS = (
    (continual.ProtocolRunner, "__init__", INIT, None),
    (continual.ProtocolRunner, "run_stage", STAGE, None),
    (continual.ProtocolRunner, "_train_step", STEP, _step_info),
    (continual, "rollout_success_batch", ROLLOUT, _rollout_info),
)

TRACE = TIMERS + (
    (continual, "collect", "continual.collect", _collect_info),
    (continual.DistillDataset, "__init__", "continual.DistillDataset", None),
    (continual, "traj_stats", "continual.traj_stats", None),
    (continual, "select_replay", "continual.select_replay", None),
    (continual, "update_buffer", "continual.update_buffer", None),
    (continual.ProtocolRunner, "_write_stage", "continual.ProtocolRunner._write_stage", None),
    (continual, "distill_loss", "continual.distill_loss", None),
    (continual, "infonce_loss", "continual.infonce_loss", None),
    (continual, "kl_penalty", "continual.kl_penalty", None),
    (continual, "ewc_penalty", "continual.ewc_penalty", None),
    (taskctx.TaskEncoder, "encode", "taskctx.TaskEncoder.encode", None),
    (taskctx.ContextProvider, "refresh", "taskctx.ContextProvider.refresh", None),
    (tensor.Tensor, "backward", "tensor.Tensor.backward", None),
    (optim.AdamW, "step", "optim.AdamW.step", None),
    (model.StudentModel, "forward", FORWARD, None),
    (model.StudentModel, "embed_input", "model.StudentModel.embed_input", None),
    (model.StudentModel, "block_forward", "model.StudentModel.block_forward", None),
    (model, "moe_route", "model.moe_route", None),
    (model, "aux_loss", "model.aux_loss", None),
    (tensor, "layer_norm", "tensor.layer_norm", None),
    (model.StudentModel, "predict_batch", PREDICT, _predict_info),
)

# every tensor kernel; Tensor's operators reach them through module globals
KERNELS = tuple(
    name
    for name in tensor.__all__
    if name not in ("Tensor", "DimensionError", "NumericError", "no_grad")
) + ("_getitem",)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    k0: int
    start: float = 0.0
    end: float = 0.0
    k1: int = 0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span wrappers (and, with `count_kernels`, kernel counters)
    on enter and restores the originals on exit. It also keeps the runner
    it saw constructed, the teacher pools of every stage that returned and
    the count of those stages."""

    def __init__(self, targets=TIMERS, count_kernels: bool = False):
        self.targets = targets
        self.count_kernels = count_kernels
        self.spans: list[Span] = []
        self.kernel_calls = 0
        self.student = None
        self.runner = None
        self.pools: dict = {}
        self.stages_done = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        if self.count_kernels:
            for name in KERNELS:
                self._patch(tensor, name, self._counter(getattr(tensor, name)))
        for owner, attr, name, info in self.targets:
            self._patch(owner, attr, self._spanner(getattr(owner, attr), name, info))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.kernel_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, fn, name: str, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == STEP:
                tracer.student = args[0].model
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, parent, tracer.kernel_calls)
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.k1 = tracer.kernel_calls
                tracer._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            elif name == FORWARD:
                span.info = {"student": args[0] is tracer.student}
            elif name == INIT:
                tracer.runner = args[0]
            elif name == STAGE:
                tracer.pools.update(args[0].stage_data)
                tracer.stages_done += 1
            return result

        return traced

    # ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                rec = {
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start - origin, "end": s.end - origin,
                    "kernel_calls": s.k1 - s.k0,
                }
                if s.info:
                    rec["info"] = s.info
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def ancestor_index(spans: list[Span], name: str) -> list[int | None]:
    """For each span, the id of its nearest enclosing span named `name`
    (itself included). Parents always precede children in `spans`."""
    out: list[int | None] = []
    for s in spans:
        if s.name == name:
            out.append(s.id)
        else:
            out.append(out[s.parent] if s.parent is not None else None)
    return out
