"""Time the parts of one train step of each kind, and print them as JSON.

    PYTHONPATH=src python3 tests/step_probe.py [--reps N] [--tiny]

A step is what ``ProtocolRunner._train_step`` runs for ``ours``: the
distillation loss (with the aux term), InfoNCE where the protocol adds it,
the backward sweep and one AdamW update. The three kinds differ in what
trains:

- ``stage1``: a fresh student, every group trainable, InfoNCE on;
- ``phase1``: after one `expand_experts`, `apply_mask_schedule` phase 1
  (gates, new experts and the task encoder train), InfoNCE on;
- ``phase2``: `apply_mask_schedule` phase 2 (every expert and the task
  encoder train), InfoNCE off.

Each kind runs at two shapes of the desk student (hidden 64, depth 2,
4 experts, 4 heads): ``bench``, the benchmark workloads' full batch (32
windows of 20 states), and ``desk_seq1``, the desk protocol at seq 1
(128 windows of one state). Each figure is the median over ``--reps``
steps after two untimed ones, in milliseconds: ``fwd_ms`` builds the loss,
``bwd_ms`` sweeps it, ``adamw_ms`` updates, ``step_ms`` is their sum per
step. ``--tiny`` runs a 16-wide student on small batches, as a smoke test.
The probe sets one BLAS thread unless the environment sets another count.
Its inputs are random and fixed by ``SEED``; no file is written.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from cpdistill.continual import INFONCE_TRAJS, aux_lambda, distill_loss  # noqa: E402
from cpdistill.model import (  # noqa: E402
    ExpansionConfig,
    ModelConfig,
    StudentModel,
    apply_mask_schedule,
    expand_experts,
)
from cpdistill.optim import AdamW  # noqa: E402
from cpdistill.taskctx import ContrastiveBatch, infonce_loss  # noqa: E402

SEED = 2025
LR = 1e-4
DESK = dict(hidden_dim=64, depth=2, experts_per_layer=4, n_heads=4)
TINY = dict(hidden_dim=16, depth=2, experts_per_layer=2, n_heads=2, encoder_hidden=8)
# name -> (model, batch, seq_len)
SHAPES = {"bench": (DESK, 32, 20), "desk_seq1": (DESK, 128, 1)}
TINY_SHAPES = {"tiny": (TINY, 8, 4)}


def _step_kinds(model: StudentModel):
    """(kind, InfoNCE on) in protocol order, setting each kind's masks."""
    yield "stage1", True
    expand_experts(model, ExpansionConfig(), seed=SEED)
    apply_mask_schedule(model, 1)
    yield "phase1", True
    apply_mask_schedule(model, 2)
    yield "phase2", False


def probe_shape(model_kw: dict, batch: int, seq_len: int, reps: int) -> dict:
    cfg = ModelConfig(obs_dim=4, action_dim=2, seq_len=seq_len, **model_kw)
    model = StudentModel(cfg, seed=SEED)
    rng = np.random.default_rng(SEED)
    windows = rng.normal(0.0, 0.3, (batch, seq_len, cfg.obs_dim))
    contexts = rng.normal(0.0, 0.25, (batch, cfg.task_embed_dim))
    targets = rng.uniform(-1.0, 1.0, (batch, cfg.action_dim))
    stats = rng.normal(size=(INFONCE_TRAJS, model.encoder.input_dim))
    labels = np.arange(INFONCE_TRAJS) % 2
    lam = aux_lambda(0)
    out = {}
    for kind, infonce_on in _step_kinds(model):
        optimizer = AdamW(model.groups(), lr=LR)
        times = {"fwd_ms": [], "bwd_ms": [], "adamw_ms": [], "step_ms": []}
        for rep in range(reps + 2):
            optimizer.zero_grad()
            t0 = perf_counter()
            loss = distill_loss(model, windows, contexts, targets, lam)
            if infonce_on:
                z = model.encoder.encode(stats)
                loss = loss + infonce_loss(ContrastiveBatch(z, labels))
            t1 = perf_counter()
            loss.backward()
            t2 = perf_counter()
            optimizer.step()
            t3 = perf_counter()
            if rep >= 2:
                for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                    times[key].append(1e3 * dt)
        out[kind] = {key: round(statistics.median(v), 3) for key, v in times.items()}
    return out


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=50, help="timed steps per kind")
    parser.add_argument("--tiny", action="store_true", help="a small smoke-test size")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    shapes = TINY_SHAPES if args.tiny else SHAPES
    result = {
        "machine": {
            "cpu": platform.processor() or platform.machine(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "reps": args.reps,
        "shapes": {
            name: dict(batch=batch, seq_len=seq_len, **probe_shape(kw, batch, seq_len, args.reps))
            for name, (kw, batch, seq_len) in shapes.items()
        },
    }
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
