"""Forward and backward time of each sublayer on the reference batch.

The reference batch is B=128 windows of t=20 states through the desk
student (hidden 64, depth 2, 4 experts, float64), the shape of a full train
step in the ROADMAP's baseline table. Each sublayer runs on its own inputs
as a fresh graph; its backward pass starts from a fixed random projection
of its output. Every figure is the median of `REPS` timed calls after one
untimed call.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from cpdistill import tensor as T
from cpdistill.continual import distill_loss
from cpdistill.model import GatingStats, ModelConfig, StudentModel, aux_loss, moe_route
from cpdistill.optim import AdamW
from cpdistill.taskctx import ContrastiveBatch, infonce_loss
from cpdistill.tensor import Tensor

B, STEPS, REPS = 128, 20, 5
NCE_TRAJS, NCE_TAU, LAM = 32, 0.1, 0.01


def _median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def _fwd_bwd(name: str, build, out: dict, rng) -> None:
    """build() returns the sublayer's output Tensor from fresh leaves."""
    probe = build()
    weights = Tensor(rng.normal(size=probe.shape))
    out[f"ref.{name}.fwd_ms"] = _median_ms(build)

    def backward():
        # the graph is rebuilt untimed; only the sweep is timed
        loss = T.tsum(build() * weights)
        start = perf_counter()
        loss.backward()
        return perf_counter() - start

    backward()
    out[f"ref.{name}.bwd_ms"] = 1e3 * statistics.median(backward() for _ in range(REPS))


def reference_batch(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x2EF)))
    cfg = ModelConfig(obs_dim=4, action_dim=2, hidden_dim=64, depth=2, experts_per_layer=4, n_heads=4)
    model = StudentModel(cfg, seed=seed)
    d = cfg.hidden_dim
    windows = rng.normal(0.0, 0.3, (B, STEPS, cfg.obs_dim))
    z = rng.normal(0.0, 0.25, (B, cfg.task_embed_dim))
    targets = rng.uniform(-1.0, 1.0, (B, cfg.action_dim))
    stats = rng.normal(size=(NCE_TRAJS, model.encoder.input_dim))
    labels = np.arange(NCE_TRAJS) % 2
    layer = model.layers[0]
    gain, bias = (model.params[f"blocks.0.ln2.{p}"].tensor for p in ("g", "b"))
    # sublayer inputs as the first block sees them
    hidden = model.embed_input(windows, z).data
    routed = T.layer_norm(Tensor(hidden), gain, bias).data.reshape(-1, d)
    _, gating = moe_route(Tensor(routed), layer, cfg.top_k)

    def leaf(data):
        return Tensor(data, requires_grad=True)

    def aux():
        return aux_loss(GatingStats(gating.loads, leaf(gating.importance.data), gating.tokens))

    out: dict[str, float] = {}
    _fwd_bwd("embed", lambda: model.embed_input(windows, z), out, rng)
    _fwd_bwd("block", lambda: model.block_forward(leaf(hidden), 0)[0], out, rng)
    _fwd_bwd("moe_route", lambda: moe_route(leaf(routed), layer, cfg.top_k)[0], out, rng)
    _fwd_bwd("layer_norm", lambda: T.layer_norm(leaf(hidden), gain, bias), out, rng)
    _fwd_bwd("aux_loss", aux, out, rng)
    _fwd_bwd(
        "encoder",
        lambda: infonce_loss(ContrastiveBatch(model.encoder.encode(stats), labels, NCE_TAU)),
        out,
        rng,
    )

    optimizer = AdamW(model.groups(), lr=1e-4)

    def step():
        optimizer.zero_grad()
        loss = distill_loss(model, windows, z, targets, LAM)
        nce = infonce_loss(ContrastiveBatch(model.encoder.encode(stats), labels, NCE_TAU))
        (loss + nce).backward()
        optimizer.step()

    out["ref.step_ms"] = _median_ms(step)
    out["ref.adamw_ms"] = _median_ms(optimizer.step)
    return out
