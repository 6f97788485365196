"""End-to-end and per-layer metrics from measured rounds and spans."""
from __future__ import annotations

import resource
import statistics

import numpy as np

import tracing
from harness import Round

MIN_TAIL_STEPS = 100  # step_ms.p90 needs at least ten samples beyond it

UNITS = {
    "setup_s": "s", "run_s": "s", "train_samples_per_s": "samples/s",
    "eval_episodes_per_s": "episodes/s", "step_ms.p50": "ms", "step_ms.p90": "ms",
    "probe_nmse": "ratio", "peak_rss_mb": "MB",
    "step.kernel_calls": "count", "step.student_forwards": "count",
    "eval.tokens_per_action": "count", "collect.episodes_per_s": "episodes/s",
    "checkpoint.bytes": "bytes",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("ms") else "s"


def full_steps(r: Round, seq_len: int, batch_size: int) -> list[float]:
    """Seconds of every train step of a round on a full batch of
    full-length windows."""
    return [s for length, size, s in r.steps if length == seq_len and size == batch_size]


def end_to_end(rounds: list[Round], setup: list[float], seq_len: int, batch_size: int) -> dict:
    """Every timing is taken per round and reported as its median over the
    rounds: a round can run slow from start to end (README), and a median
    of three is not moved by one such round."""

    def median(per_round):
        return statistics.median(per_round(r) for r in rounds)

    def step_ms(q):
        def per_round(r):
            full = full_steps(r, seq_len, batch_size)
            return 1e3 * float(np.percentile(full, q)) if full else 0.0
        return per_round

    def samples_per_s(r):
        step_s = sum(s for _, _, s in r.steps)
        return sum(size for _, size, _ in r.steps) / step_s if step_s else 0.0

    return {
        "setup_s": statistics.median(setup),
        "run_s": median(lambda r: r.run_s),
        "train_samples_per_s": median(samples_per_s),
        "eval_episodes_per_s": median(lambda r: r.eval_episodes / r.eval_s if r.eval_s else 0.0),
        "step_ms.p50": median(step_ms(50)),
        "step_ms.p90": median(step_ms(90)),
        "probe_nmse": statistics.fmean(r.probe_nmse for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    tracer: tracing.Tracer, traced: Round, untraced: Round, ref: dict,
    seq_len: int, batch_size: int,
) -> dict:
    spans = tracer.spans
    own = tracing.self_times(spans)
    step_of = tracing.ancestor_index(spans, tracing.STEP)
    rollout_of = tracing.ancestor_index(spans, tracing.ROLLOUT)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def mean_ms(name, under=None):
        times = [s.duration for s in spans if s.name == name and (under is None or under[s.id] is not None)]
        return 1e3 * statistics.fmean(times) if times else 0.0

    full = [
        s.id for s in spans
        if s.name == tracing.STEP and s.info["length"] == seq_len and s.info["size"] == batch_size
    ]
    per_step = {i: {} for i in full}
    for s in spans:
        i = step_of[s.id]
        if i in per_step and s.id != i:
            acc = per_step[i]
            acc[s.name] = acc.get(s.name, 0.0) + s.duration
            acc["self:" + s.name] = acc.get("self:" + s.name, 0.0) + own[s.id]
            if s.name == tracing.FORWARD and s.info["student"]:
                acc["student_forwards"] = acc.get("student_forwards", 0) + 1

    def step_mean_ms(*names):
        return 1e3 * statistics.fmean(
            sum(per_step[i].get(n, 0.0) for n in names) for i in full
        ) if full else 0.0

    stages = {s.id for s in spans if s.name == tracing.STAGE}
    predicts = [s for s in spans if s.name == tracing.PREDICT and rollout_of[s.id] is not None]
    actions = sum(s.info["size"] for s in predicts)
    collected = [s for s in spans if s.name == "continual.collect"]
    out = {
        "phase.collect_s": total("continual.collect"),
        "phase.dataset_s": total("continual.DistillDataset")
        + sum(s.duration for s in spans if s.name == "continual.traj_stats" and s.parent in stages),
        "phase.train_s": total(tracing.STEP),
        "phase.eval_s": total(tracing.ROLLOUT),
        "phase.select_s": total("continual.select_replay", "continual.update_buffer"),
        "phase.checkpoint_s": total("continual.ProtocolRunner._write_stage"),
        "stage.self_s": sum(own[i] for i in stages),
        "step.distill_fwd_ms": step_mean_ms("continual.distill_loss"),
        "step.infonce_ms": step_mean_ms("taskctx.TaskEncoder.encode", "continual.infonce_loss"),
        "step.penalty_ms": step_mean_ms("continual.kl_penalty", "continual.ewc_penalty"),
        "step.backward_ms": step_mean_ms("tensor.Tensor.backward"),
        "step.adamw_ms": step_mean_ms("optim.AdamW.step"),
        "step.kernel_calls": statistics.median(spans[i].k1 - spans[i].k0 for i in full) if full else 0,
        "step.student_forwards": statistics.median(per_step[i].get("student_forwards", 0) for i in full) if full else 0,
        "fwd.embed_ms": step_mean_ms("model.StudentModel.embed_input"),
        "fwd.attention_ms": step_mean_ms("self:model.StudentModel.block_forward"),
        "fwd.moe_route_ms": step_mean_ms("model.moe_route"),
        "fwd.layer_norm_ms": step_mean_ms("tensor.layer_norm"),
        "fwd.aux_loss_ms": step_mean_ms("model.aux_loss"),
        "eval.forward_ms": mean_ms(tracing.PREDICT, rollout_of),
        "eval.tokens_per_action": (
            sum(s.info["size"] * s.info["length"] for s in predicts) / actions if actions else 0.0
        ),
        "collect.episodes_per_s": (
            sum(s.info["episodes"] for s in collected) / total("continual.collect") if collected else 0.0
        ),
        "select.ms": mean_ms("continual.select_replay"),
        "ctx.refresh_ms": mean_ms("taskctx.ContextProvider.refresh"),
        "checkpoint.ms": mean_ms("continual.ProtocolRunner._write_stage"),
        "checkpoint.bytes": traced.checkpoint_bytes,
    }
    out.update(ref)
    out["trace.overhead_s"] = traced.run_s - untraced.run_s
    return out
