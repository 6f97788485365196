"""The benchmark's workloads: protocol configs for `cpdistill distill`.

Every workload trains the desk student (hidden 64, depth 2, 4 experts,
4 heads, float64) on the default point-mass suite (horizon 40, windows of
20 states). A round's protocol seed picks the task stream (which families,
goal centres) and every episode; the batch shapes depend only on the counts
here.

The sizes are chosen so that one round (a whole protocol run plus its
checks) takes 10-14 s on one core, and three rounds give at least 100
train steps on a full batch of full-length windows, the sample count that
`step_ms.p90` needs.
"""
from __future__ import annotations

from dataclasses import dataclass

DESK_MODEL = dict(hidden_dim=64, depth=2, experts_per_layer=4, n_heads=4)
TINY_MODEL = dict(
    hidden_dim=16, depth=1, experts_per_layer=2, n_heads=2, mlp_multiplier=2,
    encoder_hidden=8,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream-ours",
            why=(
                "the paper's method over 3 stages: train steps take most of the "
                "time, the expert count grows each stage, masks switch phases"
            ),
            config=dict(
                strategy="ours", n_stages=3, tasks_per_stage=2,
                episodes_per_task=10, support_episodes=4, eval_episodes=4,
                epochs_stage1=2, epochs_later=3, batch_size=32, replay_m=1,
                model=DESK_MODEL,
            ),
        ),
        Workload(
            name="stream-kl",
            why=(
                "the kl baseline: every parameter trains, and each stage-2 step "
                "adds a snapshot forward and a second student pass"
            ),
            config=dict(
                strategy="kl", n_stages=2, tasks_per_stage=5,
                episodes_per_task=4, support_episodes=4, eval_episodes=4,
                epochs_stage1=1, epochs_later=2, batch_size=32, replay_m=0,
                model=DESK_MODEL,
            ),
        ),
        Workload(
            name="rollout-sweep",
            why=(
                "many stages, teacher episodes and evaluation rollouts with "
                "capped training: inference, environment and collection lead"
            ),
            config=dict(
                strategy="replay_only", n_stages=5, tasks_per_stage=2,
                episodes_per_task=40, support_episodes=4, eval_episodes=6,
                epochs_stage1=1, epochs_later=1, batch_size=32, replay_m=4,
                max_steps=20, model=DESK_MODEL,
            ),
        ),
    )
}

# The tiny size keeps each workload's strategy and stream shape on a model
# and data small enough for the benchmark's own tests.
_TINY = dict(
    episodes_per_task=10, support_episodes=3, eval_episodes=4, batch_size=16,
    model=TINY_MODEL,
)


def protocol_dict(name: str, size: str = "full") -> dict:
    """ProtocolConfig fields for a workload at the given size."""
    config = dict(WORKLOADS[name].config)
    if size == "tiny":
        config.update(_TINY)
        # the replay budget is 10% of 10 episodes
        config["replay_m"] = min(config["replay_m"], 1)
        if config.get("max_steps") is not None:
            config["max_steps"] = 12
    elif size != "full":
        raise ValueError(f"unknown size {size!r}")
    return config
