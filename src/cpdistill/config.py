"""Run manifest: every knob of a protocol run in one JSON-serializable
dataclass tree.

Top-level keys
    strategy            one of: ours, finetune, ewc, kl, replay_only,
                        expert_only, independent
    n_stages / tasks_per_stage
                        stream shape (stages x new tasks per stage)
    episodes_per_task   teacher episodes collected per task per stage
    support_episodes    leading episodes used to infer the task context
    eval_episodes       rollouts per task when measuring success rates
    epochs_stage1 / epochs_later
                        training passes for stage 1 / stages >= 2 (phase 1 is
                        epoch 1, phase 2 the rest)
    batch_size / lr     optimizer settings (AdamW, without weight decay)
    max_steps           optional cap on optimizer steps per stage
    replay_m            trajectories selected per task per stage
    replay_strategy     dpp | random
    budget_fraction     replay buffer cap as a fraction of distill data seen:
                        replay_m may not exceed budget_fraction *
                        episodes_per_task, so the buffer, replay_m
                        trajectories per task seen, stays within it
    teacher_noise       optional Gaussian action-noise std for teachers
    infonce_weight      contrastive objective loss weight
    ewc_lambda          EWC penalty weight
    kl_sigma0           shared Gaussian std in the KL baseline penalty
    model               ModelConfig fields (hidden_dim, depth,
                        experts_per_layer, mlp_multiplier, top_k, seq_len,
                        task_embed_dim, n_heads, stats_chunks,
                        encoder_hidden, dtype); dtype is float32 unless
                        set to float64

Fixed, not configured: the point-mass suite (`cpdistill.teachers`), the
weight of the load-balancing loss (`cpdistill.continual.aux_lambda`), the
InfoNCE temperature (`cpdistill.taskctx.ContrastiveBatch`, 0.1) and
trajectory batch (`cpdistill.continual.INFONCE_TRAJS`, 32), the EWC
Fisher-estimate batch count (`cpdistill.continual.EWC_BATCHES`, 8), and
expert expansion (the defaults of `cpdistill.model.ExpansionConfig`).

Each value must have its field's type: an int for a count (not a bool), an
int or a float for a rate, a str, a dict for model, and an int or None
for max_steps. Counts must be positive (replay_m and the epoch counts may be
0, and max_steps may be None), and so must model stats_chunks and
encoder_hidden. support_episodes may not exceed episodes_per_task. Every
top-level rate must be finite. lr and kl_sigma0 must be > 0, and
2 * kl_sigma0**2, the KL divisor, a positive finite float. The weights and
the noise std must be >= 0, since a negative one flips the sign of its
term: teacher_noise, infonce_weight and ewc_lambda. budget_fraction must
lie in (0, 1]. A bad value or an unknown key, at the top level or in model,
raises ConfigError naming it when the config is built.
"""
from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields

from .checkpoint import read_json_object, write_json
from .errors import ConfigError, StateError
from .model import ExpansionConfig, ModelConfig
from .replay import STRATEGIES as REPLAY_STRATEGIES
from .teachers import ACTION_DIM, OBS_DIM

__all__ = [
    "StrategyTraits", "STRATEGY_TRAITS", "STRATEGIES", "ProtocolConfig",
    "load_config", "save_config", "desk_config",
]


@dataclass(frozen=True)
class StrategyTraits:
    expand_and_mask: bool = False
    replay: bool = False
    ewc: bool = False
    kl: bool = False
    fresh_model: bool = False


STRATEGY_TRAITS = {
    "ours": StrategyTraits(expand_and_mask=True, replay=True),
    "finetune": StrategyTraits(),
    "ewc": StrategyTraits(ewc=True),
    "kl": StrategyTraits(kl=True),
    "replay_only": StrategyTraits(replay=True),
    "expert_only": StrategyTraits(expand_and_mask=True),
    "independent": StrategyTraits(fresh_model=True),
}
STRATEGIES = tuple(STRATEGY_TRAITS)

# top-level counts that must be at least 1
_COUNTS = (
    "n_stages", "tasks_per_stage", "episodes_per_task", "support_episodes",
    "eval_episodes", "batch_size",
)


@dataclass
class ProtocolConfig:
    strategy: str = "ours"
    n_stages: int = 5
    tasks_per_stage: int = 2
    episodes_per_task: int = 96
    support_episodes: int = 8
    eval_episodes: int = 16
    epochs_stage1: int = 16
    epochs_later: int = 8
    batch_size: int = 128
    lr: float = 1e-4
    max_steps: int | None = None
    replay_m: int = 8
    replay_strategy: str = "dpp"
    budget_fraction: float = 0.10
    teacher_noise: float = 0.0
    infonce_weight: float = 1.0
    ewc_lambda: float = 100.0
    kl_sigma0: float = 1.0
    model: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_types(ProtocolConfig, "config", vars(self))
        for f in fields(self):
            # nan, inf and an int past the float range all fail
            if f.type == "float" and not abs(getattr(self, f.name)) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; one of {STRATEGIES}")
        if self.replay_strategy not in REPLAY_STRATEGIES:
            raise ConfigError(
                f"unknown replay_strategy {self.replay_strategy!r}; one of {REPLAY_STRATEGIES}"
            )
        for key in _COUNTS:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if self.support_episodes > self.episodes_per_task:
            raise ConfigError(
                f"support_episodes={self.support_episodes} exceeds the "
                f"{self.episodes_per_task} episodes per task"
            )
        for key in ("epochs_stage1", "epochs_later", "replay_m"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be positive or None, got {self.max_steps}")
        for key in ("lr", "kl_sigma0"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if not 0 < 2.0 * self.kl_sigma0 * self.kl_sigma0 <= sys.float_info.max:  # KL divisor
            raise ConfigError(f"2 * kl_sigma0**2 must be finite and > 0, got {self.kl_sigma0}")
        for key in ("teacher_noise", "infonce_weight", "ewc_lambda"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if not 0 < self.budget_fraction <= 1:
            raise ConfigError(f"budget_fraction must lie in (0, 1], got {self.budget_fraction}")
        if self.replay_m > self.budget_fraction * self.episodes_per_task:
            raise ConfigError(
                f"replay_m={self.replay_m} exceeds the {self.budget_fraction:.0%} "
                f"budget for {self.episodes_per_task} episodes per task"
            )
        for key in ("obs_dim", "action_dim"):
            if key in self.model:
                raise ConfigError(f"model {key} is fixed by the point-mass suite; do not set it")
        self._model = _build(
            ModelConfig, "model", {**self.model, "obs_dim": OBS_DIM, "action_dim": ACTION_DIM}
        )

    def model_config(self) -> ModelConfig:
        return self._model

    def expansion_config(self) -> ExpansionConfig:
        return ExpansionConfig()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        return _build(cls, "config", data)


def _build(cls, section: str, values: dict):
    """``cls(**values)``, with an unknown key or a value of the wrong type
    reported as a ConfigError naming the section and the key."""
    unknown = set(values) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    _check_types(cls, section, values)
    return cls(**values)


# the values each field annotation admits (annotations are strings here)
_TYPES = {
    "int": (int,), "float": (int, float), "str": (str,), "dict": (dict,),
    "int | None": (int, type(None)),
}


def _check_types(cls, section: str, values: dict) -> None:
    """ConfigError naming the first field of ``cls`` whose value in
    ``values`` does not have the field's type; a bool is no number."""
    for f in fields(cls):
        if f.name in values:
            value = values[f.name]
            if isinstance(value, bool) or not isinstance(value, _TYPES[f.type]):
                raise ConfigError(f"{section} {f.name} must be {f.type}, got {value!r}")


def load_config(path) -> ProtocolConfig:
    """The config in file ``path``; `ConfigError` naming the file when it
    cannot be read or holds no JSON object."""
    try:
        data = read_json_object(path)
    except StateError as err:
        raise ConfigError(f"config file {err}") from None
    return ProtocolConfig.from_dict(data)


def save_config(path, config: ProtocolConfig) -> None:
    write_json(path, config.to_dict())


def desk_config(strategy: str = "ours") -> ProtocolConfig:
    """Desk-scale defaults: small model, 5 stages x 2 synthetic tasks."""
    return ProtocolConfig(
        strategy=strategy,
        model=dict(hidden_dim=64, depth=2, experts_per_layer=4, n_heads=4),
    )
