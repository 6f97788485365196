"""The student: a decoder-only pre-norm Transformer whose feed-forward
sublayers are sparse mixture-of-experts layers.

Tokens are per-timestep observations concatenated with the task context
vector. Each block is h' = MSA(LN(h)) + h followed by h'' = MoE(LN(h')) + h'
under a causal mask; the action mean is a linear head on the final token.
`forward` also returns the load-balancing (aux) loss, averaged over layers,
and every layer's gating statistics over every token, for the losses and
the routing dump; `predict_batch`, for inference, runs the final block from
the last position only.
Experts can be added at stage boundaries with noisy-copy weights and a
strongly negative gate bias so routing is initially undisturbed. Stage 1
trains a fresh student whole; from stage 2 on, a two-phase schedule decides
each group's trainability from its name. The layout is recorded once: the
groups by name in `params` (the MoE layers hold the same objects), the
expert counts read from `layers`, and each layer's first new expert in
`new_expert_start`.
Parameters and activations are float32 by default (`ModelConfig.dtype`);
float64 stays selectable, and the gradient checks run in it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import seeds
from . import tensor as T
from .checkpoint import load_groups, save_groups
from .errors import ConfigError, DimensionError, InputError, StateError
from .optim import ParamGroup
from .taskctx import TaskEncoder
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "ExpansionConfig",
    "GatingStats",
    "MoELayer",
    "StudentModel",
    "aux_loss",
    "moe_route",
    "expand_experts",
    "apply_mask_schedule",
]


@dataclass
class ModelConfig:
    obs_dim: int
    action_dim: int
    hidden_dim: int = 256
    depth: int = 5
    experts_per_layer: int = 8
    mlp_multiplier: int = 4
    top_k: int = 1
    seq_len: int = 20
    task_embed_dim: int = 16
    n_heads: int = 4
    stats_chunks: int = 8
    encoder_hidden: int = 64
    dtype: str = "float32"

    def __post_init__(self):
        for key in (
            "obs_dim", "action_dim", "hidden_dim", "depth", "experts_per_layer",
            "mlp_multiplier", "top_k", "seq_len", "task_embed_dim", "n_heads",
            "stats_chunks", "encoder_hidden",
        ):
            if getattr(self, key) < 1:
                raise ConfigError(f"model {key} must be positive, got {getattr(self, key)}")
        if self.top_k > self.experts_per_layer:
            raise ConfigError("top_k cannot exceed the number of experts")
        if self.hidden_dim % self.n_heads:
            raise ConfigError("hidden_dim must be divisible by n_heads")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError("dtype must be float64 or float32")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    @property
    def input_width(self) -> int:
        return self.obs_dim + self.task_embed_dim


@dataclass
class ExpansionConfig:
    """How `expand_experts` grows the student. A protocol run uses these
    defaults (`ProtocolConfig.expansion_config`); no config sets them."""

    experts_added: int = 1          # per layer, per stage
    init_noise_std: float = 1e-2
    cold_start_bias: float = -5.0
    gate_col_noise_std: float = 1e-2


@dataclass
class GatingStats:
    """Per-expert routing statistics for one MoE layer over a token batch."""

    loads: np.ndarray       # assigned token counts (not differentiable)
    importance: Tensor      # summed gating probabilities (differentiable)
    tokens: int


@dataclass
class Expert:
    w1: ParamGroup
    b1: ParamGroup
    w2: ParamGroup
    b2: ParamGroup

    def __call__(self, x: Tensor) -> Tensor:
        h = T.gelu(x @ self.w1.tensor + self.b1.tensor)
        return h @ self.w2.tensor + self.b2.tensor


@dataclass
class MoELayer:
    gate_w: ParamGroup
    gate_b: ParamGroup
    experts: list[Expert]

    @property
    def n_experts(self) -> int:
        return len(self.experts)


def moe_route(
    x: Tensor, layer: MoELayer, k: int, rows: np.ndarray | None = None
) -> tuple[Tensor, GatingStats]:
    """Route a (tokens, hidden) batch through the layer's experts.

    Gate probabilities are a softmax over all experts; the top-k by logit
    (ties to the lowest index) are kept and their probabilities renormalized.
    Gradients reach the gate only through the selected probabilities. At
    top_k = 1 the one weight is p / p = 1 whatever the logits, so the
    output, and the distillation loss with it, sends the gate no gradient:
    the gate learns only from the aux loss (`aux_loss`), whose weight
    reaches its floor at step 198. Switch Transformer (Fedus et al.,
    arXiv:2101.03961) scales a top-1 output by its gate probability
    instead; adopting that would change what the student learns.

    Dispatch is sorted and dropless, as in MegaBlocks (Gale et al.,
    arXiv:2211.15841): the (token, slot) pairs are stably sorted by expert,
    the tokens are gathered once, each expert's MLP runs on its contiguous
    slice, and the outputs, weighted by their probabilities, are scattered
    back in one pass. With top-1 every token appears once, so the gather and
    the scatter assign rows directly; with top-k > 1 a token's k outputs are
    summed in expert order. Experts the gate selects for no token are
    skipped.

    ``rows`` restricts the dispatch to those token rows, and the output then
    has one row per entry of ``rows``, in its order. The gate still runs on
    every token, so the returned statistics (loads, importances, token
    count) and the aux loss built from them are those of the whole batch.
    Every expert the gate selected for at least one token still runs, on an
    empty slice when none of its tokens is among ``rows``: its groups then
    get a zero gradient, as in a dispatch of every token whose unread rows
    carry zero gradient, and not ``None``, which `AdamW.step` would skip
    instead of taking its momentum step.
    """
    n = layer.n_experts
    logits = x @ layer.gate_w.tensor + layer.gate_b.tensor
    p_full = T.softmax(logits, axis=-1)
    sel = T.topk_indices(logits.data, k)
    mask = np.zeros(logits.shape, dtype=x.dtype)
    np.put_along_axis(mask, sel, 1.0, axis=1)
    p_masked = p_full * Tensor(mask)
    denom = T.tsum(p_masked, axis=1, keepdims=True)
    p_norm = p_masked / denom
    loads = mask.sum(axis=0)

    m_tokens = x.shape[0]
    picked = sel if rows is None else sel[rows]
    pair_expert = picked.reshape(-1)
    order = np.argsort(pair_expert, kind="stable")
    slots = order // k  # output row of each dispatched pair
    tokens = slots if rows is None else np.asarray(rows, dtype=np.intp)[slots]
    experts = pair_expert[order]
    counts = np.bincount(pair_expert, minlength=n)
    xs = T.take_rows(x, tokens)
    weights = T.take_rows(T.reshape(p_norm, (m_tokens * n, 1)), tokens * n + experts)
    outs = []
    lo = 0
    for i in np.nonzero(loads)[0]:
        hi = lo + int(counts[i])
        outs.append(layer.experts[i](xs[lo:hi]))
        lo = hi
    ys = outs[0] if len(outs) == 1 else T.concat(outs, axis=0)
    out = T.put_rows(ys * weights, slots, picked.shape[0])
    stats = GatingStats(
        loads=loads,
        importance=T.tsum(p_full, axis=0),
        tokens=m_tokens,
    )
    return out, stats


def aux_loss(stats: GatingStats, eps: float = 1e-9) -> Tensor:
    """Load-balancing penalty: half the sum of the normalized variances of
    per-expert loads and importances. Gradient flows only through the
    importances; loads are counts."""
    c = np.asarray(stats.loads, dtype=np.float64)
    cbar = c.mean()
    c_term = ((c - cbar) ** 2).sum() / (cbar * cbar + eps)
    p = stats.importance
    pbar = T.tmean(p)
    dev = p - pbar
    p_term = T.tsum(dev * dev) / (pbar * pbar + eps)
    return (p_term + float(c_term)) * 0.5


class StudentModel:
    """Owner of all parameter groups, including the task-embedding encoder."""

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        expert_counts: Sequence[int] | None = None,
    ):
        self.config = config
        if expert_counts is None:
            expert_counts = [config.experts_per_layer] * config.depth
        # first expert index considered "new" in the current stage, per layer
        self.new_expert_start = list(expert_counts)
        self.params: dict[str, ParamGroup] = {}
        rng = seeds.rng(seed, seeds.MODEL)
        d = config.hidden_dim
        self._add("embed.w", rng.normal(0.0, 0.02, (config.input_width, d)))
        self._add("embed.b", np.zeros(d))
        self._add("pos", rng.normal(0.0, 0.02, (config.seq_len, d)))
        self.layers: list[MoELayer] = []
        for l in range(config.depth):
            pre = f"blocks.{l}"
            self._add(f"{pre}.ln1.g", np.ones(d))
            self._add(f"{pre}.ln1.b", np.zeros(d))
            for nm in ("wq", "wk", "wv", "wo"):
                self._add(f"{pre}.attn.{nm}", rng.normal(0.0, 0.02, (d, d)))
            for nm in ("bq", "bk", "bv", "bo"):
                self._add(f"{pre}.attn.{nm}", np.zeros(d))
            self._add(f"{pre}.ln2.g", np.ones(d))
            self._add(f"{pre}.ln2.b", np.zeros(d))
            n_exp = expert_counts[l]
            gate_w = self._add(f"{pre}.gate.w", rng.normal(0.0, 0.02, (d, n_exp)))
            gate_b = self._add(f"{pre}.gate.b", np.zeros(n_exp))
            width = d * config.mlp_multiplier
            experts = [
                self._make_expert(l, i, rng.normal(0.0, 0.02, (d, width)), np.zeros(width),
                                  rng.normal(0.0, 0.02, (width, d)), np.zeros(d))
                for i in range(n_exp)
            ]
            self.layers.append(MoELayer(gate_w, gate_b, experts))
        self._add("head.w", rng.normal(0.0, 0.02, (d, config.action_dim)))
        self._add("head.b", np.zeros(config.action_dim))
        self._masks: dict[int, np.ndarray] = {}
        self.encoder = TaskEncoder(
            input_dim=config.stats_chunks * (config.obs_dim + config.action_dim + 1),
            hidden_dim=config.encoder_hidden,
            embed_dim=config.task_embed_dim,
            rng=rng,
            dtype=config.np_dtype,
        )
        for g in self.encoder.groups:
            self.params[g.name] = g

    @property
    def expert_counts(self) -> list[int]:
        return [layer.n_experts for layer in self.layers]

    def _add(self, name: str, data: np.ndarray) -> ParamGroup:
        group = ParamGroup(name, Tensor(np.asarray(data, dtype=self.config.np_dtype)))
        self.params[name] = group
        return group

    def _make_expert(
        self, layer: int, idx: int,
        w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
    ) -> Expert:
        pre = f"blocks.{layer}.experts.{idx}"
        return Expert(
            self._add(f"{pre}.w1", w1),
            self._add(f"{pre}.b1", b1),
            self._add(f"{pre}.w2", w2),
            self._add(f"{pre}.b2", b2),
        )

    # ------------------------------------------------------------------
    # forward paths

    def groups(self) -> list[ParamGroup]:
        """Every group in the constructor's layout order, also after
        `expand_experts`, so a checkpoint's bytes do not depend on how the
        model came to its expert counts."""
        return list(self.params.values())

    def embed_input(self, windows: np.ndarray, z: np.ndarray) -> Tensor:
        """(B, t, obs) states + (B, embed) contexts -> (B, t, hidden) tokens."""
        windows = np.asarray(windows, dtype=self.config.np_dtype)
        z = np.asarray(z, dtype=self.config.np_dtype)
        b, t = windows.shape[0], windows.shape[1]
        if t < 1:
            raise InputError("empty input window")
        if t > self.config.seq_len:
            raise InputError(
                f"window of {t} states exceeds seq_len={self.config.seq_len}; "
                "caller must truncate to the most recent states"
            )
        zrep = np.broadcast_to(z[:, None, :], (b, t, z.shape[-1]))
        x = np.concatenate([windows, zrep], axis=2)
        if x.shape[-1] != self.config.input_width:
            raise DimensionError(
                f"token width {x.shape[-1]} != obs+embed {self.config.input_width}"
            )
        tokens = Tensor(x) @ self.params["embed.w"].tensor + self.params["embed.b"].tensor
        return tokens + self.params["pos"].tensor[0:t]

    def _attention(self, x: Tensor, l: int, last: bool = False) -> Tensor:
        """Causal self-attention over (B, t, hidden) tokens.

        With ``last`` the output is the final position's alone, (B, hidden).
        Keys and values still cover every token, and no mask applies, since
        the last position sees every key. The queries are the last two
        positions, and the second-to-last row is dropped: numpy sends a
        one-row stacked matmul to GEMV, which sums in another order than the
        GEMM of a full pass, while with two rows the last row's bits equal
        the full pass's."""
        cfg = self.config
        b, t, d = x.shape
        h, dh = cfg.n_heads, d // cfg.n_heads
        pre = f"blocks.{l}.attn"
        tq = min(t, 2) if last else t

        def proj(v: Tensor, name: str) -> Tensor:
            return v @ self.params[f"{pre}.w{name}"].tensor + self.params[f"{pre}.b{name}"].tensor

        def heads(v: Tensor, n: int) -> Tensor:
            return T.transpose(T.reshape(v, (b, n, h, dh)), (0, 2, 1, 3))

        xq = x[:, t - tq:, :] if last else x
        q = heads(proj(xq, "q"), tq)
        k = heads(proj(x, "k"), t)
        v = heads(proj(x, "v"), t)
        scores = (q @ T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
        if t > 1 and not last:
            if t not in self._masks:
                self._masks[t] = np.triu(
                    np.full((t, t), -1e9, dtype=cfg.np_dtype), k=1
                )
            scores = scores + Tensor(self._masks[t])
        out = T.softmax(scores, axis=-1) @ v
        if last:
            merged = T.reshape(out[:, :, -1, :], (b, d))
        else:
            merged = T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, t, d))
        return proj(merged, "o")

    def block_forward(
        self, h: Tensor, l: int, last_only: bool = False
    ) -> tuple[Tensor, GatingStats | None]:
        """One pre-norm block over (B, t, hidden) tokens.

        The final block returns only each window's last token, (B, hidden).
        By default its gate and routing statistics cover every token, and
        its experts run only on the rows the action head reads (see
        `moe_route`). With ``last_only`` (inference) it runs from the last
        position alone: attention answers that position only (see
        `_attention`), ``wo``, the residual, ``ln2``, the gate and the
        experts see B rows, and it returns no statistics. Earlier blocks
        ignore ``last_only``, since the final block's keys and values read
        every token."""
        pre = f"blocks.{l}"

        def norm(x: Tensor, name: str) -> Tensor:
            return T.layer_norm(x, self.params[f"{pre}.{name}.g"].tensor,
                                self.params[f"{pre}.{name}.b"].tensor)

        ln1 = norm(h, "ln1")
        final = l == self.config.depth - 1
        if final and last_only:
            h2 = self._attention(ln1, l, last=True) + h[:, -1, :]
            routed, _ = moe_route(norm(h2, "ln2"), self.layers[l], self.config.top_k)
            return routed + h2, None
        h2 = self._attention(ln1, l) + h
        b, t, d = h2.shape
        flat = T.reshape(norm(h2, "ln2"), (b * t, d))
        if final:
            last = np.arange(b) * t + (t - 1)
            routed, stats = moe_route(flat, self.layers[l], self.config.top_k, rows=last)
            return routed + h2[:, -1, :], stats
        routed, stats = moe_route(flat, self.layers[l], self.config.top_k)
        return T.reshape(routed, (b, t, d)) + h2, stats

    def forward(
        self, windows: np.ndarray, z: np.ndarray
    ) -> tuple[Tensor, Tensor, list[GatingStats]]:
        """Returns (action means (B, act), mean aux loss, per-layer stats).

        The action head reads the last token of the final block, which
        dispatches only that token to its experts; the gating statistics and
        the aux loss cover every token. Training and the EWC Fisher read
        them through the loss, and `routing_loads` reads the per-expert
        loads. Inference that reads only the actions runs `predict_batch`."""
        h = self.embed_input(windows, z)
        all_stats: list[GatingStats] = []
        for l in range(self.config.depth):
            h, stats = self.block_forward(h, l)
            all_stats.append(stats)
        actions = h @ self.params["head.w"].tensor + self.params["head.b"].tensor
        terms = [aux_loss(s) for s in all_stats]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return actions, total * (1.0 / len(terms)), all_stats

    def predict_batch(self, windows: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Action means (B, act) with no graph: evaluation rollouts and the
        `kl` snapshot. The final block runs from the last position only
        (`block_forward`'s ``last_only``), and no aux loss or final-layer
        gating statistics are built, since nothing here reads them. The
        actions equal `forward`'s up to rounding."""
        with T.no_grad():
            h = self.embed_input(windows, z)
            for l in range(self.config.depth):
                h, _ = self.block_forward(h, l, last_only=True)
            actions = h @ self.params["head.w"].tensor + self.params["head.b"].tensor
        return actions.data

    def routing_loads(self, windows: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
        with T.no_grad():
            _, _, stats = self.forward(windows, z)
        return [s.loads.copy() for s in stats]

    # ------------------------------------------------------------------
    # persistence

    def _layout(self) -> dict:
        """The checkpoint header's record of the layout; `_restore` reads it."""
        return {
            "config": asdict(self.config),
            "expert_counts": self.expert_counts,
            "new_expert_start": list(self.new_expert_start),
        }

    def save(self, path) -> None:
        save_groups(path, self.groups(), extra=self._layout())

    @classmethod
    def load(cls, path) -> tuple["StudentModel", dict]:
        """The student saved in directory ``path``, and its layout. A header
        that lacks a layout key, or a layout that does not match the stored
        groups' names, shapes or dtype, raises `StateError` naming the
        checkpoint's manifest.json."""
        groups, model = load_groups(path, cls._skeleton)
        model._fill({g.name: g for g in groups})
        return model, model._layout()

    def clone(self) -> "StudentModel":
        stored = {n: (g.tensor.shape, g.tensor.dtype) for n, g in self.params.items()}
        twin = self._skeleton(self._layout(), stored)
        twin._fill(self.params)
        return twin

    @classmethod
    def _skeleton(cls, layout: dict, stored: dict) -> "StudentModel":
        """A model of ``layout`` whose groups must have exactly the names,
        shapes and dtype in ``stored`` (name -> (shape, dtype)); its values
        are `_fill`'s to set."""
        missing = {"config", "expert_counts", "new_expert_start"} - set(layout)
        if missing:
            raise StateError(f"the layout lacks {sorted(missing)}")
        unknown = set(layout["config"]) - {f.name for f in fields(ModelConfig)}
        if unknown:
            raise StateError(f"the layout has unknown model config keys: {sorted(unknown)}")
        model = cls(ModelConfig(**layout["config"]), seed=0, expert_counts=layout["expert_counts"])
        model.new_expert_start = list(layout["new_expert_start"])
        shapes = {n: g.tensor.shape for n, g in model.params.items()}
        if {n: shape for n, (shape, _) in stored.items()} != shapes:
            raise StateError("the groups do not match the model layout")
        for name, (_, dtype) in stored.items():
            if dtype != model.config.np_dtype:
                raise StateError(f"group {name} is stored as {dtype.str}, "
                                 f"not the layout's {model.config.dtype}")
        return model

    def _fill(self, groups: dict[str, ParamGroup]) -> None:
        """Copy the values and the trainability of ``groups``."""
        for name, group in self.params.items():
            group.tensor.data = groups[name].tensor.data.copy()
            group.set_trainable(groups[name].trainable)


# ---------------------------------------------------------------------------
# incremental expansion


def expand_experts(model: StudentModel, cfg: ExpansionConfig, seed: int = 0) -> None:
    """Add cfg.experts_added experts to every layer.

    New expert weights are a seeded uniformly-chosen existing expert's
    weights plus Gaussian noise; the gate gains a noise-initialized column
    per new expert and a strongly negative bias entry so routing is
    initially undisturbed. The new experts become each layer's
    `new_expert_start`; optimizer state for their groups starts at zero."""
    if cfg.experts_added == 0:
        return
    rng = seeds.rng(seed, seeds.EXPERTS)
    for l, layer in enumerate(model.layers):
        n_old = layer.n_experts
        model.new_expert_start[l] = n_old
        for j in range(cfg.experts_added):
            src = layer.experts[int(rng.integers(0, n_old))]
            pieces = []
            for g in (src.w1, src.b1, src.w2, src.b2):
                data = g.tensor.data.copy()
                if cfg.init_noise_std > 0:
                    data = data + rng.normal(0.0, cfg.init_noise_std, data.shape)
                pieces.append(data)
            layer.experts.append(model._make_expert(l, n_old + j, *pieces))
        d, dtype = model.config.hidden_dim, model.config.np_dtype
        cols = rng.normal(0.0, cfg.gate_col_noise_std, (d, cfg.experts_added))
        layer.gate_w.tensor.data = np.concatenate(
            [layer.gate_w.tensor.data, cols.astype(dtype)], axis=1
        )
        layer.gate_b.tensor.data = np.concatenate(
            [layer.gate_b.tensor.data,
             np.full(cfg.experts_added, cfg.cold_start_bias, dtype=dtype)]
        )
    # the constructor's layout: a stable sort keeps each block's experts in
    # index order and everything else where the constructor put it
    model.params = dict(sorted(model.params.items(), key=lambda kv: _layout_rank(kv[0])))


def _layout_rank(name: str) -> int:
    if name.startswith("blocks."):
        return 1 + int(name.split(".")[1])
    return 0 if name.startswith(("embed.", "pos")) else 1 << 30


# ---------------------------------------------------------------------------
# trainability schedule

_BACKBONE_MARKS = (".ln1.", ".ln2.", ".attn.")


def _is_backbone(name: str) -> bool:
    return name.startswith(("embed.", "pos", "head.")) or any(m in name for m in _BACKBONE_MARKS)


def apply_mask_schedule(model: StudentModel, phase: int) -> None:
    """Set every group's trainability for a phase of stage 2 or later.

    Stage 1 trains a fresh student whole, so it calls nothing here. From
    stage 2 on the backbone (embeddings, positions, layer norms, attention,
    action head) is frozen and the task encoder trains; phase 1 trains the
    gates and each layer's new experts (from `new_expert_start`) with the
    old experts frozen, and phase 2 freezes the gates and trains every
    expert. Each group's flag is decided from its name.
    """
    if phase not in (1, 2):
        raise ConfigError(f"unknown phase {phase}")
    for name, group in model.params.items():
        if _is_backbone(name):
            trainable = False
        elif ".gate." in name:
            trainable = phase == 1
        elif ".experts." in name:  # blocks.<l>.experts.<i>.<w>
            _, l, _, i, _ = name.split(".")
            trainable = phase == 2 or int(i) >= model.new_expert_start[int(l)]
        else:  # the task encoder
            trainable = True
        group.set_trainable(trainable)
