import json

import numpy as np
import pytest

from cpdistill import tensor as T
from cpdistill.errors import StateError
from cpdistill.model import (
    ExpansionConfig,
    GatingStats,
    ModelConfig,
    StudentModel,
    apply_mask_schedule,
    aux_loss,
    expand_experts,
    moe_route,
)
from cpdistill.optim import ParamGroup
from cpdistill.taskctx import ContrastiveBatch, infonce_loss
from oracles import eval_with_gradients, finite_difference_grads, predict_one
from cpdistill.tensor import Tensor


def tiny_config(**over):
    base = dict(
        obs_dim=3,
        action_dim=2,
        hidden_dim=8,
        depth=1,
        experts_per_layer=2,
        mlp_multiplier=2,
        top_k=1,
        seq_len=4,
        task_embed_dim=4,
        n_heads=2,
        stats_chunks=2,
        encoder_hidden=4,
    )
    base.update(over)
    return ModelConfig(**base)


def probe(cfg, batch=3, t=None, seed=0):
    rng = np.random.default_rng(seed)
    t = t if t is not None else cfg.seq_len
    windows = rng.normal(size=(batch, t, cfg.obs_dim))
    z = rng.normal(size=(batch, cfg.task_embed_dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return windows, z


def test_input_width_matches_benchmark_shape():
    assert ModelConfig(obs_dim=39, action_dim=4).input_width == 55
    assert ModelConfig(obs_dim=4, action_dim=2).input_width == 20


def test_embed_produces_one_token_per_state():
    cfg = tiny_config(seq_len=10)
    model = StudentModel(cfg, seed=1)
    windows, z = probe(cfg, batch=2, t=7)
    tokens = model.embed_input(windows, z)
    assert tokens.shape == (2, 7, cfg.hidden_dim)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(top_k=3)  # exceeds 2 experts
    with pytest.raises(ValueError):
        tiny_config(hidden_dim=9)  # not divisible by heads
    with pytest.raises(ValueError):
        tiny_config(depth=0)


def test_paper_scale_defaults():
    cfg = ModelConfig(obs_dim=39, action_dim=4)
    assert (cfg.hidden_dim, cfg.depth, cfg.experts_per_layer) == (256, 5, 8)
    assert (cfg.mlp_multiplier, cfg.seq_len, cfg.task_embed_dim) == (4, 20, 16)


def zero_sublayers(model):
    for name, g in model.params.items():
        if ".attn." in name or ".experts." in name or ".gate." in name:
            g.tensor.data = np.zeros_like(g.tensor.data)


def test_residual_identity_with_zero_sublayers():
    cfg = tiny_config(depth=2)
    model = StudentModel(cfg, seed=3)
    zero_sublayers(model)
    windows, z = probe(cfg, batch=2)
    h = model.embed_input(windows, z)
    out = h
    for l in range(cfg.depth - 1):
        out, _ = model.block_forward(out, l)
        assert np.array_equal(out.data, h.data)
    # the final block returns the last token only, the one the head reads
    last, _ = model.block_forward(out, cfg.depth - 1)
    assert np.array_equal(last.data, h.data[:, -1, :])


def test_causality_perturbation():
    # the blocks before the final one return every token; the final block
    # returns the last token, which sees the whole window
    cfg = tiny_config(depth=3, seq_len=6)
    model = StudentModel(cfg, seed=5)
    windows, z = probe(cfg, batch=1, t=6, seed=9)

    def tokens_out(w):
        h = model.embed_input(w, z)
        for l in range(cfg.depth - 1):
            h, _ = model.block_forward(h, l)
        return h.data, model.block_forward(h, cfg.depth - 1)[0].data

    base, base_last = tokens_out(windows)
    for t_perturb in (2, 4):
        bumped = windows.copy()
        bumped[0, t_perturb, :] += 0.5
        changed, changed_last = tokens_out(bumped)
        assert np.array_equal(changed[0, :t_perturb], base[0, :t_perturb])
        assert not np.allclose(changed[0, t_perturb:], base[0, t_perturb:])
        assert not np.allclose(changed_last, base_last)


def test_single_token_attention_is_value_projection():
    cfg = tiny_config()
    model = StudentModel(cfg, seed=7)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 1, cfg.hidden_dim)))
    got = model._attention(x, 0)

    def w(name):
        return model.params[f"blocks.0.attn.{name}"].tensor

    expected = (x @ w("wv") + w("bv")) @ w("wo") + w("bo")
    assert np.allclose(got.data, expected.data, atol=1e-12)


def route_probe(n_experts, logits_row, k, d=4, tokens=1):
    """MoE layer whose gate reproduces the given logits for a zero token."""
    cfg = tiny_config(hidden_dim=d, experts_per_layer=n_experts, top_k=k, n_heads=2)
    model = StudentModel(cfg, seed=11)
    layer = model.layers[0]
    layer.gate_w.tensor.data = np.zeros((d, n_experts))
    layer.gate_b.tensor.data = np.asarray(logits_row, dtype=np.float64)
    x = Tensor(np.zeros((tokens, d)))
    return moe_route(x, layer, k)


def test_route_saturated_softmax():
    _, stats = route_probe(2, [10.0, -10.0], k=1)
    assert stats.loads.tolist() == [1.0, 0.0]
    assert abs(stats.importance.data[0] - 1.0) < 1e-8


def test_route_tie_breaks_low_index():
    _, stats = route_probe(2, [0.0, 0.0], k=1)
    assert stats.loads.tolist() == [1.0, 0.0]


def test_route_top2_renormalized_probabilities():
    _, stats = route_probe(2, [1.0, 0.0], k=2)
    p = stats.importance.data
    assert p[0] == pytest.approx(0.7311, abs=5e-5)
    assert p[1] == pytest.approx(0.2689, abs=5e-5)
    assert stats.loads.tolist() == [1.0, 1.0]


def test_route_load_invariant():
    cfg = tiny_config(hidden_dim=8, experts_per_layer=4, top_k=2)
    model = StudentModel(cfg, seed=13)
    x = Tensor(np.random.default_rng(1).normal(size=(10, 8)))
    _, stats = moe_route(x, model.layers[0], 2)
    assert stats.loads.sum() == 2 * 10


def test_aux_loss_values():
    uniform = GatingStats(loads=np.full(4, 5.0), importance=Tensor(np.full(4, 2.0)), tokens=20)
    assert aux_loss(uniform).item() == pytest.approx(0.0, abs=1e-12)

    skewed = GatingStats(loads=np.array([2.0, 0.0]), importance=Tensor(np.array([1.0, 0.0])), tokens=2)
    assert aux_loss(skewed, eps=1e-15).item() == pytest.approx(2.0, abs=1e-9)

    single = GatingStats(loads=np.array([7.0]), importance=Tensor(np.array([3.0])), tokens=7)
    assert aux_loss(single).item() == pytest.approx(0.0, abs=1e-12)


def test_aux_loss_zero_iff_uniform():
    rng = np.random.default_rng(2)
    for _ in range(20):
        loads = rng.integers(0, 5, size=4).astype(float)
        imp = rng.uniform(0.1, 2.0, size=4)
        stats = GatingStats(loads=loads, importance=Tensor(imp), tokens=int(loads.sum()))
        val = aux_loss(stats).item()
        if np.allclose(loads, loads.mean()) and np.allclose(imp, imp.mean()):
            assert val == pytest.approx(0.0, abs=1e-12)
        else:
            assert val > 0.0


def test_predict_action_contract():
    cfg = tiny_config()
    model = StudentModel(cfg, seed=17)
    windows, z = probe(cfg, batch=1)
    model.params["head.w"].tensor.data = np.zeros_like(model.params["head.w"].tensor.data)
    model.params["head.b"].tensor.data = np.zeros_like(model.params["head.b"].tensor.data)
    a = predict_one(model, windows[0], z[0])
    assert np.all(a == 0.0)

    cfg4 = tiny_config(action_dim=4)
    model4 = StudentModel(cfg4, seed=17)
    w4, z4 = probe(cfg4, batch=1)
    out = predict_one(model4, w4[0], z4[0])
    assert out.shape == (4,)
    assert np.array_equal(out, predict_one(model4, w4[0], z4[0]))


def test_expansion_preserves_actions_with_masked_gate():
    cfg = tiny_config(hidden_dim=8, depth=2, experts_per_layer=2)
    model = StudentModel(cfg, seed=19)
    windows, z = probe(cfg, batch=16, seed=3)
    before = model.predict_batch(windows, z)
    expand_experts(
        model,
        ExpansionConfig(experts_added=1, init_noise_std=0.0, cold_start_bias=-np.inf,
                        gate_col_noise_std=0.0),
        seed=7,
    )
    assert model.expert_counts == [3, 3]
    assert sum(".experts.2." in name for name in model.params) == 2 * 4
    after = model.predict_batch(windows, z)
    assert np.array_equal(before, after)


def test_expansion_small_perturbation_with_cold_start():
    cfg = tiny_config(hidden_dim=8, depth=2, experts_per_layer=2)
    model = StudentModel(cfg, seed=19)
    windows, z = probe(cfg, batch=32, seed=4)
    before = model.predict_batch(windows, z)
    expand_experts(model, ExpansionConfig(), seed=7)
    after = model.predict_batch(windows, z)
    assert np.max(np.abs(after - before)) < 1e-2


def test_expansion_counting_and_noop():
    cfg = tiny_config(depth=5)
    model = StudentModel(cfg, seed=23)
    total_before = sum(model.expert_counts)
    expand_experts(model, ExpansionConfig(experts_added=1), seed=1)
    assert sum(model.expert_counts) == total_before + 5
    names = list(model.params)
    assert expand_experts(model, ExpansionConfig(experts_added=0), seed=1) is None
    assert list(model.params) == names and sum(model.expert_counts) == total_before + 5
    with pytest.raises(AttributeError):
        model.expert_counts = [1] * 5  # read from the layers, not stored


def test_expansion_cold_start_probability():
    # eight equal-logit experts plus one new expert biased to -5
    cfg = tiny_config(hidden_dim=8, experts_per_layer=8, n_heads=2)
    model = StudentModel(cfg, seed=29)
    layer = model.layers[0]
    layer.gate_w.tensor.data = np.zeros_like(layer.gate_w.tensor.data)
    layer.gate_b.tensor.data = np.zeros_like(layer.gate_b.tensor.data)
    expand_experts(
        model,
        ExpansionConfig(experts_added=1, init_noise_std=0.0, gate_col_noise_std=0.0),
        seed=31,
    )
    _, stats = moe_route(Tensor(np.zeros((1, 8))), layer, 1)
    p_new = stats.importance.data[-1]
    expected = np.exp(-5.0) / (8.0 + np.exp(-5.0))
    assert p_new == pytest.approx(expected, rel=1e-9)
    assert p_new == pytest.approx(8.42e-4, abs=5e-7)


def trainable_names(model):
    return {n for n, g in model.params.items() if g.tensor.requires_grad}


def test_mask_schedule(tmp_path):
    cfg = tiny_config(depth=2, experts_per_layer=2)
    model = StudentModel(cfg, seed=37)
    # stage 1 trains a fresh student whole and applies no schedule
    assert trainable_names(model) == set(model.params)

    expand_experts(model, ExpansionConfig(), seed=2)
    apply_mask_schedule(model, phase=1)
    names = trainable_names(model)
    assert not any(".attn." in n or n.startswith(("embed.", "pos", "head.")) for n in names)
    assert not any(".ln" in n for n in names)
    assert "blocks.0.gate.w" in names
    assert "blocks.0.experts.2.w1" in names  # the new expert
    assert "blocks.0.experts.0.w1" not in names  # old expert frozen
    assert "taskenc.w1" in names

    apply_mask_schedule(model, phase=2)
    names = trainable_names(model)
    assert "blocks.0.gate.w" not in names
    assert "blocks.0.experts.0.w1" in names and "blocks.0.experts.2.w1" in names
    assert not any(".attn." in n for n in names)

    # the next stage's phase 1 trains only the experts its expansion added,
    # on the student in memory and on one loaded from its checkpoint, whose
    # header holds no record of the previous stage's new experts
    model.save(tmp_path / "m")
    for student in (model, StudentModel.load(tmp_path / "m")[0]):
        expand_experts(student, ExpansionConfig(), seed=3)
        apply_mask_schedule(student, phase=1)
        names = trainable_names(student)
        assert "blocks.0.experts.3.w1" in names and "blocks.1.experts.3.w1" in names
        assert "blocks.0.experts.2.w1" not in names and "blocks.1.experts.2.w1" not in names


def _group_grads(model, windows, z, targets, stats):
    """Each group's gradient (None when it gets none) of a train step's
    loss: action error, aux term and InfoNCE on the task encoder."""
    for group in model.groups():
        group.tensor.grad = None
    actions, aux, _ = model.forward(windows, z)
    diff = actions - Tensor(targets.astype(actions.dtype))
    loss = T.tmean(T.tsum(diff * diff, axis=1)) + aux * 0.01
    labels = np.arange(len(stats)) % 2
    loss = loss + infonce_loss(ContrastiveBatch(model.encoder.encode(stats), labels))
    loss.backward()
    return {g.name: g.tensor.grad for g in model.groups()}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("phase", [1, 2])
def test_masked_groups_get_no_gradient_and_change_no_other(phase, k):
    # the frozen backbone, gates or old experts cost no gradient arithmetic,
    # and every trainable group gets the bits of an all-trainable sweep
    cfg = tiny_config(depth=2, experts_per_layer=2, top_k=k)
    model = StudentModel(cfg, seed=43)
    # a cold start of 0, so that the added experts take tokens
    expand_experts(model, ExpansionConfig(cold_start_bias=0.0), seed=4)
    windows, z = probe(cfg, batch=8, seed=9)
    rng = np.random.default_rng(10)
    targets = rng.normal(size=(8, cfg.action_dim))
    stats = rng.normal(size=(6, model.encoder.input_dim))
    every = _group_grads(model, windows, z, targets, stats)
    assert all(g is not None for g in every.values())

    apply_mask_schedule(model, phase)
    grads = _group_grads(model, windows, z, targets, stats)
    frozen = set(model.params) - trainable_names(model)
    assert frozen and len(frozen) < len(grads)
    for name, grad in grads.items():
        if name in frozen:
            assert grad is None, name
        else:
            assert np.array_equal(grad, every[name]), name


def test_model_gradients_match_finite_differences():
    cfg = tiny_config(dtype="float64")  # the oracle's precision
    model = StudentModel(cfg, seed=41)
    windows, z = probe(cfg, batch=3, seed=6)
    targets = np.random.default_rng(8).normal(size=(3, cfg.action_dim))
    lam = 0.01

    def build():
        actions, aux, _ = model.forward(windows, z)
        diff = actions - Tensor(targets)
        mse_term = T.tmean(T.tsum(diff * diff, axis=1))
        return mse_term + Tensor(lam) * aux

    groups = [g for g in model.groups() if not g.name.startswith("taskenc.")]
    _, grads = eval_with_gradients(build, groups)
    fd = finite_difference_grads(build, groups)
    worst_name, worst = None, 0.0
    for name, f in fd.items():
        a = grads[name]
        err = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        if err.max() > worst:
            worst_name, worst = name, err.max()
    assert worst < 1e-4, f"worst gradient mismatch {worst} at {worst_name}"


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("t", [1, 2, 5])
def test_predict_batch_matches_forward(depth, k, t):
    cfg = tiny_config(depth=depth, experts_per_layer=3, top_k=k, seq_len=5)
    model = StudentModel(cfg, seed=61 + depth)
    windows, z = probe(cfg, batch=7, t=t, seed=depth + 3 * k + 7 * t)
    for _ in range(2):
        with T.no_grad():
            ref, _, _ = model.forward(windows, z)
        got = model.predict_batch(windows, z)
        assert got.shape == ref.shape == (7, cfg.action_dim)
        assert np.max(np.abs(got - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))
        expand_experts(model, ExpansionConfig(cold_start_bias=-1.0), seed=depth)


def test_predict_batch_builds_no_aux_loss(monkeypatch):
    import cpdistill.model as model_module

    cfg = tiny_config(depth=2)
    model = StudentModel(cfg, seed=67)
    windows, z = probe(cfg, batch=3, seed=5)
    calls = []
    real = model_module.aux_loss
    monkeypatch.setattr(model_module, "aux_loss", lambda s: calls.append(s) or real(s))
    model.predict_batch(windows, z)
    assert calls == []
    with T.no_grad():
        model.forward(windows, z)
    assert len(calls) == cfg.depth


def test_float32_survives_expansion_load_and_clone(tmp_path):
    cfg = tiny_config(depth=2, dtype="float32")
    model = StudentModel(cfg, seed=71)
    expand_experts(model, ExpansionConfig(), seed=2)
    model.save(tmp_path / "m")
    restored, _ = StudentModel.load(tmp_path / "m")
    windows, z = probe(cfg, batch=4, seed=9)
    for m in (model, restored, model.clone()):
        assert {g.tensor.dtype for g in m.groups()} == {np.dtype(np.float32)}
        actions, aux, _ = m.forward(windows, z)
        assert actions.dtype == aux.dtype == np.float32
        assert m.predict_batch(windows, z).dtype == np.float32


def test_save_load_clone_round_trip(tmp_path):
    cfg = tiny_config(depth=2)
    model = StudentModel(cfg, seed=43)
    expand_experts(model, ExpansionConfig(), seed=3)
    apply_mask_schedule(model, phase=1)
    model.save(tmp_path / "m")
    restored, header = StudentModel.load(tmp_path / "m")
    assert set(header) == {"config", "expert_counts"}
    assert restored.expert_counts == model.expert_counts
    windows, z = probe(cfg, batch=4, seed=12)
    assert np.array_equal(model.predict_batch(windows, z), restored.predict_batch(windows, z))

    twin = model.clone()
    assert np.array_equal(model.predict_batch(windows, z), twin.predict_batch(windows, z))
    twin.params["head.w"].tensor.data += 1.0
    assert not np.array_equal(model.predict_batch(windows, z), twin.predict_batch(windows, z))
    assert twin.expert_counts == model.expert_counts


def test_load_and_clone_draw_nothing(tmp_path, monkeypatch):
    import cpdistill.seeds

    model = StudentModel(tiny_config(depth=2), seed=47)
    for k in range(2):
        expand_experts(model, ExpansionConfig(), seed=k)
    model.save(tmp_path / "m")

    def no_draw(*key):
        raise AssertionError(f"a random draw with key {key}")

    monkeypatch.setattr(cpdistill.seeds, "rng", no_draw)
    restored, _ = StudentModel.load(tmp_path / "m")
    for twin in (restored, model.clone()):
        assert list(twin.params) == list(model.params)
        assert twin.expert_counts == model.expert_counts == [4, 4]
        assert twin.new_expert_start == [4, 4]
        for name, group in model.params.items():
            data = twin.params[name].tensor.data
            assert data.dtype == group.tensor.dtype
            assert data.tobytes() == group.tensor.data.tobytes()
        assert all(g is twin.params[g.name] for g in twin.encoder.groups)


def test_load_rejects_unknown_config_keys(tmp_path):
    # a checkpoint written while ModelConfig still had `causal`
    StudentModel(tiny_config(), seed=5).save(tmp_path / "m")
    manifest = tmp_path / "m" / "manifest.json"
    data = json.loads(manifest.read_text())
    data["extra"]["config"]["causal"] = True
    manifest.write_text(json.dumps(data))
    with pytest.raises(StateError, match="causal"):
        StudentModel.load(tmp_path / "m")


def naive_route(x, layer, k):
    """Per-expert reference dispatch: one gather, one probability column and
    one full-size scatter per expert, summed in expert order."""
    logits = x @ layer.gate_w.tensor + layer.gate_b.tensor
    p_full = T.softmax(logits, axis=-1)
    sel = T.topk_indices(logits.data, k)
    mask = np.zeros(logits.shape)
    np.put_along_axis(mask, sel, 1.0, axis=1)
    p_masked = p_full * Tensor(mask)
    p_norm = p_masked / T.tsum(p_masked, axis=1, keepdims=True)
    out = None
    for i in range(layer.n_experts):
        rows = np.nonzero(mask[:, i])[0]
        if rows.size == 0:
            continue
        y = layer.experts[i](T.take_rows(x, rows)) * T.take_rows(p_norm[:, i : i + 1], rows)
        scattered = T.put_rows(y, rows, x.shape[0])
        out = scattered if out is None else out + scattered
    return out


@pytest.mark.parametrize("k", [1, 2])
def test_moe_route_matches_per_expert_reference(k):
    cfg = tiny_config(hidden_dim=8, experts_per_layer=4, top_k=k)
    model = StudentModel(cfg, seed=47)
    layer = model.layers[0]
    layer.gate_b.tensor.data[2] = -50.0  # expert 2 receives no token
    for i in (0, 1):  # old experts frozen, as in phase 1 of a later stage
        expert = layer.experts[i]
        for g in (expert.w1, expert.b1, expert.w2, expert.b2):
            g.tensor.requires_grad = False
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.normal(size=(24, 8)))
    weights = T.Tensor(rng.normal(size=(24, 8)))
    got, stats = moe_route(x, layer, k)
    assert stats.loads[2] == 0.0 and stats.loads.sum() == 24 * k
    assert np.allclose(got.data, naive_route(x, layer, k).data, rtol=0.0, atol=1e-14)

    xg = ParamGroup("x", Tensor(x.data))
    groups = [xg] + [g for g in model.groups() if g.name.startswith("blocks.0.")]
    _, fast = eval_with_gradients(lambda: T.tsum(moe_route(xg.tensor, layer, k)[0] * weights), groups)
    _, slow = eval_with_gradients(lambda: T.tsum(naive_route(xg.tensor, layer, k) * weights), groups)
    assert set(fast) == set(slow)
    assert "blocks.0.experts.0.w1" not in fast and "blocks.0.experts.3.w1" in fast
    for name in fast:
        assert np.allclose(fast[name], slow[name], rtol=1e-12, atol=1e-15), name
    assert np.all(fast["blocks.0.experts.2.w1"] == 0.0)


def test_model_gradients_match_finite_differences_top2():
    # top-2 of 3 experts: every token appears twice in the dispatch, so the
    # combine scatter and the gather's backward take the repeated-index path
    cfg = tiny_config(experts_per_layer=3, top_k=2, dtype="float64")
    model = StudentModel(cfg, seed=53)
    windows, z = probe(cfg, batch=3, seed=14)
    targets = np.random.default_rng(15).normal(size=(3, cfg.action_dim))

    def build():
        actions, aux, _ = model.forward(windows, z)
        diff = actions - Tensor(targets)
        return T.tmean(T.tsum(diff * diff, axis=1)) + Tensor(0.01) * aux

    groups = [g for g in model.groups() if not g.name.startswith("taskenc.")]
    _, grads = eval_with_gradients(build, groups)
    fd = finite_difference_grads(build, groups)
    for name, f in fd.items():
        a = grads[name]
        err = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        assert err.max() < 1e-4, f"{name}: worst gradient mismatch {err.max()}"


def final_block_inputs(model, windows, z):
    """Every block but the last, then the last block up to its MoE input:
    (earlier stats, residual stream h2, flat (B*t, hidden) gate input)."""
    cfg = model.config
    h = model.embed_input(windows, z)
    stats = []
    for l in range(cfg.depth - 1):
        h, s = model.block_forward(h, l)
        stats.append(s)
    pre = f"blocks.{cfg.depth - 1}"
    ln1 = T.layer_norm(h, model.params[f"{pre}.ln1.g"].tensor, model.params[f"{pre}.ln1.b"].tensor)
    h2 = model._attention(ln1, cfg.depth - 1) + h
    ln2 = T.layer_norm(h2, model.params[f"{pre}.ln2.g"].tensor, model.params[f"{pre}.ln2.b"].tensor)
    return stats, h2, T.reshape(ln2, (-1, cfg.hidden_dim))


def full_window_forward(model, windows, z):
    """The forward pass before last-token dispatch: the final block routes
    every token through its experts, and the head reads the last token of
    the resulting (B, t, hidden) stream."""
    stats, h2, flat = final_block_inputs(model, windows, z)
    routed, s = moe_route(flat, model.layers[-1], model.config.top_k)
    h = T.reshape(routed, h2.shape) + h2
    stats.append(s)
    actions = h[:, -1, :] @ model.params["head.w"].tensor + model.params["head.b"].tensor
    aux = sum((aux_loss(s) for s in stats[1:]), aux_loss(stats[0])) * (1.0 / len(stats))
    return actions, aux, stats


@pytest.mark.parametrize("k", [1, 2])
def test_last_token_dispatch_matches_full_window_reference(k):
    # float64, so that the two paths' rounding stays below the 1e-12 bound
    cfg = tiny_config(depth=2, experts_per_layer=4, top_k=k, seq_len=5, dtype="float64")
    model = StudentModel(cfg, seed=59)
    windows, z = probe(cfg, batch=6, seed=21)
    targets = np.random.default_rng(22).normal(size=(6, cfg.action_dim))
    layer = model.layers[-1]
    # final-layer expert 3 gets no token; expert 2 gets exactly one token,
    # and that token is not the last of its window, so no row the head
    # reads passes through it
    layer.gate_b.tensor.data[3] = -50.0
    layer.gate_w.tensor.data[:, 2] = 0.0
    with T.no_grad():
        x = final_block_inputs(model, windows, z)[2].data
    logits = x @ layer.gate_w.tensor.data + layer.gate_b.tensor.data
    others = np.sort(np.delete(logits, 2, axis=1), axis=1)[:, -k]
    first, second = np.argsort(others)[:2]
    assert first % cfg.seq_len != cfg.seq_len - 1
    layer.gate_b.tensor.data[2] = 0.5 * (others[first] + others[second])

    def loss_of(forward):
        actions, aux, _ = forward(windows, z)
        diff = actions - Tensor(targets)
        return T.tmean(T.tsum(diff * diff, axis=1)) + aux * 0.01

    def grads_of(forward):
        for g in model.groups():
            g.tensor.grad = None
        loss_of(forward).backward()
        return {g.name: g.tensor.grad for g in model.groups()}

    with T.no_grad():
        got, got_aux, got_stats = model.forward(windows, z)
        ref, ref_aux, ref_stats = full_window_forward(model, windows, z)
    assert got.shape == ref.shape == (6, cfg.action_dim)
    assert np.max(np.abs(got.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))
    assert got_aux.item() == ref_aux.item()
    for mine, theirs, loads in zip(got_stats, ref_stats, model.routing_loads(windows, z)):
        assert np.array_equal(mine.loads, theirs.loads) and np.array_equal(loads, theirs.loads)
        assert np.array_equal(mine.importance.data, theirs.importance.data)
    assert ref_stats[-1].loads[2] == 1 and ref_stats[-1].loads[3] == 0

    fast = grads_of(model.forward)
    slow = grads_of(lambda w, c: full_window_forward(model, w, c))
    assert {n for n, g in fast.items() if g is None} == {n for n, g in slow.items() if g is None}
    assert fast["blocks.1.experts.3.w1"] is None  # no token: skipped
    for name in ("w1", "b1", "w2", "b2"):
        g = fast[f"blocks.1.experts.2.{name}"]
        assert g is not None and g.shape == slow[f"blocks.1.experts.2.{name}"].shape
        assert np.all(g == 0.0) and np.all(slow[f"blocks.1.experts.2.{name}"] == 0.0)
    for name, g in slow.items():
        if g is None:
            continue
        scale = np.max(np.abs(g))
        assert np.max(np.abs(fast[name] - g)) <= 1e-12 * scale, name
