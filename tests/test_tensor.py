"""Kernel-level gradient checks against central finite differences."""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpdistill import tensor as T
from cpdistill.optim import ParamGroup
from oracles import eval_with_gradients, finite_difference_grads, mse


def rel_err(a, f):
    denom = max(1.0, abs(a), abs(f))
    return abs(a - f) / denom


def check_grads(build, groups, h=1e-5, tol=1e-4):
    """Analytic vs central-difference gradients for every trainable entry."""
    _, grads = eval_with_gradients(build, groups)
    fd = finite_difference_grads(build, groups, h=h)
    for name, g in fd.items():
        a = grads[name]
        worst = max(
            rel_err(ai, fi) for ai, fi in zip(a.reshape(-1), g.reshape(-1))
        )
        assert worst < tol, f"{name}: worst relative error {worst}"


def param(name, data):
    return ParamGroup(name, T.Tensor(np.asarray(data, dtype=np.float64)))


def test_square_at_three():
    x = param("x", 3.0)
    loss, grads = eval_with_gradients(lambda: x.tensor * x.tensor, [x])
    assert loss == 9.0
    assert grads["x"] == pytest.approx(6.0, abs=1e-12)


def test_mse_at_minimum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(4, 3))
    p = param("p", v)
    loss, grads = eval_with_gradients(lambda: mse(p.tensor, v), [p])
    assert loss == 0.0
    assert np.all(grads["p"] == 0.0)


def test_two_layer_net_matches_finite_differences():
    # the spec's end-to-end example: random 2-layer net, every entry < 1e-4
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 2))
    w1 = param("w1", rng.normal(size=(4, 8)) * 0.5)
    b1 = param("b1", rng.normal(size=(8,)) * 0.1)
    w2 = param("w2", rng.normal(size=(8, 2)) * 0.5)
    b2 = param("b2", rng.normal(size=(2,)) * 0.1)

    def build():
        h = T.gelu(T.Tensor(x) @ w1.tensor + b1.tensor)
        out = h @ w2.tensor + b2.tensor
        return mse(out, target)

    check_grads(build, [w1, b1, w2, b2])


def square(x):
    return x * x


@pytest.mark.parametrize(
    "name,build_fn",
    [
        ("matmul", lambda p, c: T.tsum(square(p @ T.transpose(c, (1, 0))))),
        ("exp", lambda p, c: T.tsum(T.exp(p * T.Tensor(0.3)))),
        ("log", lambda p, c: T.tsum(T.log(p * p + T.Tensor(0.5)))),
        ("sqrt", lambda p, c: T.tsum(T.sqrt(p * p + T.Tensor(0.1)))),
        ("gelu", lambda p, c: T.tsum(T.gelu(p))),
        ("div", lambda p, c: T.tsum(c / (p * p + T.Tensor(1.0)))),
        ("softmax", lambda p, c: T.tsum(T.softmax(p, axis=-1) * c)),
        ("mean", lambda p, c: square(T.tmean(p * c))),
        ("overlapping slices", lambda p, c: T.tsum(p[0:2] * c[1:3]) + T.tsum(square(p[1:3]))),
    ],
)
def test_kernel_gradients(name, build_fn):
    rng = np.random.default_rng(11)
    p = param("p", rng.normal(size=(3, 4)))
    c = T.Tensor(rng.normal(size=(3, 4)))

    def build():
        out = build_fn(p.tensor, c)
        return out if out.data.size == 1 else T.tsum(out)

    check_grads(build, [p])


def test_batched_matmul_gradients():
    rng = np.random.default_rng(3)
    a = param("a", rng.normal(size=(2, 3, 4)))
    b = param("b", rng.normal(size=(2, 4, 3)))
    w = T.Tensor(rng.normal(size=(2, 3, 3)))

    def build():
        return T.tsum((a.tensor @ b.tensor) * w)

    check_grads(build, [a, b])


def test_layer_norm_gradients():
    rng = np.random.default_rng(5)
    x = param("x", rng.normal(size=(4, 6)))
    g = param("g", rng.normal(size=(6,)))
    b = param("b", rng.normal(size=(6,)))
    w = T.Tensor(rng.normal(size=(4, 6)))

    def build():
        return T.tsum(T.layer_norm(x.tensor, g.tensor, b.tensor) * w)

    check_grads(build, [x, g, b])


def test_gather_scatter_concat_slice_gradients():
    rng = np.random.default_rng(9)
    table = param("table", rng.normal(size=(5, 3)))
    idx = np.array([0, 2, 2, 4])
    w = T.Tensor(rng.normal(size=(4, 3)))
    w2 = T.Tensor(rng.normal(size=(6, 3)))

    def build():
        rows = T.take_rows(table.tensor, idx)
        spread = T.put_rows(rows * w, np.array([1, 3, 3, 5]), 6)
        stacked = T.concat([spread, spread * T.Tensor(0.5)], axis=1)
        return T.tsum(stacked[:, 2:5] * w2)

    check_grads(build, [table])


def test_gather_scatter_unique_index_gradients():
    # no repeated row: gather and scatter assign directly; two gathers from
    # one table, so one of them adds to a gradient the other started
    rng = np.random.default_rng(10)
    table = param("table", rng.normal(size=(5, 3)))
    w = T.Tensor(rng.normal(size=(4, 3)))
    w2 = T.Tensor(rng.normal(size=(6, 3)))
    c = T.Tensor(rng.normal(size=(2, 3)))

    def build():
        rows = T.take_rows(table.tensor, np.array([3, 0, 4, 1]))
        spread = T.put_rows(rows * w, np.array([5, 0, 2, 1]), 6)
        return T.tsum(spread * w2) + T.tsum(T.take_rows(table.tensor, np.array([4, 2])) * c)

    check_grads(build, [table])
    out = T.put_rows(T.Tensor(np.ones((2, 3))), np.array([2, 0]), 4)
    assert out.data[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]


def test_transpose_reshape_gradients():
    rng = np.random.default_rng(13)
    p = param("p", rng.normal(size=(2, 3, 4)))
    w = T.Tensor(rng.normal(size=(4, 6)))

    def build():
        moved = T.transpose(p.tensor, (1, 0, 2))
        flat = T.reshape(moved, (3, 8))
        return T.tsum(T.reshape(flat, (6, 4)) @ w)

    check_grads(build, [p])


def test_broadcast_add_mul_gradients():
    rng = np.random.default_rng(17)
    a = param("a", rng.normal(size=(3, 4)))
    b = param("b", rng.normal(size=(4,)))
    s = param("s", rng.normal(size=(3, 1)))

    def build():
        return T.tsum((a.tensor + b.tensor) * s.tensor)

    check_grads(build, [a, b, s])


def test_layer_norm_hand_values():
    g1 = T.Tensor(np.ones(3))
    b0 = T.Tensor(np.zeros(3))
    const = T.layer_norm(T.Tensor(np.array([2.0, 2.0, 2.0])), g1, b0)
    assert np.allclose(const.data, 0.0)

    pair = T.layer_norm(
        T.Tensor(np.array([1.0, -1.0])),
        T.Tensor(np.ones(2)),
        T.Tensor(np.zeros(2)),
        eps=1e-300,
    )
    assert np.allclose(pair.data, [1.0, -1.0], atol=1e-12)

    anyx = T.layer_norm(
        T.Tensor(np.array([3.0, 0.5, -2.0])),
        T.Tensor(np.zeros(3)),
        T.Tensor(np.full(3, 7.5)),
    )
    assert np.all(anyx.data == 7.5)


def test_layer_norm_shape_errors():
    with pytest.raises(T.DimensionError):
        T.layer_norm(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones(4)), T.Tensor(np.ones(3)))
    with pytest.raises(T.DimensionError):
        T.layer_norm(T.Tensor(np.zeros((2, 0))), T.Tensor(np.ones(0)), T.Tensor(np.ones(0)))


def test_softmax_rows_normalized_and_stable():
    rng = np.random.default_rng(23)
    logits = rng.uniform(-100.0, 100.0, size=(50, 8))
    p = T.softmax(T.Tensor(logits), axis=-1)
    sums = p.data.sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)
    assert np.all(p.data > 0.0)
    assert np.all(p.data <= 1.0)
    # gate-style logits near -5 mixed with large positives must not overflow
    mixed = T.softmax(T.Tensor(np.array([[-5.0, 800.0, 3.0]])))
    assert np.isfinite(mixed.data).all()


def test_topk_tie_breaks_to_lowest_index():
    idx = T.topk_indices(np.array([[1.0, 1.0, 0.5], [0.2, 0.9, 0.9]]), 1)
    assert idx.tolist() == [[0], [1]]
    idx2 = T.topk_indices(np.array([[1.0, 1.0, 1.0]]), 2)
    assert idx2.tolist() == [[0, 1]]
    with pytest.raises(T.DimensionError):
        T.topk_indices(np.ones((2, 3)), 4)


def test_shape_mismatch_raises_dimension_error():
    with pytest.raises(T.DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


def test_nonfinite_names_kernel():
    with pytest.raises(T.NumericError, match="log"):
        T.log(T.Tensor(np.array([-1.0])))
    with pytest.raises(T.NumericError, match="exp"):
        T.exp(T.Tensor(np.array([1e4])))
    with pytest.raises(T.NumericError, match="div"):
        T.div(T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))


def test_frozen_groups_get_no_gradient_entry():
    x = param("x", 2.0)
    frozen = ParamGroup("w", T.Tensor(3.0), trainable=False)
    loss, grads = eval_with_gradients(lambda: x.tensor * frozen.tensor, [x, frozen])
    assert loss == 6.0
    assert "w" not in grads
    assert grads["x"] == pytest.approx(3.0)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(99)
        w = param("w", rng.normal(size=(6, 6)))
        x = T.Tensor(rng.normal(size=(4, 6)))
        tgt = rng.normal(size=(4, 6))

        def build():
            return mse(T.gelu(x @ w.tensor), tgt)

        return eval_with_gradients(build, [w])

    loss1, g1 = run()
    loss2, g2 = run()
    assert loss1 == loss2
    assert np.array_equal(g1["w"], g2["w"])


def test_no_grad_builds_no_graph():
    w = param("w", np.ones((2, 2)))
    with T.no_grad():
        out = T.Tensor(np.ones((2, 2))) @ w.tensor
    assert out._backward is None and not out.requires_grad


# each kernel with two or three inputs, with the input shapes it is run on:
# broadcasting, both matmul branches, layer norm's gain and bias
_MULTI_INPUT = {
    "add": (T.add, [(2, 3, 4), (4,)]),
    "sub": (T.sub, [(3, 4), (2, 1, 4)]),
    "mul": (T.mul, [(2, 3, 4), (3, 1)]),
    "div": (T.div, [(3, 4), (3, 4)]),
    "matmul flat": (T.matmul, [(2, 3, 4), (4, 5)]),
    "matmul stacked": (T.matmul, [(2, 3, 4), (1, 4, 5)]),
    "layer_norm": (T.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "concat": (lambda *parts: T.concat(parts, axis=1), [(2, 1, 4), (2, 3, 4), (2, 2, 4)]),
}


def _input_grads(kernel, arrays, w, frozen):
    """The gradient of every input of ``sum(kernel(*inputs) * w)``, with
    input ``frozen`` (an index, or None) not requiring one."""
    leaves = [T.Tensor(a.copy(), requires_grad=i != frozen) for i, a in enumerate(arrays)]
    T.tsum(kernel(*leaves) * T.Tensor(w)).backward()
    return [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_MULTI_INPUT))
def test_a_frozen_input_changes_no_other_gradient(name, dtype):
    # a backward computes only the gradients its trainable inputs read;
    # the others are the bits an all-trainable sweep gives
    kernel, shapes = _MULTI_INPUT[name]
    rng = np.random.default_rng(41)
    arrays = [rng.uniform(0.5, 2.0, shape).astype(dtype) for shape in shapes]
    w = rng.normal(size=kernel(*map(T.Tensor, arrays)).shape).astype(dtype)
    every = _input_grads(kernel, arrays, w, None)
    assert all(g is not None for g in every)
    for frozen in range(len(arrays)):
        grads = _input_grads(kernel, arrays, w, frozen)
        assert grads[frozen] is None
        for i, (g, ref) in enumerate(zip(grads, every)):
            if i != frozen:
                assert g.dtype == ref.dtype and np.array_equal(g, ref), (name, frozen, i)


# ---------------------------------------------------------------------------
# property tests: the kernels a student forward pass is built from, against
# central finite differences in float64 on random small shapes. Entries lie
# in [-2, 2] so that the differences stay accurate; derandomized, so every
# run draws the same examples.

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=50)
ENTRIES = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
AWAY_FROM_ZERO = st.one_of(st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
SIDES = st.integers(1, 3)


def drawn(data, shape, elements=ENTRIES):
    return data.draw(hnp.arrays(np.float64, tuple(shape), elements=elements))


@PROPERTY
@given(st.data())
def test_matmul_matches_finite_differences(data):
    n, k, m = (data.draw(SIDES) for _ in range(3))
    lead = tuple(data.draw(st.lists(SIDES, max_size=2)))
    # stacked @ 2-D takes the flat path; stacked @ stacked broadcasts
    b_lead = data.draw(st.sampled_from([(), lead, (1,) * len(lead)]))
    a = param("a", drawn(data, (*lead, n, k)))
    b = param("b", drawn(data, (*b_lead, k, m)))
    w = drawn(data, (*lead, n, m))
    check_grads(lambda: T.tsum((a.tensor @ b.tensor) * T.Tensor(w)), [a, b])


@PROPERTY
@given(st.data(), st.sampled_from([T.add, T.sub, T.mul, T.div]))
def test_broadcast_arithmetic_matches_finite_differences(data, op):
    a_shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=3))
    b_shape = data.draw(hnp.broadcastable_shapes(a_shape, min_dims=0, max_dims=3, max_side=3))
    a = param("a", drawn(data, a_shape))
    b = param("b", drawn(data, b_shape, AWAY_FROM_ZERO if op is T.div else ENTRIES))
    w = drawn(data, np.broadcast_shapes(a_shape, b_shape))
    check_grads(lambda: T.tsum(op(a.tensor, b.tensor) * T.Tensor(w)), [a, b])


@PROPERTY
@given(st.data())
def test_softmax_and_gelu_match_finite_differences(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    x = param("x", drawn(data, shape))
    w, v = drawn(data, shape), drawn(data, shape)
    check_grads(lambda: T.tsum(T.softmax(x.tensor, axis=axis) * T.Tensor(w))
                + T.tsum(T.gelu(x.tensor) * T.Tensor(v)), [x])


@PROPERTY
@given(st.data())
def test_layer_norm_matches_finite_differences(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=4))
    rows = drawn(data, shape)
    # a near-constant row has a huge normalizing factor, which central
    # differences cannot follow
    assume(np.all(rows.var(axis=-1) > 1e-2))
    x = param("x", rows)
    gain, bias = param("gain", drawn(data, shape[-1:])), param("bias", drawn(data, shape[-1:]))
    w = drawn(data, shape)
    check_grads(lambda: T.tsum(T.layer_norm(x.tensor, gain.tensor, bias.tensor) * T.Tensor(w)),
                [x, gain, bias])


@PROPERTY
@given(st.data(), st.booleans())
def test_take_and_put_rows_match_finite_differences(data, unique):
    n, width = data.draw(st.integers(1, 5)), data.draw(SIDES)
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6,
                                      unique=unique)))
    out = data.draw(st.integers(n, 6))
    table = param("table", drawn(data, (n, width)))
    rows = param("rows", drawn(data, (idx.size, width)))
    w, v = drawn(data, (idx.size, width)), drawn(data, (out, width))
    check_grads(lambda: T.tsum(T.take_rows(table.tensor, idx) * T.Tensor(w))
                + T.tsum(T.put_rows(rows.tensor, idx, out) * T.Tensor(v)), [table, rows])


@PROPERTY
@given(st.data())
def test_concat_and_slicing_match_finite_differences(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
    axis = data.draw(st.integers(0, len(shape) - 1))
    parts = [param(f"p{i}", drawn(data, shape[:axis] + (data.draw(SIDES),) + shape[axis + 1:]))
             for i in range(data.draw(st.integers(1, 3)))]
    x = param("x", drawn(data, shape))
    # two keys into one tensor: overlapping reads add up in its gradient
    keys = [data.draw(hnp.basic_indices(shape, allow_ellipsis=True)) for _ in range(2)]
    joined = T.concat([p.tensor for p in parts], axis=axis)
    w = drawn(data, joined.shape)
    vs = [drawn(data, x.tensor.data[key].shape) for key in keys]

    def build():
        out = T.tsum(T.concat([p.tensor for p in parts], axis=axis) * T.Tensor(w))
        for key, v in zip(keys, vs):
            out = out + T.tsum(x.tensor[key] * T.Tensor(v))
        return out

    check_grads(build, [*parts, x])


@PROPERTY
@given(st.data(), st.booleans())
def test_reductions_match_finite_differences(data, keepdims):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
    axis = data.draw(st.one_of(
        st.none(),
        st.integers(-len(shape), len(shape) - 1),
        hnp.valid_tuple_axes(len(shape), min_size=1),
    ))
    x = param("x", drawn(data, shape))
    w = drawn(data, T.tsum(x.tensor, axis=axis, keepdims=keepdims).shape)
    v = drawn(data, shape)
    check_grads(lambda: T.tsum(T.tsum(x.tensor, axis=axis, keepdims=keepdims) * T.Tensor(w))
                + T.tmean(x.tensor * T.Tensor(v)), [x])


# ---------------------------------------------------------------------------
# exact rewrites: the same bits as the formulas they replace


def _softmax_reference(x, axis):
    """The row-max formula `softmax` replaced, term for term."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# the causal mask's -1e9, tied and signed-zero maxima, and spread-out logits
LOGITS = st.one_of(
    st.sampled_from([-1e9, 0.0, -0.0, 1.0, 2.0]),
    st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(st.data(), st.sampled_from([np.float32, np.float64]))
def test_softmax_equals_the_row_max_formula_bit_for_bit(data, dtype):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=4, max_side=5))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    x = data.draw(hnp.arrays(dtype, shape, elements=LOGITS))
    # a transposed view too, whose memory order is not its axis order
    x = x.transpose(data.draw(st.permutations(range(len(shape)))))
    out = T.softmax(T.Tensor(x), axis=axis).data
    assert out.dtype == x.dtype
    assert np.array_equal(out, _softmax_reference(x, axis))


def test_softmax_on_causal_scores_equals_the_row_max_formula():
    # attention scores as the student masks them: (batch, heads, t, t)
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(3, 4, 20, 20)).astype(np.float32)
    scores[..., 7, :] = 1.5  # a row of tied maxima
    scores = np.where(np.tril(np.ones((20, 20), dtype=bool)), scores, np.float32(-1e9))
    out = T.softmax(T.Tensor(scores), axis=-1).data
    assert np.array_equal(out, _softmax_reference(scores, -1))


def test_softmax_of_any_memory_order_equals_the_row_max_formula():
    # rows longer than numpy's 8-element pairwise-sum block, along every
    # axis of every transposed view
    base = np.random.default_rng(6).normal(0.0, 10.0, size=(3, 4, 20, 17)).astype(np.float32)
    for perm in itertools.permutations(range(base.ndim)):
        x = base.transpose(perm)
        for axis in range(-x.ndim, x.ndim):
            out = T.softmax(T.Tensor(x), axis=axis).data
            assert np.array_equal(out, _softmax_reference(x, axis)), (perm, axis)


@PROPERTY
@given(st.data())
def test_top1_equals_the_stable_sort_with_ties(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    # few distinct values, so most rows hold tied maxima
    scores = data.draw(hnp.arrays(np.float64, shape,
                                  elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])))
    idx = T.topk_indices(scores, 1)
    assert idx.shape == shape[:-1] + (1,)
    assert np.array_equal(idx, np.argsort(-scores, axis=-1, kind="stable")[..., :1])


def test_top1_ties_resolve_to_the_lowest_index():
    scores = np.array([[3.0, 3.0, 3.0], [-0.0, 0.0, -1.0], [0.0, -0.0, 0.0], [1.0, 2.0, 2.0]])
    assert T.topk_indices(scores, 1).tolist() == [[0], [0], [0], [1]]
