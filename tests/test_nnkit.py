"""Tests for the differentiable kernel.

Three independent oracles drive this file: a naive per-window
convolution that materializes every window separately, the dense pooling
route (gather every position, pool over an axis, scatter back with
`np.add.at`), both checked bit-for-bit against the implementation, and
central finite differences over every op's inputs (relative error under
1e-4 with a unit floor).
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from patchnet import nnkit
from patchnet.nnkit import (
    AdamState,
    Tensor,
    adam_step,
    backward,
    concat,
    conv3d_hunks,
    conv_text,
    dense,
    dropout,
    embed_lookup,
    loss,
    max_pool,
    reshape,
    sigmoid_score,
    stack,
    tensor,
)

REL_TOL = 1e-4
FD_STEP = 1e-5


def weighted_sum(t: Tensor, weights: np.ndarray) -> Tensor:
    """Test-only reduction to a scalar so backward() can run."""
    out_data = (t.data * weights).sum()

    def backward_fn(g: np.ndarray) -> None:
        piece = g * weights
        t.grad = piece if t.grad is None else t.grad + piece

    return Tensor(out_data, (t,), backward_fn)


def central_differences(build, params):
    """Numeric gradients of the scalar build() for each param tensor."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            saved = p.data[ix]
            p.data[ix] = saved + FD_STEP
            up = float(build().data)
            p.data[ix] = saved - FD_STEP
            down = float(build().data)
            p.data[ix] = saved
            g[ix] = (up - down) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def assert_grads_match(build, params):
    analytic = backward(build(), params)
    numeric = central_differences(build, params)
    for p, a, n in zip(params, analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = (np.abs(a - n) / denom).max() if a.size else 0.0
        assert worst < REL_TOL, f"param {p.shape}: rel err {worst:.3g}"


# ---------------------------------------------------------------------------
# Naive convolution oracles (independent route, bit-exact comparison)


def cut_windows(x, k, tail):
    """Every k-window over axis -(tail + 1): (..., n, *t) -> (..., n-k+1, k, *t)."""
    axis = x.ndim - 1 - tail
    return np.moveaxis(np.lib.stride_tricks.sliding_window_view(x, k, axis=axis), -1, axis + 1)


def naive_conv_text(M, filters, bias):
    *lead, n, d = M.shape
    F, k, _ = filters.shape
    P = n - k + 1
    out = np.empty((*lead, F, P))
    for li in np.ndindex(*lead):
        for f in range(F):
            for i in range(P):
                window = np.ascontiguousarray(M[li][i : i + k, :])
                pre = (window * filters[f]).sum() + bias[f]
                out[li + (f, i)] = pre if pre > 0.0 else 0.0
    return out


def naive_conv3d(B, filters, bias):
    *lead, H, N, E = B.shape
    F, k, _, _ = filters.shape
    P = H - k + 1
    out = np.empty((*lead, F, P))
    for li in np.ndindex(*lead):
        for f in range(F):
            for i in range(P):
                window = np.ascontiguousarray(B[li][i : i + k])
                pre = (window * filters[f]).sum() + bias[f]
                out[li + (f, i)] = pre if pre > 0.0 else 0.0
    return out


def test_conv_text_matches_naive_bit_exact():
    rng = np.random.default_rng(401)
    for case in range(60):
        lead = tuple(
            int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3)))
        )
        k = int(rng.integers(1, 4))
        n = k + int(rng.integers(0, 6))
        d = int(rng.integers(1, 8))
        F = int(rng.integers(1, 6))
        scale = rng.choice((1e-3, 1.0, 1e3))
        M = rng.standard_normal((*lead, n, d)) * scale
        filters = rng.standard_normal((F, k, d))
        bias = rng.standard_normal(F)
        out = conv_text(tensor(cut_windows(M, k, 1)), tensor(filters), tensor(bias)).data  # (..., P, F)
        got = np.moveaxis(out, -1, -2)
        want = naive_conv_text(M, filters, bias)
        assert got.shape == (*lead, F, n - k + 1)
        assert np.array_equal(got, want), f"case {case}"


def test_conv3d_matches_naive_bit_exact():
    rng = np.random.default_rng(402)
    for case in range(60):
        lead = tuple(
            int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 2)))
        )
        k = int(rng.integers(1, 3))
        H = k + int(rng.integers(0, 5))
        N = int(rng.integers(1, 5))
        E = int(rng.integers(1, 7))
        F = int(rng.integers(1, 5))
        B = rng.standard_normal((*lead, H, N, E))
        filters = rng.standard_normal((F, k, N, E))
        bias = rng.standard_normal(F)
        out = conv3d_hunks(tensor(cut_windows(B, k, 2)), tensor(filters), tensor(bias)).data  # (..., P, F)
        got = np.moveaxis(out, -1, -2)
        want = naive_conv3d(B, filters, bias)
        assert got.shape == (*lead, F, H - k + 1)
        assert np.array_equal(got, want), f"case {case}"


@pytest.fixture(scope="module")
def chunk_case():
    rng = np.random.default_rng(403)
    M = rng.standard_normal((500, 10, 120))
    filters = rng.standard_normal((8, 3, 120))
    bias = rng.standard_normal(8)
    return M, filters, bias, naive_conv_text(M, filters, bias)


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 16, 1 << 18, 1 << 23])
def test_conv_text_chunked_path_bit_exact(chunk_case, chunk, monkeypatch):
    # Filter size 2880 puts the chunk step (1 to 2912 windows) below the
    # 4000 windows, so the forward runs in blocks; the result must not change.
    monkeypatch.setattr(nnkit, "_CHUNK_ELEMS", chunk)
    M, filters, bias, want = chunk_case
    got = conv_text(tensor(cut_windows(M, 3, 1)), tensor(filters), tensor(bias))
    assert np.array_equal(np.moveaxis(got.data, -1, -2), want)


def test_conv_batched_equals_per_item():
    rng = np.random.default_rng(404)
    M = rng.standard_normal((6, 9, 5))
    filters = tensor(rng.standard_normal((4, 2, 5)))
    bias = tensor(rng.standard_normal(4))
    batched = conv_text(tensor(cut_windows(M, 2, 1)), filters, bias)
    for b in range(6):
        single = conv_text(tensor(cut_windows(M[b], 2, 1)), filters, bias)
        assert np.array_equal(batched.data[b], single.data)


def test_conv_shape_validation():
    with pytest.raises(ValueError, match="window shape"):
        conv_text(tensor(np.zeros((3, 1, 4))), tensor(np.zeros((2, 2, 4))), tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="window shape"):
        conv_text(tensor(np.zeros((3, 2, 4))), tensor(np.zeros((2, 2, 3))), tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="window shape"):
        conv3d_hunks(
            tensor(np.zeros((2, 1, 3, 4))), tensor(np.zeros((2, 2, 3, 4))), tensor(np.zeros(2))
        )


# ---------------------------------------------------------------------------
# Naive pooling oracle: the dense route `max_pool` replaced


def naive_embed_lookup(W, idx):
    """W[idx], whose backward is np.add.at into zeros."""
    idx = np.asarray(idx)

    def backward_fn(g):
        dW = np.zeros_like(W.data)
        np.add.at(dW, idx.ravel(), g.reshape(-1, W.data.shape[1]))
        W.grad = dW if W.grad is None else W.grad + dW

    return Tensor(W.data[idx], (W,), backward_fn)


def naive_max_pool(t, axis):
    """Max over one axis; a dense gradient, zero but at the first argmax."""
    arg = np.expand_dims(np.argmax(t.data, axis=axis), axis)

    def backward_fn(g):
        dt = np.zeros_like(t.data)
        np.put_along_axis(dt, arg, np.expand_dims(g, axis), axis=axis)
        t.grad = dt if t.grad is None else t.grad + dt

    return Tensor(np.take_along_axis(t.data, arg, axis=axis).squeeze(axis), (t,), backward_fn)


def naive_pool_by_ids(t, where):
    """Every position's row gathered, then pooled over positions."""
    return naive_max_pool(naive_embed_lookup(t, where), axis=-2)


def test_max_pool_matches_the_dense_route_bit_for_bit():
    rng = np.random.default_rng(405)
    for case in range(80):
        U = int(rng.integers(1, 6))
        F = int(rng.integers(1, 5))
        lead = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3))))
        P = int(rng.integers(1, 7))
        where = rng.integers(0, U, (*lead, P)).astype(rng.choice([np.uint16, np.uint32, np.intp]))
        data = rng.standard_normal((U, F))
        if case % 2:
            data = np.round(data)  # ties within and across rows
        R = rng.standard_normal((*lead, F)) * rng.choice((1e-8, 1.0, 1e8), (*lead, F))
        t = tensor(data)
        got = max_pool(t, where)
        want = naive_pool_by_ids(t, where)
        assert got.data.shape == (*lead, F)
        assert np.array_equal(got.data, want.data), f"case {case}"
        (g_got,) = backward(weighted_sum(got, R), [t])
        (g_want,) = backward(weighted_sum(want, R), [t])
        assert np.array_equal(g_got, g_want), f"case {case}"


def test_embed_lookup_gradient_matches_add_at_bit_for_bit():
    # Few rows, many lookups and weights of very different sizes: the
    # sums depend on their order, which must be the input order.
    rng = np.random.default_rng(406)
    for case in range(20):
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        lead = tuple(int(rng.integers(1, 40)) for _ in range(int(rng.integers(0, 3))))
        idx = rng.integers(0, n, lead).astype(np.uint32)
        R = rng.standard_normal((*lead, d)) * rng.choice((1e-9, 1.0, 1e9), (*lead, d))
        W = tensor(rng.standard_normal((n, d)))
        (got,) = backward(weighted_sum(embed_lookup(W, idx), R), [W])
        (want,) = backward(weighted_sum(naive_embed_lookup(W, idx), R), [W])
        assert np.array_equal(got, want), f"case {case}"


# ---------------------------------------------------------------------------
# Finite-difference gradient checks, op by op


def test_grad_embed_lookup():
    rng = np.random.default_rng(410)
    W = tensor(rng.standard_normal((6, 4)) * 0.5)
    R = rng.standard_normal((2, 3, 4))
    idx = np.array([[0, 1, 1], [5, 0, 2]])
    assert_grads_match(lambda: weighted_sum(embed_lookup(W, idx), R), [W])


def test_grad_conv_text():
    rng = np.random.default_rng(411)
    M = tensor(cut_windows(rng.standard_normal((2, 3, 7, 4)) * 0.7, 2, 1).copy())
    filters = tensor(rng.standard_normal((3, 2, 4)) * 0.7)
    bias = tensor(rng.standard_normal(3) * 0.5)
    R = rng.standard_normal((2, 3, 6, 3))
    assert_grads_match(
        lambda: weighted_sum(conv_text(M, filters, bias), R), [M, filters, bias]
    )


def test_grad_conv3d_hunks():
    rng = np.random.default_rng(412)
    B = tensor(cut_windows(rng.standard_normal((2, 5, 3, 4)) * 0.6, 2, 2).copy())
    filters = tensor(rng.standard_normal((2, 2, 3, 4)) * 0.6)
    bias = tensor(rng.standard_normal(2) * 0.5)
    R = rng.standard_normal((2, 4, 2))
    assert_grads_match(
        lambda: weighted_sum(conv3d_hunks(B, filters, bias), R), [B, filters, bias]
    )


def test_grad_max_pool():
    rng = np.random.default_rng(413)
    t = tensor(rng.standard_normal((5, 4)))
    where = rng.integers(0, 5, (2, 3, 6))
    R = rng.standard_normal((2, 3, 4))
    assert_grads_match(lambda: weighted_sum(max_pool(t, where), R), [t])


def test_grad_dense():
    rng = np.random.default_rng(414)
    e = tensor(rng.standard_normal((4, 7)) * 0.8)
    w = tensor(rng.standard_normal((3, 7)) * 0.8)
    b = tensor(rng.standard_normal(3) * 0.5)
    R = rng.standard_normal((4, 3))
    assert_grads_match(lambda: weighted_sum(dense(e, w, b), R), [e, w, b])


def test_grad_sigmoid_score():
    rng = np.random.default_rng(415)
    h = tensor(rng.standard_normal((5, 3)))
    w_o = tensor(rng.standard_normal(3))
    R = rng.standard_normal(5)
    assert_grads_match(lambda: weighted_sum(sigmoid_score(h, w_o), R), [h, w_o])


def test_grad_concat_and_stack():
    rng = np.random.default_rng(416)
    a = tensor(rng.standard_normal((2, 3)))
    b = tensor(rng.standard_normal((2, 5)))
    R = rng.standard_normal((2, 8))
    assert_grads_match(lambda: weighted_sum(concat([a, b], axis=-1), R), [a, b])

    c = tensor(rng.standard_normal((2, 2)))
    d = tensor(rng.standard_normal((2, 2)))
    R2 = rng.standard_normal((2, 2, 2))
    assert_grads_match(lambda: weighted_sum(stack([c, d]), R2), [c, d])


def test_grad_reshape():
    # The model's e_c: (files, E) per side, joined on the last axis and
    # flattened in slot order.
    rng = np.random.default_rng(420)
    r = tensor(rng.standard_normal((3, 2)))
    a = tensor(rng.standard_normal((3, 2)))
    R = rng.standard_normal(12)
    build = lambda: weighted_sum(reshape(concat([r, a], axis=-1), (-1,)), R)
    assert_grads_match(build, [r, a])


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(417)
    t = tensor(rng.standard_normal((6, 5)))
    R = rng.standard_normal((6, 5))
    build = lambda: weighted_sum(
        dropout(t, 0.4, np.random.default_rng(99), training=True), R
    )
    assert_grads_match(build, [t])


def test_grad_loss_with_regularization():
    rng = np.random.default_rng(418)
    h = tensor(rng.standard_normal((4, 3)))
    w_o = tensor(rng.standard_normal(3))
    extra = tensor(rng.standard_normal((2, 2)))
    y = np.array([0.0, 1.0, 1.0, 0.0])
    build = lambda: loss(sigmoid_score(h, w_o), y, [h, w_o, extra], lam=0.01)
    assert_grads_match(build, [h, w_o, extra])


def test_grad_composite_graph():
    # embed -> conv -> pool -> concat -> dense -> score -> loss,
    # the same op chain the real model uses.
    rng = np.random.default_rng(419)
    W = tensor(rng.uniform(-0.5, 0.5, (7, 4)))
    f1 = tensor(rng.uniform(-0.5, 0.5, (2, 1, 4)))
    b1 = tensor(rng.uniform(-0.2, 0.2, 2))
    f2 = tensor(rng.uniform(-0.5, 0.5, (2, 2, 4)))
    b2 = tensor(rng.uniform(-0.2, 0.2, 2))
    wh = tensor(rng.uniform(-0.5, 0.5, (3, 4)))
    bh = tensor(rng.uniform(-0.2, 0.2, 3))
    wo = tensor(rng.uniform(-0.5, 0.5, 3))
    idx = np.array([2, 0, 5, 1, 6])
    params = [W, f1, b1, f2, b2, wh, bh, wo]

    def build():
        parts = [
            max_pool(conv_text(embed_lookup(W, cut_windows(idx, 1, 0)), f1, b1), np.arange(5)),
            max_pool(conv_text(embed_lookup(W, cut_windows(idx, 2, 0)), f2, b2), np.arange(4)),
        ]
        e = concat(parts, axis=-1)
        z = sigmoid_score(dense(e, wh, bh), wo)
        return loss(z, np.asarray(1.0), params, lam=0.02)

    assert_grads_match(build, params)


# ---------------------------------------------------------------------------
# Specific op semantics


def test_embed_lookup_values_and_repeat_accumulation():
    W = tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = embed_lookup(W, [0, 2, 0])
    assert np.array_equal(out.data, W.data[[0, 2, 0]])
    total = weighted_sum(out, np.ones((3, 3)))
    (gW,) = backward(total, [W])
    assert np.array_equal(gW[0], [2.0, 2.0, 2.0])  # looked up twice
    assert np.array_equal(gW[2], [1.0, 1.0, 1.0])
    assert np.array_equal(gW[1], [0.0, 0.0, 0.0])


def test_embed_lookup_range_check():
    W = tensor(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        embed_lookup(W, [4])
    with pytest.raises(IndexError):
        embed_lookup(W, [-1])


def test_embed_lookup_refuses_non_integer_indices():
    W = tensor(np.zeros((4, 3)))
    for bad in ([0.0, 1.0], np.array([1.5]), np.array([True])):
        with pytest.raises(TypeError, match="integers"):
            embed_lookup(W, bad)


def test_embed_lookup_indexes_with_the_given_dtype():
    """uint32 indices are used as they are: no int64 copy, same gradient."""
    W = tensor(np.arange(8.0).reshape(8, 1))
    idx = (np.arange(1 << 18) % 8).astype(np.uint32)
    tracemalloc.start()
    try:
        out = embed_lookup(W, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.data.nbytes  # an int64 copy of idx would add as much again
    (g32,) = backward(weighted_sum(out, np.ones((1 << 18, 1))), [W])
    (g64,) = backward(weighted_sum(embed_lookup(W, idx.astype(np.int64)), np.ones((1 << 18, 1))), [W])
    assert np.array_equal(g32, g64)


def test_max_pool_gathers_by_position_and_sums_repeats():
    t = tensor(np.array([[1.0, 9.0], [4.0, 0.0], [2.0, 3.0]]))
    where = np.array([[0, 1, 1], [2, 2, 0], [1, 1, 1]], dtype=np.uint32)
    out = max_pool(t, where)
    assert out.data.tolist() == [[4.0, 9.0], [2.0, 9.0], [4.0, 0.0]]
    (gt,) = backward(weighted_sum(out, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])), [t])
    # Row 1 wins filter 0 in rows 0 and 2 of `where`; row 0 wins filter 1 twice.
    assert gt.tolist() == [[0.0, 6.0], [6.0, 6.0], [3.0, 0.0]]


def test_max_pool_single_position():
    t = tensor(np.array([[1.0, -2.0], [3.0, 4.0]]))
    out = max_pool(t, np.array([[1], [0], [1]]))
    assert out.data.tolist() == [[3.0, 4.0], [1.0, -2.0], [3.0, 4.0]]
    (gt,) = backward(weighted_sum(out, np.ones((3, 2))), [t])
    assert gt.tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_max_pool_first_argmax_wins_ties():
    t = tensor(np.array([[3.0], [5.0], [5.0]]))
    out = max_pool(t, np.array([0, 1, 2]))
    assert out.data.tolist() == [5.0]
    (gt,) = backward(weighted_sum(out, np.array([2.0])), [t])
    assert gt.tolist() == [[0.0], [2.0], [0.0]]
    # The first position wins, not the lowest row id.
    (gt,) = backward(weighted_sum(max_pool(t, np.array([2, 1, 0])), np.array([2.0])), [t])
    assert gt.tolist() == [[0.0], [0.0], [2.0]]


def test_max_pool_empty_axis_rejected():
    with pytest.raises(ValueError, match="empty"):
        max_pool(tensor(np.zeros((2, 3))), np.zeros((2, 0), dtype=np.intp))


def test_max_pool_checks_position_ids():
    t = tensor(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        max_pool(t, np.array([0, 2]))
    with pytest.raises(TypeError, match="integers"):
        max_pool(t, np.array([0.0, 1.0]))


def test_max_pool_backward_stays_below_one_dense_position_block():
    """The backward scatters the (B, F) winners, never a (B, P, F) block."""
    B, P, F, U = 4, 20000, 8, 64
    rng = np.random.default_rng(423)
    t = tensor(rng.standard_normal((U, F)))
    where = rng.integers(0, U, (B, P)).astype(np.uint32)
    total = weighted_sum(max_pool(t, where), np.ones((B, F)))
    tracemalloc.start()
    try:
        (gt,) = backward(total, [t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gt.sum() == B * F
    assert peak < B * P * F * 8


def test_dense_shape_check_and_relu():
    e = tensor(np.array([1.0, -1.0]))
    w = tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    b = tensor(np.array([0.0, 0.0, 0.5]))
    out = dense(e, w, b)
    assert out.data.tolist() == [1.0, 0.0, 0.5]
    with pytest.raises(ValueError, match="dense"):
        dense(tensor(np.zeros(3)), w, b)


def test_dense_and_sigmoid_score_rows_do_not_depend_on_their_batch():
    rng = np.random.default_rng(509)
    e = rng.standard_normal((32, 1408))
    w = tensor(rng.standard_normal((100, 1408)) * 0.05)
    b = tensor(rng.standard_normal(100) * 0.1)
    w_o = tensor(rng.standard_normal(100))
    h = dense(tensor(e), w, b)
    z = sigmoid_score(h, w_o)
    naive = [[max((e[q] * w.data[f]).sum() + b.data[f], 0.0) for f in range(100)] for q in range(32)]
    assert h.data.tolist() == naive
    for q in range(32):
        h_q = dense(tensor(e[q]), w, b)
        assert np.array_equal(h_q.data, h.data[q])
        assert sigmoid_score(h_q, w_o).data == z.data[q]
        assert sigmoid_score(tensor(h.data[q : q + 1]), w_o).data[0] == z.data[q]


def test_sigmoid_score_is_overflow_safe():
    w = tensor(np.array([1.0]))
    with np.errstate(over="raise"):
        hi = sigmoid_score(tensor(np.array([[1000.0]])), w)
        lo = sigmoid_score(tensor(np.array([[-1000.0]])), w)
    assert hi.data[0] == 1.0
    assert lo.data[0] == 0.0
    mid = sigmoid_score(tensor(np.array([[0.0]])), w)
    assert mid.data[0] == 0.5


def test_dropout_inference_is_identity_object():
    t = tensor(np.ones((3, 3)))
    assert dropout(t, 0.5, np.random.default_rng(0), training=False) is t
    assert dropout(t, 0.0, np.random.default_rng(0), training=True) is t


def test_dropout_monte_carlo():
    rng = np.random.default_rng(420)
    t = tensor(np.ones(20000))
    out = dropout(t, 0.3, rng, training=True)
    kept = out.data != 0.0
    assert abs(kept.mean() - 0.7) < 0.02
    assert np.allclose(out.data[kept], 1.0 / 0.7)
    assert abs(out.data.mean() - 1.0) < 0.02
    # Gradient respects the same mask.
    (gt,) = backward(weighted_sum(out, np.ones(20000)), [t])
    assert np.array_equal(gt != 0.0, kept)


def test_dropout_rate_validation():
    t = tensor(np.ones(3))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            dropout(t, bad, np.random.default_rng(0), training=True)


def test_loss_closed_form_and_batch_sum():
    z = Tensor(np.array([0.5, 0.5]))
    out = loss(z, np.array([1.0, 0.0]), [], lam=0.0)
    assert math.isclose(float(out.data), 2.0 * -math.log(0.5), rel_tol=1e-12)

    p = tensor(np.array([2.0, -1.0]))
    reg_only = loss(Tensor(np.array(0.5)), np.asarray(1.0), [p], lam=0.1)
    expected = -math.log(0.5) + 0.05 * 5.0
    assert math.isclose(float(reg_only.data), expected, rel_tol=1e-12)


def test_loss_clamps_extreme_scores_without_gradient():
    z = Tensor(np.array([0.0, 1.0]))
    out = loss(z, np.array([1.0, 0.0]), [], lam=0.0)
    assert np.isfinite(float(out.data))
    assert float(out.data) == pytest.approx(2.0 * -math.log(1e-12), rel=1e-6)
    backward(out, None)
    assert np.array_equal(z.grad, [0.0, 0.0])


def test_loss_regularization_gradient():
    p = tensor(np.array([2.0, -1.0]))
    z = Tensor(np.array(0.5))
    out = loss(z, np.asarray(1.0), [p], lam=0.1)
    (gp,) = backward(out, [p])
    assert np.allclose(gp, [0.2, -0.1])


def test_loss_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        loss(Tensor(np.array([0.5])), np.array([[1.0]]), [], lam=0.0)


# ---------------------------------------------------------------------------
# backward() mechanics


def test_backward_rejects_non_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(tensor(np.zeros(3)))


def test_backward_zero_for_off_tape_params():
    x = tensor(np.array([1.0, 2.0]))
    unused = tensor(np.array([[5.0]]))
    total = weighted_sum(x, np.array([1.0, 1.0]))
    gx, gu = backward(total, [x, unused])
    assert np.array_equal(gx, [1.0, 1.0])
    assert np.array_equal(gu, [[0.0]])
    assert gu.shape == unused.data.shape


def test_backward_resets_between_calls():
    x = tensor(np.array([3.0]))
    build = lambda: weighted_sum(x, np.array([2.0]))
    (g1,) = backward(build(), [x])
    (g2,) = backward(build(), [x])
    assert np.array_equal(g1, g2)


def test_backward_diamond_graph_accumulates():
    x = tensor(np.array([1.0, 2.0]))
    a = weighted_sum(x, np.array([1.0, 0.0]))
    b = weighted_sum(x, np.array([0.0, 3.0]))
    total = weighted_sum(stack([a, b]), np.array([1.0, 1.0]))
    (gx,) = backward(total, [x])
    assert np.array_equal(gx, [1.0, 3.0])


def _graph(root):
    """Every tensor on root's tape."""
    seen, todo = {}, [root]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t.parents)
    return list(seen.values())


def _backward_keeping_every_grad(root, params):
    """Reference reverse pass that keeps every interior gradient."""
    order, done = [], set()

    def visit(t):
        if id(t) not in done:
            done.add(id(t))
            for p in t.parents:
                visit(p)
            order.append(t)

    visit(root)
    for t in order:
        t.grad = None
    root.grad = np.ones(())
    for t in reversed(order):
        if t._backward_fn is not None and t.grad is not None:
            t._backward_fn(t.grad)
    return [p.grad for p in params]


def _small_model(rng):
    W = tensor(rng.uniform(-0.5, 0.5, (6, 3)))
    f = tensor(rng.uniform(-0.5, 0.5, (2, 2, 3)))
    b = tensor(rng.uniform(-0.2, 0.2, 2))
    wo = tensor(rng.uniform(-0.5, 0.5, 4))
    idx = np.array([[0, 1, 5, 2], [3, 3, 4, 0]])
    params = [W, f, b, wo]

    def build():
        out = conv_text(embed_lookup(W, cut_windows(idx, 2, 0).reshape(6, 2)), f, b)  # (6, 2)
        pooled = max_pool(out, np.arange(6).reshape(2, 3))  # (2, 2)
        z = sigmoid_score(reshape(pooled, (4,)), wo)
        return loss(z, np.asarray(1.0), params, lam=0.01)

    return build, params


def test_backward_releases_interior_grads():
    build, params = _small_model(np.random.default_rng(422))
    out = build()
    grads = backward(out, params)
    interior = [t for t in _graph(out) if t._backward_fn is not None]
    assert len(interior) == 6
    assert all(t.grad is None for t in interior)
    assert all(p.grad is g for p, g in zip(params, grads))

    kept = build()
    expected = _backward_keeping_every_grad(kept, params)
    assert all(t.grad is not None for t in _graph(kept))
    for g, e in zip(grads, expected):
        assert np.array_equal(g, e)


def test_backward_keeps_grads_of_interior_params():
    x = tensor(np.array([1.0, 2.0]))
    doubled = concat([x, x])
    total = weighted_sum(doubled, np.array([1.0, 2.0, 3.0, 4.0]))
    g_doubled, gx = backward(total, [doubled, x])
    assert np.array_equal(g_doubled, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(gx, [4.0, 6.0])
    assert doubled.grad is g_doubled
    assert total.grad is None


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_matches_hand_calculation():
    p = tensor(np.array([1.0, -2.0]))
    state = AdamState.for_param(p, learning_rate=0.1)
    g = np.array([0.5, -1.0])
    adam_step(p, g, state)
    # After one step m_hat == g and v_hat == g*g exactly.
    expected = [
        1.0 - 0.1 * 0.5 / (math.sqrt(0.25) + 1e-8),
        -2.0 + 0.1 * 1.0 / (math.sqrt(1.0) + 1e-8),
    ]
    assert np.allclose(p.data, expected, rtol=1e-15)
    assert state.step == 1


def test_adam_second_step_matches_hand_calculation():
    p = tensor(np.array([0.0]))
    state = AdamState.for_param(p, learning_rate=0.01)
    g1, g2 = 0.3, -0.2
    adam_step(p, np.array([g1]), state)
    adam_step(p, np.array([g2]), state)

    m1 = 0.1 * g1
    v1 = 0.001 * g1 * g1
    x = 0.0 - 0.01 * (m1 / 0.1) / (math.sqrt(v1 / 0.001) + 1e-8)
    m2 = 0.9 * m1 + 0.1 * g2
    v2 = 0.999 * v1 + 0.001 * g2 * g2
    m_hat = m2 / (1.0 - 0.9**2)
    v_hat = v2 / (1.0 - 0.999**2)
    x -= 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.data, [x], rtol=1e-14)
    assert state.step == 2


def test_adam_is_bit_identical_to_the_formula_it_updates_in_place():
    rng = np.random.default_rng(11)
    p = tensor(rng.standard_normal((40, 7)))
    state = AdamState.for_param(p, learning_rate=0.01)
    want, m, v = p.data.copy(), np.zeros((40, 7)), np.zeros((40, 7))
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
    for step in range(1, 9):
        g = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-6, 3, size=(40, 1))
        adam_step(p, g, state)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        want -= lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
        assert np.array_equal(p.data, want)
        assert np.array_equal(state.first_moment, m) and np.array_equal(state.second_moment, v)


def test_adam_accepts_raw_arrays():
    arr = np.array([1.0])
    state = AdamState.for_param(arr, learning_rate=0.5)
    adam_step(arr, np.array([1.0]), state)
    assert arr[0] == pytest.approx(1.0 - 0.5 * 1.0 / (1.0 + 1e-8), rel=1e-12)


def test_adam_descends_on_quadratic():
    p = tensor(np.array([4.0]))
    state = AdamState.for_param(p, learning_rate=0.2)
    for _ in range(400):
        adam_step(p, 2.0 * p.data, state)
    assert abs(float(p.data[0])) < 1e-3


# ---------------------------------------------------------------------------
# Tensor


def test_tensor_dtype_is_float64():
    t = tensor([1, 2, 3])
    assert t.data.dtype == np.float64
    assert conv_text(
        tensor(np.zeros((3, 1, 2), dtype=np.float32)),
        tensor(np.zeros((1, 1, 2))),
        tensor(np.zeros(1)),
    ).data.dtype == np.float64
