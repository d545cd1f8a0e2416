"""Tests for the patch-scoring network."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_patch, zero_params
from patchnet import model
from patchnet.core import VARIANTS, HyperParams, Label, PatchDims
from patchnet.model import (
    ModelParams,
    code_side_embedding,
    forward,
    init_params,
    line_embedding,
    message_embedding,
    param_specs,
)
from patchnet.nnkit import backward, concat, dense, loss, sigmoid_score
from patchnet.preprocess import check_patch
from patchnet.trainer import score_items

TINY = HyperParams(
    d_msg=3,
    d_code=3,
    filter_sizes=(1, 2),
    n_filters=2,
    fc_size=3,
    dims=PatchDims(msg_len=4, files=2, hunks=2, lines=2, words=3),
    dropout=0.0,
)


def rand_patch(rng, hp, msg_vocab_size=7, code_vocab_size=9, label=None):
    dims = hp.dims
    return dense_patch(
        commit_id="0" * 40,
        message_tokens=rng.integers(0, msg_vocab_size, dims.msg_len),
        removed_code=rng.integers(0, code_vocab_size, dims.code_shape),
        added_code=rng.integers(0, code_vocab_size, dims.code_shape),
        label=label,
    )


# ---------------------------------------------------------------------------
# HyperParams


def test_default_dimensions():
    hp = HyperParams()
    assert hp.line_embed_dim == 128
    assert hp.file_dim == 256
    assert hp.code_dim == 1280
    assert hp.e_dim == 1408
    assert hp.dims == PatchDims(msg_len=512, files=5, hunks=8, lines=10, words=120)


def test_variant_e_dims():
    assert HyperParams(variant="message").e_dim == 128
    assert HyperParams(variant="code").e_dim == 1280
    assert HyperParams(variant="full").e_dim == 1408


def test_hyperparams_json_round_trip():
    hp = HyperParams(n_filters=8, filter_sizes=(1, 3), variant="code", dropout=0.25)
    again = HyperParams.from_json_obj(hp.to_json_obj())
    assert again == hp
    assert isinstance(again.filter_sizes, tuple)


def test_hyperparams_validation():
    with pytest.raises(ValueError, match="positive"):
        HyperParams(n_filters=0)
    with pytest.raises(ValueError, match="distinct"):
        HyperParams(filter_sizes=(2, 2))
    with pytest.raises(ValueError, match="filter_sizes"):
        HyperParams(filter_sizes=())
    with pytest.raises(ValueError, match="threshold"):
        HyperParams(threshold=1.0)
    with pytest.raises(ValueError, match="dropout"):
        HyperParams(dropout=1.0)
    with pytest.raises(ValueError, match="l2_reg_lambda"):
        HyperParams(l2_reg_lambda=-1e-9)
    with pytest.raises(ValueError, match="variant"):
        HyperParams(variant="both")
    with pytest.raises(ValueError, match="filter size"):
        HyperParams(dims=PatchDims(hunks=1), filter_sizes=(1, 2))
    # A whole float or a bool is not an integer: shapes built from it fail later.
    for make in (lambda: HyperParams(d_msg=16.0), lambda: HyperParams(fc_size=True),
                 lambda: HyperParams(filter_sizes=(1, 2.0)), lambda: PatchDims(words=120.0),
                 lambda: PatchDims(files=False)):
        with pytest.raises(ValueError, match="must be an integer"):
            make()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_hyperparams_refuse_a_non_finite_l2(value):
    with pytest.raises(ValueError, match="l2_reg_lambda must be finite"):
        HyperParams(l2_reg_lambda=value)


def test_ablation_variants():
    assert set(VARIANTS) == {"full", "code", "message"}


# ---------------------------------------------------------------------------
# Parameter manifest


def test_param_specs_order_and_shapes():
    specs = param_specs(TINY, 7, 9)
    names = [n for n, _ in specs]
    assert names == [
        "msg_embed",
        "code_embed",
        "msg_filters_k1",
        "msg_bias_k1",
        "msg_filters_k2",
        "msg_bias_k2",
        "line_filters_shared_k1",
        "line_bias_shared_k1",
        "line_filters_shared_k2",
        "line_bias_shared_k2",
        "hunk_filters_removed_k1",
        "hunk_bias_removed_k1",
        "hunk_filters_removed_k2",
        "hunk_bias_removed_k2",
        "hunk_filters_added_k1",
        "hunk_bias_added_k1",
        "hunk_filters_added_k2",
        "hunk_bias_added_k2",
        "w_hidden",
        "b_hidden",
        "w_out",
    ]
    shapes = dict(specs)
    assert shapes["msg_embed"] == (7, 3)
    assert shapes["code_embed"] == (9, 3)
    assert shapes["msg_filters_k2"] == (2, 2, 3)
    assert shapes["line_filters_shared_k1"] == (2, 1, 3)
    assert shapes["hunk_filters_removed_k2"] == (2, 2, 2, 4)
    assert shapes["w_hidden"] == (3, TINY.e_dim)
    assert shapes["w_out"] == (3,)


def test_param_specs_variant_changes_hidden_width():
    for variant in VARIANTS:
        hp = replace(TINY, variant=variant)
        assert dict(param_specs(hp, 7, 9))["w_hidden"] == (3, hp.e_dim)


def test_param_specs_rejects_tiny_vocab():
    with pytest.raises(ValueError, match="at least 2"):
        param_specs(TINY, 1, 9)


def test_init_params_walks_manifest_deterministically():
    a = init_params(TINY, 7, 9, np.random.default_rng(3), scale=0.05)
    b = init_params(TINY, 7, 9, np.random.default_rng(3), scale=0.05)
    for (name_a, ta), (name_b, tb) in zip(a.named(), b.named()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)
        assert np.abs(ta.data).max() <= 0.05
    assert [n for n, _ in a.named()] == [n for n, _ in param_specs(TINY, 7, 9)]


def test_init_params_matches_per_spec_draws():
    # One draw for the whole vector takes the same stream as one draw
    # per tensor in manifest order.
    params = init_params(TINY, 7, 9, np.random.default_rng(5), scale=0.1)
    rng = np.random.default_rng(5)
    for name, shape in param_specs(TINY, 7, 9):
        assert np.array_equal(params[name].data, rng.uniform(-0.1, 0.1, size=shape)), name
    assert params.flat.max() <= 0.1 and params.flat.min() >= -0.1
    assert params.flat.std() > 0.01


def test_model_params_are_views_of_one_vector():
    specs = param_specs(TINY, 7, 9)
    flat = np.arange(sum(math.prod(shape) for _, shape in specs), dtype=np.float64)
    params = ModelParams(flat, specs, TINY)
    assert params.flat is flat
    assert [(n, t.data.shape) for n, t in params.named()] == specs
    assert np.array_equal(np.concatenate([t.data.ravel() for t in params.all()]), flat)
    assert all(np.shares_memory(t.data, flat) for t in params.all())
    flat[-1] = -1.0
    assert params["w_out"].data[-1] == -1.0
    for bad in (flat[:-1], flat.astype(np.float32), flat.reshape(1, -1)):
        with pytest.raises(ValueError, match="float64 vector"):
            ModelParams(bad, specs, TINY)


# ---------------------------------------------------------------------------
# Forward behavior


def test_zero_parameters_score_half_and_stable():
    rng = np.random.default_rng(1)
    params = zero_params(TINY)
    patch = rand_patch(rng, TINY)
    z = forward(patch, params, TINY)
    assert z.data.shape == ()
    assert float(z.data) == 0.5
    # score_items gives the same 0.5, which `predict` labels stable at
    # the default threshold (>=); tests/test_cli.py checks that label.
    assert score_items([patch], params, TINY).tolist() == [0.5]


def test_forward_variants_run_and_differ():
    rng = np.random.default_rng(2)
    patch = rand_patch(rng, TINY)
    zs = {}
    for variant in VARIANTS:
        hp = replace(TINY, variant=variant)
        params = init_params(hp, 7, 9, np.random.default_rng(11))
        zs[variant] = float(forward(patch, params, hp).data)
    assert 0.0 < min(zs.values()) and max(zs.values()) < 1.0
    assert len(set(zs.values())) == 3


def test_forward_shape_validation():
    params = zero_params(TINY)
    rng = np.random.default_rng(3)
    good = rand_patch(rng, TINY)
    bad_msg = replace(good, message=np.zeros(9, dtype=np.uint32))
    with pytest.raises(ValueError, match="message shape"):
        forward(bad_msg, params, TINY)
    bad_grid = replace(good, grid=good.grid[:1])
    with pytest.raises(ValueError, match="code grid shape"):
        forward(bad_grid, params, TINY)
    bad_rows = replace(good, rows=good.rows[:, :2])
    with pytest.raises(ValueError, match="code rows shape"):
        forward(bad_rows, params, TINY)
    bad_id = replace(good, rows=good.rows[:1])
    with pytest.raises(ValueError, match="row id"):
        forward(bad_id, params, TINY)
    signed = good.grid.astype(np.int64)
    signed[0, 0, 0, 0] = -1  # in a batch, the row before this patch's table
    with pytest.raises(ValueError, match="unsigned"):
        check_patch(replace(good, grid=signed), TINY.dims)


def test_forward_accepts_empty_message_and_rows():
    params = init_params(TINY, 7, 9, np.random.default_rng(12))
    good = rand_patch(np.random.default_rng(13), TINY)
    empty = replace(good, message=good.message[:0], rows=good.rows[:0],
                    grid=np.zeros_like(good.grid))
    z = float(forward(empty, params, TINY).data)
    assert 0.0 < z < 1.0
    assert not empty.message_tokens.any() and not empty.removed_code.any()


def test_forward_mode_validation():
    params = zero_params(TINY)
    patch = rand_patch(np.random.default_rng(4), TINY)
    with pytest.raises(ValueError, match="mode"):
        forward(patch, params, TINY, mode="test")
    with pytest.raises(ValueError, match="rng"):
        forward(patch, params, TINY, mode="train")


def test_train_mode_dropout_is_seeded_and_optional():
    hp = replace(TINY, dropout=0.5)
    params = init_params(hp, 7, 9, np.random.default_rng(5))
    patch = rand_patch(np.random.default_rng(6), hp)
    z1 = forward(patch, params, hp, mode="train", rng=np.random.default_rng(42))
    z2 = forward(patch, params, hp, mode="train", rng=np.random.default_rng(42))
    assert float(z1.data) == float(z2.data)

    no_drop = replace(TINY, dropout=0.0)
    params0 = init_params(no_drop, 7, 9, np.random.default_rng(5))
    patch0 = rand_patch(np.random.default_rng(6), no_drop)
    z_train = forward(patch0, params0, no_drop, mode="train", rng=np.random.default_rng(0))
    z_infer = forward(patch0, params0, no_drop)
    assert float(z_train.data) == float(z_infer.data)


def test_line_module_batching_matches_per_line():
    params = init_params(TINY, 7, 9, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    B = rng.integers(0, 9, (2, 2, 3))  # (H, N, L)
    batched = line_embedding(B, params)
    for h in range(2):
        for n in range(2):
            single = line_embedding(B[h, n], params)
            assert np.array_equal(batched.data[h, n], single.data)


def _file_side_embedding(block, params, side):
    """e_r or e_a of one file's (H, N, L) token block, each line slot its own row."""
    H, N, L = block.shape
    lines = line_embedding(block.reshape(-1, L), params)
    return code_side_embedding(lines, np.arange(H * N).reshape(H, N), params, side)


def test_code_side_embedding_batches_over_files():
    params = init_params(TINY, 7, 9, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    blocks = rng.integers(0, 9, (3, 2, 2, 3))  # (files, H, N, L)
    lines = line_embedding(blocks.reshape(-1, 3), params)
    rows = np.arange(12).reshape(3, 2, 2)  # (files, H, N)
    batched = code_side_embedding(lines, rows, params, "removed")
    for v in range(3):
        single = _file_side_embedding(blocks[v], params, "removed")
        assert np.array_equal(batched.data[v], single.data)
    with pytest.raises(ValueError, match="side"):
        code_side_embedding(lines, rows, params, "left")


def _score_from_files(patch, params, file_parts):
    """Reference score of e_m ⊕ file_parts, built from the model's pieces."""
    e = concat([message_embedding(patch.message_tokens, params), *file_parts], axis=-1)
    return float(sigmoid_score(dense(e, params["w_hidden"], params["b_hidden"]), params["w_out"]).data)


def test_forward_joins_files_in_slot_order():
    params = init_params(TINY, 7, 9, np.random.default_rng(21), scale=0.5)
    patch = rand_patch(np.random.default_rng(22), TINY)
    files = range(TINY.dims.files)
    removed = [_file_side_embedding(patch.removed_code[v], params, "removed") for v in files]
    added = [_file_side_embedding(patch.added_code[v], params, "added") for v in files]
    slot_order = _score_from_files(patch, params, [e for v in files for e in (removed[v], added[v])])
    # The file slots differ, so a side-major e_c would score differently.
    assert _score_from_files(patch, params, removed + added) != slot_order
    assert float(forward(patch, params, TINY).data) == slot_order


def test_forward_runs_each_code_side_once(monkeypatch):
    sides = []
    inner = model.code_side_embedding

    def counted(lines, rows, params, side):
        sides.append(side)
        return inner(lines, rows, params, side)

    monkeypatch.setattr(model, "code_side_embedding", counted)
    for files in (1, 3):
        hp = replace(TINY, dims=replace(TINY.dims, files=files))
        params = init_params(hp, 7, 9, np.random.default_rng(16))
        sides.clear()
        forward(rand_patch(np.random.default_rng(17), hp), params, hp)
        assert sides == ["removed", "added"]


def test_message_embedding_width():
    params = init_params(TINY, 7, 9, np.random.default_rng(12))
    e_m = message_embedding(np.array([0, 1, 2, 3]), params)
    assert e_m.data.shape == (TINY.line_embed_dim,)


# ---------------------------------------------------------------------------
# Whole-model gradient check


def test_model_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    params = init_params(TINY, 7, 9, rng)
    patch = rand_patch(rng, TINY, label=Label.STABLE)
    tensors = params.all()

    def build():
        z = forward(patch, params, TINY)
        return loss(z, np.asarray(1.0), tensors, lam=0.01)

    analytic = backward(build(), tensors)

    h = 1e-5
    for t, a in zip(tensors, analytic):
        it = np.nditer(t.data, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            saved = t.data[ix]
            t.data[ix] = saved + h
            up = float(build().data)
            t.data[ix] = saved - h
            down = float(build().data)
            t.data[ix] = saved
            numeric = (up - down) / (2.0 * h)
            denom = max(1.0, abs(a[ix]), abs(numeric))
            assert abs(a[ix] - numeric) / denom < 1e-4, f"{t.shape} at {ix}"


def test_every_parameter_receives_gradient_signal():
    # With both channels active, no parameter in the manifest should be
    # structurally disconnected from the loss.  A single tiny-scale init
    # can legitimately dead-ReLU a whole branch, so signal is summed
    # over several draws before asserting.
    totals = None
    names = None
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(TINY, 7, 9, rng)
        patch = rand_patch(rng, TINY)
        tensors = params.all()
        z = forward(patch, params, TINY)
        grads = backward(loss(z, np.asarray(0.0), [], lam=0.0), tensors)
        if totals is None:
            names = [n for n, _ in params.named()]
            totals = [0.0] * len(grads)
        totals = [t + np.abs(g).sum() for t, g in zip(totals, grads)]
    for name, total in zip(names, totals):
        assert total > 0.0, f"no gradient ever reached {name}"
