"""The model convolves each distinct window once; that must change nothing.

The oracle here is the plain route: every window position of every
message, line slot and hunk goes through `conv_text` / `conv3d_hunks`,
and the head (dropout, dense, sigmoid) runs once per patch.  The model's
features and scores must equal it bit for bit, its gradients must match
to 1e-12, and a patch must score the same alone and in any batch.  Other
tests pin the work: each conv call sees exactly the distinct windows of
the batch, counted here by hand, and the training tape does not grow
with the batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_patch
from test_nnkit import cut_windows, naive_max_pool
from patchnet import model
from patchnet.core import VARIANTS, HyperParams, Label, PatchDims
from patchnet.model import features, forward, forward_batch, init_params
from patchnet.nnkit import (
    _topo_order,
    backward,
    concat,
    conv3d_hunks,
    conv_text,
    dense,
    dropout,
    embed_lookup,
    loss,
    reshape,
    sigmoid_score,
    stack,
)

VOCAB = 4  # table height; ids are drawn from fewer so windows repeat

SMALL = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _oracle_pool(table, ids, conv, tail, params, layer, side=""):
    """Every window position of `ids` (rows of `table`), convolved and max-pooled."""
    parts = []
    for k in params.filter_sizes:
        filters, bias = (params[name] for name in model._conv_names(layer, k, side))
        windows = embed_lookup(table, cut_windows(ids, k, tail))
        parts.append(naive_max_pool(conv(windows, filters, bias), axis=-2))
    return concat(parts, axis=-1)


def oracle_features(patches, params, hp):
    """(B, e_dim) features with no dedup: every window convolved, per patch."""
    rows = []
    for p in patches:
        parts = []
        if hp.variant in ("full", "message"):
            parts.append(_oracle_pool(params["msg_embed"], p.message_tokens, conv_text, 0, params, "msg"))
        if hp.variant in ("full", "code"):
            sides = []
            for side, code in (("removed", p.removed_code), ("added", p.added_code)):
                lines = _oracle_pool(params["code_embed"], code, conv_text, 0, params, "line", "shared")
                # One table row per line slot; a hunk window is k hunks of slot ids.
                slots = np.arange(code[..., 0].size).reshape(code.shape[:-1])  # (files, H, N)
                table = reshape(lines, (slots.size, -1))
                sides.append(_oracle_pool(table, slots, conv3d_hunks, 1, params, "hunk", side))  # (files, E)
            parts.append(reshape(concat(sides, axis=-1), (-1,)))
        rows.append(concat(parts, axis=-1) if len(parts) > 1 else parts[0])
    return stack(rows)


def oracle_scores(patches, params, hp, training=False, rng=None):
    e = oracle_features(patches, params, hp)
    out = []
    for b in range(len(patches)):
        e_b = dropout(embed_lookup(e, np.intp(b)), hp.dropout, rng, training)
        out.append(sigmoid_score(dense(e_b, params["w_hidden"], params["b_hidden"]), params["w_out"]))
    return out


def _patches(rng, dims, n, ids):
    return [
        dense_patch(
            commit_id=f"{i:040x}",
            message_tokens=rng.integers(0, ids, dims.msg_len).astype(np.uint32),
            removed_code=rng.integers(0, ids, dims.code_shape).astype(np.uint32),
            added_code=rng.integers(0, ids, dims.code_shape).astype(np.uint32),
            label=Label.STABLE if i % 2 else Label.NON_STABLE,
        )
        for i in range(n)
    ]


CASES = st.fixed_dictionaries({
    "dims": st.builds(
        PatchDims,
        msg_len=st.integers(2, 6), files=st.integers(1, 3), hunks=st.integers(2, 3),
        lines=st.integers(1, 3), words=st.integers(2, 4),
    ),
    "variant": st.sampled_from(VARIANTS),
    "batch": st.integers(1, 4),
    "ids": st.integers(1, VOCAB),
    "seed": st.integers(0, 2**16),
})


def _setup(case):
    hp = HyperParams(d_msg=3, d_code=3, n_filters=2, fc_size=3, dims=case["dims"],
                     variant=case["variant"], dropout=0.25)
    params = init_params(hp, VOCAB, VOCAB, np.random.default_rng(case["seed"]), scale=0.5)
    patches = _patches(np.random.default_rng(case["seed"] + 1), hp.dims, case["batch"], case["ids"])
    return hp, params, patches


@SMALL
@given(CASES)
def test_features_and_scores_match_the_oracle_bit_for_bit(case):
    hp, params, patches = _setup(case)
    assert np.array_equal(features(patches, params, hp).data, oracle_features(patches, params, hp).data)
    got = forward_batch(patches, params, hp, mode="train", rng=np.random.default_rng(3))
    want = oracle_scores(patches, params, hp, training=True, rng=np.random.default_rng(3))
    assert got.data.shape == (len(patches),)
    assert got.data.tolist() == [float(z.data) for z in want]


@SMALL
@given(CASES)
def test_gradients_match_the_oracle(case):
    hp, params, patches = _setup(case)
    labels = np.array([float(p.label.to_int()) for p in patches])
    tensors = params.all()
    grads = []
    for scores in (forward_batch(patches, params, hp, mode="train", rng=np.random.default_rng(4)),
                   stack(oracle_scores(patches, params, hp, training=True, rng=np.random.default_rng(4)))):
        grads.append(backward(loss(scores, labels, tensors, 1e-3), tensors))
    for (name, _), got, want in zip(params.named(), *grads):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale, name


@SMALL
@given(CASES, st.randoms(use_true_random=False))
def test_a_patch_scores_the_same_alone_and_in_any_batch(case, shuffle):
    hp, params, patches = _setup(case)
    alone = {p.commit_id: float(forward(p, params, hp).data) for p in patches}
    batch = patches + patches[:1]
    shuffle.shuffle(batch)
    for p, z in zip(batch, forward_batch(batch, params, hp).data):
        assert float(z) == alone[p.commit_id]


def test_the_training_tape_does_not_grow_with_the_batch():
    case = {"dims": PatchDims(msg_len=5, files=2, hunks=3, lines=2, words=4),
            "variant": "full", "batch": 8, "ids": VOCAB, "seed": 9}
    hp, params, patches = _setup(case)
    sizes = [len(_topo_order(forward_batch(patches[:b], params, hp, mode="train", rng=np.random.default_rng(0))))
             for b in (1, 4, 8)]
    assert sizes[0] == sizes[1] == sizes[2]


def _windows(rows, k):
    """Distinct k-windows over the first axis of each array in rows."""
    return {r[i : i + k].tobytes() for r in rows for i in range(len(r) - k + 1)}


def test_each_conv_call_sees_only_the_distinct_windows(monkeypatch):
    hp = HyperParams()
    dims = hp.dims
    rng = np.random.default_rng(0)
    message = np.zeros(dims.msg_len, np.uint32)
    message[:40] = rng.integers(2, 30, 40)
    sides = []
    for _ in ("removed", "added"):
        code = np.zeros(dims.code_shape, np.uint32)
        code[0, :2, :4, :12] = rng.integers(2, 30, (2, 4, 12))  # 1 file, 2 hunks, 4 lines of 12
        sides.append(code)
    patch = dense_patch("0" * 40, message, *sides, label=None)
    params = init_params(hp, 30, 30, np.random.default_rng(1))

    calls = []

    def recorder(name, conv):
        def recorded(x, filters, bias):
            calls.append((name, filters.data.shape[1], x.data.shape[0]))
            return conv(x, filters, bias)
        return recorded

    monkeypatch.setattr(model, "conv_text", recorder("text", conv_text))
    monkeypatch.setattr(model, "conv3d_hunks", recorder("hunks", conv3d_hunks))
    forward(patch, params, hp)

    ks = hp.filter_sizes
    lines = {bytes(row) for code in sides for row in code.reshape(-1, dims.words)}
    line_rows = [np.frombuffer(row, np.uint32) for row in lines]
    expected = [("text", k, len(_windows([message], k))) for k in ks]
    expected += [("text", k, len(_windows(line_rows, k))) for k in ks]
    for code in sides:
        # A hunk window is k hunks of N lines; equal contents, one window.
        hunk_rows = [code[f].reshape(dims.hunks, -1) for f in range(dims.files)]
        expected += [("hunks", k, len(_windows(hunk_rows, k))) for k in ks]
    assert calls == expected


def test_distinct_windows_keep_np_unique_order():
    """The distinct windows come in np.unique's order: that order fixes the
    order gradients are summed in, so training stays bit-identical to the
    np.unique route."""
    rng = np.random.default_rng(5)
    for case in range(40):
        tail = case % 3
        lead = rng.integers(1, 4, int(rng.integers(0, 3))).tolist()
        n = int(rng.integers(2, 6))
        ids = rng.integers(0, 3, (*lead, n, *[2] * tail)).astype(rng.choice([np.uint16, np.uint32, np.intp]))
        k = int(rng.integers(1, n + 1))
        win = cut_windows(ids, k, tail)
        block = win.shape[ids.ndim - tail :]
        flat = np.ascontiguousarray(win).reshape(-1, int(np.prod(block)))
        keys = flat.view(np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        windows, where = model._distinct_windows(ids, k, tail)
        assert np.array_equal(windows, flat[first].reshape(-1, *block)), f"case {case}"
        assert np.array_equal(where, inverse.reshape(win.shape[: ids.ndim - tail])), f"case {case}"
