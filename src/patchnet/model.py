"""The patch-scoring network: a message CNN and a hierarchical code CNN
feeding a dense layer and a sigmoid output.

Message channel: embed 512 tokens, convolve with 1- and 2-gram filters,
max-pool per filter, concatenate (e_m, 128 dims by default).

Code channel: the line module (same structure as the message module,
one set of filters for both sides) gives one vector per line from its
120 tokens; per side, windows of hunks (files × hunks × lines × E) are
convolved in 3-D with per-side filters, max-pooled and concatenated
(e_r / e_a, 128 dims per file).  A file is e_r ⊕ e_a (256) and the
patch code vector e_c joins the five file slots in slot order (1280).
Classification: dropout(e_m ⊕ e_c) → dense(100, ReLU) → sigmoid.

Every convolution stage is "conv per filter size → max-pool → concat",
and each computes every distinct window of a minibatch once: a
window's output depends only on its contents.  The message and line
stages slide k-windows over token ids; the line stage runs on the
batch's distinct rows of both sides, giving a table of line vectors
and a grid of row ids; a hunk window is a tuple of k × lines row ids.
Each stage embeds its distinct windows, convolves them (an nnkit conv
maps each window to one value per filter; only this module slides)
and max-pools the (U, F) outputs by the window id at every position
(`max_pool(out, where)`, whose backward sends each pooled gradient to
the winning window, summing repeats), so the features equal a
per-window, per-patch computation bit for bit.  The head runs once
per batch too: no nnkit op sums across rows, so a patch scores the same
alone and in any batch.
"""

from __future__ import annotations

import math

import numpy as np

from .core import HyperParams, PatchDims
from .nnkit import (
    Tensor,
    concat,
    conv3d_hunks,
    conv_text,
    dense,
    dropout,
    embed_lookup,
    max_pool,
    reshape,
    sigmoid_score,
)
from .preprocess import INDEX_DTYPE, PreprocessedPatch, check_patch
from .vocab import PAD_INDEX


def _conv_names(layer: str, k: int, side: str = "") -> tuple[str, str]:
    """Filter and bias parameter names of one conv stage's window size k."""
    tag = f"_{side}" if side else ""
    return f"{layer}_filters{tag}_k{k}", f"{layer}_bias{tag}_k{k}"


def param_specs(
    hp: HyperParams, msg_vocab_size: int, code_vocab_size: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of every learnable array, in a fixed order.

    This list is the single ordering authority: ModelParams lays its
    flat vector out in this order, and checkpoints store that vector.
    """
    if msg_vocab_size < 2 or code_vocab_size < 2:
        raise ValueError("vocabulary sizes must be at least 2 (PAD and UNK)")
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("msg_embed", (msg_vocab_size, hp.d_msg)),
        ("code_embed", (code_vocab_size, hp.d_code)),
    ]
    hunk_tail = (hp.dims.lines, hp.line_embed_dim)
    stages = [("msg", "", (hp.d_msg,)), ("line", "shared", (hp.d_code,)),
              ("hunk", "removed", hunk_tail), ("hunk", "added", hunk_tail)]
    for layer, side, tail in stages:
        for k in hp.filter_sizes:
            filters, bias = _conv_names(layer, k, side)
            specs.append((filters, (hp.n_filters, k, *tail)))
            specs.append((bias, (hp.n_filters,)))
    specs.append(("w_hidden", (hp.fc_size, hp.e_dim)))
    specs.append(("b_hidden", (hp.fc_size,)))
    specs.append(("w_out", (hp.fc_size,)))
    return specs


class ModelParams:
    """Every learnable tensor, addressable by name in manifest order.

    `flat` is one float64 vector holding the tensors back to back in
    `specs` order, the order of `param_specs` and of a checkpoint's
    bytes; each tensor is a reshaped view of it.  Parameters change
    only in place, so a tensor and its slice of `flat` never part.
    """

    def __init__(self, flat: np.ndarray, specs: "list[tuple[str, tuple[int, ...]]]", hp: HyperParams):
        sizes = [math.prod(shape) for _, shape in specs]
        if flat.dtype != np.float64 or flat.shape != (sum(sizes),):
            raise ValueError(f"flat must be a float64 vector of {sum(sizes)} values")
        self.flat = flat
        views = np.split(flat, np.cumsum(sizes)[:-1])
        self._tensors = {name: Tensor(v.reshape(shape)) for (name, shape), v in zip(specs, views)}
        self.filter_sizes = tuple(hp.filter_sizes)

    def named(self) -> list[tuple[str, Tensor]]:
        return list(self._tensors.items())

    def all(self) -> list[Tensor]:
        return list(self._tensors.values())

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]


def init_params(
    hp: HyperParams,
    msg_vocab_size: int,
    code_vocab_size: int,
    rng: np.random.Generator,
    scale: float = 0.1,
) -> ModelParams:
    """Uniform [-scale, scale] initialization: one draw for the whole
    vector, the same stream as one draw per tensor in manifest order."""
    specs = param_specs(hp, msg_vocab_size, code_vocab_size)
    total = sum(math.prod(shape) for _, shape in specs)
    return ModelParams(rng.uniform(-scale, scale, size=total), specs, hp)


# ---------------------------------------------------------------------------
# Forward pieces


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array, and each row's index among them.

    Rows compare as raw bytes (one memcmp sort), far faster than
    np.unique(axis=0), which sorts field by field.  The distinct rows
    come in byte order, as np.unique gives them; that order is the order
    their gradients are summed in.
    """
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    order = keys.argsort()
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    where = np.empty(len(keys), dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    return a[order[new]], where


def _distinct_windows(ids: np.ndarray, k: int, tail: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct k-windows of an integer id array, and where each one sits.

    Windows slide over axis -(tail + 1) and each is a (k, *trailing)
    block.  Returns (windows (U, k, *trailing), where (..., P)): the
    window at position i of a leading index is windows[where[..., i]].
    """
    axis = ids.ndim - 1 - tail
    lead = (slice(None),) * axis
    n = ids.shape[axis] - k + 1
    win = np.stack([ids[lead + (slice(j, j + n),)] for j in range(k)], axis=axis + 1)
    block = win.shape[axis + 1 :]
    windows, where = _distinct_rows(win.reshape(-1, int(np.prod(block))))
    return windows.reshape(-1, *block), where.reshape(win.shape[: axis + 1])


def _conv_pool(ids: np.ndarray, table: Tensor, conv, params: ModelParams, layer: str, side: str = "") -> Tensor:
    """Per filter size, convolve each distinct window of `ids` once and
    max-pool the outputs over every window position; then concatenate
    the filter sizes.

    `ids` holds row ids of `table`.  A window of ids covers the filter's
    block but its last axis, the table's width: (k,) for text, (k, N)
    for hunks.  (..., n) or (..., H, N) ids give (..., E).
    """
    parts = []
    for k in params.filter_sizes:
        filters, bias = (params[name] for name in _conv_names(layer, k, side))
        windows, where = _distinct_windows(ids, k, filters.data.ndim - 3)
        out = conv(embed_lookup(table, windows), filters, bias)  # (U, F)
        parts.append(max_pool(out, where))
    return concat(parts, axis=-1)


def message_embedding(tokens, params: ModelParams) -> Tensor:
    """e_m per message: (..., msg_len) token ids give (..., E)."""
    return _conv_pool(np.asarray(tokens), params["msg_embed"], conv_text, params, "msg")


def line_embedding(line_tokens, params: ModelParams) -> Tensor:
    """One E-dim vector per line: (..., L) token ids give (..., E).

    Removed and added lines share this one line module.
    """
    return _conv_pool(np.asarray(line_tokens), params["code_embed"], conv_text, params, "line", "shared")


def code_side_embedding(lines: Tensor, rows: np.ndarray, params: ModelParams, side: str) -> Tensor:
    """e_r or e_a per file: the 3-D hunk convolution over line vectors.

    `lines` is a (U, E) table of line vectors and `rows` an (..., H, N)
    grid of its row ids, one per line slot; a batch's (B, files, H, N)
    grid gives (B, files, E).
    """
    if side not in ("removed", "added"):
        raise ValueError(f"side must be 'removed' or 'added', got {side!r}")
    return _conv_pool(rows, lines, conv3d_hunks, params, "hunk", side)


def _code_embedding(patches, params: ModelParams, dims: PatchDims) -> Tensor:
    """e_c per patch, (B, files * 2E): e_r(f0) ⊕ e_a(f0) ⊕ e_r(f1) ⊕ …

    The batch's row tables are joined, with the all-PAD row first when
    some slot holds it, and deduplicated; each grid is shifted to its
    table's place in the join and remapped to the distinct rows.
    """
    grids = np.stack([p.grid for p in patches]).astype(np.intp)  # (B, 2, files, H, N)
    counts = np.array([len(p.rows) for p in patches])
    empty = grids == 0
    has_pad = bool(empty.any())
    tables = [p.rows for p in patches]
    if has_pad:
        tables.insert(0, np.full((1, dims.words), PAD_INDEX, dtype=INDEX_DTYPE))
    # Row r >= 1 of patch b sits at start[b] + r of the joined table.
    start = np.cumsum(counts) - counts + has_pad - 1
    ids = grids + start.reshape(-1, 1, 1, 1, 1)
    ids[empty] = 0
    rows, where = _distinct_rows(np.concatenate(tables))
    lines = line_embedding(rows, params)  # each distinct line of the batch, both sides
    grid = where[ids]
    e_r = code_side_embedding(lines, grid[:, 0], params, "removed")  # (B, files, E)
    e_a = code_side_embedding(lines, grid[:, 1], params, "added")
    return reshape(concat([e_r, e_a], axis=-1), (len(patches), -1))


def features(patches, params: ModelParams, hp: HyperParams) -> Tensor:
    """The classifier input of every patch of a batch, (B, e_dim)."""
    for p in patches:
        check_patch(p, hp.dims)
    parts = []
    if hp.variant in ("full", "message"):
        messages = np.full((len(patches), hp.dims.msg_len), PAD_INDEX, dtype=INDEX_DTYPE)
        for b, p in enumerate(patches):
            messages[b, : len(p.message)] = p.message
        parts.append(message_embedding(messages, params))
    if hp.variant in ("full", "code"):
        parts.append(_code_embedding(patches, params, hp.dims))
    return concat(parts, axis=-1) if len(parts) > 1 else parts[0]


def forward_batch(
    patches,
    params: ModelParams,
    hp: HyperParams,
    mode: str = "infer",
    rng: "np.random.Generator | None" = None,
) -> Tensor:
    """Differentiable (B,) score tensor, one score per patch in order.

    Features, dropout, dense and sigmoid each run once over the batch.
    The (B, e_dim) dropout mask takes the rng's values in patch order.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    training = mode == "train"
    if training and rng is None:
        raise ValueError("training mode requires an rng for dropout")
    e = dropout(features(patches, params, hp), hp.dropout, rng, training)
    return sigmoid_score(dense(e, params["w_hidden"], params["b_hidden"]), params["w_out"])


def forward(
    p: PreprocessedPatch,
    params: ModelParams,
    hp: HyperParams,
    mode: str = "infer",
    rng: "np.random.Generator | None" = None,
) -> Tensor:
    """Differentiable score tensor for one patch (0-d): a batch of one."""
    return reshape(forward_batch([p], params, hp, mode, rng), ())

