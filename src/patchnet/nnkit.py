"""Minimal differentiable kernel: embeddings, text and hunk convolutions,
max pooling, dense layers, sigmoid scoring, dropout, regularized
cross-entropy, reverse-mode gradients, and Adam.

Conventions:
  - float64 everywhere; checkpoints downcast to float32 elsewhere.
  - Every op accepts arbitrary leading batch axes on its main input, so
    a minibatch's distinct windows go through one conv call.
  - Convolutions take windows, not sequences: (..., k, *tail) windows
    give (..., F), one value per filter.  The caller cuts the windows;
    nothing here knows about window positions or overlaps.
  - Convolution forwards materialize the filter×window products as
    C-contiguous blocks and reduce with a single multi-axis sum, which
    reproduces a naive per-window loop bit-for-bit at float64.
  - `max_pool(t, where)` pools by position ids: t holds (U, F) window
    outputs and where (..., P) the window at each position, so a
    window seen at many positions is stored once.
  - Gradients that land on table rows (`embed_lookup`, `max_pool`) go
    through one ordered scatter, a `np.bincount` over flat cell ids.
    Like `np.add.at` into zeros it adds each cell's contributions in
    input order from 0.0, so the sums are the same bit for bit.
  - `dense` is a convolution with one window, the whole (n,) input row.
    No op calls BLAS: every reduction is numpy's sum or a non-optimized
    `einsum`, so a row's result depends neither on the other rows of its
    batch nor on the BLAS build and its thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Cap on elements in a materialized product block: 256K doubles = 2 MB,
# one core's L2 on a 2-vCPU Xeon, so a block is still in cache when it
# is summed.  A 100-patch training epoch at PatchDims() (batch 32) took
# 2.1-2.6 s at 1<<16 ... 1<<18, 2.5-2.9 s at 1<<19 and 1<<20, and
# 3.5-4.0 s at 1<<23 (64 MB blocks); the sums do not depend on the cap.
_CHUNK_ELEMS = 1 << 18


class Tensor:
    """A float64 array plus the closure that back-propagates into its parents."""

    __slots__ = ("data", "parents", "_backward_fn", "grad")

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)
        self._backward_fn = backward_fn
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def tensor(data) -> Tensor:
    return Tensor(data)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# Ops


def _gather(table: np.ndarray, indices, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(indices, table[indices]).  Indices keep their own dtype (no copy);
    non-integer ones are a TypeError and any outside [0, len(table)) an
    IndexError (numpy's own check catches those past the end)."""
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"{what} indices must be integers, got {idx.dtype}")
    try:
        if idx.dtype.kind == "i" and idx.size and idx.min() < 0:
            raise IndexError
        return idx, table[idx]
    except IndexError:
        raise IndexError(f"{what} index out of range [0, {len(table)})") from None


def _scatter_rows(rows: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """out[rows[..., j], j] += g[..., j] into (n, d) zeros, in input order.

    `rows` is (..., 1) (one row per vector of g) or (..., d) (one row per
    cell).  The sums equal `np.add.at` into zeros bit for bit.
    """
    d = g.shape[-1]
    cells = rows.astype(np.intp) * d + np.arange(d)
    return np.bincount(cells.ravel(), weights=g.ravel(), minlength=n * d).reshape(n, d)


def embed_lookup(W: Tensor, indices) -> Tensor:
    """Row lookup: output[..., :] = W[indices[...]].

    Gradients accumulate into looked-up rows (repeats sum).  PAD rows
    participate like any other row.  Indices keep their own integer
    dtype (no copy); non-integer indices and out-of-range ones fault.
    """
    idx, out_data = _gather(W.data, indices, "embedding")

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(W, _scatter_rows(idx[..., None], g, W.data.shape[0]))

    return Tensor(out_data, (W,), backward_fn)


def _conv_forward(flat: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Chunked contiguous-product convolution core.

    flat: (Q, k, *tail) windows; filters: (F, k, *tail).  Returns (Q, F).
    """
    Q, F = flat.shape[0], filters.shape[0]
    step = max(1, _CHUNK_ELEMS // max(1, filters.size))
    out = np.empty((Q, F), dtype=np.float64)
    sum_axes = tuple(range(2, 1 + filters.ndim))
    for s in range(0, Q, step):
        prod = np.ascontiguousarray(flat[s : s + step, None] * filters[None])
        out[s : s + step] = prod.sum(axis=sum_axes)
    return out


def _conv_op(x: Tensor, filters: Tensor, bias: Tensor, opname: str) -> Tensor:
    block = filters.data.shape[1:]
    if x.data.shape[-len(block) :] != block:
        raise ValueError(f"{opname}: window shape {x.data.shape[-len(block) :]} != filter shape {block}")
    lead = x.data.shape[: x.data.ndim - len(block)]
    flat = np.ascontiguousarray(x.data).reshape(-1, *block)
    out_data = np.maximum(_conv_forward(flat, filters.data) + bias.data, 0.0)
    mask = out_data > 0.0
    letters = "abc"[: len(block)]

    def backward_fn(g: np.ndarray) -> None:
        gz = g.reshape(mask.shape) * mask  # (Q, F)
        _accumulate(bias, gz.sum(axis=0))
        _accumulate(filters, np.einsum(f"qf,q{letters}->f{letters}", gz, flat))
        _accumulate(x, np.einsum(f"qf,f{letters}->q{letters}", gz, filters.data).reshape(x.data.shape))

    return Tensor(out_data.reshape(*lead, filters.data.shape[0]), (x, filters, bias), backward_fn)


def conv_text(M: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """ReLU(conv) of token windows: (..., k, d) -> (..., F).

    out[..., f] = ReLU(sum(M[...] * filters[f]) + bias[f]), summed per window.
    """
    return _conv_op(M, filters, bias, "conv_text")


def conv3d_hunks(B: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """ReLU(conv) of hunk windows: (..., k, N, E) -> (..., F).

    out[..., f] = ReLU(sum(B[...] * filters[f]) + bias[f]), summed per window.
    """
    return _conv_op(B, filters, bias, "conv3d_hunks")


def max_pool(t: Tensor, where) -> Tensor:
    """Max over positions given by row ids: (U, F) and (..., P) -> (..., F).

    out[..., f] = max over p of t[where[..., p], f].  The gradient flows
    to the row at the first argmax position only, and a row that wins
    at several leading indices sums their gradients.  `where` is checked
    like `embed_lookup` indices.
    """
    if np.ndim(where) == 0 or np.shape(where)[-1] == 0:
        raise ValueError("max_pool: empty pooling axis")
    pos, vals = _gather(t.data, where, "max_pool")  # (..., P), (..., P, F)
    P, F = vals.shape[-2:]
    arg = vals.argmax(axis=-2).reshape(-1, F)
    winner = pos.reshape(-1, P)[np.arange(len(arg))[:, None], arg].reshape(*pos.shape[:-1], F)
    out_data = t.data[winner, np.arange(F)]

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(t, _scatter_rows(winner, g, t.data.shape[0]))

    return Tensor(out_data, (t,), backward_fn)


def dense(e: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """h = ReLU(w · e + b): (..., n) x (m, n) -> (..., m).

    A convolution whose one window is the whole input: m filters of width n.
    """
    return _conv_op(e, w, b, "dense")


def sigmoid_score(h: Tensor, w_o: Tensor) -> Tensor:
    """z = sigmoid(h · w_o): (..., m) -> (...), overflow-safe."""
    s = (h.data * w_o.data).sum(axis=-1)
    z = np.empty_like(s)
    pos = s >= 0
    z[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    ez = np.exp(s[~pos])
    z[~pos] = ez / (1.0 + ez)

    def backward_fn(g: np.ndarray) -> None:
        gs = g * z * (1.0 - z)
        _accumulate(h, gs[..., None] * w_o.data)
        _accumulate(w_o, np.einsum("q,qm->m", gs.reshape(-1), h.data.reshape(-1, w_o.data.shape[0])))

    return Tensor(z, (h, w_o), backward_fn)


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate along an axis; gradient splits back to the parents."""
    parts = list(tensors)
    out_data = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.data.shape[axis] for t in parts]
    offsets = np.cumsum(sizes)[:-1]

    def backward_fn(g: np.ndarray) -> None:
        for t, piece in zip(parts, np.split(g, offsets, axis=axis)):
            _accumulate(t, piece)

    return Tensor(out_data, tuple(parts), backward_fn)


def reshape(t: Tensor, shape) -> Tensor:
    """The same values in a new shape; the gradient is reshaped back."""
    out_data = t.data.reshape(shape)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(t, g.reshape(t.data.shape))

    return Tensor(out_data, (t,), backward_fn)


def stack(tensors) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    parts = list(tensors)
    out_data = np.stack([t.data for t in parts])

    def backward_fn(g: np.ndarray) -> None:
        for i, t in enumerate(parts):
            _accumulate(t, g[i])

    return Tensor(out_data, tuple(parts), backward_fn)


def dropout(t: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Zero elements with probability `rate` and rescale survivors.

    Identity in inference mode or at rate 0 (returns the input tensor).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return t
    keep = rng.random(t.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out_data = t.data * keep * scale

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(t, g * keep * scale)

    return Tensor(out_data, (t,), backward_fn)


_LOSS_EPS = 1e-12


def loss(z: Tensor, y, params, lam: float) -> Tensor:
    """Summed cross-entropy plus one (lam/2)·‖θ‖² regularization term.

    z may be a scalar or a batch vector; y matches its shape with 0/1
    entries.  z values at 0 or 1 exactly are clamped to [eps, 1-eps]
    (no gradient through the clamp).
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.shape != z.data.shape:
        raise ValueError(f"loss: y shape {y_arr.shape} != z shape {z.data.shape}")
    params = list(params)
    zc = np.clip(z.data, _LOSS_EPS, 1.0 - _LOSS_EPS)
    data_term = -(y_arr * np.log(zc) + (1.0 - y_arr) * np.log(1.0 - zc)).sum()
    reg = 0.5 * lam * sum(float(np.sum(p.data * p.data)) for p in params)
    in_range = (z.data > _LOSS_EPS) & (z.data < 1.0 - _LOSS_EPS)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(z, g * in_range * (zc - y_arr) / (zc * (1.0 - zc)))
        for p in params:
            _accumulate(p, g * lam * p.data)

    return Tensor(data_term + reg, (z, *params), backward_fn)


# ---------------------------------------------------------------------------
# Reverse mode


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(loss_tensor: Tensor, params=None):
    """Reverse-mode gradients of a scalar loss.

    Returns a gradient per entry of `params` when given; parameters that
    never influenced the loss get zero gradients.  Interior gradients
    are released: once a tensor's backward_fn has passed its grad on to
    its parents, the grad is set to None.  Leaves and tensors named in
    `params` keep theirs.
    """
    if loss_tensor.data.shape != ():
        raise ValueError("backward expects a scalar loss")
    params = None if params is None else list(params)
    keep = {id(p) for p in params or ()}
    order = _topo_order(loss_tensor)
    on_tape = {id(t) for t in order}
    for t in order:
        t.grad = None
    loss_tensor.grad = np.ones(())
    for t in reversed(order):
        if t._backward_fn is not None and t.grad is not None:
            t._backward_fn(t.grad)
            if id(t) not in keep:
                t.grad = None
    if params is None:
        return None
    return [
        p.grad if (id(p) in on_tape and p.grad is not None) else np.zeros_like(p.data)
        for p in params
    ]


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter Adam accumulator."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    learning_rate: float = 1e-3

    @classmethod
    def for_param(cls, param, learning_rate: float = 1e-3) -> "AdamState":
        data = param.data if isinstance(param, Tensor) else np.asarray(param)
        return cls(
            first_moment=np.zeros_like(data),
            second_moment=np.zeros_like(data),
            learning_rate=learning_rate,
        )


def adam_step(param, grad: np.ndarray, state: AdamState):
    """Bias-corrected Adam update, in place on param and state.  It keeps
    the op order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
    lr * m_hat / (sqrt(v_hat) + eps), so it is bit-identical to them."""
    state.step += 1
    m, v = state.first_moment, state.second_moment
    tmp = (1.0 - state.beta1) * grad
    m *= state.beta1
    m += tmp
    np.multiply(grad, grad, out=tmp)
    tmp *= 1.0 - state.beta2
    v *= state.beta2
    v += tmp
    np.divide(v, 1.0 - state.beta2**state.step, out=tmp)  # v_hat
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    update = m / (1.0 - state.beta1**state.step)  # m_hat
    update *= state.learning_rate
    update /= tmp
    data = param.data if isinstance(param, Tensor) else param
    data -= update
    return param, state
