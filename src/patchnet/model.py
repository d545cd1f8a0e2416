"""The patch-scoring network: a message CNN and a hierarchical code CNN
feeding a dense layer and a sigmoid output.

Message channel: embed 512 tokens, convolve with 1- and 2-gram filters,
max-pool per filter, concatenate (e_m, 128 dims by default).

Code channel, once per side over all five file slots: embed every
line's 120 tokens, run the line module (same structure as the message
module, one set of filters for both sides) to get one vector per line,
arrange them as files × hunks × lines × E, convolve windows of hunks in
3-D with per-side filters, max-pool, concatenate (e_r / e_a, 128 dims
per file).  A file is e_r ⊕ e_a (256) and the patch code vector e_c
joins the five file slots in slot order (1280).
Classification: dropout(e_m ⊕ e_c) → dense(100, ReLU) → sigmoid.

Every convolution stage is "conv per filter size → max-pool → concat".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import Label
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
    uniform_init,
)
from .preprocess import PatchDims, PreprocessedPatch

VARIANTS = ("full", "code", "message")


@dataclass(frozen=True)
class HyperParams:
    """Architecture and regularization settings (shipped defaults)."""

    d_msg: int = 50
    d_code: int = 50
    filter_sizes: tuple[int, ...] = (1, 2)
    n_filters: int = 64
    fc_size: int = 100
    dims: PatchDims = PatchDims()
    dropout: float = 0.5
    l2_reg_lambda: float = 1e-5
    threshold: float = 0.5
    variant: str = "full"

    def __post_init__(self) -> None:
        for name in ("d_msg", "d_code", "n_filters", "fc_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.filter_sizes or any(k < 1 for k in self.filter_sizes):
            raise ValueError("filter_sizes must be positive")
        if len(set(self.filter_sizes)) != len(self.filter_sizes):
            raise ValueError("filter_sizes must be distinct")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.l2_reg_lambda < 0.0:
            raise ValueError("l2_reg_lambda must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        kmax = max(self.filter_sizes)
        if min(self.dims.msg_len, self.dims.words, self.dims.hunks) < kmax:
            raise ValueError("sequence dims must be >= the largest filter size")

    @property
    def line_embed_dim(self) -> int:
        """E: one max-pooled value per filter per filter size."""
        return self.n_filters * len(self.filter_sizes)

    @property
    def file_dim(self) -> int:
        return 2 * self.line_embed_dim

    @property
    def code_dim(self) -> int:
        return self.dims.files * self.file_dim

    @property
    def e_dim(self) -> int:
        """Width of the classifier input under the active variant."""
        if self.variant == "message":
            return self.line_embed_dim
        if self.variant == "code":
            return self.code_dim
        return self.line_embed_dim + self.code_dim

    def to_json_obj(self) -> dict:
        """Flat JSON object: the dims fields sit beside the others."""
        obj = asdict(self)
        obj.update(obj.pop("dims"))
        obj["filter_sizes"] = list(self.filter_sizes)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HyperParams":
        """Inverse of to_json_obj; a missing or unknown key is a ValueError."""
        expected = cls().to_json_obj().keys()
        if not isinstance(obj, dict) or obj.keys() != expected:
            raise ValueError(f"hyperparameters must have exactly the keys {sorted(expected)}")
        obj = dict(obj)
        dims = PatchDims(**{f.name: obj.pop(f.name) for f in fields(PatchDims)})
        obj["filter_sizes"] = tuple(obj["filter_sizes"])
        return cls(dims=dims, **obj)


@dataclass(frozen=True)
class Score:
    """A probability of being stable plus its thresholded label."""

    z: float
    label: Label

    @classmethod
    def from_z(cls, z: float, threshold: float = 0.5) -> "Score":
        return cls(z=z, label=Label.STABLE if z >= threshold else Label.NON_STABLE)


def _conv_names(layer: str, k: int, side: str = "") -> tuple[str, str]:
    """Filter and bias parameter names of one conv stage's window size k."""
    tag = f"_{side}" if side else ""
    return f"{layer}_filters{tag}_k{k}", f"{layer}_bias{tag}_k{k}"


def param_specs(
    hp: HyperParams, msg_vocab_size: int, code_vocab_size: int
) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of every learnable array, in a fixed order.

    This list is the single ordering authority: initialization walks it
    and checkpoints store arrays in exactly this sequence.
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
    """Every learnable tensor, addressable by name in manifest order."""

    def __init__(self, tensors: "dict[str, Tensor]", hp: HyperParams):
        self._tensors = dict(tensors)
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
    """Uniform [-scale, scale] initialization in manifest order."""
    tensors = {
        name: uniform_init(shape, rng, scale)
        for name, shape in param_specs(hp, msg_vocab_size, code_vocab_size)
    }
    return ModelParams(tensors, hp)


# ---------------------------------------------------------------------------
# Forward pieces


def _conv_pool(x, conv, params: ModelParams, layer: str, side: str = "") -> Tensor:
    """Convolve x once per filter size, max-pool each map, concatenate."""
    parts = []
    for k in params.filter_sizes:
        filters, bias = (params[name] for name in _conv_names(layer, k, side))
        parts.append(max_pool(conv(x, filters, bias)))
    return concat(parts, axis=-1)


def message_embedding(tokens, params: ModelParams) -> Tensor:
    """e_m: embed 512 tokens, convolve per filter size, pool, concatenate."""
    emb = embed_lookup(params["msg_embed"], np.asarray(tokens))
    return _conv_pool(emb, conv_text, params, "msg")


def line_embedding(line_tokens, params: ModelParams) -> Tensor:
    """One line's E-dim vector; batches over leading axes of (..., L).

    Removed and added lines share this one line module.
    """
    emb = embed_lookup(params["code_embed"], np.asarray(line_tokens))
    return _conv_pool(emb, conv_text, params, "line", "shared")


def code_side_embedding(B, params: ModelParams, side: str) -> Tensor:
    """e_r or e_a per file: line module then 3-D hunk convolution.

    B is an (H, N, L) index block with leading batch axes allowed, so a
    patch side's whole (files, H, N, L) block gives (files, E) in one
    call; every line embeds at once, forming the (..., H, N, E) block
    that the hunk filters convolve.
    """
    if side not in ("removed", "added"):
        raise ValueError(f"side must be 'removed' or 'added', got {side!r}")
    b_hat = line_embedding(B, params)  # (..., H, N, E)
    return _conv_pool(b_hat, conv3d_hunks, params, "hunk", side)


def _check_shapes(p: PreprocessedPatch, hp: HyperParams) -> None:
    dims = hp.dims
    if tuple(p.message_tokens.shape) != (dims.msg_len,):
        raise ValueError(
            f"message shape {p.message_tokens.shape} != ({dims.msg_len},)"
        )
    for name, arr in (("removed", p.removed_code), ("added", p.added_code)):
        if tuple(arr.shape) != dims.code_shape:
            raise ValueError(f"{name} code shape {arr.shape} != {dims.code_shape}")


def forward(
    p: PreprocessedPatch,
    params: ModelParams,
    hp: HyperParams,
    mode: str = "infer",
    rng: "np.random.Generator | None" = None,
) -> Tensor:
    """Differentiable score tensor for one patch (0-d)."""
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    training = mode == "train"
    if training and rng is None:
        raise ValueError("training mode requires an rng for dropout")
    _check_shapes(p, hp)

    parts = []
    if hp.variant in ("full", "message"):
        parts.append(message_embedding(p.message_tokens, params))
    if hp.variant in ("full", "code"):
        e_r = code_side_embedding(p.removed_code, params, "removed")  # (files, E)
        e_a = code_side_embedding(p.added_code, params, "added")
        # e_c = e_r(f0) ⊕ e_a(f0) ⊕ e_r(f1) ⊕ …: the files in slot order
        parts.append(reshape(concat([e_r, e_a], axis=-1), (-1,)))
    e = concat(parts, axis=-1) if len(parts) > 1 else parts[0]
    e = dropout(e, hp.dropout, rng, training)
    h = dense(e, params["w_hidden"], params["b_hidden"])
    return sigmoid_score(h, params["w_out"])


def predict(p: PreprocessedPatch, params: ModelParams, hp: HyperParams) -> Score:
    """Score one patch in inference mode; the label applies threshold with >=."""
    z = forward(p, params, hp)
    return Score.from_z(float(z.data), hp.threshold)
