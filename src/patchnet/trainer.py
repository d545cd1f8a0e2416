"""Minibatch training with Adam, early stopping, and binary checkpoints.

A batch's loss is the sum of its items' cross-entropies plus one L2
term; the recorded epoch loss is the sum of batch losses divided by
the number of items seen.  Early stopping keeps the parameters from
the best epoch, not the last one: one copy of `ModelParams.flat`,
refilled in place at each improving epoch.  Adam steps each tensor in
place, so every tensor stays a view of `flat`, and a checkpoint writes
`flat` as one float32 vector.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .codeprep import FunctionNameTable
from .core import HyperParams, TrainConfig, TrainingError, atomic_write
from .model import ModelParams, forward_batch, init_params, param_specs
from .nnkit import AdamState, adam_step, backward, loss
from .vocab import Vocabulary

CHECKPOINT_MAGIC = b"PNET"
CHECKPOINT_VERSION = 1
MIN_DELTA = 1e-9
# Patches per inference forward: bounds the memory of scoring a large set.
SCORE_CHUNK = 32


@dataclass(frozen=True)
class TrainHistory:
    epoch_losses: tuple[float, ...]
    best_epoch: int
    stopped_early: bool

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_losses)

    @property
    def best_loss(self) -> float:
        return self.epoch_losses[self.best_epoch - 1]


@dataclass
class TrainResult:
    params: ModelParams
    history: TrainHistory


def minibatches(items, batch_size: int, rng=None, shuffle: bool = False):
    """Split items into batches; the final short batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    items = list(items)
    if shuffle:
        if rng is None:
            raise ValueError("shuffle requires an rng")
        order = rng.permutation(len(items))
        items = [items[i] for i in order]
    return [items[i : i + batch_size] for i in range(0, len(items), batch_size)]


@dataclass
class EarlyStopping:
    """Stop after `patience` consecutive epochs without real improvement.

    An epoch improves only when it beats the best loss by more than
    MIN_DELTA; ties and sub-tolerance wiggles count against patience.
    """

    patience: int
    best_loss: float = field(default=float("inf"))
    best_epoch: int = 0
    stale_epochs: int = 0

    def update(self, epoch: int, epoch_loss: float) -> bool:
        """Record one epoch; True means training should stop now."""
        if self.best_loss - epoch_loss > MIN_DELTA:
            self.best_loss = epoch_loss
            self.best_epoch = epoch
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
        return self.stale_epochs >= self.patience


def _vocab_size(v) -> int:
    if isinstance(v, Vocabulary):
        return len(v)
    return int(v)


def _labels_array(batch) -> np.ndarray:
    return np.array([p.label.to_int() for p in batch], dtype=np.float64)


def train(
    items,
    hp: HyperParams,
    config: TrainConfig,
    message_vocab,
    code_vocab,
    params: "ModelParams | None" = None,
) -> TrainResult:
    """Fit the model; identical seeds give bit-identical results.

    `message_vocab` and `code_vocab` may be Vocabulary objects or plain
    sizes; they fix the embedding table heights when `params` is None.
    """
    items = list(items)
    if not items:
        raise ValueError("cannot train on an empty dataset")
    for p in items:
        if p.label is None:
            raise ValueError(f"item {p.commit_id!r} has no label")

    rng = np.random.default_rng(config.seed)
    if params is None:
        params = init_params(hp, _vocab_size(message_vocab), _vocab_size(code_vocab), rng)
    tensors = params.all()
    states = [AdamState.for_param(t, learning_rate=config.learning_rate) for t in tensors]

    stopper = EarlyStopping(patience=config.patience)
    best = params.flat.copy()
    epoch_losses: list[float] = []
    stopped_early = False

    for epoch in range(1, config.max_epochs + 1):
        total = 0.0
        for batch_index, batch in enumerate(
            minibatches(items, config.batch_size, rng, config.shuffle), start=1
        ):
            z = forward_batch(batch, params, hp, mode="train", rng=rng)
            batch_loss = loss(z, _labels_array(batch), tensors, hp.l2_reg_lambda)
            value = float(batch_loss.data)
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss {value} at epoch {epoch}, batch {batch_index}"
                )
            grads = backward(batch_loss, tensors)
            for t, g, s in zip(tensors, grads, states):
                adam_step(t, g, s)
            total += value
        epoch_loss = total / len(items)
        epoch_losses.append(epoch_loss)
        should_stop = stopper.update(epoch, epoch_loss)
        if stopper.best_epoch == epoch:
            best[...] = params.flat
        if should_stop:
            stopped_early = True
            break

    params.flat[...] = best
    history = TrainHistory(tuple(epoch_losses), stopper.best_epoch, stopped_early)
    return TrainResult(params=params, history=history)


def score_items(items, params: ModelParams, hp: HyperParams) -> np.ndarray:
    """Inference-mode probabilities of being stable, float64 in input
    order, SCORE_CHUNK patches per forward."""
    items = list(items)
    scores = np.empty(len(items), dtype=np.float64)
    for start in range(0, len(items), SCORE_CHUNK):
        chunk = items[start : start + SCORE_CHUNK]
        scores[start : start + len(chunk)] = forward_batch(chunk, params, hp).data
    return scores


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class CheckpointBundle:
    """Everything needed to score new patches with a trained model."""

    params: ModelParams
    hp: HyperParams
    message_vocab: Vocabulary
    code_vocab: Vocabulary
    functions: FunctionNameTable


def save_checkpoint(
    path: str,
    params: ModelParams,
    hp: HyperParams,
    message_vocab: Vocabulary,
    code_vocab: Vocabulary,
    functions: FunctionNameTable,
) -> None:
    """Binary checkpoint: magic, version, JSON header, float32 vector.

    The header embeds both vocabulary word lists and the whole function
    table, so a checkpoint alone preprocesses raw commits exactly as
    `preprocess` did and scores them.  `params.flat` follows as little
    endian float32, its tensors in header-manifest order.
    """
    header = {
        "hyperparams": hp.to_json_obj(),
        "message_vocab": list(message_vocab.words),
        "code_vocab": list(code_vocab.words),
        "functions": functions.to_json_obj(),
        "manifest": [
            {"name": name, "shape": list(t.data.shape)} for name, t in params.named()
        ],
        "dtype": "float32",
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(params.flat.astype("<f4"))


def load_checkpoint(path: str) -> CheckpointBundle:
    """Read a checkpoint, refusing anything corrupt or mismatched."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if len(blob) < 12 + header_len:
        raise ValueError("truncated checkpoint file")
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt checkpoint header: {exc}") from exc

    try:
        hp = HyperParams.from_json_obj(header["hyperparams"])
        message_vocab = Vocabulary.from_words("message", header["message_vocab"])
        code_vocab = Vocabulary.from_words("code", header["code_vocab"])
        functions = FunctionNameTable.from_json_obj(header["functions"])
        expected = param_specs(hp, len(message_vocab), len(code_vocab))
        stored = [(e["name"], tuple(e["shape"])) for e in header["manifest"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"corrupt checkpoint header: {exc!r}") from exc
    if stored != expected:
        raise ValueError(
            "parameter manifest mismatch between header and hyperparameters"
        )

    offset = 12 + header_len
    count = sum(math.prod(shape) for _, shape in expected)
    if len(blob) < offset + 4 * count:
        raise ValueError("truncated checkpoint file")
    if len(blob) > offset + 4 * count:
        raise ValueError("trailing data in checkpoint file")
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).astype(np.float64)
    params = ModelParams(flat, expected, hp)
    for name, t in params.named():
        if not np.isfinite(t.data).all():
            raise ValueError(f"non-finite values in checkpoint parameter {name}")
    return CheckpointBundle(params, hp, message_vocab, code_vocab, functions)
