"""Tests for minibatch training, early stopping, and checkpoints."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_patch, zero_params
from patchnet.codeprep import FunctionNameTable
from patchnet.core import HyperParams, Label, PatchDims, TrainConfig, TrainingError
from patchnet.evalkit import metrics
from patchnet.model import init_params
from patchnet.trainer import (
    CHECKPOINT_MAGIC,
    EarlyStopping,
    load_checkpoint,
    minibatches,
    save_checkpoint,
    score_items,
    train,
)
from patchnet.vocab import Vocabulary, build_vocab

TINY = HyperParams(
    d_msg=3,
    d_code=3,
    filter_sizes=(1, 2),
    n_filters=2,
    fc_size=3,
    dims=PatchDims(msg_len=4, files=1, hunks=2, lines=2, words=3),
    dropout=0.0,
    l2_reg_lambda=1e-5,
)

MSG_VOCAB = 7
CODE_VOCAB = 9


def labeled_patch(rng, n, label):
    dims = TINY.dims
    return dense_patch(
        commit_id=f"{n:040x}",
        message_tokens=rng.integers(0, MSG_VOCAB, dims.msg_len),
        removed_code=rng.integers(0, CODE_VOCAB, dims.code_shape),
        added_code=rng.integers(0, CODE_VOCAB, dims.code_shape),
        label=label,
    )


def assert_views_of_flat(params):
    assert all(np.shares_memory(t.data, params.flat) for t in params.all())
    assert np.array_equal(np.concatenate([t.data.ravel() for t in params.all()]), params.flat)


def tiny_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return [
        labeled_patch(rng, i, Label.STABLE if i % 2 == 0 else Label.NON_STABLE)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Config and batching


def test_train_config_validation():
    for kwargs in (
        {"batch_size": 0},
        {"max_epochs": 0},
        {"patience": 0},
        {"learning_rate": 0.0},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "setting, value",
    [("batch_size", 2.5), ("max_epochs", True), ("patience", True),
     ("learning_rate", float("nan")), ("learning_rate", float("inf"))],
    ids=["batch_size-float", "max_epochs-bool", "patience-bool", "learning_rate-nan", "learning_rate-inf"],
)
def test_train_config_refuses_what_cannot_train(setting, value):
    with pytest.raises(ValueError, match=setting):
        TrainConfig(**{setting: value})


def test_minibatches_keeps_short_tail():
    batches = minibatches(list(range(7)), 3)
    assert batches == [[0, 1, 2], [3, 4, 5], [6]]
    assert minibatches([], 4) == []
    assert minibatches([1, 2], 5) == [[1, 2]]


def test_minibatches_shuffle_permutes_and_needs_rng():
    items = list(range(20))
    rng = np.random.default_rng(3)
    batches = minibatches(items, 6, rng, shuffle=True)
    flat = [x for b in batches for x in b]
    assert sorted(flat) == items
    assert flat != items  # seed 3 does not give the identity order
    with pytest.raises(ValueError, match="rng"):
        minibatches(items, 6, shuffle=True)
    with pytest.raises(ValueError, match="batch_size"):
        minibatches(items, 0)


# ---------------------------------------------------------------------------
# Early stopping


def test_early_stopping_reference_trace():
    # Losses 1.0 then six 0.9s with patience 5: the improvement lands at
    # epoch 2, epochs 3..7 are stale, and epoch 7 triggers the stop.
    stopper = EarlyStopping(patience=5)
    losses = [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    stops = [stopper.update(e, x) for e, x in enumerate(losses, start=1)]
    assert stops == [False, False, False, False, False, False, True]
    assert stopper.best_epoch == 2
    assert stopper.best_loss == 0.9


def test_early_stopping_needs_strict_improvement():
    stopper = EarlyStopping(patience=2)
    assert not stopper.update(1, 1.0)
    # Exactly MIN_DELTA better does not count as improvement.
    assert not stopper.update(2, 1.0 - 1e-9)
    assert stopper.update(3, 1.0 - 1e-9)
    assert stopper.best_epoch == 1


def test_early_stopping_recovers_after_plateau():
    stopper = EarlyStopping(patience=3)
    stopper.update(1, 1.0)
    stopper.update(2, 1.0)
    stopper.update(3, 1.0)
    assert not stopper.update(4, 0.5)  # improvement resets staleness
    assert stopper.best_epoch == 4
    assert stopper.stale_epochs == 0


# ---------------------------------------------------------------------------
# train()


def test_train_rejects_empty_and_unlabeled():
    config = TrainConfig(max_epochs=1)
    with pytest.raises(ValueError, match="empty"):
        train([], TINY, config, MSG_VOCAB, CODE_VOCAB)
    bad = tiny_dataset(2)
    bad[1].label = None
    with pytest.raises(ValueError, match="no label"):
        train(bad, TINY, config, MSG_VOCAB, CODE_VOCAB)


def test_train_is_deterministic():
    items = tiny_dataset()
    config = TrainConfig(batch_size=4, max_epochs=4, seed=21)
    a = train(items, TINY, config, MSG_VOCAB, CODE_VOCAB)
    b = train(items, TINY, config, MSG_VOCAB, CODE_VOCAB)
    assert a.history == b.history
    for (name_a, ta), (_, tb) in zip(a.params.named(), b.params.named()):
        assert np.array_equal(ta.data, tb.data), name_a


def test_train_history_bookkeeping():
    items = tiny_dataset()
    config = TrainConfig(batch_size=4, max_epochs=5, seed=2)
    result = train(items, TINY, config, MSG_VOCAB, CODE_VOCAB)
    h = result.history
    assert h.epochs_run == len(h.epoch_losses) == 5
    assert h.best_loss == min(h.epoch_losses)
    assert h.epoch_losses[h.best_epoch - 1] == h.best_loss
    assert all(x > 0.0 for x in h.epoch_losses)


def test_train_restores_best_epoch_parameters():
    # A second run truncated at the first run's best epoch must land on
    # bit-identical parameters: both return the snapshot taken right
    # after that epoch, and the rng consumption up to it is the same.
    items = tiny_dataset()
    base = dict(batch_size=4, seed=9, learning_rate=0.05)
    hp = replace(TINY, dropout=0.3)
    full = train(items, hp, TrainConfig(max_epochs=6, **base), MSG_VOCAB, CODE_VOCAB)
    k = full.history.best_epoch
    assert 1 <= k <= 6
    prefix = train(items, hp, TrainConfig(max_epochs=k, **base), MSG_VOCAB, CODE_VOCAB)
    assert prefix.history.best_epoch == k
    for (name, tf), (_, tp) in zip(full.params.named(), prefix.params.named()):
        assert np.array_equal(tf.data, tp.data), name


def test_train_stops_early_on_plateau():
    items = tiny_dataset(4)
    config = TrainConfig(
        batch_size=4, max_epochs=50, patience=2, learning_rate=1e-12, seed=0
    )
    result = train(items, TINY, config, MSG_VOCAB, CODE_VOCAB)
    # Epoch 1 always improves on infinity; a vanishing learning rate
    # leaves later epochs no real gain, so patience runs out at epoch 3.
    assert result.history.epochs_run == 3
    assert result.history.stopped_early
    assert result.history.best_epoch == 1


def test_train_raises_on_non_finite_loss():
    items = tiny_dataset(4)
    params = zero_params(TINY, MSG_VOCAB, CODE_VOCAB)
    params["w_out"].data[0] = float("nan")
    with pytest.raises(TrainingError, match="non-finite loss"):
        train(
            items,
            TINY,
            TrainConfig(max_epochs=1, shuffle=False),
            MSG_VOCAB,
            CODE_VOCAB,
            params=params,
        )


def test_train_accepts_vocabulary_objects_and_warm_start():
    items = tiny_dataset(4)
    msg_vocab = build_vocab([f"w{i}" for i in range(MSG_VOCAB - 2)], "message")
    code_vocab = build_vocab([f"c{i}" for i in range(CODE_VOCAB - 2)], "code")
    assert len(msg_vocab) == MSG_VOCAB and len(code_vocab) == CODE_VOCAB
    config = TrainConfig(batch_size=2, max_epochs=2, seed=1)
    first = train(items, TINY, config, msg_vocab, code_vocab)
    warm = train(items, TINY, config, msg_vocab, code_vocab, params=first.params)
    assert warm.params is first.params
    assert warm.history.epochs_run == 2


def test_parameters_stay_views_of_flat_through_training():
    # Adam steps and the best-epoch restore both write in place, so the
    # trained tensors are still the vector the run started from.
    params = init_params(TINY, MSG_VOCAB, CODE_VOCAB, np.random.default_rng(4))
    flat = params.flat
    assert_views_of_flat(params)
    config = TrainConfig(batch_size=4, max_epochs=3, seed=4, learning_rate=0.05)
    result = train(tiny_dataset(), TINY, config, MSG_VOCAB, CODE_VOCAB, params=params)
    assert result.params.flat is flat
    assert_views_of_flat(result.params)


def test_train_loss_decreases_with_steady_rate():
    items = tiny_dataset()
    config = TrainConfig(
        batch_size=8, max_epochs=30, seed=3, learning_rate=1e-2, shuffle=False
    )
    result = train(items, TINY, config, MSG_VOCAB, CODE_VOCAB)
    assert result.history.epoch_losses[-1] < result.history.epoch_losses[0]


# ---------------------------------------------------------------------------
# Scoring helpers


def test_score_items_and_accuracy_at_zero_params():
    params = zero_params(TINY, MSG_VOCAB, CODE_VOCAB)
    items = tiny_dataset(6)
    scores = score_items(items, params, TINY)
    assert scores.dtype == np.float64
    assert scores.tolist() == [0.5] * 6
    # Half the labels are stable, and 0.5 thresholds to stable.
    assert metrics(scores, [p.label.to_int() for p in items], TINY.threshold).accuracy == 0.5
    nothing = score_items([], params, TINY)
    assert isinstance(nothing, np.ndarray) and nothing.dtype == np.float64 and nothing.shape == (0,)


# ---------------------------------------------------------------------------
# Checkpoints


def trained_bundle(tmp_path, functions=FunctionNameTable.empty()):
    items = tiny_dataset(4)
    msg_vocab = build_vocab(["fix", "leak", "race", "guard", "mm"], "message")
    code_vocab = build_vocab(
        ["IDENT@nrm", ";@nrm", "if@chk", "goto@hnd", "NUM@nrm", "=@nrm", "(@nrm"],
        "code",
    )
    params = init_params(TINY, len(msg_vocab), len(code_vocab), np.random.default_rng(17))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, TINY, msg_vocab, code_vocab, functions)
    return path, params, msg_vocab, code_vocab


def test_checkpoint_round_trip(tmp_path):
    table = FunctionNameTable(
        retained=frozenset({"kfree", "kmalloc"}), defined_in={"a.c": frozenset({"x"})}
    )
    path, params, msg_vocab, code_vocab = trained_bundle(tmp_path, table)
    bundle = load_checkpoint(path)
    assert bundle.hp == TINY
    assert bundle.message_vocab.index_to_word == msg_vocab.index_to_word
    assert bundle.code_vocab.index_to_word == code_vocab.index_to_word
    assert bundle.functions.retained == {"kfree", "kmalloc"}
    assert bundle.functions == table  # the per-file map is persisted too
    for (name, orig), (_, loaded) in zip(params.named(), bundle.params.named()):
        assert orig.data.shape == loaded.data.shape
        assert np.allclose(orig.data, loaded.data, rtol=0, atol=1e-7), name


def test_checkpoint_scores_drift_under_1e6(tmp_path):
    path, params, msg_vocab, code_vocab = trained_bundle(tmp_path)
    bundle = load_checkpoint(path)
    rng = np.random.default_rng(23)
    patches = [
        dense_patch(
            commit_id=f"{i:040x}",
            message_tokens=rng.integers(0, len(msg_vocab), TINY.dims.msg_len),
            removed_code=rng.integers(0, len(code_vocab), TINY.dims.code_shape),
            added_code=rng.integers(0, len(code_vocab), TINY.dims.code_shape),
        )
        for i in range(20)
    ]
    before = score_items(patches, params, TINY)
    after = score_items(patches, bundle.params, bundle.hp)
    assert np.abs(before - after).max() < 1e-6


def test_save_checkpoint_requires_functions(tmp_path):
    # A checkpoint always carries the function table its tensors were
    # built with, so raw commits are preprocessed the same way.
    path, params, msg_vocab, code_vocab = trained_bundle(tmp_path)
    with pytest.raises(TypeError, match="functions"):
        save_checkpoint(str(tmp_path / "other.ckpt"), params, TINY, msg_vocab, code_vocab)
    assert load_checkpoint(path).functions == FunctionNameTable.empty()


def test_checkpoint_arrays_are_the_float32_vector(tmp_path):
    path, params, *_ = trained_bundle(tmp_path)
    blob = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    assert [e["name"] for e in header["manifest"]] == [n for n, _ in params.named()]
    per_tensor = b"".join(t.data.astype("<f4").tobytes() for t in params.all())
    assert blob[12 + header_len :] == per_tensor
    bundle = load_checkpoint(path)
    assert bundle.params.flat.dtype == np.float64
    assert np.array_equal(bundle.params.flat, params.flat.astype("<f4"))
    assert_views_of_flat(bundle.params)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"WHAT" + b"\x00" * 40)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)
    with open(path, "wb") as fh:
        fh.write(b"PN")  # shorter than any header
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path, *_ = trained_bundle(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 9)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="version 9"):
        load_checkpoint(path)


def test_checkpoint_truncated_header(tmp_path):
    path, *_ = trained_bundle(tmp_path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:20])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_corrupt_header(tmp_path):
    path = str(tmp_path / "corrupt.ckpt")
    payload = b"{not json"
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", 1, len(payload)))
        fh.write(payload)
    with pytest.raises(ValueError, match="corrupt checkpoint header"):
        load_checkpoint(path)


def test_checkpoint_truncated_arrays(tmp_path):
    path, *_ = trained_bundle(tmp_path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_data(tmp_path):
    path, *_ = trained_bundle(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="trailing data"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["msg_embed", "b_hidden", "w_out"])
def test_checkpoint_names_the_non_finite_parameter(tmp_path, name):
    path, params, *_ = trained_bundle(tmp_path)
    blob = bytearray(open(path, "rb").read())
    (header_len,) = struct.unpack_from("<I", blob, 8)
    names = [n for n, _ in params.named()]
    at = 12 + header_len + 4 * sum(t.data.size for t in params.all()[: names.index(name)])
    blob[at : at + 4] = struct.pack("<f", float("inf"))
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match=f"non-finite values in checkpoint parameter {name}$"):
        load_checkpoint(path)


def test_checkpoint_manifest_mismatch(tmp_path):
    # Header hyperparameters that disagree with the stored manifest must
    # be refused before any array is interpreted.
    items_hp = TINY
    other_hp = replace(TINY, n_filters=4)
    msg_vocab = build_vocab(["fix"], "message")
    code_vocab = build_vocab(["IDENT@nrm"], "code")
    params = init_params(
        items_hp, len(msg_vocab), len(code_vocab), np.random.default_rng(0)
    )
    path = str(tmp_path / "mismatch.ckpt")
    save_checkpoint(path, params, other_hp, msg_vocab, code_vocab, FunctionNameTable.empty())
    with pytest.raises(ValueError, match="manifest mismatch"):
        load_checkpoint(path)
