"""Train the classifier on a synthetic corpus where the label is
decided by a single planted message token, then round-trip the trained
model through a checkpoint file.

    python3 demos/03_train_toy_model.py

Takes a few seconds on a laptop CPU.
"""

import tempfile
from pathlib import Path

from patchnet.core import HyperParams, Label, PatchDims, RawCommit, TrainConfig
from patchnet.evalkit import metrics
from patchnet.preprocess import decode_record, preprocess_commits
from patchnet.trainer import load_checkpoint, save_checkpoint, score_items, train

DIFF = (
    "diff --git a/drivers/net/ring.c b/drivers/net/ring.c\n"
    "--- a/drivers/net/ring.c\n"
    "+++ b/drivers/net/ring.c\n"
    "@@ -10,2 +10,2 @@ void frob(void)\n"
    " \tint x;\n"
    "-\told = thing;\n"
    "+\tnew = thing;\n"
)

HP = HyperParams(
    d_msg=8,
    d_code=8,
    filter_sizes=(1, 2),
    n_filters=4,
    fc_size=8,
    dims=PatchDims(msg_len=8, files=1, hunks=2, lines=2, words=6),
    dropout=0.0,
    l2_reg_lambda=1e-5,
)


def toy_corpus():
    """32 commits; 'leak' in the subject decides the label."""
    commits = []
    for i in range(32):
        planted = i < 16
        commits.append(
            RawCommit(
                commit_id=f"{i + 1:x}".ljust(40, "0"),
                parent_ids=(f"{i + 100:x}".ljust(40, "0"),),
                author_name="Demo Dev",
                author_email="dev@example.org",
                date=1_500_000_000 + i * 3600,
                subject=(
                    "mm: widen the widget leak guard"
                    if planted
                    else "mm: widen the widget gain guard"
                ),
                body="Keep the widget settings consistent.",
                diff_text=DIFF,
                label=Label.STABLE if planted else Label.NON_STABLE,
            )
        )
    return commits


def main():
    commits = toy_corpus()
    records, table, (msg_vocab, code_vocab), _ = preprocess_commits(commits, HP.dims)
    patches = [decode_record(r, HP.dims) for r in records]
    print(f"corpus: {len(patches)} patches, message vocab {len(msg_vocab)}")

    config = TrainConfig(
        batch_size=8, max_epochs=30, patience=30, learning_rate=1e-2, seed=0
    )
    result = train(patches, HP, config, msg_vocab, code_vocab)
    losses = result.history.epoch_losses
    for epoch in (1, 5, 10, 20, len(losses)):
        print(f"  epoch {epoch:2}: loss {losses[epoch - 1]:.4f}")
    scores = score_items(patches, result.params, HP)
    accuracy = metrics(scores, [p.label.to_int() for p in patches], HP.threshold).accuracy
    print(f"train accuracy after {result.history.epochs_run} epochs: {accuracy:.2f}")
    print()

    probe = patches[0]
    before = scores[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "toy.ckpt")
        save_checkpoint(path, result.params, HP, msg_vocab, code_vocab, table)
        size = Path(path).stat().st_size
        bundle = load_checkpoint(path)
    after = score_items([probe], bundle.params, bundle.hp)[0]
    print(f"checkpoint: {size} bytes on disk")
    print(f"score for {probe.commit_id[:12]} before save: {before:.6f}")
    print(f"score for {probe.commit_id[:12]} after load:  {after:.6f}")
    # `patchnet predict` labels a patch stable when its score >= the threshold.
    same = (before >= HP.threshold) == (after >= bundle.hp.threshold)
    print(f"labels agree: {same} ({'stable' if after >= bundle.hp.threshold else 'non-stable'})")


if __name__ == "__main__":
    main()
