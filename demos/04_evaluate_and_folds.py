"""Score a trained model, compare it with the keyword baseline, and
build chronological cross-validation folds.

    python3 demos/04_evaluate_and_folds.py
"""

from patchnet.core import HyperParams, Label, PatchDims, RawCommit, TrainConfig
from patchnet.evalkit import chrono_folds, keyword_baseline, metrics
from patchnet.preprocess import preprocess_commits
from patchnet.trainer import score_items, train

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

# Half the stable commits phrase their subject without fix/bug words,
# so the keyword baseline misses them while the model can still learn
# the planted "leak"/"drop" vocabulary.
SUBJECTS = {
    ("stable", "keyworded"): "mm: fix the widget leak on teardown",
    ("stable", "plain"): "mm: drop the stale widget leak guard",
    ("non-stable", "keyworded"): "mm: refactor the widget gain table",
    ("non-stable", "plain"): "mm: tune the widget gain threshold",
}


def corpus():
    commits = []
    n = 0
    for label_name in ("stable", "non-stable"):
        for phrasing in ("keyworded", "plain"):
            for _ in range(8):
                commits.append(
                    RawCommit(
                        commit_id=f"{n + 1:x}".ljust(40, "0"),
                        parent_ids=(f"{n + 100:x}".ljust(40, "0"),),
                        author_name="Demo Dev",
                        author_email="dev@example.org",
                        date=1_500_000_000 + n * 7_200,
                        subject=SUBJECTS[(label_name, phrasing)],
                        body="Keep the widget settings consistent.",
                        diff_text=DIFF,
                        label=(
                            Label.STABLE
                            if label_name == "stable"
                            else Label.NON_STABLE
                        ),
                    )
                )
                n += 1
    return commits


def show_report(name, report):
    print(
        f"{name:16} accuracy {report.accuracy:.2f}  precision {report.precision:.2f}"
        f"  recall {report.recall:.2f}  f1 {report.f1:.2f}  auc {report.auc:.2f}"
    )


def main():
    commits = corpus()
    patches, _, (msg_vocab, code_vocab), _ = preprocess_commits(commits, HP.dims)
    truth = [c.label.to_int() for c in commits]

    config = TrainConfig(
        batch_size=8, max_epochs=40, patience=40, learning_rate=1e-2, seed=1
    )
    result = train(patches, HP, config, msg_vocab, code_vocab)
    scores = score_items(patches, result.params, HP)
    show_report("trained model", metrics(scores, truth))

    baseline_scores = [keyword_baseline(c.message).to_int() for c in commits]
    show_report("keyword baseline", metrics(baseline_scores, truth))
    print()

    model_report = metrics(scores, truth)
    print("precision/recall points along the score ranking (model):")
    for recall, precision in model_report.pr_points[:4]:
        print(f"  recall {recall:.2f} at precision {precision:.2f}")
    print()

    folds = chrono_folds(commits, n_folds=4)
    print("chronological folds (train size / test size, date spans):")
    for i, (train_part, test_part) in enumerate(folds, start=1):
        dates = [c.date for c in test_part]
        print(
            f"  fold {i}: {len(train_part)} train / {len(test_part)} test, "
            f"test dates {min(dates)}..{max(dates)}"
        )


if __name__ == "__main__":
    main()
