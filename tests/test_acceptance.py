"""Acceptance gate: one check per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line naming the guarantee and
the measured numbers (run with -s or -rA to see the lines).  Full-scale
corpus metrics need tens of thousands of real commits and many GPU
hours, so the first check records that substitution explicitly and the
rest verify the machinery property-by-property at desk scale.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import SAMPLE_EXPORTS, dense_patch, hex_id, make_commit, simple_diff
from patchnet.codeprep import classify_line_kinds
from patchnet.core import HyperParams, Label, LineKind, PatchDims, TrainConfig
from patchnet.evalkit import auc_roc, chrono_folds, keyword_baseline, metrics
from patchnet.ingest import check_eligibility, parse_commit_stream, parse_unified_diff
from patchnet.model import forward, init_params
from patchnet.nnkit import backward, stack
from patchnet.nnkit import loss as nn_loss
from patchnet.preprocess import assemble_tensors, decode_record, preprocess_commits
from patchnet.trainer import (
    load_checkpoint,
    save_checkpoint,
    score_items,
    train,
)
from test_codeprep import SNIPPETS
from test_nnkit import cut_windows, naive_conv3d, naive_conv_text


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Full-scale results are out of scope and substituted by properties.


def test_01_full_scale_results_substituted():
    substitutes = [
        name
        for name in globals()
        if name.startswith("test_") and not name.endswith("substituted")
    ]
    ok = len(substitutes) == 9
    _verdict(
        "full-scale pass-through",
        ok,
        "full-corpus metrics need ~80k real kernel commits and GPU-scale "
        f"training; substituted here by {len(substitutes)} property checks",
    )


# ---------------------------------------------------------------------------
# 2. Gradient oracle: finite differences over every parameter entry.

FD_HP = HyperParams(
    d_msg=4,
    d_code=4,
    filter_sizes=(1, 2),
    n_filters=2,
    fc_size=4,
    dims=PatchDims(msg_len=6, files=2, hunks=2, lines=2, words=4),
    dropout=0.5,
    l2_reg_lambda=1e-4,
)


def _rand_patch(rng, hp, n, label=None):
    return dense_patch(
        commit_id=hex_id(n),
        message_tokens=rng.integers(0, 6, hp.dims.msg_len),
        removed_code=rng.integers(0, 7, hp.dims.code_shape),
        added_code=rng.integers(0, 7, hp.dims.code_shape),
        label=label,
    )


def test_02_gradient_oracle():
    start = time.perf_counter()
    hp = FD_HP
    rng = np.random.default_rng(5)
    patches = [_rand_patch(rng, hp, i) for i in range(2)]
    y = np.array([1.0, 0.0])
    params = init_params(hp, 6, 7, np.random.default_rng(11))
    tensors = [t for _, t in params.named()]

    def build():
        # Fresh rng with a fixed seed keeps the dropout masks constant,
        # so the finite differences see a deterministic function.
        drop_rng = np.random.default_rng(777)
        zs = [forward(p, params, hp, "train", drop_rng) for p in patches]
        return nn_loss(stack(zs), y, tensors, hp.l2_reg_lambda)

    grad_list = backward(build(), tensors)
    grads = {
        name: g.copy() for (name, _), g in zip(params.named(), grad_list)
    }

    step = 1e-5
    worst = 0.0
    n_entries = 0
    for name, t in params.named():
        for ix in np.ndindex(*t.data.shape):
            old = t.data[ix]
            t.data[ix] = old + step
            up = float(build().data)
            t.data[ix] = old - step
            down = float(build().data)
            t.data[ix] = old
            numeric = (up - down) / (2.0 * step)
            analytic = grads[name][ix]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-3)
            worst = max(worst, rel)
            n_entries += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(
        "gradient oracle",
        ok,
        f"max rel err {worst:.2e} over {n_entries} parameter entries "
        f"(dropout+regularized batch of 2) in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Convolutions match naive per-window references bit-exactly.


def test_03_convolution_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(93)
    from patchnet.nnkit import Tensor, conv3d_hunks, conv_text

    exact = 0
    for case in range(50):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(n, 3) + 1))
        f = int(rng.integers(1, 5))
        lead = (int(rng.integers(1, 4)),) if case % 2 else ()
        scale = 10.0 ** int(rng.integers(-3, 4))
        M = rng.standard_normal((*lead, n, d)) * scale
        filters = rng.standard_normal((f, k, d))
        bias = rng.standard_normal(f)
        out = conv_text(Tensor(cut_windows(M, k, 1)), Tensor(filters), Tensor(bias)).data  # (..., P, F)
        got = np.moveaxis(out, -1, -2)
        exact += int(np.array_equal(got, naive_conv_text(M, filters, bias)))
    for case in range(50):
        h = int(rng.integers(2, 7))
        nn = int(rng.integers(1, 5))
        e = int(rng.integers(1, 7))
        k = int(rng.integers(1, min(h, 3) + 1))
        f = int(rng.integers(1, 4))
        lead = (int(rng.integers(1, 3)),) if case % 2 else ()
        B = rng.standard_normal((*lead, h, nn, e)) * (10.0 ** int(rng.integers(-3, 4)))
        filters = rng.standard_normal((f, k, nn, e))
        bias = rng.standard_normal(f)
        out = conv3d_hunks(Tensor(cut_windows(B, k, 2)), Tensor(filters), Tensor(bias)).data  # (..., P, F)
        got = np.moveaxis(out, -1, -2)
        exact += int(np.array_equal(got, naive_conv3d(B, filters, bias)))
    elapsed = time.perf_counter() - start
    ok = exact == 100 and elapsed < 10.0
    _verdict(
        "convolution oracle",
        ok,
        f"{exact}/100 random instances bit-exact at float64 in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Toy-corpus learnability plus the channel-ablation direction.

TOY_HP = HyperParams(
    d_msg=8,
    d_code=8,
    filter_sizes=(1, 2),
    n_filters=4,
    fc_size=8,
    dims=PatchDims(msg_len=8, files=1, hunks=2, lines=2, words=6),
    dropout=0.0,
    l2_reg_lambda=1e-5,
)

MSG_PLANTED = "mm: widen the widget leak guard"
MSG_NEUTRAL = "mm: widen the widget gain guard"
CODE_PLANTED = ("\tkfree(obj);",)
CODE_NEUTRAL = ("\tklog_note(obj);",)
TOY_BODY = "Keep the widget settings consistent."


def _message_corpus():
    return [
        make_commit(
            2000 + i,
            date=1_400_000_000 + i * 3600,
            subject=MSG_PLANTED if i < 16 else MSG_NEUTRAL,
            body=TOY_BODY,
            label=Label.STABLE if i < 16 else Label.NON_STABLE,
        )
        for i in range(32)
    ]


def _code_corpus():
    return [
        make_commit(
            2100 + i,
            date=1_400_000_000 + i * 3600,
            subject="net: adjust ring buffer sizing",
            body="Tune the ring buffer for burst traffic.",
            diff=simple_diff(added=CODE_PLANTED if i < 16 else CODE_NEUTRAL),
            label=Label.STABLE if i < 16 else Label.NON_STABLE,
        )
        for i in range(32)
    ]


def _split_corpus():
    commits = []
    n = 0
    for msg_flag in (1, 0):
        for code_flag in (1, 0):
            for _ in range(8):
                commits.append(
                    make_commit(
                        2200 + n,
                        date=1_400_000_000 + n * 3600,
                        subject=MSG_PLANTED if msg_flag else MSG_NEUTRAL,
                        body=TOY_BODY,
                        diff=simple_diff(
                            added=CODE_PLANTED if code_flag else CODE_NEUTRAL
                        ),
                        label=(
                            Label.STABLE
                            if msg_flag and code_flag
                            else Label.NON_STABLE
                        ),
                    )
                )
                n += 1
    return commits


def _preprocess_corpus(commits, hp):
    records, table, (msg_vocab, code_vocab), _ = preprocess_commits(commits, hp.dims)
    return [decode_record(r, hp.dims) for r in records], msg_vocab, code_vocab, table


def _train_until(patches, hp, vocabs, target, max_epochs, seed=0):
    msg_vocab, code_vocab = vocabs
    params = None
    used = 0
    accuracy = 0.0
    while used < max_epochs:
        stage = min(10, max_epochs - used)
        config = TrainConfig(
            batch_size=8,
            max_epochs=stage,
            patience=stage,
            learning_rate=1e-2,
            seed=seed + used,
            shuffle=True,
        )
        params = train(patches, hp, config, msg_vocab, code_vocab, params=params).params
        used += stage
        labels = [p.label.to_int() for p in patches]
        accuracy = metrics(score_items(patches, params, hp), labels, hp.threshold).accuracy
        if accuracy >= target:
            break
    return accuracy, used, params


def test_04_toy_learnability_and_ablation():
    start = time.perf_counter()

    msg_patches, mv, cv, _ = _preprocess_corpus(_message_corpus(), TOY_HP)
    acc_msg, epochs_msg, _ = _train_until(msg_patches, TOY_HP, (mv, cv), 0.95, 200)

    code_patches, mv2, cv2, table2 = _preprocess_corpus(_code_corpus(), TOY_HP)
    assert {"kfree", "klog_note"} <= table2.retained
    acc_code, epochs_code, _ = _train_until(code_patches, TOY_HP, (mv2, cv2), 0.95, 200)

    split_patches, mv3, cv3, _ = _preprocess_corpus(_split_corpus(), TOY_HP)
    acc_full, _, _ = _train_until(split_patches, TOY_HP, (mv3, cv3), 0.95, 200)
    # Single-channel wirings on the split corpus: within each planted-flag
    # group the visible tensors are identical, so 24/32 is their ceiling.
    acc_c, _, _ = _train_until(
        split_patches, replace(TOY_HP, variant="code"), (mv3, cv3), 1.01, 60
    )
    acc_m, _, _ = _train_until(
        split_patches, replace(TOY_HP, variant="message"), (mv3, cv3), 1.01, 60
    )

    elapsed = time.perf_counter() - start
    ok = (
        acc_msg >= 0.95
        and acc_code >= 0.95
        and epochs_msg <= 200
        and epochs_code <= 200
        and acc_full >= acc_c
        and acc_full >= acc_m
        and elapsed < 600.0
    )
    _verdict(
        "toy-corpus learnability",
        ok,
        f"message-planted {acc_msg:.2f} in {epochs_msg} epochs, "
        f"code-planted {acc_code:.2f} in {epochs_code} epochs; "
        f"ablation full={acc_full:.2f} >= code-only={acc_c:.2f}, "
        f"message-only={acc_m:.2f}; {elapsed:.0f}s total",
    )


# ---------------------------------------------------------------------------
# 5. Ranking and confusion metrics against independent closed forms.


def test_05_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1803)
    exact = 0
    for _ in range(1000):
        labels = rng.integers(0, 2, 20)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, 20)
        scores = rng.integers(0, 6, 20) / 5.0  # coarse grid forces ties
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairwise = (
            (pos[:, None] > neg[None, :]).sum()
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        ) / (pos.size * neg.size)
        exact += int(auc_roc(scores, labels) == pairwise)

    report = metrics([0.9, 0.8, 0.6, 0.4], [1, 1, 0, 1])
    closed = (
        (report.tp, report.fp, report.tn, report.fn) == (2, 1, 0, 1)
        and report.accuracy == 0.5
        and abs(report.precision - 2 / 3) < 1e-12
        and abs(report.recall - 2 / 3) < 1e-12
        and abs(report.f1 - 2 / 3) < 1e-12
        and abs(report.auc - 2 / 3) < 1e-12
    )
    elapsed = time.perf_counter() - start
    ok = exact == 1000 and closed and elapsed < 10.0
    _verdict(
        "metric oracles",
        ok,
        f"auc == pairwise statistic on {exact}/1000 20-point instances, "
        f"confusion closed forms {'match' if closed else 'DIFFER'}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Reconstructed kernel patches parse to the documented structure.


def test_06_parser_fixtures_and_baseline():
    commits = [parse_commit_stream(text)[0] for text in SAMPLE_EXPORTS]
    errno_fix, kmemdup, power_reg = commits

    files = parse_unified_diff(errno_fix.diff_text)
    structure = (
        len(files) == 1
        and files[0].path == "fs/btrfs/disk-io.c"
        and len(files[0].hunks) == 2
        and [l.text for l in files[0].hunks[0].removed] == ["\t\t\treturn 1;"]
        and [l.text for l in files[0].hunks[0].added] == ["\t\t\treturn err;"]
        and [l.text for l in files[0].hunks[1].removed] == ["\t\t\treturn 1;"]
        and [l.text for l in files[0].hunks[1].added] == ["\t\t\treturn -ENOMEM;"]
        and all(l.sign == "-" for h in files[0].hunks for l in h.removed)
        and all(l.sign == "+" for h in files[0].hunks for l in h.added)
    )

    kfiles = parse_unified_diff(kmemdup.diff_text)
    structure = structure and (
        len(kfiles) == 1
        and kfiles[0].path == "drivers/hid/hid-sensor-hub.c"
        and len(kfiles[0].hunks) == 1
        and len(kfiles[0].hunks[0].removed) == 4
        and len(kfiles[0].hunks[0].added) == 3
        and "kmalloc" in kfiles[0].hunks[0].removed[0].text
        and "kmemdup" in kfiles[0].hunks[0].added[0].text
    )

    pfiles = parse_unified_diff(power_reg.diff_text)
    structure = structure and (
        len(pfiles) == 1
        and len(pfiles[0].hunks) == 1
        and len(pfiles[0].hunks[0].removed) == 4
        and len(pfiles[0].hunks[0].added) == 0
    )

    eligible = all(check_eligibility(c).eligible for c in commits)
    baseline = all(keyword_baseline(c.message) is Label.NON_STABLE for c in commits)
    ok = structure and eligible and baseline
    _verdict(
        "parser fixtures",
        ok,
        f"3 reconstructed patches parse to expected files/hunks/lines "
        f"(structure {'ok' if structure else 'WRONG'}), all eligible, "
        f"keyword baseline labels all three non-stable: {baseline}",
    )


# ---------------------------------------------------------------------------
# 7. Line-kind classification agrees with the hand-labeled table.


def test_07_line_kind_oracle():
    agreements = 0
    for name, lines, expected in SNIPPETS:
        kinds = classify_line_kinds("\n".join(lines))
        want = {
            i: expected.get(i, LineKind.NORMAL) for i in range(1, len(lines) + 1)
        }
        assert kinds == want, name
        agreements += 1

    pattern = "static int f(void)\n{\n\tif (err)\n\t\treturn err;\n\treturn 0;\n}"
    kinds = classify_line_kinds(pattern)
    pair = (
        kinds[3] is LineKind.ERROR_CHECKING and kinds[4] is LineKind.ERROR_HANDLING
    )
    literal_one = classify_line_kinds("if (err)\n\treturn 1;")
    pair = pair and literal_one == {
        1: LineKind.ERROR_CHECKING,
        2: LineKind.ERROR_HANDLING,
    }
    ok = agreements >= 30 and pair
    _verdict(
        "line-kind oracle",
        ok,
        f"{agreements} hand-labeled snippets agree (need >= 30); "
        f"'if (err)' header -> checking and its 'return err;' body -> handling",
    )


# ---------------------------------------------------------------------------
# 8. Shape invariants under fuzzing.

FUZZ_WORDS = (
    "fix leak race buffer probe driver queue enable disable frobnicate "
    "the a when under 0xff 255 btrfs sched locking untested"
).split()

FUZZ_LINES = (
    "\tif (err)",
    "\t\tgoto out;",
    "\treturn 0;",
    "\tx = kmalloc(sz, GFP_KERNEL);",
    "\t/* half a comment",
    '\tchar *s = "unterminated',
    "}",
    "{",
    "\tstruct widget *w = frob(a, b);",
    "\tfor (i = 0; i < n; i++)",
    "\t\t\tWIN_A | WIN_B;",
    "out:",
    "\téé weird bytes ☃",
    "    spaces not tabs;",
)

FUZZ_PATHS = ("drivers/a.c", "fs/b.c", "include/c.h", "Documentation/d.txt", "e.c")


def _fuzz_diff(rng):
    parts = []
    for _ in range(int(rng.integers(0, 4))):
        path = FUZZ_PATHS[int(rng.integers(0, len(FUZZ_PATHS)))]
        parts.append(f"diff --git a/{path} b/{path}")
        parts.append(f"--- a/{path}")
        parts.append(f"+++ b/{path}")
        old_line = 1
        for _ in range(int(rng.integers(1, 4))):
            removed = [
                FUZZ_LINES[int(rng.integers(0, len(FUZZ_LINES)))]
                for _ in range(int(rng.integers(0, 4)))
            ]
            added = [
                FUZZ_LINES[int(rng.integers(0, len(FUZZ_LINES)))]
                for _ in range(int(rng.integers(0, 4)))
            ]
            context = "\tint ctx;"
            parts.append(
                f"@@ -{old_line},{1 + len(removed)} +{old_line},{1 + len(added)} @@"
            )
            parts.append(f" {context}")
            parts.extend("-" + r for r in removed)
            parts.extend("+" + a for a in added)
            old_line += 7
    return "\n".join(parts) + ("\n" if parts else "")


def test_08_tensor_shape_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    dims = PatchDims(msg_len=512, files=5, hunks=8, lines=10, words=120)

    seed_commits = []
    for i in range(200):
        n_words = 600 if i % 97 == 0 else int(rng.integers(0, 40))
        msg = " ".join(
            FUZZ_WORDS[int(rng.integers(0, len(FUZZ_WORDS)))] for _ in range(n_words)
        )
        seed_commits.append(
            make_commit(
                5000 + i,
                subject=msg[:60] or "x: y",
                body=msg,
                diff=_fuzz_diff(rng),
            )
        )
    # Only the table and vocabularies of the seed commits are used, so
    # their own tensors are built at the smallest dims.
    _, table, (msg_vocab, code_vocab), _ = preprocess_commits(
        seed_commits, PatchDims(msg_len=1, files=1, hunks=1, lines=1, words=1)
    )

    faults = 0
    bad_shapes = 0
    checked = 0
    for i in range(10_000):
        n_words = 600 if i % 997 == 0 else int(rng.integers(0, 30))
        msg = " ".join(
            FUZZ_WORDS[int(rng.integers(0, len(FUZZ_WORDS)))] for _ in range(n_words)
        )
        c = make_commit(
            20_000 + i,
            subject=(msg[:60] or "x: y"),
            body=msg,
            diff=_fuzz_diff(rng),
        )
        try:
            p = assemble_tensors(c, table, (msg_vocab, code_vocab), dims)
        except Exception:
            faults += 1
            continue
        good = (
            p.message_tokens.shape == (512,)
            and p.removed_code.shape == (5, 8, 10, 120)
            and p.added_code.shape == (5, 8, 10, 120)
            and 0 <= int(p.message_tokens.min())
            and int(p.message_tokens.max()) < len(msg_vocab)
            and 0 <= int(min(p.removed_code.min(), p.added_code.min()))
            and int(max(p.removed_code.max(), p.added_code.max())) < len(code_vocab)
        )
        bad_shapes += int(not good)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = faults == 0 and bad_shapes == 0 and checked == 10_000
    _verdict(
        "shape invariants",
        ok,
        f"{checked} fuzzed patches -> (512,) and (5,8,10,120) tensors, "
        f"{faults} faults, {bad_shapes} shape/bound violations, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. Chronological split protocol on 1,000 dated commits.


def test_09_chronological_split_protocol():
    rng = np.random.default_rng(77)
    commits = [
        make_commit(30_000 + i, date=int(rng.integers(0, 400)) * 86_400)
        for i in range(1000)
    ]
    folds = chrono_folds(commits, n_folds=5)

    sizes = [len(test) for _, test in folds]
    disjoint = True
    seen: set[str] = set()
    for _, test in folds:
        ids = {c.commit_id for c in test}
        disjoint = disjoint and not (ids & seen)
        seen |= ids
    exhaustive = seen == {c.commit_id for c in commits}
    ordered = all(
        max((c.date, c.commit_id) for c in folds[i][1])
        <= min((c.date, c.commit_id) for c in folds[i + 1][1])
        for i in range(4)
    )
    complements = all(
        {c.commit_id for c in train} == (seen - {c.commit_id for c in test})
        for train, test in folds
    )
    ok = sizes == [200] * 5 and disjoint and exhaustive and ordered and complements
    _verdict(
        "split protocol",
        ok,
        f"5 folds of sizes {sizes}, disjoint={disjoint}, "
        f"exhaustive={exhaustive}, date-ordered={ordered}",
    )


# ---------------------------------------------------------------------------
# 10. Fixed-seed determinism and checkpoint persistence.


def test_10_determinism_and_checkpoint(tmp_path):
    patches, msg_vocab, code_vocab, table = _preprocess_corpus(
        _message_corpus(), TOY_HP
    )
    hp = replace(TOY_HP, dropout=0.3)
    config = TrainConfig(
        batch_size=8, max_epochs=5, patience=5, learning_rate=1e-2, seed=123
    )
    a = train(patches, hp, config, msg_vocab, code_vocab)
    b = train(patches, hp, config, msg_vocab, code_vocab)
    identical = a.history == b.history and all(
        np.array_equal(ta.data, tb.data)
        for (_, ta), (_, tb) in zip(a.params.named(), b.params.named())
    )

    path = str(tmp_path / "toy.ckpt")
    save_checkpoint(path, a.params, hp, msg_vocab, code_vocab, table)
    bundle = load_checkpoint(path)
    drift = np.abs(
        score_items(patches, a.params, hp) - score_items(patches, bundle.params, bundle.hp)
    ).max()
    ok = identical and drift < 1e-6
    _verdict(
        "determinism & persistence",
        ok,
        f"two seed-123 runs bit-identical={identical}; "
        f"checkpoint round-trip score drift {drift:.2e} < 1e-6",
    )
