"""Export parsing, diff structure, eligibility, labeling, balancing."""

import importlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balance_oracle
import diff_oracle
from conftest import (
    ERRNO_FIX_DIFF,
    ERRNO_FIX_EXPORT,
    KMEMDUP_DIFF,
    KMEMDUP_EXPORT,
    POWER_REG_DIFF,
    POWER_REG_EXPORT,
    SAMPLE_EXPORTS,
    export_record,
    hex_id,
    make_commit,
    simple_diff,
)
from patchnet import core, ingest
from patchnet.core import Label
from patchnet.ingest import (
    MAX_REPORTED_DIFF_LINES,
    MERGE_COMMIT,
    NO_C_OR_H_FILE_MODIFIED,
    ONLY_ADDS_OR_REMOVES_FILES,
    OTHER,
    TOO_LONG,
    EligibilityReport,
    ParseError,
    build_balanced_dataset,
    check_eligibility,
    commit_from_json_obj,
    commit_to_json_obj,
    extract_stable_evidence,
    label_commit,
    load_commits,
    parse_commit_stream,
    parse_unified_diff,
    read_rc_ids,
    write_commits_jsonl,
)
from test_export_reader import _benchmark_run


def size_of(c) -> int:
    return diff_oracle.changed_line_count(parse_unified_diff(c.diff_text))


def sized(labeled):
    """Labeled commits as build_balanced_dataset takes them, each with the
    changed-line count that check_eligibility reports and its label."""
    return [(c, check_eligibility(c).changed_lines, c.label) for c in labeled]


def counts(commits) -> tuple[int, int]:
    """(stable, non_stable) commit counts."""
    stable = sum(c.label is Label.STABLE for c in commits)
    return stable, len(commits) - stable


def sized_diff(n_added: int, path: str = "kernel/sched.c") -> str:
    """Diff whose changed-line count is exactly n_added."""
    assert n_added >= 1
    lines = [
        f"diff --git a/{path} b/{path}",
        f"--- a/{path}",
        f"+++ b/{path}",
        f"@@ -1,1 +1,{n_added + 1} @@",
        " int x;",
    ]
    lines.extend(f"+line_{i} = {i};" for i in range(n_added))
    return "\n".join(lines) + "\n"


class TestParseCommitStream:
    def test_empty_input_gives_no_commits(self):
        assert parse_commit_stream("") == []
        assert parse_commit_stream("  \n \n") == []

    def test_single_record_round_trip(self):
        text = export_record(
            hex_id(7).upper(),
            f"{hex_id(8)} ",
            "  Dev One ",
            " dev@example.org ",
            1234,
            "subject line\n\nbody a\nbody b\n",
            "diff --git a/x.c b/x.c\n",
        )
        (c,) = parse_commit_stream(text)
        assert c.commit_id == hex_id(7)
        assert c.parent_ids == (hex_id(8),)
        assert c.author_name == "Dev One"
        assert c.author_email == "dev@example.org"
        assert c.date == 1234
        assert c.subject == "subject line"
        assert c.body == "body a\nbody b"
        assert c.diff_text == "diff --git a/x.c b/x.c\n"

    def test_diff_text_preserved_byte_exactly(self):
        (c,) = parse_commit_stream(ERRNO_FIX_EXPORT)
        assert c.diff_text == ERRNO_FIX_DIFF

    def test_multiple_records_preserve_order(self):
        commits = parse_commit_stream("\n".join(SAMPLE_EXPORTS))
        assert [c.commit_id for c in commits] == [
            "8bd98f0e6bf792e8fa7c3fed709321ad42ba8d2e",
            "7b0692f1c60a9551f8ad5fe706b79a23720a196c",
            "501bcbd1b233edc160d0c770c03747a1c4aa14e5",
        ]
        assert commits[0].subject == "btrfs: csum_tree_block: return proper errno value"
        assert commits[1].date == 1376467631
        assert commits[2].parent_ids == (hex_id(3),)

    def test_root_commit_has_no_parents(self):
        text = export_record(hex_id(1), "", "a", "b@c", 1, "m", "")
        (c,) = parse_commit_stream(text)
        assert c.parent_ids == ()

    def test_content_before_first_separator_rejected(self):
        text = "garbage\n" + export_record(hex_id(1), "", "a", "b@c", 1, "m", "")
        with pytest.raises(ParseError) as err:
            parse_commit_stream(text)
        assert err.value.offset == 0

    def test_a_record_separator_is_a_whole_line(self):
        message = "subject\n\nsee \x01COMMIT\x01 here\n\x01COMMIT\x01\x01COMMIT\x01\n \x01COMMIT\x01"
        first = export_record(hex_id(1), "", "a", "b@c", 1, message, "")
        second = export_record(hex_id(2), "", "a", "b@c", 2, "m", "diff --git a/x.c b/x.c\n")
        commits = parse_commit_stream(first + second)
        assert [c.commit_id for c in commits] == [hex_id(1), hex_id(2)]
        assert commits[0].body == message.split("\n\n", 1)[1]
        rejected = {
            first + "\x01COMMIT\x01": ("record separator at end of input", len(first)),
            "x\x01COMMIT\x01\n": ("no record separator found", 0),
            "\x01COMMIT\x01\r\n" + first.split("\n", 1)[1]: ("no record separator found", 0),
            "garbage\n" + first: ("content before first record separator", 0),
        }
        for text, (message, offset) in rejected.items():
            with pytest.raises(ParseError) as err:
                parse_commit_stream(text)
            assert (err.value.message, err.value.offset) == (message, offset)

    def test_header_order_enforced(self):
        text = (
            "\x01COMMIT\x01\n"
            f"parents: \nid: {hex_id(1)}\nauthor: a\nemail: b@c\ndate: 1\n\nm\n"
            "\x01DIFF\x01\n"
        )
        with pytest.raises(ParseError, match="'id' header"):
            parse_commit_stream(text)

    def test_malformed_commit_id_rejected(self):
        text = export_record("nothex", "", "a", "b@c", 1, "m", "")
        with pytest.raises(ParseError, match="byte offset"):
            parse_commit_stream(text)

    def test_malformed_parent_ids_rejected(self):
        good = export_record(hex_id(1), f"{hex_id(2).upper()} {hex_id(3)}", "a", "b@c", 1, "m", "")
        assert parse_commit_stream(good)[0].parent_ids == (hex_id(2), hex_id(3))
        for parents, bad in (("x y", "x"), (f"{hex_id(2)} abc", "abc"), (hex_id(2) + "0", hex_id(2) + "0")):
            text = good + export_record(hex_id(4), parents, "a", "b@c", 1, "m", "")
            with pytest.raises(ParseError) as err:
                parse_commit_stream(text)
            record_start = len(good) + len("\x01COMMIT\x01\n")
            assert (err.value.message, err.value.offset) == (f"malformed commit id {bad!r}", record_start)

    def test_malformed_date_rejected(self):
        text = export_record(hex_id(1), "", "a", "b@c", 1, "m", "").replace(
            "date: 1", "date: soon"
        )
        with pytest.raises(ParseError, match="date"):
            parse_commit_stream(text)

    def test_missing_blank_line_rejected(self):
        text = (
            "\x01COMMIT\x01\n"
            f"id: {hex_id(1)}\nparents: \nauthor: a\nemail: b@c\ndate: 1\n"
            "message right away\n\x01DIFF\x01\n"
        )
        with pytest.raises(ParseError, match="blank line"):
            parse_commit_stream(text)

    def test_missing_diff_separator_rejected(self):
        text = (
            "\x01COMMIT\x01\n"
            f"id: {hex_id(1)}\nparents: \nauthor: a\nemail: b@c\ndate: 1\n\nmessage\n"
        )
        with pytest.raises(ParseError, match="diff separator"):
            parse_commit_stream(text)


class TestParseUnifiedDiff:
    def test_simple_diff_structure(self):
        (fd,) = parse_unified_diff(simple_diff())
        assert fd.path == "drivers/net/foo.c"
        assert fd.language_relevant
        assert fd.is_modification
        (h,) = fd.hunks
        assert (h.index, h.old_start, h.old_count, h.new_start, h.new_count) == (
            1, 10, 3, 10, 4,
        )
        assert [line.text for line in h.removed] == ["\told = thing;"]
        assert [line.text for line in h.added] == ["\tnew = thing;", "\textra = 1;"]

    def test_line_numbers_offset_by_context(self):
        (fd,) = parse_unified_diff(simple_diff())
        (h,) = fd.hunks
        # One context line precedes the changes on both sides.
        assert h.removed[0].line_number == 11
        assert [line.line_number for line in h.added] == [11, 12]

    def test_errno_fix_two_hunks(self):
        (fd,) = parse_unified_diff(ERRNO_FIX_DIFF)
        assert fd.path == "fs/btrfs/disk-io.c"
        assert fd.language_relevant and fd.is_modification
        assert len(fd.hunks) == 2
        h1, h2 = fd.hunks
        assert (h1.old_start, h1.old_count) == (303, 7)
        assert [line.text for line in h1.removed] == ["\t\t\treturn 1;"]
        assert [line.text for line in h1.added] == ["\t\t\treturn err;"]
        assert h1.removed[0].line_number == 306
        assert h1.added[0].line_number == 306
        assert [line.text for line in h2.removed] == ["\t\t\treturn 1;"]
        assert [line.text for line in h2.added] == ["\t\t\treturn -ENOMEM;"]

    def test_kmemdup_hunk_shape(self):
        (fd,) = parse_unified_diff(KMEMDUP_DIFF)
        assert fd.path == "drivers/hid/hid-sensor-hub.c"
        (h,) = fd.hunks
        assert (h.old_count, h.new_count) == (11, 10)
        assert len(h.removed) == 4
        assert len(h.added) == 3
        assert "kmalloc(sz, GFP_ATOMIC);" in h.removed[0].text
        assert "kmemdup(ptr, sz, GFP_ATOMIC);" in h.added[0].text
        assert h.removed[-1].text.endswith("} else")
        assert h.added[-1].text.endswith("else")

    def test_power_reg_pure_removal(self):
        (fd,) = parse_unified_diff(POWER_REG_DIFF)
        (h,) = fd.hunks
        assert len(h.removed) == 4
        assert h.added == ()
        assert h.removed[2].text.endswith("DC_CMD_DISPLAY_POWER_CONTROL);")
        assert h.removed[3].text == ""

    def test_new_file_detected(self):
        diff = (
            "diff --git a/new.c b/new.c\n"
            "new file mode 100644\n"
            "--- /dev/null\n"
            "+++ b/new.c\n"
            "@@ -0,0 +1,2 @@\n"
            "+int a;\n"
            "+int b;\n"
        )
        (fd,) = parse_unified_diff(diff)
        assert fd.is_new_file and not fd.is_modification
        assert fd.path == "new.c"
        assert fd.old_path == ""
        assert [line.line_number for line in fd.hunks[0].added] == [1, 2]

    def test_deleted_file_detected(self):
        diff = (
            "diff --git a/old.c b/old.c\n"
            "deleted file mode 100644\n"
            "--- a/old.c\n"
            "+++ /dev/null\n"
            "@@ -1,2 +0,0 @@\n"
            "-int a;\n"
            "-int b;\n"
        )
        (fd,) = parse_unified_diff(diff)
        assert fd.is_deleted_file and not fd.is_modification
        assert fd.path == "old.c"

    def test_binary_file_has_no_hunks(self):
        diff = (
            "diff --git a/logo.png b/logo.png\n"
            "Binary files a/logo.png and b/logo.png differ\n"
        )
        (fd,) = parse_unified_diff(diff)
        assert fd.hunks == ()
        assert not fd.language_relevant

    def test_multiple_files_split(self):
        diff = simple_diff(path="a/x.c") + simple_diff(path="include/y.h")
        fds = parse_unified_diff(diff)
        assert [fd.path for fd in fds] == ["a/x.c", "include/y.h"]
        assert all(fd.language_relevant for fd in fds)

    def test_hunk_header_without_counts_defaults_to_one(self):
        diff = (
            "diff --git a/x.c b/x.c\n"
            "--- a/x.c\n"
            "+++ b/x.c\n"
            "@@ -3 +3 @@\n"
            "-old\n"
            "+new\n"
        )
        (fd,) = parse_unified_diff(diff)
        (h,) = fd.hunks
        assert (h.old_start, h.old_count, h.new_start, h.new_count) == (3, 1, 3, 1)

    def test_malformed_hunk_header_raises_with_line(self):
        diff = "diff --git a/x.c b/x.c\n--- a/x.c\n+++ b/x.c\n@@ broken @@\n"
        with pytest.raises(ParseError, match="at line 4"):
            parse_unified_diff(diff)

    def test_no_newline_marker_ignored(self):
        diff = (
            "diff --git a/x.c b/x.c\n"
            "--- a/x.c\n"
            "+++ b/x.c\n"
            "@@ -1,1 +1,1 @@\n"
            "-old\n"
            "\\ No newline at end of file\n"
            "+new\n"
            "\\ No newline at end of file\n"
        )
        (fd,) = parse_unified_diff(diff)
        (h,) = fd.hunks
        assert [line.text for line in h.removed] == ["old"]
        assert [line.text for line in h.added] == ["new"]

    def test_dashes_inside_hunk_are_removed_lines(self):
        diff = (
            "diff --git a/x.c b/x.c\n"
            "--- a/x.c\n"
            "+++ b/x.c\n"
            "@@ -1,2 +1,1 @@\n"
            " keep\n"
            "--- not a file header\n"
        )
        (fd,) = parse_unified_diff(diff)
        (h,) = fd.hunks
        assert [line.text for line in h.removed] == ["-- not a file header"]

    def test_empty_diff_gives_no_files(self):
        assert parse_unified_diff("") == []


class TestDiffLengths:
    """The lengths check_eligibility filters and balances on, counted
    from the lines parse_unified_diff builds."""

    def test_reported_length_counts_context_plus_added(self):
        # old_count covers context and removals; added lines are extra.
        assert diff_oracle.diff_reported_length(parse_unified_diff(simple_diff())) == 3 + 2

    def test_reported_length_on_sample_patches(self):
        assert diff_oracle.diff_reported_length(parse_unified_diff(ERRNO_FIX_DIFF)) == (7 + 1) * 2
        assert diff_oracle.diff_reported_length(parse_unified_diff(KMEMDUP_DIFF)) == 11 + 3
        assert diff_oracle.diff_reported_length(parse_unified_diff(POWER_REG_DIFF)) == 10

    def test_changed_line_count_ignores_context(self):
        for diff, count in ((simple_diff(), 3), (sized_diff(17), 17)):
            assert diff_oracle.changed_line_count(parse_unified_diff(diff)) == count
            assert check_eligibility(make_commit(1, diff=diff)).changed_lines == count


class TestEligibility:
    def test_ordinary_fix_is_eligible(self):
        report = check_eligibility(make_commit(1))
        assert report.eligible and report.reasons == ()
        assert report.changed_lines == 3

    def test_merge_commit_rejected(self):
        c = make_commit(1, parents=(hex_id(2), hex_id(3)))
        report = check_eligibility(c)
        assert not report.eligible
        assert MERGE_COMMIT in report.reasons

    def test_non_c_file_rejected(self):
        c = make_commit(1, diff=simple_diff(path="tools/run.py"))
        assert NO_C_OR_H_FILE_MODIFIED in check_eligibility(c).reasons

    def test_header_files_count_as_relevant(self):
        c = make_commit(1, diff=simple_diff(path="include/linux/frob.h"))
        assert check_eligibility(c).eligible

    def test_pure_file_addition_rejected(self):
        diff = (
            "diff --git a/new.c b/new.c\n"
            "new file mode 100644\n"
            "--- /dev/null\n"
            "+++ b/new.c\n"
            "@@ -0,0 +1,1 @@\n"
            "+int a;\n"
        )
        report = check_eligibility(make_commit(1, diff=diff))
        assert ONLY_ADDS_OR_REMOVES_FILES in report.reasons

    def test_addition_plus_modification_accepted(self):
        diff = (
            "diff --git a/new.c b/new.c\n"
            "new file mode 100644\n"
            "--- /dev/null\n"
            "+++ b/new.c\n"
            "@@ -0,0 +1,1 @@\n"
            "+int a;\n"
        ) + simple_diff(path="old.c")
        assert check_eligibility(make_commit(1, diff=diff)).eligible

    def test_long_diff_rejected(self):
        c = make_commit(1, diff=sized_diff(101))
        assert TOO_LONG in check_eligibility(c).reasons

    def test_hundred_lines_exactly_is_eligible(self):
        # Reported length = old_count 1 + 99 added = 100, the boundary.
        assert check_eligibility(make_commit(1, diff=sized_diff(99))).eligible
        assert TOO_LONG in check_eligibility(make_commit(1, diff=sized_diff(100))).reasons

    def test_unparseable_diff_reports_other(self):
        bad = "diff --git a/x.c b/x.c\n--- a/x.c\n+++ b/x.c\n@@ nope @@\n"
        report = check_eligibility(make_commit(1, diff=bad))
        assert any(r.startswith(f"{OTHER}:") for r in report.reasons)
        assert not report.eligible and report.changed_lines == 0


def oracle_eligibility(c) -> EligibilityReport:
    """check_eligibility by building every line with the oracle's
    parse_unified_diff, then counting what was built."""
    reasons = [MERGE_COMMIT] if len(c.parent_ids) > 1 else []
    try:
        files = diff_oracle.parse_unified_diff(c.diff_text)
    except ParseError as exc:
        return EligibilityReport((*reasons, f"{OTHER}: {exc}"), 0)
    relevant = [fd for fd in files if fd.language_relevant]
    if not relevant:
        reasons.append(NO_C_OR_H_FILE_MODIFIED)
    elif not any(fd.is_modification for fd in relevant):
        reasons.append(ONLY_ADDS_OR_REMOVES_FILES)
    if diff_oracle.diff_reported_length(files) > MAX_REPORTED_DIFF_LINES:
        reasons.append(TOO_LONG)
    return EligibilityReport(tuple(reasons), diff_oracle.changed_line_count(files))


HEAD = "diff --git a/x.c b/x.c\n--- a/x.c\n+++ b/x.c\n"
# name: (diff, reasons, changed lines), as check_eligibility reported
# them when it still built every line.
AGREEMENT_CASES = {
    "malformed-hunk-header": (
        HEAD + "@@ -1,2 +1,2 @@\n-a\n+b\n@@ -9 +9 @ broken\n-c\n",
        (f"{OTHER}: malformed hunk header '@@ -9 +9 @ broken' at line 7",), 0),
    "no-newline-marker": (
        HEAD + "@@ -1 +1 @@\n-old\n\\ No newline at end of file\n+new\n\\ No newline at end of file\n",
        (), 2),
    "binary-files-differ": (
        "diff --git a/fw.bin b/fw.bin\nindex 1111111..2222222 100644\n"
        "Binary files a/fw.bin and b/fw.bin differ\n" + HEAD + "@@ -1 +1 @@\n-a\n+b\n",
        (), 2),
    "git-binary-patch-only": (
        "diff --git a/fw.bin b/fw.bin\nGIT binary patch\nliteral 3\nabc\n",
        (NO_C_OR_H_FILE_MODIFIED,), 0),
    "new-file-mode": (
        "diff --git a/n.c b/n.c\nnew file mode 100644\n--- /dev/null\n+++ b/n.c\n@@ -0,0 +1,2 @@\n+a\n+b\n",
        (ONLY_ADDS_OR_REMOVES_FILES,), 2),
    "deleted-file-mode": (
        "diff --git a/d.c b/d.c\ndeleted file mode 100644\n--- a/d.c\n+++ /dev/null\n@@ -1,2 +0,0 @@\n-a\n-b\n",
        (ONLY_ADDS_OR_REMOVES_FILES,), 2),
    # No "diff --git": a "--- " line after a hunk starts the next file.
    "dev-null-on-either-side": (
        "--- /dev/null\n+++ b/n.h\n@@ -0,0 +1 @@\n+x\nindex 0000000..1111111\n"
        "--- a/o.c\n+++ /dev/null\n@@ -1 +0,0 @@\n-y\n",
        (ONLY_ADDS_OR_REMOVES_FILES,), 2),
    "mode-line-before-first-header": (
        "new file mode 100644\n" + HEAD + "@@ -1 +1 @@\n-a\n+b\n", (ONLY_ADDS_OR_REMOVES_FILES,), 2),
    "file-headers-inside-body": (
        HEAD + "@@ -1,3 +1,3 @@\n ctx\n--- not a header\n+++ not a header either\n", (), 2),
    "empty-context-and-no-final-newline": (HEAD + "@@ -1,4 +1,4 @@\n a\n\n-b\n+c\n d", (), 2),
    # "\r" is part of each line: the paths end in it, and a bare "\r"
    # line is not an empty context line, so it ends the hunk.
    "crlf": (
        HEAD.replace("\n", "\r\n") + "@@ -1,3 +1,3 @@\r\n a\r\n-b\r\n+c\r\n\r\n-after a bare CR line\r\n",
        (NO_C_OR_H_FILE_MODIFIED,), 2),
    "too-long": (sized_diff(MAX_REPORTED_DIFF_LINES), (TOO_LONG,), MAX_REPORTED_DIFF_LINES),
}

DIFF_ATOMS = [
    "diff --git a/x.c b/x.c", "diff --git a/y.py b/y.py", "diff --git a/n.h b/n.h", "--- a/x.c",
    "--- /dev/null", "--- x", "+++ b/x.c", "+++ b/n.h", "+++ /dev/null", "+++ y", "@@ -1,3 +1,4 @@",
    "@@ -0,0 +1 @@ fn", "@@ -3 +3 @@", "@@ broken @@", "@@ -9 +9 @ broken", "-old", "+new", "-", "+",
    "-- not a header", " ctx", "", "\\ No newline at end of file", "new file mode 100644",
    "deleted file mode 100644", "Binary files a/b and b/b differ", "GIT binary patch", "literal 3",
    "index 1..2", "\r", "x",
]


def diff_shape(parse, text):
    """What parse makes of text as plain values, so the oracle's Hunks
    compare with core's: per file the paths, the flags and per hunk the
    header numbers and lines; or the ParseError's message."""
    try:
        files = parse(text)
    except ParseError as exc:
        return str(exc)
    return [(fd.path, fd.old_path, fd.is_new_file, fd.is_deleted_file,
             [(h.index, h.old_start, h.old_count, h.new_start, h.new_count, h.removed, h.added)
              for h in fd.hunks])
            for fd in files]


def assert_agrees(c):
    assert diff_shape(parse_unified_diff, c.diff_text) == diff_shape(diff_oracle.parse_unified_diff, c.diff_text)
    assert check_eligibility(c) == diff_oracle.check_eligibility(c) == oracle_eligibility(c)


class TestParserAgreesWithOracle:
    """parse_unified_diff and check_eligibility against the parser they
    replaced (tests/diff_oracle.py), whose scanner counted lines for
    ingest beside a builder of every line for preprocess; check_eligibility
    builds no line and must report what counting the built lines does."""

    @pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
    def test_on_diff_edge_cases(self, name):
        diff, reasons, changed = AGREEMENT_CASES[name]
        assert check_eligibility(make_commit(1, diff=diff)) == EligibilityReport(reasons, changed)
        for parents in ((hex_id(2),), (hex_id(2), hex_id(3))):
            assert_agrees(make_commit(1, parents=parents, diff=diff))

    @given(
        st.lists(st.sampled_from(DIFF_ATOMS), max_size=20),
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from(["", "\n", "\n\n"]),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    def test_on_diffs_made_of_grammar_lines(self, lines, newline, tail, merge):
        parents = (hex_id(2), hex_id(3)) if merge else (hex_id(2),)
        assert_agrees(make_commit(1, parents=parents, diff=newline.join(lines) + tail))

    def test_on_a_seeded_benchmark_corpus(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        corpus = importlib.import_module("corpus")
        shape = corpus.CorpusShape(
            mainline=300, backlink_stable=8, subject_stable=4, rc_stable=2, stable_only=10,
            ineligible_share=0.3, files=(1, 2), hunks=(1, 3), lines=(1, 5), message_words=(8, 12),
            call_pool=20, define_share=0.3, planted_stable=0.9, planted_other=0.05,
        )
        corpus.generate(shape, 5, tmp_path)
        commits = load_commits(str(tmp_path / "mainline.export"))
        for c in commits:
            assert_agrees(c)
        seen = {r for c in commits for r in check_eligibility(c).reasons}
        assert seen == {MERGE_COMMIT, NO_C_OR_H_FILE_MODIFIED, ONLY_ADDS_OR_REMOVES_FILES, TOO_LONG}

    @pytest.mark.parametrize("workload", ["kernel-default", "corpus-compact"])
    def test_on_the_benchmark_exports(self, workload, tmp_path, monkeypatch):
        run = _benchmark_run(monkeypatch)
        info = run.corpus.generate(run.WORKLOADS[workload].shape, 5, tmp_path)
        for name in ("mainline", "stable"):
            for c in load_commits(info["paths"][name]):
                assert_agrees(c)

    def test_builds_no_lines(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a line")

        monkeypatch.setattr(core, "CodeLine", refuse)
        for diff, reasons, changed in AGREEMENT_CASES.values():
            assert check_eligibility(make_commit(1, diff=diff)) == EligibilityReport(reasons, changed)
        (fd,) = parse_unified_diff(simple_diff())
        with pytest.raises(AssertionError, match="built a line"):
            fd.hunks[0].removed

    def test_check_eligibility_parses_through_the_module_global(self, monkeypatch):
        # A tracer wraps ingest.parse_unified_diff where it is looked up,
        # so each commit's one parse shows as one call of that global.
        parsed = []
        parse = ingest.parse_unified_diff

        def counted(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(ingest, "parse_unified_diff", counted)
        commits = [make_commit(i, diff=case[0]) for i, case in enumerate(AGREEMENT_CASES.values(), start=1)]
        for c in commits:
            check_eligibility(c)
        assert parsed == [c.diff_text for c in commits]


class TestLabeling:
    def test_back_link_marks_stable(self):
        stable_tree = make_commit(
            50,
            subject="x: backported guard",
            body=f"commit {hex_id(7)} upstream.\n\nBackported for 4.4.",
        )
        ev = extract_stable_evidence([stable_tree])
        assert hex_id(7) in ev.back_links
        assert label_commit(make_commit(7), ev) is Label.STABLE
        assert label_commit(make_commit(8), ev) is Label.NON_STABLE

    def test_back_link_case_and_punctuation(self):
        stable_tree = make_commit(50, body=f"Commit {hex_id(7).upper()} upstream,")
        ev = extract_stable_evidence([stable_tree])
        assert label_commit(make_commit(7), ev) is Label.STABLE

    def test_author_subject_pair_marks_stable(self):
        stable_tree = make_commit(50, author="Pat Dev", subject="x: guard nulls")
        ev = extract_stable_evidence([stable_tree])
        mainline = make_commit(7, author="Pat Dev", subject="x: guard nulls")
        assert label_commit(mainline, ev) is Label.STABLE
        other = make_commit(8, author="Pat Dev", subject="x: other change")
        assert label_commit(other, ev) is Label.NON_STABLE

    def test_rc_ids_mark_stable(self):
        ev = extract_stable_evidence([], rc_ids={hex_id(9).upper()})
        assert label_commit(make_commit(9), ev) is Label.STABLE


def oracle_balance(labeled):
    """Greedy nearest-size matching, written as a direct min() scan."""
    stable = sorted(
        (c for c in labeled if c.label is Label.STABLE),
        key=lambda c: (c.date, c.commit_id),
    )
    pool = sorted(
        (c for c in labeled if c.label is Label.NON_STABLE),
        key=lambda c: (c.date, c.commit_id),
    )
    if len(pool) <= len(stable):
        chosen = list(pool)
    else:
        used = set()
        chosen = []
        for s in stable:
            target = size_of(s)
            best = min(
                (c for c in pool if c.commit_id not in used),
                key=lambda c: (
                    abs(size_of(c) - target),
                    c.date,
                    c.commit_id,
                ),
            )
            used.add(best.commit_id)
            chosen.append(best)
        chosen.sort(key=lambda c: (c.date, c.commit_id))
    return stable + chosen


@st.composite
def balancing_pairs(draw):
    """(labeled commit, size) pairs as the oracle takes them: sizes from a
    narrow or a wide range, so many or few ties; dates with ties; now and
    then an id seen before; and a pool with fewer, as many or more
    entries than there are stable commits."""
    n_stable = draw(st.integers(0, 12))
    n_pool = max(0 if n_stable else 1, n_stable + draw(st.sampled_from((-3, -1, 0, 0, 1, 4, 15))))
    top = draw(st.sampled_from((1, 4, 300)))
    labels = draw(st.permutations([Label.STABLE] * n_stable + [Label.NON_STABLE] * n_pool))
    pairs = []
    for i, label in enumerate(labels):
        n = i if draw(st.integers(0, 9)) else draw(st.integers(0, i))
        pairs.append((make_commit(n, date=draw(st.integers(0, 3)), label=label), draw(st.integers(0, top))))
    return pairs


class TestBalancedDataset:
    def test_nearest_size_matching(self):
        # Stable sizes 4 and 90; candidates 5, 50, 91: expect 5 and 91.
        labeled = [
            make_commit(1, date=10, diff=sized_diff(4), label=Label.STABLE),
            make_commit(2, date=20, diff=sized_diff(90), label=Label.STABLE),
            make_commit(3, date=30, diff=sized_diff(5), label=Label.NON_STABLE),
            make_commit(4, date=40, diff=sized_diff(50), label=Label.NON_STABLE),
            make_commit(5, date=50, diff=sized_diff(91), label=Label.NON_STABLE),
        ]
        commits, _ = build_balanced_dataset(sized(labeled))
        picked = [
            size_of(c)
            for c in commits
            if c.label is Label.NON_STABLE
        ]
        assert sorted(picked) == [5, 91]
        assert counts(commits) == (2, 2)

    def test_distance_tie_breaks_to_earlier_date(self):
        labeled = [
            make_commit(1, date=10, diff=sized_diff(10), label=Label.STABLE),
            make_commit(2, date=30, diff=sized_diff(9), label=Label.NON_STABLE),
            make_commit(3, date=20, diff=sized_diff(11), label=Label.NON_STABLE),
            make_commit(4, date=40, diff=sized_diff(30), label=Label.NON_STABLE),
        ]
        commits, _ = build_balanced_dataset(sized(labeled))
        match = [c for c in commits if c.label is Label.NON_STABLE]
        assert size_of(match[0]) == 11

    def test_duplicate_ids_keep_first(self):
        a = make_commit(1, date=10, diff=sized_diff(3), label=Label.STABLE)
        dup = make_commit(1, date=99, diff=sized_diff(40), label=Label.STABLE)
        b = make_commit(2, date=20, diff=sized_diff(3), label=Label.NON_STABLE)
        commits, _ = build_balanced_dataset(sized([a, dup, b]))
        stable_items = [c for c in commits if c.label is Label.STABLE]
        assert len(stable_items) == 1
        assert stable_items[0].date == 10

    def test_small_pool_warns_and_keeps_all(self):
        labeled = [
            make_commit(1, diff=sized_diff(3), label=Label.STABLE),
            make_commit(2, diff=sized_diff(5), label=Label.STABLE),
            make_commit(3, diff=sized_diff(4), label=Label.NON_STABLE),
        ]
        commits, provenance = build_balanced_dataset(sized(labeled))
        assert counts(commits) == (2, 1)
        assert "WARNING" in provenance

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            n = int(rng.integers(4, 28))
            labeled = []
            for i in range(n):
                stable = bool(rng.random() < 0.35) if i >= 2 else (i == 0)
                labeled.append(
                    make_commit(
                        1000 * trial + i,
                        date=int(rng.integers(1, 500)),
                        diff=sized_diff(int(rng.integers(1, 60))),
                        label=Label.STABLE if stable else Label.NON_STABLE,
                    )
                )
            expected = oracle_balance(labeled)
            got, _ = build_balanced_dataset(sized(labeled))
            assert [(c.commit_id, c.label) for c in got] == [
                (c.commit_id, c.label) for c in expected
            ]

    def test_invariant_under_input_permutation(self):
        rng = np.random.default_rng(7)
        labeled = [
            make_commit(
                i,
                date=int(rng.integers(1, 99)),
                diff=sized_diff(int(rng.integers(1, 30))),
                label=Label.STABLE if i % 3 == 0 else Label.NON_STABLE,
            )
            for i in range(12)
        ]
        base = build_balanced_dataset(sized(labeled))[0]
        for _ in range(5):
            perm = [labeled[i] for i in rng.permutation(len(labeled))]
            assert build_balanced_dataset(sized(perm))[0] == base

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_balanced_dataset([])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5), st.integers(1, 8), st.booleans()),
                    min_size=1, max_size=40))
    def test_follows_the_documented_rule(self, rows):
        # Duplicate ids, date and size ties, and pools both smaller and
        # larger than the stable set.  The commits come unlabeled: each
        # label travels beside its commit.
        entries = [(make_commit(n, date=date), size, Label.STABLE if stable else Label.NON_STABLE)
                   for n, date, size, stable in rows]
        first = {}
        for c, size, label in entries:
            first.setdefault(c.commit_id, (c, size, label))
        key = lambda e: (e[0].date, e[0].commit_id)
        stable = sorted((e for e in first.values() if e[2] is Label.STABLE), key=key)
        pool = sorted((e for e in first.values() if e[2] is Label.NON_STABLE), key=key)
        chosen = pool
        if stable and len(pool) > len(stable):
            unused, chosen = list(pool), []
            for _, target, _ in stable:
                best = min(unused, key=lambda e: (abs(e[1] - target), e[0].date, e[0].commit_id))
                unused.remove(best)
                chosen.append(best)
            chosen.sort(key=key)
        want = [(e[0].commit_id, Label.STABLE) for e in stable]
        want += [(e[0].commit_id, Label.NON_STABLE) for e in chosen] if stable else []
        got, _ = build_balanced_dataset(entries)
        assert [(c.commit_id, c.label) for c in got] == want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(balancing_pairs())
    def test_matches_the_numpy_oracle(self, pairs):
        # The same commits in the same order, and the same provenance; the
        # commits go in unlabeled, their labels beside them.
        want = balance_oracle.build_balanced_dataset(pairs)
        got = build_balanced_dataset([(replace(c, label=None), size, c.label) for c, size in pairs])
        assert got == want

    def test_scales_to_a_large_pool(self):
        rng = np.random.default_rng(11)
        entries = [(make_commit(i, date=int(rng.integers(0, 1000))), int(rng.integers(1, 500)),
                    Label.STABLE if i % 10 == 0 else Label.NON_STABLE)
                   for i in range(20_000)]
        start = time.perf_counter()
        commits, _ = build_balanced_dataset(entries)
        assert time.perf_counter() - start <= 3.0
        assert counts(commits) == (2_000, 2_000)


class TestJsonlRoundTrip:
    def test_commit_obj_round_trip(self):
        c = make_commit(5, label=Label.STABLE)
        obj = commit_to_json_obj(c)
        back = commit_from_json_obj(obj)
        assert back.commit_id == c.commit_id
        assert back.subject == c.subject
        assert back.diff_text == c.diff_text
        assert back.label is Label.STABLE

    def test_file_round_trip(self, tmp_path):
        commits = [
            make_commit(1, label=Label.STABLE),
            make_commit(2, label=Label.NON_STABLE),
        ]
        path = tmp_path / "ds.jsonl"
        write_commits_jsonl(str(path), commits)
        back = load_commits(str(path))
        assert [c.commit_id for c in back] == [hex_id(1), hex_id(2)]
        assert [c.label for c in back] == [Label.STABLE, Label.NON_STABLE]

    def test_load_commits_sniffs_formats(self, tmp_path):
        jsonl = tmp_path / "a.jsonl"
        write_commits_jsonl(str(jsonl), [make_commit(1)])
        assert load_commits(str(jsonl))[0].commit_id == hex_id(1)

        export = tmp_path / "b.export"
        export.write_text(ERRNO_FIX_EXPORT, encoding="utf-8")
        assert load_commits(str(export))[0].commit_id.startswith("8bd98f0e")

    def test_ids_are_normalised_and_checked_like_export_ids(self):
        obj = commit_to_json_obj(make_commit(5))
        assert commit_from_json_obj({**obj, "commit_id": f" {hex_id(5).upper()} "}).commit_id == hex_id(5)
        for bad in ("abc", hex_id(5) + "0", "", 5):
            with pytest.raises(ParseError, match="malformed commit id"):
                commit_from_json_obj({**obj, "commit_id": bad})

    def test_parents_must_be_a_list_of_strings(self):
        obj = commit_to_json_obj(make_commit(5))
        assert commit_from_json_obj({**obj, "parents": []}).parent_ids == ()
        with pytest.raises(TypeError, match="parents must be a list"):
            commit_from_json_obj({**obj, "parents": "abc"})
        with pytest.raises(TypeError, match="must be strings"):
            commit_from_json_obj({**obj, "parents": [5]})

    def test_parent_ids_are_normalised_and_checked_like_commit_ids(self):
        obj = commit_to_json_obj(make_commit(5))
        got = commit_from_json_obj({**obj, "parents": [f" {hex_id(6).upper()} ", hex_id(7)]})
        assert got.parent_ids == (hex_id(6), hex_id(7))
        for bad in ("x", "", hex_id(6) + "0"):
            with pytest.raises(ParseError, match="malformed commit id"):
                commit_from_json_obj({**obj, "parents": [hex_id(6), bad]})

    def test_dates_must_be_ints(self):
        obj = commit_to_json_obj(make_commit(5))
        assert commit_from_json_obj({**obj, "date": -3}).date == -3
        for bad in (1.9, 2.0, True, "12", None):
            with pytest.raises(TypeError, match="date must be an integer"):
                commit_from_json_obj({**obj, "date": bad})

    @pytest.mark.parametrize("field, value", [("commit_id", "abc"), ("parents", "abc")])
    def test_load_commits_names_the_bad_line(self, tmp_path, field, value):
        good = commit_to_json_obj(make_commit(1))
        path = tmp_path / "commits.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ParseError) as err:
            load_commits(str(path))
        assert err.value.lineno == 2

    def test_read_rc_ids(self, tmp_path):
        path = tmp_path / "rc.txt"
        path.write_text(
            f"# release candidates\n{hex_id(1)}\n\n{hex_id(2).upper()}\n",
            encoding="utf-8",
        )
        assert read_rc_ids(str(path)) == {hex_id(1), hex_id(2)}

    def test_read_rc_ids_rejects_garbage(self, tmp_path):
        path = tmp_path / "rc.txt"
        path.write_text("notanid\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            read_rc_ids(str(path))
