"""The code scanners against their character-at-a-time predecessors.

`codeprep_oracle` holds strip_comments_strings and classify_line_kinds
as they were before regular expressions.  On every fragment both must
return the same stripped text and the same line kinds.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeprep_oracle
from patchnet.codeprep import classify_line_kinds, strip_comments_strings
from patchnet.ingest import parse_commit_stream
from test_export_reader import _benchmark_run


def assert_matches_oracle(text):
    stripped = strip_comments_strings(text)
    assert stripped == codeprep_oracle.strip_comments_strings(text)
    for scanned in (text, stripped):
        assert classify_line_kinds(scanned) == codeprep_oracle.classify_line_kinds(scanned)


# What C-ish text is built from: if statements with nested conditions
# and bodies, labels and statements, joined by spacing that may hold a
# comment, a CR or a backslash-newline, and stray pieces that open or
# end a comment, a literal or a bracket.
SPACE = ["", " ", "\t", "\n", "\r\n", "\r", "\\\n", " /* c */ ", " // c\n"]
CONDITIONS = ["err", "!p", "(err)", "f(a, (b))", "a && (b || c)", "ret < 0", "'('", '")"', "c /* ) */"]
STATEMENTS = ["goto out;", "return -EIO;", "return 0;", "return (0);", "return;", "kfree(p);", "x = '}';"]
LABELS = ["out", "err_free", "default", "case", "int", "case 1", "a::b"]
NOISE = ["if (", "(", ")", "{", "}", "else", ";", "/*", "*/", "//", "/", "*", '"', "'", "\\", "\n", "\r", "x"]


@st.composite
def c_text(draw, depth=2):
    def pick(values):
        return draw(st.sampled_from(values))

    def body():
        if draw(st.booleans()):
            return pick(STATEMENTS)
        inner = draw(c_text(depth - 1)) if depth else ""
        return "{" + pick(SPACE) + inner + pick(STATEMENTS) + pick(SPACE) + "}"

    def if_statement():
        text = f"if{pick(SPACE)}({pick(CONDITIONS)}){pick(SPACE)}{body()}"
        if draw(st.booleans()):
            text += pick(SPACE) + "else" + pick(SPACE) + (if_statement() if draw(st.booleans()) else body())
        return text

    parts = []
    for kind in draw(st.lists(st.sampled_from(["if", "label", "statement", "noise", "noise"]), max_size=6)):
        if kind == "if":
            text = if_statement()
        elif kind == "label":
            text = "\n" + pick(LABELS) + pick(["", " "]) + ":"
        else:
            text = pick(STATEMENTS if kind == "statement" else NOISE)
        parts.append(text + pick(SPACE))
    return "".join(parts)


@given(c_text(), st.none() | st.integers(0, 300))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_the_scanners_match_the_oracle_on_c_ish_text(text, cut):
    assert_matches_oracle(text[:cut])


# Edges that random text seldom reaches: a lone backslash ending an open
# literal, a backslash-newline inside one, CR line ends, a `/*/`, and
# mixed spacing (a form feed too) between `else` and `if`.
EDGES = ['"ab\\', "c = '\\", '"a\\\nb" c', '"open\nx"', "/* open\n", "a /*/ b */ c",
         "// c\r\nx", "if (x)\r\n\treturn -EIO;\r\nelse y;",
         "if (a) x; else \t\n \f\n\tif (b)\n\t\tgoto out;\n"]

# Braced error-exit `if`s nested 2-30 deep, which the strategy above
# reaches at most 2 deep: each innermost exit, with headers and bodies on
# one line and on separate lines, and with a label block inside the braces.
NESTED = [
    sep.join([f"if (e{i}) {{" for i in range(depth)] + inner + ["}"] * depth)
    for depth in (2, 3, 8, 30)
    for inner in (["goto out;"], ["return -EIO;"], ["return 0;"], ["kfree(p);", "out:", "x = 1;", "return -EIO;"])
    for sep in (" ", "\n")
]


@pytest.mark.parametrize("text", EDGES + NESTED)
def test_the_scanners_match_the_oracle_on_edges(text):
    assert_matches_oracle(text)


@pytest.mark.parametrize("workload", ["kernel-default", "corpus-compact"])
def test_the_scanners_match_the_oracle_on_the_benchmark_exports(workload, tmp_path, monkeypatch):
    run = _benchmark_run(monkeypatch)
    info = run.corpus.generate(run.WORKLOADS[workload].shape, 5, tmp_path)
    for name in ("mainline", "stable"):
        for commit in parse_commit_stream(Path(info["paths"][name]).read_text(encoding="utf-8")):
            stripped = strip_comments_strings(commit.diff_text)
            assert stripped == codeprep_oracle.strip_comments_strings(commit.diff_text)
            assert classify_line_kinds(stripped) == codeprep_oracle.classify_line_kinds(stripped)
