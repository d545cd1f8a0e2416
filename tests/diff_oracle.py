"""The diff parser as it was before Hunk built its own lines: a private
scanner of spans for check_eligibility beside a builder of every line
for parse_unified_diff, kept as the oracle that tests/test_ingest.py
checks the one parser against.  Only this docstring, the imports and
Hunk, which is core.Hunk as it was then (its lines held as fields),
are new; the functions are otherwise unchanged."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from patchnet.core import CodeLine, FileDiff, RawCommit
from patchnet.ingest import (
    MAX_REPORTED_DIFF_LINES,
    MERGE_COMMIT,
    NO_C_OR_H_FILE_MODIFIED,
    ONLY_ADDS_OR_REMOVES_FILES,
    OTHER,
    RE_BINARY,
    RE_BODY_END,
    RE_DIFF_GIT,
    RE_HUNK_HEADER,
    RE_NEW_FILE,
    RE_OLD_FILE,
    TOO_LONG,
    EligibilityReport,
    ParseError,
)


@dataclass(frozen=True)
class Hunk:
    """A contiguous change region of one file.

    ``index`` is the 1-based position of the hunk within its file diff.
    Starts and counts echo the @@ header.  ``removed`` and ``added``
    hold only the changed lines; context lines are not retained beyond
    their effect on line numbering.
    """

    index: int
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    removed: tuple[CodeLine, ...]
    added: tuple[CodeLine, ...]


class _HunkSpan(NamedTuple):
    """One hunk as the scanner finds it: its @@ numbers, its body as
    diff_text[start:end], and the counts of '-' and '+' lines in it."""

    old_start: int
    old_count: int
    new_start: int
    new_count: int
    start: int
    end: int
    removed: int
    added: int


class _FileSpan(NamedTuple):
    """One file as the scanner finds it: FileDiff's fields, with hunk
    spans in place of Hunks."""

    path: str
    old_path: str
    is_new_file: bool
    is_deleted_file: bool
    hunks: list[_HunkSpan]

    language_relevant = FileDiff.language_relevant
    is_modification = FileDiff.is_modification


def _scan_diff(text: str) -> list[_FileSpan]:
    """The unified-diff grammar, in one pass that builds no lines.

    A file starts at "diff --git", or at a "--- " line outside a hunk
    once the file so far has hunks.  A hunk is an @@ header and its body:
    the lines after it that start with '-', '+', ' ' or '\\' or are
    empty, so "--- " and "+++ " inside a body are changed lines.  Any
    other line ends the body and is read as a header line.  A malformed
    @@ header raises ParseError with its 1-based line number.
    """
    files: list[_FileSpan] = []
    # Per-file state; "new file mode" and "deleted file mode" seen
    # before a file's first header carry into that file.
    old_path: str | None = None
    new_path: str | None = None
    hunks: list[_HunkSpan] = []
    is_new = is_deleted = seen_file = False

    def close_file() -> None:
        nonlocal seen_file, old_path, new_path, hunks, is_new, is_deleted
        if not seen_file:
            return
        path = new_path if new_path not in (None, "/dev/null") else old_path
        files.append(_FileSpan(
            path or "",
            "" if old_path in (None, "/dev/null") else old_path,
            is_new or old_path == "/dev/null",
            is_deleted or new_path == "/dev/null",
            hunks,
        ))
        seen_file = False
        old_path = new_path = None
        hunks = []
        is_new = is_deleted = False

    pos, n = 0, len(text)
    while pos < n:
        eol = text.find("\n", pos)
        if eol < 0:
            eol = n
        line = text[pos:eol]
        pos = eol + 1
        if line.startswith("@@"):
            m = RE_HUNK_HEADER.match(line)
            if not m:
                lineno = text.count("\n", 0, eol) + 1
                raise ParseError(f"malformed hunk header {line!r}", lineno=lineno)
            seen_file = True
            a, b, c, d = m.group(1, 2, 3, 4)
            body_end = RE_BODY_END.search(text, pos)
            end = body_end.start() if body_end else n
            # A body line starts after a newline; the first one after
            # the header's, at eol.
            hunks.append(_HunkSpan(
                int(a), 1 if b is None else int(b), int(c), 1 if d is None else int(d),
                min(pos, n), end, text.count("\n-", eol, end), text.count("\n+", eol, end),
            ))
            pos = end
        elif line.startswith("diff --git"):
            close_file()
            seen_file = True
            m = RE_DIFF_GIT.match(line)
            if m:
                old_path, new_path = m.group(1), m.group(2)
        elif line.startswith("--- "):
            if seen_file and hunks:
                close_file()
            seen_file = True
            m = RE_OLD_FILE.match(line)
            old_path = m.group(1) if m else None
        elif line.startswith("+++ "):
            seen_file = True
            m = RE_NEW_FILE.match(line)
            new_path = m.group(1) if m else None
        elif line.startswith("new file mode"):
            is_new = True
        elif line.startswith("deleted file mode"):
            is_deleted = True
        elif RE_BINARY.match(line):
            seen_file = True
    close_file()
    return files


def _build_hunk(text: str, index: int, h: _HunkSpan) -> Hunk:
    """The Hunk of one span, its changed lines numbered from the @@
    starts; context advances both sides."""
    lines = text[h.start : h.end].split("\n")
    if lines[-1] == "":  # the piece after the last line's newline
        lines.pop()
    old_line, new_line = max(h.old_start, 1), max(h.new_start, 1)
    removed: list[CodeLine] = []
    added: list[CodeLine] = []
    for line in lines:
        sign = line[:1]
        if sign == "-":
            removed.append(CodeLine(old_line, line[1:], "-"))
            old_line += 1
        elif sign == "+":
            added.append(CodeLine(new_line, line[1:], "+"))
            new_line += 1
        elif sign != "\\":  # context; "\ No newline at end of file" is neither
            old_line += 1
            new_line += 1
    return Hunk(index, h.old_start, h.old_count, h.new_start, h.new_count,
                tuple(removed), tuple(added))


def parse_unified_diff(diff_text: str) -> list[FileDiff]:
    """Parse unified-diff text into per-file hunk structures.

    The grammar is _scan_diff's; this builds the CodeLines of each hunk
    body.  Binary changes yield a FileDiff with zero hunks.  A malformed
    @@ header raises ParseError with its 1-based line number.
    """
    return [
        FileDiff(f.path, tuple(_build_hunk(diff_text, i, h) for i, h in enumerate(f.hunks, start=1)),
                 f.old_path, f.is_new_file, f.is_deleted_file)
        for f in _scan_diff(diff_text)
    ]


def diff_reported_length(files: list[FileDiff]) -> int:
    """Diff length as a diff tool reports it: changed plus context lines.

    Per hunk this equals old_count + len(added): old_count covers the
    context and removed lines, added lines are the rest.
    """
    return sum(h.old_count + len(h.added) for fd in files for h in fd.hunks)


def changed_line_count(files: list[FileDiff]) -> int:
    """Number of '-' and '+' lines inside hunks (context excluded)."""
    return sum(len(h.removed) + len(h.added) for fd in files for h in fd.hunks)


def check_eligibility(c: RawCommit) -> EligibilityReport:
    """Apply the dataset filters: not a merge, modifies a .c/.h file
    in place, and the reported diff is at most 100 lines.  The lengths
    come from the scanner's line counts; no CodeLine is built."""
    reasons: list[str] = []
    if len(c.parent_ids) > 1:
        reasons.append(MERGE_COMMIT)
    try:
        files = _scan_diff(c.diff_text)
    except ParseError as exc:
        reasons.append(f"{OTHER}: {exc}")
        return EligibilityReport(tuple(reasons), 0)
    relevant = [fd for fd in files if fd.language_relevant]
    if not relevant:
        reasons.append(NO_C_OR_H_FILE_MODIFIED)
    elif not any(fd.is_modification for fd in relevant):
        reasons.append(ONLY_ADDS_OR_REMOVES_FILES)
    hunks = [h for fd in files for h in fd.hunks]
    if sum(h.old_count + h.added for h in hunks) > MAX_REPORTED_DIFF_LINES:
        reasons.append(TOO_LONG)
    return EligibilityReport(tuple(reasons), sum(h.removed + h.added for h in hunks))
