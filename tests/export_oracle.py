"""The export reader as it was before the record finder: one line at a
time through each message, kept as the oracle that
tests/test_export_reader.py checks ingest.parse_commit_stream against.
Only this docstring, the imports and the parent id check in
_parse_record are new; the two functions are otherwise unchanged."""

from __future__ import annotations

from patchnet.core import COMMIT_ID_RE, RawCommit
from patchnet.ingest import COMMIT_SEP, DIFF_SEP, RE_HEADER, ParseError


def parse_commit_stream(text: str) -> list[RawCommit]:
    """Parse an export stream into RawCommits, preserving record order.

    A record separator is a whole line.  Diff text is preserved
    byte-exactly.  Malformed headers raise ParseError naming the byte
    offset of the offending line.
    """
    commits: list[RawCommit] = []
    if not text.strip():
        return commits
    seps = []
    i = text.find(COMMIT_SEP)
    while i >= 0:
        j = i + len(COMMIT_SEP)
        if (i == 0 or text[i - 1] == "\n") and (j == len(text) or text[j] == "\n"):
            seps.append(i)
        i = text.find(COMMIT_SEP, i + 1)
    if not seps:
        raise ParseError("no record separator found", offset=0)
    if text[: seps[0]].strip():
        raise ParseError("content before first record separator", offset=0)
    for i, start in enumerate(seps):
        newline = text.find("\n", start)
        if newline < 0:
            raise ParseError("record separator at end of input", offset=start)
        end = seps[i + 1] if i + 1 < len(seps) else len(text)
        commits.append(_parse_record(text, newline + 1, end))
    return commits


def _parse_record(text: str, start: int, end: int) -> RawCommit:
    """Parse one record from text[start:end]; offsets are absolute."""
    header: dict[str, str] = {}
    pos = start
    for name in ("id", "parents", "author", "email", "date"):
        eol = text.find("\n", pos, end)
        if eol < 0:
            raise ParseError(f"record truncated before {name!r} header", offset=pos)
        m = RE_HEADER.match(text[pos:eol])
        if not m or m.group(1) != name:
            raise ParseError(f"expected {name!r} header line", offset=pos)
        header[name] = m.group(2)
        pos = eol + 1

    commit_id = header["id"].strip().lower()
    if not COMMIT_ID_RE.match(commit_id):
        raise ParseError(f"malformed commit id {header['id']!r}", offset=start)
    parent_ids = tuple(p.lower() for p in header["parents"].split())
    for parent in header["parents"].split():
        if not COMMIT_ID_RE.match(parent.lower()):
            raise ParseError(f"malformed commit id {parent!r}", offset=start)
    try:
        date = int(header["date"].strip())
    except ValueError:
        raise ParseError(f"malformed date {header['date']!r}", offset=start) from None

    eol = text.find("\n", pos, end)
    if eol < 0 or text[pos:eol].strip():
        raise ParseError("expected blank line after headers", offset=pos)
    pos = eol + 1

    # Message lines run until the diff separator line.
    message_lines: list[str] = []
    diff_text = ""
    found_diff = False
    while pos < end:
        eol = text.find("\n", pos, end)
        line = text[pos : eol if eol >= 0 else end]
        if line == DIFF_SEP:
            diff_start = (eol + 1) if eol >= 0 else end
            diff_text = text[diff_start:end]
            found_diff = True
            break
        message_lines.append(line.rstrip("\r"))
        if eol < 0:
            break
        pos = eol + 1
    if not found_diff:
        raise ParseError("record missing diff separator", offset=start)

    subject = ""
    body_lines: list[str] = []
    for j, line in enumerate(message_lines):
        if line.strip():
            subject = line.strip()
            body_lines = message_lines[j + 1 :]
            break
    while body_lines and not body_lines[0].strip():
        body_lines.pop(0)
    while body_lines and not body_lines[-1].strip():
        body_lines.pop()

    return RawCommit(
        commit_id=commit_id,
        parent_ids=parent_ids,
        author_name=header["author"].strip(),
        author_email=header["email"].strip(),
        date=date,
        subject=subject,
        body="\n".join(body_lines),
        diff_text=diff_text,
    )
