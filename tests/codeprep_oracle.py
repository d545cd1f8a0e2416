"""The code scanners as they were before regular expressions: one
character at a time, kept as the oracle that tests/test_codeprep_oracle.py
checks patchnet.codeprep against.  Only this docstring and the imports
are new; the functions and the class are unchanged.  _last_statement is
codeprep's own as it was before it took offsets, copied verbatim."""

from __future__ import annotations

import bisect

from patchnet.codeprep import C_KEYWORDS, RE_ELSE, RE_IF, RE_LABEL, _is_error_exit
from patchnet.core import LineKind


def strip_comments_strings(source: str) -> str:
    """Replace comments with a space and empty out string/char literals.

    Newline count and positions are preserved so line numbers stay
    valid.  Diff lines and snapshots are fragments, so an unterminated
    comment or literal is expected: it strips to the end of the input.
    """
    out: list[str] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "*":
            out.append(" ")
            i += 2
            while i < n:
                if source[i] == "*" and i + 1 < n and source[i + 1] == "/":
                    i += 2
                    break
                if source[i] == "\n":
                    out.append("\n")
                i += 1
            continue
        if ch == "/" and nxt == "/":
            out.append(" ")
            i += 2
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in ('"', "'"):
            quote = ch
            out.append(quote)
            i += 1
            while i < n:
                c = source[i]
                if c == "\\" and i + 1 < n:
                    if source[i + 1] == "\n":
                        out.append("\n")
                    i += 2
                    continue
                if c == quote:
                    i += 1
                    break
                if c == "\n":
                    # Malformed in C; close the literal, leave the newline
                    # for the main loop so line structure is preserved.
                    break
                i += 1
            out.append(quote)
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _last_statement(block: str) -> str:
    """Text of the final ;-terminated statement in a block."""
    end = block.rfind(";")
    if end < 0:
        return block.strip()
    start = max(block.rfind(";", 0, end), block.rfind("{", 0, end), block.rfind("}", 0, end))
    return block[start + 1 : end].strip()


def _matching(text: str, open_pos: int, open_ch: str, close_ch: str) -> int:
    """Index of the close matching text[open_pos], or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\n\r":
        i += 1
    return i


class _LineIndex:
    """Maps character offsets to 0-based line indices."""

    def __init__(self, text: str):
        self.starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self.starts.append(i + 1)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.starts, offset) - 1


def classify_line_kinds(file_text: str) -> dict[int, LineKind]:
    """Classify every line of stripped source as checking/handling/normal.

    ErrorChecking: header line(s) of a single-branch `if` whose body's
    last statement is `goto` or a non-zero `return`.  ErrorHandling:
    the body lines of such an `if`, and a label's block (label line
    included) when that block ends the same way.  Header lines win over
    body lines when they coincide.
    """
    lines = file_text.split("\n")
    kinds = [LineKind.NORMAL] * len(lines)
    index = _LineIndex(file_text)

    def mark(start: int, end: int, kind: LineKind) -> list[int]:
        covered = range(index.line_of(start), index.line_of(max(start, end)) + 1)
        for li in covered:
            kinds[li] = kind
        return list(covered)

    handling_spans: list[tuple[int, int]] = []
    checking_spans: list[tuple[int, int]] = []

    for m in RE_IF.finditer(file_text):
        before = file_text[: m.start()].rstrip()
        if before.endswith("else"):
            continue  # part of an else-chain: not single-branch
        paren_open = file_text.index("(", m.start())
        paren_close = _matching(file_text, paren_open, "(", ")")
        if paren_close < 0:
            continue
        body_start = _skip_ws(file_text, paren_close + 1)
        if body_start >= len(file_text):
            continue
        if file_text[body_start] == "{":
            body_end = _matching(file_text, body_start, "{", "}")
            if body_end < 0:
                continue
            inner = file_text[body_start + 1 : body_end]
        else:
            body_end = file_text.find(";", body_start)
            if body_end < 0:
                continue
            inner = file_text[body_start : body_end + 1]
        after = _skip_ws(file_text, body_end + 1)
        if RE_ELSE.match(file_text, after):
            continue  # two branches
        if not _is_error_exit(_last_statement(inner)):
            continue
        checking_spans.append((m.start(), paren_close))
        header_last = index.line_of(paren_close)
        body_first_line = index.line_of(body_start)
        if body_first_line <= header_last:
            # Body begins on a header line; only lines past the header count.
            if index.line_of(body_end) > header_last:
                handling_spans.append((index.starts[header_last + 1], body_end))
        else:
            handling_spans.append((body_start, body_end))

    for m in RE_LABEL.finditer(file_text):
        name = m.group(1)
        if name in ("default", "case") or name in C_KEYWORDS:
            continue
        block_start = m.start()
        pos = m.end()
        depth = 0
        block_end = len(file_text) - 1
        next_label = RE_LABEL.search(file_text, pos)
        limit = next_label.start() if next_label else len(file_text)
        for i in range(pos, limit):
            ch = file_text[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    block_end = i - 1
                    break
        else:
            block_end = limit - 1
        block = file_text[pos : block_end + 1]
        if _is_error_exit(_last_statement(block)):
            handling_spans.append((block_start, block_end))

    for start, end in handling_spans:
        mark(start, end, LineKind.ERROR_HANDLING)
    for start, end in checking_spans:
        mark(start, end, LineKind.ERROR_CHECKING)

    return {i + 1: kinds[i] for i in range(len(lines))}
