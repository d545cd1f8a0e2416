"""Code-side preprocessing: comment/string stripping, line-kind
classification, call-site counting, and code-line tokenization.

A code token is the string "base@kind": its lexed base and the kind of
its line, which the caller classifies and passes in with the text.

Everything here is a heuristic text scanner, not a C parser: inputs are
diff fragments and file snapshots that need not even compile.  The
scanners are total (any text in, something reasonable out) and degrade
toward LineKind.NORMAL when structure cannot be recovered.
"""

from __future__ import annotations

import bisect
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass

from .core import FileDiff, LineKind

C_KEYWORDS = frozenset((
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while",
))

MIN_CALL_COUNT = 5

RE_IF = re.compile(r"\bif\s*\(")
RE_ELSE = re.compile(r"\belse\b")
RE_LABEL = re.compile(r"^[ \t]*([A-Za-z_]\w*)[ \t]*:(?!:)", re.M)
RE_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
RE_DEFINITION = re.compile(r"^([A-Za-z_]\w*)\s*\(")
RE_GOTO_STMT = re.compile(r"^\s*goto\b")
RE_RETURN_STMT = re.compile(r"^\s*return\b\s*(.*)$", re.S)

RE_TOKEN = re.compile(
    r"""
    [A-Za-z_]\w*                          # identifier or keyword
  | 0[xX][0-9a-fA-F]+\w*                  # hex literal
  | \d+\.\d*(?:[eE][+-]?\d+)?\w*          # float literal
  | \.\d+\w*                              # .5 style float
  | \d\w*                                 # decimal literal with suffixes
  | "(?:[^"\\]|\\.)*"                     # string literal (already emptied)
  | '(?:[^'\\]|\\.)*'                     # char literal (already emptied)
  | <<=|>>=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=
  | [-+*/%&|^~!<>=?:;,.(){}\[\]#\\]
""",
    re.X,
)


@dataclass(frozen=True)
class FunctionNameTable:
    """Call-site names worth keeping verbatim.

    ``retained`` holds names called at least MIN_CALL_COUNT times across
    the corpus; ``defined_in`` maps a file path to names that file
    defines, which suppresses retention for uses in that same file.
    """

    retained: frozenset[str]
    defined_in: "dict[str, frozenset[str]]"

    def is_retained(self, name: str, path: str = "") -> bool:
        return name in self.retained and name not in self.defined_in.get(path, frozenset())

    @classmethod
    def empty(cls) -> "FunctionNameTable":
        return cls(retained=frozenset(), defined_in={})

    def to_json_obj(self) -> dict:
        return {
            "retained": sorted(self.retained),
            "defined_in": {p: sorted(n) for p, n in sorted(self.defined_in.items())},
        }

    @classmethod
    def from_json_obj(cls, obj) -> "FunctionNameTable":
        """Inverse of to_json_obj; any other shape is a ValueError."""
        try:
            table = cls(
                retained=frozenset(obj.get("retained", ())),
                defined_in={p: frozenset(n) for p, n in obj.get("defined_in", {}).items()},
            )
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"not a function table: {exc}") from exc
        names = [*table.retained, *table.defined_in, *(n for ns in table.defined_in.values() for n in ns)]
        if not all(isinstance(n, str) for n in names):
            raise ValueError("not a function table: names and paths must be strings")
        return table


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


def _last_statement(block: str) -> str:
    """Text of the final ;-terminated statement in a block."""
    end = block.rfind(";")
    if end < 0:
        return block.strip()
    start = max(block.rfind(";", 0, end), block.rfind("{", 0, end), block.rfind("}", 0, end))
    return block[start + 1 : end].strip()


def _is_error_exit(statement: str) -> bool:
    """True for `goto ...` or `return <expr>` with expr not literally 0."""
    if RE_GOTO_STMT.match(statement):
        return True
    m = RE_RETURN_STMT.match(statement)
    if not m:
        return False
    expr = m.group(1).strip().rstrip(";").strip()
    if not expr:
        return False
    return expr.strip("() \t") != "0"


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


def build_function_table(files: Iterable[FileDiff]) -> FunctionNameTable:
    """Count call sites across the changed lines of the corpus's file
    diffs (every file, not only .c/.h); retain frequent names.

    A name is retained when it is called at least 5 times corpus-wide;
    uses inside a file that also defines the name (a `name(` at column
    0 of a definition-shaped changed line) are suppressed per file.
    """
    counts: dict[str, int] = {}
    defined: dict[str, set[str]] = {}
    for fd in files:
        for h in fd.hunks:
            for line in (*h.removed, *h.added):
                text = strip_comments_strings(line.text)
                dm = RE_DEFINITION.match(text)
                if dm and dm.group(1) not in C_KEYWORDS:
                    defined.setdefault(fd.path, set()).add(dm.group(1))
                for cm in RE_CALL.finditer(text):
                    name = cm.group(1)
                    if name in C_KEYWORDS:
                        continue
                    counts[name] = counts.get(name, 0) + 1
    retained = frozenset(n for n, k in counts.items() if k >= MIN_CALL_COUNT)
    return FunctionNameTable(
        retained=retained,
        defined_in={p: frozenset(names) for p, names in defined.items()},
    )


def tokenize_code_line(
    text: str, kind: LineKind, table: FunctionNameTable, path: str = ""
) -> list[str]:
    """Lex one changed line's text into "base@kind" token strings.

    Keywords and retained function names stay verbatim; other
    identifiers become IDENT, numeric literals become NUM.  Every token
    carries the line's kind.  Tokens are interned, so equal tokens share
    one string object.  Total: no input text faults.
    """
    tokens: list[str] = []
    suffix = "@" + kind.value
    for m in RE_TOKEN.finditer(strip_comments_strings(text)):
        raw = m.group(0)
        first = raw[0]
        if first.isalpha() or first == "_":
            if raw in C_KEYWORDS or table.is_retained(raw, path):
                base = raw
            else:
                base = "IDENT"
        elif first.isdigit() or (first == "." and len(raw) > 1 and raw[1].isdigit()):
            base = "NUM"
        else:
            base = raw
        tokens.append(sys.intern(base + suffix))
    return tokens
