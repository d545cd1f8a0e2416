"""Code-side preprocessing: comment/string stripping, line-kind
classification, call-site counting, and code-line tokenization.

A code token is the string "base@kind": its lexed base and the kind of
its line, which the caller classifies and passes in with the text.

Everything here is a heuristic text scanner, not a C parser: inputs are
diff fragments and file snapshots that need not even compile.  The
scanners are total (any text in, something reasonable out) and degrade
toward LineKind.NORMAL when structure cannot be recovered.  They scan
with regular expressions: one substitution blanks comments and literals,
one pass pairs every bracket to delimit `if` headers and bodies, and one
bracket matcher, _close, ends each label block.  Line kinds are counted,
not painted: each error span is marked at its first and past its last
line, and one running sum over the lines gives each its kind, so a text
classifies in one pass however deep its `if`s nest.
"""

from __future__ import annotations

import bisect
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

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
RE_WS = re.compile(r"[ \t\n\r]*")
RE_NEWLINE = re.compile("\n")
RE_BRACKET = re.compile(r"[(){}]")
RE_BRACE = re.compile(r"[{}]")

# What strip_comments_strings blanks.  A literal ends at its own quote,
# before a raw newline, or at the end of the input; an escape may be a
# backslash-newline, and a lone backslash at the end is consumed too.
RE_SKIPPED = re.compile(
    r"""
    /\*.*?(?:\*/|\Z)                                           # block comment
  | //[^\n]*                                                   # line comment
  | (?P<quote>["'])(?:\\.?|[^\\\n])*?(?:(?P=quote)|(?=\n)|\Z)  # string or char literal
""",
    re.S | re.X,
)

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
        """Inverse of to_json_obj: `retained` and each `defined_in` value a
        list of strings, each path a string; any other shape is a ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("defined_in", {}), dict):
            raise ValueError("not a function table: expected an object with a defined_in object")
        retained, defined_in = obj.get("retained", []), obj.get("defined_in", {})
        lists = [retained, list(defined_in), *defined_in.values()]
        if not all(isinstance(ns, list) and all(isinstance(n, str) for n in ns) for ns in lists):
            raise ValueError("not a function table: names must be lists of strings, paths strings")
        return cls(
            retained=frozenset(retained),
            defined_in={p: frozenset(ns) for p, ns in defined_in.items()},
        )


def _blank(m: re.Match) -> str:
    newlines = "\n" * m.group().count("\n")
    quote = m.group("quote")
    return quote + newlines + quote if quote else " " + newlines


def strip_comments_strings(source: str) -> str:
    """Replace comments with a space and empty out string/char literals.

    Newline count and positions are preserved so line numbers stay
    valid.  Diff lines and snapshots are fragments, so an unterminated
    comment or literal is expected: it strips to the end of the input.
    """
    return RE_SKIPPED.sub(_blank, source)


def _close(text: str, start: int, stop: int) -> int:
    """Index of the first `}` in text[start:stop] that no `{` after
    start matches, or -1."""
    depth = 0
    for m in RE_BRACE.finditer(text, start, stop):
        if m.group() == "{":
            depth += 1
        elif depth:
            depth -= 1
        else:
            return m.start()
    return -1


def _pairs(text: str) -> dict[int, int]:
    """The offset of each `(` and `{` of text that closes, mapped to the
    offset of its close; parentheses and braces nest independently."""
    closes: dict[int, int] = {}
    stacks: dict[str, list[int]] = {"(": [], "{": []}
    for m in RE_BRACKET.finditer(text):
        ch = m.group()
        if ch in stacks:
            stacks[ch].append(m.start())
        else:
            stack = stacks["(" if ch == ")" else "{"]
            if stack:
                closes[stack.pop()] = m.start()
    return closes


def _last_statement(text: str, start: int, stop: int) -> str:
    """Text of the final ;-terminated statement in text[start:stop]."""
    end = text.rfind(";", start, stop)
    if end < 0:
        return text[start:stop].strip()
    begin = max(text.rfind(";", start, end), text.rfind("{", start, end), text.rfind("}", start, end))
    return text[max(begin + 1, start) : end].strip()


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


def classify_line_kinds(file_text: str) -> dict[int, LineKind]:
    """Classify every line of stripped source as checking/handling/normal.

    ErrorChecking: header line(s) of a single-branch `if` whose body's
    last statement is `goto` or a non-zero `return`.  ErrorHandling:
    the body lines of such an `if`, and a label's block (label line
    included) when that block ends the same way.  Header lines win over
    body lines when they coincide.

    Each `if` body's last statement is read in place, and each span adds
    1 to its kind's count at its first line and takes 1 off past its
    last, so running sums over the lines tell which kinds cover each
    line: one pass, however deep the spans nest.
    """
    starts = [0, *[m.end() for m in RE_NEWLINE.finditer(file_text)]]
    checking = [0] * (len(starts) + 1)
    handling = [0] * (len(starts) + 1)

    def mark(counts: list[int], start: int, end: int) -> None:
        counts[bisect.bisect_right(starts, start) - 1] += 1
        counts[bisect.bisect_right(starts, max(start, end))] -= 1

    closes = _pairs(file_text)
    for m in RE_IF.finditer(file_text):
        j = m.start()
        while j and file_text[j - 1].isspace():
            j -= 1
        if file_text.endswith("else", 0, j):
            continue  # part of an else-chain: not single-branch
        paren_close = closes.get(m.end() - 1, -1)
        if paren_close < 0:
            continue
        body_start = RE_WS.match(file_text, paren_close + 1).end()
        if file_text.startswith("{", body_start):
            body_end = closes.get(body_start, -1)
            inner = (body_start + 1, body_end)
        else:
            body_end = file_text.find(";", body_start)
            inner = (body_start, body_end + 1)
        if body_end < 0 or RE_ELSE.match(file_text, RE_WS.match(file_text, body_end + 1).end()):
            continue  # unclosed, or two branches
        if not _is_error_exit(_last_statement(file_text, *inner)):
            continue
        mark(checking, m.start(), paren_close)
        mark(handling, body_start, body_end)

    for m in RE_LABEL.finditer(file_text):
        name = m.group(1)
        if name in ("default", "case") or name in C_KEYWORDS:
            continue
        next_label = RE_LABEL.search(file_text, m.end())
        limit = next_label.start() if next_label else len(file_text)
        close = _close(file_text, m.end(), limit)
        block_end = (close if close >= 0 else limit) - 1
        if _is_error_exit(_last_statement(file_text, m.end(), block_end + 1)):
            mark(handling, m.start(), block_end)

    kinds = dict.fromkeys(range(1, len(starts) + 1), LineKind.NORMAL)
    for line, c, h in zip(kinds, accumulate(checking), accumulate(handling)):
        if c:
            kinds[line] = LineKind.ERROR_CHECKING
        elif h:
            kinds[line] = LineKind.ERROR_HANDLING
    return kinds


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
