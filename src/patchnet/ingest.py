"""Commit-stream parsing, diff parsing, eligibility filtering, labeling,
and balancing.

A label lives on the commit: label_commit computes one, balancing takes
it beside its commit and sets it as RawCommit.label on the commits it
keeps, and the JSONL writer reads it from there.

parse_unified_diff is the one diff parser: check_eligibility and
preprocessing both read its FileDiffs and Hunks.  A Hunk builds its
CodeLines only when they are first read, so ingest, which counts a
hunk's lines in its body, builds none.

Input arrives as exported text, never via a git binary: either the
record format documented below or JSONL.  Export records look like::

    \\x01COMMIT\\x01
    id: <40-hex>
    parents: <space-separated 40-hex, possibly empty>
    author: <name>
    email: <address>
    date: <epoch seconds>
    <blank line>
    <message lines>
    \\x01DIFF\\x01
    <unified diff, preserved byte-exactly>

A converter from ``git log`` output to this format is a one-liner with
``--format`` and is documented in the README; the library consumes only
the exported text.
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import dataclass, replace

from .core import (
    COMMIT_ID_RE,
    FileDiff,
    FileSnapshot,
    Hunk,
    Label,
    RawCommit,
    atomic_write,
)

COMMIT_SEP = "\x01COMMIT\x01"
DIFF_SEP = "\x01DIFF\x01"

RE_HEADER = re.compile(r"^(id|parents|author|email|date): ?(.*)$")
RE_DIFF_GIT = re.compile(r"^diff --git (?:a/)?(\S+) (?:b/)?(\S+)")
RE_OLD_FILE = re.compile(r"^--- (?:a/)?(.*?)(?:\t.*)?$")
RE_NEW_FILE = re.compile(r"^\+\+\+ (?:b/)?(.*?)(?:\t.*)?$")
RE_HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@(.*)$")
RE_BINARY = re.compile(r"^(Binary files .* differ|GIT binary patch)$")
# A line start whose line cannot be in a hunk body: a body line starts
# with '-', '+', ' ' or '\' or is empty.
RE_BODY_END = re.compile(r"^[^-+ \\\n]", re.M)

# Pattern stable maintainers use to cite the mainline commit.
RE_BACK_LINK = re.compile(r"commit\s+([0-9a-fA-F]{40})\s+upstream[.,;:!]?", re.IGNORECASE)

MAX_REPORTED_DIFF_LINES = 100

# Ineligibility reasons (EligibilityReport.reasons entries).
MERGE_COMMIT = "MergeCommit"
NO_C_OR_H_FILE_MODIFIED = "NoCOrHFileModified"
ONLY_ADDS_OR_REMOVES_FILES = "OnlyAddsOrRemovesFiles"
TOO_LONG = "TooLong"
OTHER = "Other"


class ParseError(ValueError):
    """Raised on malformed export records or diff headers."""

    def __init__(self, message: str, offset: int | None = None, lineno: int | None = None):
        self.message = message
        self.offset = offset
        self.lineno = lineno
        where = ""
        if offset is not None:
            where = f" at byte offset {offset}"
        elif lineno is not None:
            where = f" at line {lineno}"
        super().__init__(message + where)


@dataclass(frozen=True)
class EligibilityReport:
    """Outcome of the dataset filters for one commit, with the changed-line
    count that balancing matches on (0 when the diff does not parse)."""

    reasons: tuple[str, ...]
    changed_lines: int

    @property
    def eligible(self) -> bool:
        return not self.reasons


@dataclass(frozen=True)
class StableEvidence:
    """Everything known about which mainline commits reached stable trees."""

    back_links: frozenset[str]
    author_subject_pairs: frozenset[tuple[str, str]]
    rc_commit_ids: frozenset[str]


def parse_commit_stream(text: str) -> list[RawCommit]:
    """Parse an export stream into RawCommits, preserving record order.

    A record separator is a whole line.  Diff text is preserved
    byte-exactly.  Malformed headers raise ParseError naming the byte
    offset of the offending line.
    """
    commits: list[RawCommit] = []
    if not text.strip():
        return commits
    seps = list(_whole_lines(text, COMMIT_SEP, 0, len(text)))
    if not seps:
        raise ParseError("no record separator found", offset=0)
    if text[: seps[0]].strip():
        raise ParseError("content before first record separator", offset=0)
    for start, end in zip(seps, seps[1:] + [len(text)]):
        if start + len(COMMIT_SEP) == len(text):
            raise ParseError("record separator at end of input", offset=start)
        commits.append(_parse_record(text, start + len(COMMIT_SEP) + 1, end))
    return commits


def _whole_lines(text: str, marker: str, start: int, end: int):
    """Yield the offset of each line of text[start:end] that is exactly marker."""
    i = text.find(marker, start, end)
    while i >= 0:
        j = i + len(marker)
        if (i == start or text[i - 1] == "\n") and (j == end or text[j] == "\n"):
            yield i
        i = text.find(marker, i + 1, end)


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

    commit_id = _commit_id(header["id"], offset=start)
    parent_ids = tuple(_commit_id(p, offset=start) for p in header["parents"].split())
    try:
        date = int(header["date"].strip())
    except ValueError:
        raise ParseError(f"malformed date {header['date']!r}", offset=start) from None

    eol = text.find("\n", pos, end)
    if eol < 0 or text[pos:eol].strip():
        raise ParseError("expected blank line after headers", offset=pos)
    pos = eol + 1

    # The message runs to the first diff separator line: the subject is
    # its first non-blank line, the body the second to the last one.
    sep = next(_whole_lines(text, DIFF_SEP, pos, end), None)
    if sep is None:
        raise ParseError("record missing diff separator", offset=start)
    lines = [line.rstrip("\r") for line in text[pos:sep].split("\n")]
    filled = [j for j, line in enumerate(lines) if line.strip()]
    return RawCommit(
        commit_id=commit_id,
        parent_ids=parent_ids,
        author_name=header["author"].strip(),
        author_email=header["email"].strip(),
        date=date,
        subject=lines[filled[0]].strip() if filled else "",
        body="\n".join(lines[filled[1] : filled[-1] + 1]) if len(filled) > 1 else "",
        diff_text=text[sep + len(DIFF_SEP) + 1 : end],
    )


def _commit_id(raw, **where) -> str:
    """raw stripped and lowercased: the one check of a commit id that every
    reader makes.  Anything but 40 hex digits is a ParseError at `where`."""
    commit_id = raw.strip().lower() if isinstance(raw, str) else ""
    if not COMMIT_ID_RE.match(commit_id):
        raise ParseError(f"malformed commit id {raw!r}", **where)
    return commit_id


def parse_unified_diff(text: str) -> list[FileDiff]:
    """Parse unified-diff text into per-file hunk structures, in one pass
    that builds no lines: each Hunk holds its body and builds its
    CodeLines the first time they are read.

    A file starts at "diff --git", or at a "--- " line outside a hunk
    once the file so far has hunks.  A hunk is an @@ header and its body:
    the lines after it that start with '-', '+', ' ' or '\\' or are
    empty, so "--- " and "+++ " inside a body are changed lines.  Any
    other line ends the body and is read as a header line.  Binary
    changes yield a FileDiff with zero hunks.  A malformed @@ header
    raises ParseError with its 1-based line number.
    """
    files: list[FileDiff] = []
    # Per-file state; "new file mode" and "deleted file mode" seen
    # before a file's first header carry into that file.
    old_path: str | None = None
    new_path: str | None = None
    hunks: list[Hunk] = []
    is_new = is_deleted = seen_file = False

    def close_file() -> None:
        nonlocal seen_file, old_path, new_path, hunks, is_new, is_deleted
        if not seen_file:
            return
        path = new_path if new_path not in (None, "/dev/null") else old_path
        files.append(FileDiff(
            path or "",
            tuple(hunks),
            "" if old_path in (None, "/dev/null") else old_path,
            is_new or old_path == "/dev/null",
            is_deleted or new_path == "/dev/null",
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
            hunks.append(Hunk(len(hunks) + 1, int(a), 1 if b is None else int(b),
                              int(c), 1 if d is None else int(d), text[pos:end]))
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


def check_eligibility(c: RawCommit) -> EligibilityReport:
    """Apply the dataset filters: not a merge, modifies a .c/.h file
    in place, and the reported diff is at most 100 lines.

    The reported length of a hunk is old_count (its context and removed
    lines) plus its added lines.  Line counts are read from each hunk's
    body, so no CodeLine is built.
    """
    reasons: list[str] = []
    if len(c.parent_ids) > 1:
        reasons.append(MERGE_COMMIT)
    try:
        files = parse_unified_diff(c.diff_text)
    except ParseError as exc:
        reasons.append(f"{OTHER}: {exc}")
        return EligibilityReport(tuple(reasons), 0)
    relevant = [fd for fd in files if fd.language_relevant]
    if not relevant:
        reasons.append(NO_C_OR_H_FILE_MODIFIED)
    elif not any(fd.is_modification for fd in relevant):
        reasons.append(ONLY_ADDS_OR_REMOVES_FILES)
    reported = changed = 0
    for fd in files:
        for h in fd.hunks:
            added = h.body.startswith("+") + h.body.count("\n+")
            reported += h.old_count + added
            changed += h.body.startswith("-") + h.body.count("\n-") + added
    if reported > MAX_REPORTED_DIFF_LINES:
        reasons.append(TOO_LONG)
    return EligibilityReport(tuple(reasons), changed)


def extract_stable_evidence(
    stable_commits: "list[RawCommit] | tuple[RawCommit, ...]",
    rc_ids: "set[str] | frozenset[str]" = frozenset(),
) -> StableEvidence:
    """Collect back links and (author, subject) pairs from stable-tree
    commits; rc ids pass through normalized."""
    back_links: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for c in stable_commits:
        for m in RE_BACK_LINK.finditer(c.message):
            back_links.add(m.group(1).lower())
        pairs.add((c.author_name.strip(), c.subject.strip()))
    return StableEvidence(
        back_links=frozenset(back_links),
        author_subject_pairs=frozenset(pairs),
        rc_commit_ids=frozenset(i.lower() for i in rc_ids),
    )


def label_commit(c: RawCommit, ev: StableEvidence) -> Label:
    """Stable iff cited by a back link, matched by (author, subject),
    or listed among rc2+ commit ids."""
    if c.commit_id in ev.back_links:
        return Label.STABLE
    if (c.author_name.strip(), c.subject.strip()) in ev.author_subject_pairs:
        return Label.STABLE
    if c.commit_id in ev.rc_commit_ids:
        return Label.STABLE
    return Label.NON_STABLE


def build_balanced_dataset(
    entries: "list[tuple[RawCommit, int, Label]]", seed: int = 0
) -> tuple[list[RawCommit], str]:
    """Keep every stable commit and match each with the unused non-stable
    commit of closest changed-line count.

    Entries are (commit, changed-line count, label), the count as
    check_eligibility reports it.  Returns the selected commits, stable
    ones first, each carrying its label as RawCommit.label (only they
    are copied), and a human-readable provenance note.

    Stable commits are processed in (date, commit_id) order; candidate
    ties break to the earlier date, then the lexicographically smaller
    id.  The procedure is deterministic and invariant under permutation
    of the input; the seed is recorded in provenance only.
    """
    if not entries:
        raise ValueError("labeled sequence is empty")

    first: dict[str, tuple[RawCommit, int, Label]] = {}
    for entry in entries:
        first.setdefault(entry[0].commit_id, entry)
    by_date = sorted(first.values(), key=lambda e: (e[0].date, e[0].commit_id))
    stable = [e for e in by_date if e[2] is Label.STABLE]
    pool = [e for e in by_date if e[2] is Label.NON_STABLE]

    notes = [f"{len(stable)} stable, {len(pool)} non-stable candidates, seed={seed}"]
    if not stable:
        notes.append("WARNING: no stable commits in input")
        return [], "; ".join(notes)

    if len(pool) <= len(stable):
        if len(pool) < len(stable):
            notes.append(
                f"WARNING: only {len(pool)} non-stable for {len(stable)} stable"
            )
        chosen = pool
    else:
        # The pool is in (date, id) order, so among the unused entries of
        # one size the first in `unused` is the tie-break the docstring
        # gives; the nearest sizes are the first at or above the target
        # and the first of the size just below it.
        unused = sorted((size, i) for i, (_, size, _) in enumerate(pool))
        picked = []
        for _, target, _ in stable:
            at = bisect.bisect_left(unused, (target, -1))
            options = []
            if at < len(unused):
                options.append((unused[at][0] - target, unused[at][1], at))
            if at > 0:
                below = bisect.bisect_left(unused, (unused[at - 1][0], -1))
                options.append((target - unused[below][0], unused[below][1], below))
            _, i, where = min(options)
            del unused[where]
            picked.append(i)
        chosen = [pool[i] for i in sorted(picked)]

    notes.append(f"selected {len(chosen)} non-stable matches")
    commits = [c if c.label is label else replace(c, label=label) for c, _, label in stable + chosen]
    return commits, "; ".join(notes)


# ---------------------------------------------------------------------------
# JSONL and id-file IO


def commit_to_json_obj(c: RawCommit) -> dict:
    obj = {
        "commit_id": c.commit_id,
        "parents": list(c.parent_ids),
        "author_name": c.author_name,
        "author_email": c.author_email,
        "date": c.date,
        "subject": c.subject,
        "body": c.body,
        "diff": c.diff_text,
    }
    if c.file_snapshots:
        obj["files"] = [
            {"path": s.path, "before": s.before, "after": s.after}
            for s in c.file_snapshots
        ]
    if c.label is not None:
        obj["label"] = c.label.value
    return obj


def commit_from_json_obj(obj: dict) -> RawCommit:
    """Inverse of commit_to_json_obj.  A missing or malformed id or parent
    id, a missing date or one that is not an int, parents that are not a
    list, or a text field that is not a string is a ValueError or
    TypeError."""
    snapshots = tuple(
        FileSnapshot(f["path"], f.get("before"), f.get("after"))
        for f in obj.get("files", [])
    )
    label = Label.from_string(obj["label"]) if "label" in obj else None
    parents = obj.get("parents", [])
    if not isinstance(parents, list):
        raise TypeError(f"parents must be a list of commit ids, got {parents!r}")
    date = obj["date"]
    if not isinstance(date, int) or isinstance(date, bool):
        raise TypeError(f"date must be an integer, got {date!r}")
    c = RawCommit(
        commit_id=_commit_id(obj["commit_id"]),
        # A parent that is not a string is refused with the other texts below.
        parent_ids=tuple(_commit_id(p) if isinstance(p, str) else p for p in parents),
        author_name=obj.get("author_name", ""),
        author_email=obj.get("author_email", ""),
        date=date,
        subject=obj.get("subject", ""),
        body=obj.get("body", ""),
        diff_text=obj.get("diff", ""),
        file_snapshots=snapshots,
        label=label,
    )
    texts = [*c.parent_ids, c.author_name, c.author_email, c.subject, c.body,
             c.diff_text, *(s.path for s in snapshots),
             *(t for s in snapshots for t in (s.before, s.after) if t is not None)]
    if not all(isinstance(t, str) for t in texts):
        raise TypeError("ids, names, message, diff and file texts must be strings")
    return c


def write_commits_jsonl(path: str, commits) -> None:
    """Write one JSON object per commit, its label included when set."""
    with atomic_write(path) as fh:
        for c in commits:
            fh.write(json.dumps(commit_to_json_obj(c)) + "\n")


def load_commits(path: str) -> list[RawCommit]:
    """Read commits from either supported format, sniffing by first byte.

    JSONL holds one commit per non-blank line; a bad record is a ParseError.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.lstrip().startswith("{"):
        return parse_commit_stream(text)
    commits = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            commits.append(commit_from_json_obj(json.loads(line)))
        except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise ParseError(f"bad JSONL record: {exc}", lineno=lineno) from exc
    return commits


def read_rc_ids(path: str) -> set[str]:
    """Read release-candidate commit ids, one per line; '#' comments allowed."""
    ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            entry = line.split("#", 1)[0].strip()
            if entry:
                ids.add(_commit_id(entry, lineno=lineno))
    return ids
