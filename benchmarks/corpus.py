"""Seeded synthetic kernel-style commit corpus for the benchmark.

`generate(shape, seed, out_dir)` writes three files that the `patchnet`
CLI reads as they are:

    mainline.export   mainline commits in the \\x01COMMIT\\x01 export format
    stable.export     stable-tree commits citing some mainline commits
    rc_ids.txt        release-candidate commit ids (the third label path)

The output is byte-identical for a given (shape, seed).  The corpus
reaches every ingest and labeling path: merges, commits touching no
C file, add-only and remove-only files, over-length diffs, stable
matches by back link, by (author, subject) and by rc id, and functions
defined and called in the same file.  Changed lines use error-check
(`if (...) return/goto`) and error-handling (label blocks) idioms, so
all three line kinds occur, and call a small name pool often enough
(at least 5 times) for the function table to keep names verbatim.

Stable commits carry a planted message token far more often than
non-stable ones, so a trained model has a signal to find and the
evaluation AUC is meaningful.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

# The export format's record separators, written here independently of
# the parser in patchnet.ingest so that a parser change cannot go unseen.
COMMIT_SEP = "\x01COMMIT\x01"
DIFF_SEP = "\x01DIFF\x01"

PLANTED_TOKEN = "deadlock"

AUTHORS = (
    ("Ada Lindqvist", "ada@example.org"),
    ("Bo Castell", "bo@example.net"),
    ("Chidi Okafor", "chidi@example.com"),
    ("Dana Whitfield", "dana@example.org"),
    ("Emil Varga", "emil@example.net"),
    ("Farah Haddad", "farah@example.com"),
    ("Goran Petrov", "goran@example.org"),
    ("Hana Sato", "hana@example.net"),
)

SUBSYSTEMS = (
    "net", "usb", "mm", "fs", "drm", "sound", "pci", "block", "scsi",
    "input", "iio", "mmc", "spi", "i2c", "gpio", "dma", "crypto", "media",
)

ROOTS = (
    "alloc", "buffer", "queue", "driver", "device", "register", "handle",
    "interrupt", "timer", "packet", "descriptor", "channel", "firmware",
    "resource", "memory", "mapping", "reference", "counter", "state",
    "request", "callback", "context", "transfer", "config", "clock",
    "power", "reset", "error", "path", "probe", "remove", "suspend",
    "resume", "schedule", "complete", "update", "check", "valid", "init",
    "release", "lock", "flag", "limit", "offset", "length", "table",
    "entry", "list", "node", "event", "notify", "signal", "stream",
    "frame", "sector", "page", "cache", "flush", "sync", "race",
)
SUFFIXES = ("", "s", "ed", "ing", "ation", "er", "ness", "ize", "ly", "ment", "ful", "able")
FILLER = ("the", "a", "when", "this", "is", "to", "in", "of", "for", "and", "we", "it")

CALL_VERBS = ("alloc", "free", "init", "reset", "lock", "unlock", "get", "put", "read", "write", "start", "stop")
FIELDS = ("count", "flags", "len", "state", "refcnt", "mode", "addr", "size")
VARS = ("ret", "err", "buf", "dev", "priv", "skb", "page", "req", "ctx", "val")
ERRNOS = ("-ENOMEM", "-EINVAL", "-EIO", "-EBUSY", "-ENODEV", "-EAGAIN")


@dataclass(frozen=True)
class CorpusShape:
    """Fixed shape of one workload's corpus; only the seed varies it."""

    mainline: int  # mainline commits in the export
    backlink_stable: int  # cited by a stable commit's "commit <id> upstream."
    subject_stable: int  # matched by (author, subject) in the stable tree
    rc_stable: int  # listed in rc_ids.txt
    stable_only: int  # stable-tree commits matching nothing in mainline
    ineligible_share: float  # merges, no C file, add/remove-only, too long
    files: tuple[int, int]  # C files per eligible commit (inclusive range)
    hunks: tuple[int, int]  # hunks per file
    lines: tuple[int, int]  # changed lines per hunk side
    message_words: tuple[int, int]  # words in subject plus body
    call_pool: int  # distinct called function names
    define_share: float  # commits defining a called name in the same file
    planted_stable: float  # P(planted token | stable)
    planted_other: float  # P(planted token | non-stable)


def _hex_id(*parts) -> str:
    return hashlib.sha1("/".join(map(str, parts)).encode()).hexdigest()


class _Writer:
    """All random choices for one corpus, drawn from one seeded stream."""

    def __init__(self, shape: CorpusShape, seed: int):
        self.shape = shape
        self.rng = random.Random(f"patchnet-corpus/{seed}")
        prefixes = [f"{s}_{v}" for s in SUBSYSTEMS for v in CALL_VERBS]
        self.rng.shuffle(prefixes)
        self.calls = prefixes[: shape.call_pool]
        self.words = [r + s for r in ROOTS for s in SUFFIXES]

    # -- messages ---------------------------------------------------------

    def _word(self) -> str:
        rng = self.rng
        return rng.choice(FILLER) if rng.random() < 0.25 else rng.choice(self.words)

    def message(self, subsystem: str, planted: bool) -> tuple[str, str]:
        rng = self.rng
        lo, hi = self.shape.message_words
        n = rng.randint(lo, hi)
        n_subject = min(n, rng.randint(5, 8))
        subject_words = [self._word() for _ in range(n_subject)]
        body_words = [self._word() for _ in range(n - n_subject)]
        if rng.random() < 0.15:
            body_words.insert(rng.randrange(len(body_words) + 1), rng.choice(("fix", "bug", "bug-fix")))
        if planted:
            target = subject_words if rng.random() < 0.5 else body_words
            target.insert(rng.randrange(len(target) + 1), PLANTED_TOKEN)
        subject = f"{subsystem}: " + " ".join(subject_words)
        body_lines = [" ".join(body_words[i : i + 10]) for i in range(0, len(body_words), 10)]
        return subject, "\n".join(body_lines)

    # -- code -------------------------------------------------------------

    def _call(self) -> str:
        return self.rng.choice(self.calls)

    def _statements(self, n: int) -> list[str]:
        """n changed lines built from kernel idioms (some come in blocks)."""
        rng = self.rng
        out: list[str] = []
        while len(out) < n:
            v = rng.choice(VARS)
            f = self._call()
            pick = rng.random()
            if pick < 0.22:
                out.append(f"\t{v} = {f}({rng.choice(VARS)}, {rng.randint(0, 64)});")
            elif pick < 0.34:
                out.append(f"\t{f}({v});")
            elif pick < 0.46:
                out += [f"\tif ({v} < 0)", f"\t\treturn {v};"]
            elif pick < 0.56:
                out += [f"\tif (!{v})", f"\t\treturn {rng.choice(ERRNOS)};"]
            elif pick < 0.66:
                out += [f"\tif ({f}({v}))", f"\t\tgoto err_{rng.choice(VARS)};"]
            elif pick < 0.74:
                out += [f"err_{v}:", f"\t{f}({v});", f"\treturn {rng.choice(VARS)};"]
            elif pick < 0.82:
                out.append(f"\t{v}->{rng.choice(FIELDS)} = 0x{rng.getrandbits(16):x};")
            elif pick < 0.88:
                out.append(f'\tpr_debug("{rng.choice(self.words)} %d\\n", {v});')
            elif pick < 0.94:
                out.append(f"\t/* {self._word()} {self._word()} {self._word()} */")
            else:
                out.append(f"\t{v} += {rng.randint(1, 9)}; // {self._word()}")
        return out[:n]

    def _hunk(self, start: int, removed: list[str], added: list[str]) -> list[str]:
        ctx = ["\tint ret;", f"\t{self._call()}(dev);"]
        old_count = len(ctx) + len(removed)
        new_count = len(ctx) + len(added)
        lines = [f"@@ -{start},{old_count} +{start},{new_count} @@ static int {self._call()}(void)"]
        lines.append(" " + ctx[0])
        lines += ["-" + r for r in removed]
        lines += ["+" + a for a in added]
        lines.append(" " + ctx[1])
        return lines

    def c_file(self, path: str, define: bool) -> list[str]:
        rng = self.rng
        lines = [
            f"diff --git a/{path} b/{path}",
            f"index {rng.getrandbits(28):07x}..{rng.getrandbits(28):07x} 100644",
            f"--- a/{path}",
            f"+++ b/{path}",
        ]
        start = rng.randint(10, 60)
        for h in range(rng.randint(*self.shape.hunks)):
            removed = self._statements(rng.randint(*self.shape.lines))
            added = self._statements(rng.randint(*self.shape.lines))
            if define and h == 0:
                name = self._call()
                head = ["static int", f"{name}(struct device *dev)", f"\t{name}(dev);"]
                added = head + added[: max(0, len(added) - len(head))]
            lines += self._hunk(start, removed, added)
            start += 40
        return lines

    def whole_file(self, path: str, adding: bool) -> list[str]:
        body = self._statements(self.rng.randint(2, 6))
        head = [f"diff --git a/{path} b/{path}"]
        if adding:
            head += ["new file mode 100644", "index 0000000..1234567", "--- /dev/null", f"+++ b/{path}"]
            return head + [f"@@ -0,0 +1,{len(body)} @@"] + ["+" + b for b in body]
        head += ["deleted file mode 100644", "index 1234567..0000000", f"--- a/{path}", "+++ /dev/null"]
        return head + [f"@@ -1,{len(body)} +0,0 @@"] + ["-" + b for b in body]

    def other_file(self, path: str) -> list[str]:
        return [
            f"diff --git a/{path} b/{path}",
            "index 89abcde..fedcba9 100644",
            f"--- a/{path}",
            f"+++ b/{path}",
            "@@ -3,2 +3,2 @@",
            " Overview",
            f"-{self._word()} {self._word()}",
            f"+{self._word()} {self._word()}",
        ]

    def long_file(self, path: str) -> list[str]:
        ctx = [f"\t{self._call()}(dev);" for _ in range(110)]
        return [
            f"diff --git a/{path} b/{path}",
            "index 1111111..2222222 100644",
            f"--- a/{path}",
            f"+++ b/{path}",
            f"@@ -20,{len(ctx) + 1} +20,{len(ctx) + 1} @@",
            "-\tret = 0;",
            "+\tret = 1;",
        ] + [" " + c for c in ctx]

    def path(self, subsystem: str, ext: str = ".c") -> str:
        return f"drivers/{subsystem}/{self.rng.choice(ROOTS)}_{self.rng.choice(ROOTS)}{ext}"

    def diff(self, subsystem: str, kind: str) -> str:
        rng = self.rng
        if kind == "no_c":
            lines = self.other_file(f"Documentation/{subsystem}/{rng.choice(ROOTS)}.rst")
        elif kind == "add_only":
            lines = self.whole_file(self.path(subsystem), adding=True)
        elif kind == "remove_only":
            lines = self.whole_file(self.path(subsystem), adding=False)
        elif kind == "too_long":
            lines = self.long_file(self.path(subsystem))
        else:
            define = rng.random() < self.shape.define_share
            lines = []
            for i in range(rng.randint(*self.shape.files)):
                ext = ".h" if i and rng.random() < 0.3 else ".c"
                lines += self.c_file(self.path(subsystem, ext), define and i == 0)
            if kind == "merge" or rng.random() < 0.1:
                lines += self.other_file(f"tools/{subsystem}/{rng.choice(ROOTS)}.txt")
        return "\n".join(lines) + "\n"


def _record(cid, parents, author, email, date, subject, body, diff) -> str:
    message = subject + ("\n\n" + body if body else "")
    return (
        f"{COMMIT_SEP}\nid: {cid}\nparents: {' '.join(parents)}\n"
        f"author: {author}\nemail: {email}\ndate: {date}\n\n"
        f"{message}\n{DIFF_SEP}\n{diff}"
    )


INELIGIBLE_KINDS = ("merge", "no_c", "add_only", "remove_only", "too_long")


def generate(shape: CorpusShape, seed: int, out_dir: Path) -> dict:
    """Write the corpus files into out_dir; return their paths and counts."""
    w = _Writer(shape, seed)
    rng = w.rng
    n = shape.mainline
    kinds = [
        INELIGIBLE_KINDS[i % len(INELIGIBLE_KINDS)]
        for i in range(round(n * shape.ineligible_share))
    ]
    kinds += ["eligible"] * (n - len(kinds))
    rng.shuffle(kinds)
    eligible = [i for i, k in enumerate(kinds) if k == "eligible"]
    n_stable = shape.backlink_stable + shape.subject_stable + shape.rc_stable
    if n_stable * 2 > len(eligible):
        raise ValueError("corpus shape has too few eligible commits for its stable ones")
    chosen = rng.sample(eligible, n_stable)
    backlink = set(chosen[: shape.backlink_stable])
    by_subject = set(chosen[shape.backlink_stable : shape.backlink_stable + shape.subject_stable])
    rc = set(chosen[shape.backlink_stable + shape.subject_stable :])

    mainline, stable_records, rc_ids = [], [], []
    date = 1_600_000_000
    for i, kind in enumerate(kinds):
        cid = _hex_id("mainline", seed, i)
        parents = [_hex_id("parent", seed, i)]
        if kind == "merge":
            parents.append(_hex_id("parent2", seed, i))
        author, email = rng.choice(AUTHORS)
        subsystem = rng.choice(SUBSYSTEMS)
        is_stable = i in backlink or i in by_subject or i in rc
        planted = rng.random() < (shape.planted_stable if is_stable else shape.planted_other)
        subject, body = w.message(subsystem, planted)
        body += f"\n\nSigned-off-by: {author} <{email}>"
        diff = w.diff(subsystem, kind)
        date += rng.randint(600, 7200)
        mainline.append(_record(cid, parents, author, email, date, subject, body, diff))
        if i in backlink:
            sid = _hex_id("stable", seed, i)
            sbody = f"commit {cid} upstream.\n\n{body}"
            stable_records.append(
                _record(sid, [_hex_id("sparent", seed, i)], "Stable Maintainer",
                        "stable@example.org", date + 86_400, subject, sbody, diff)
            )
        elif i in by_subject:
            sid = _hex_id("stable", seed, i)
            stable_records.append(
                _record(sid, [_hex_id("sparent", seed, i)], author, email,
                        date + 86_400, subject, body, diff)
            )
        elif i in rc:
            rc_ids.append(cid)
    for j in range(shape.stable_only):
        author, email = rng.choice(AUTHORS)
        subsystem = rng.choice(SUBSYSTEMS)
        subject, body = w.message(subsystem, False)
        stable_records.append(
            _record(_hex_id("stable-only", seed, j), [_hex_id("sparent-only", seed, j)],
                    author, email, date + j, subject, body, w.diff(subsystem, "eligible"))
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "mainline": out_dir / "mainline.export",
        "stable": out_dir / "stable.export",
        "rc_ids": out_dir / "rc_ids.txt",
    }
    paths["mainline"].write_text("".join(mainline), encoding="utf-8")
    paths["stable"].write_text("".join(stable_records), encoding="utf-8")
    paths["rc_ids"].write_text("".join(f"{c}\n" for c in rc_ids), encoding="utf-8")
    return {
        "paths": {k: str(p) for k, p in paths.items()},
        "mainline": len(mainline),
        "stable": len(stable_records),
        "export_commits": len(mainline) + len(stable_records),
    }
