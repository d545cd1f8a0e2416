"""The export reader against its line-at-a-time predecessor, and against
what the README's `git log` command writes.

`export_oracle` holds the reader as it was before records were cut by
position.  On every input both must return equal RawCommits or raise
ParseError with the same (message, offset).
"""

import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import export_oracle
from conftest import export_record, hex_id
from patchnet.ingest import (
    COMMIT_SEP,
    DIFF_SEP,
    ONLY_ADDS_OR_REMOVES_FILES,
    ParseError,
    check_eligibility,
    load_commits,
    parse_commit_stream,
)

ROOT = Path(__file__).resolve().parent.parent


def outcome(parse, text):
    """The commits parse returns, or the (message, offset) it raises."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.offset)


def assert_matches_oracle(text):
    got = outcome(parse_commit_stream, text)
    assert got == outcome(export_oracle.parse_commit_stream, text)
    return got


# Pieces a record is built from: well-formed values, spaced, cased and
# CR-ended as the reader must accept them, and the faults it must refuse.
IDS = [hex_id(1), hex_id(2).upper(), f"  {hex_id(3)} ", hex_id(4) + "\r"]
PARENTS = ["", hex_id(5), f"{hex_id(6).upper()}  {hex_id(7)} "]
NAMES = ["", " ", "Dev One", "  dev@example.org ", "a\r"]
DATES = ["1234", " 99 ", "-5", "7\r"]
MESSAGE_LINES = [
    "", " ", "\t", "\r", "\x0c",
    "fix: a subject", "  padded subject \t", "body line", "body line\r",
    "Signed-off-by: Dev One <dev@example.org>",
    "see \x01COMMIT\x01 here", "\x01COMMIT\x01 ", "x\x01DIFF\x01",
    "\x01DIFF\x01\r", "\x01DIFF\x01 ", " \x01DIFF\x01",
]
DIFF_LINES = [
    "diff --git a/x.c b/x.c", "--- a/x.c", "+++ b/x.c", "@@ -1 +1 @@",
    "-old", "+new", " same", "", DIFF_SEP, COMMIT_SEP, "\\ No newline at end of file",
]
FAULTS = ("bad id", "bad parent", "bad date", "missing header", "no blank line", "no diff separator",
          "crlf separator", "truncated")


@st.composite
def records(draw):
    """One export record from random pieces; about one in four has a fault."""
    def pick(values):
        return draw(st.sampled_from(values))

    fault = pick(FAULTS) if draw(st.integers(0, 3)) == 0 else None
    header = {"id": pick(IDS), "parents": pick(PARENTS), "author": pick(NAMES),
              "email": pick(NAMES), "date": pick(DATES)}
    if fault == "bad id":
        header["id"] = pick(["abc", "", hex_id(1) + "0"])
    if fault == "bad parent":
        header["parents"] = pick([" x ", f"{hex_id(5)} abc", hex_id(6) + "0"])
    if fault == "bad date":
        header["date"] = pick(["soon", "", "1.5"])
    if fault == "missing header":
        del header[pick(list(header))]
    lines = [f"{name}:{pick(['', ' ', '  '])}{value}" for name, value in header.items()]
    lines.append(pick(["not blank", "x\r"]) if fault == "no blank line" else pick(["", " ", "\t", "\r"]))
    lines += draw(st.lists(st.sampled_from(MESSAGE_LINES), max_size=6))
    if fault != "no diff separator":
        lines.append(DIFF_SEP)
    lines += draw(st.lists(st.sampled_from(DIFF_LINES), max_size=4))
    text = COMMIT_SEP + ("\r\n" if fault == "crlf separator" else "\n")
    text += "".join(line + ("\n" if line == DIFF_SEP else pick(["\n", "\n", "\r\n"])) for line in lines)
    if fault == "truncated":
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(
    st.sampled_from(["", "", "", "", "\n \n", "garbage\n"]),
    st.lists(records(), max_size=4),
    st.booleans(),
)
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def test_the_reader_matches_the_oracle_on_records_from_random_pieces(prefix, parts, cut_last_newline):
    text = prefix + "".join(parts)
    if cut_last_newline:
        text = text.removesuffix("\n")
    assert_matches_oracle(text)


def _record(message, diff="diff --git a/x.c b/x.c\n", commit_id=hex_id(1), parents=hex_id(2)):
    return export_record(commit_id, parents, " Dev One ", "dev@example.org", 1234, message, diff)


HEADERLESS = f"{COMMIT_SEP}\nid: {hex_id(1)}\nparents: \nauthor: a\n"

# Each named case: an export text and what the reader returns for it,
# as (subject, body, diff_text) per commit or the ParseError message.
PINNED = {
    "uppercase and padded ids": (
        _record("s", commit_id=f" {hex_id(10).upper()} ", parents=f"{hex_id(11).upper()}  {hex_id(12)} "),
        [("s", "", "diff --git a/x.c b/x.c\n")],
    ),
    "no space after the colon": (
        f"{COMMIT_SEP}\nid:{hex_id(1)}\nparents:\nauthor:a\nemail:b\ndate:7\n\nm\n{DIFF_SEP}\n",
        [("m", "", "")],
    ),
    "empty message": (
        f"{COMMIT_SEP}\nid: {hex_id(1)}\nparents: \nauthor: a\nemail: b\ndate: 1\n\n{DIFF_SEP}\nd\n",
        [("", "", "d\n")],
    ),
    "blank lines around subject and body": (
        _record(" \n\t\n  subject  \n \n\nbody 1\n\t\nbody 2\n \n\r\n"),
        [("subject", "body 1\n\t\nbody 2", "diff --git a/x.c b/x.c\n")],
    ),
    "crlf headers and message": (
        f"{COMMIT_SEP}\nid: {hex_id(1)}\r\nparents: \r\nauthor: a\r\nemail: b\r\ndate: 1\r\n\r\n"
        f"subject\r\n\r\nbody\r\nmore\r\n{DIFF_SEP}\nd\r\n",
        [("subject", "body\nmore", "d\r\n")],
    ),
    "crlf after the commit separator": (
        COMMIT_SEP + "\n" + _record("subject\n\nbody").split("\n", 1)[1].replace("\n", "\r\n"),
        "record missing diff separator",
    ),
    "diff separator near misses": (
        _record(f"subject\n{DIFF_SEP}\r\n{DIFF_SEP} \n {DIFF_SEP}"),
        [("subject", f"{DIFF_SEP}\n{DIFF_SEP} \n {DIFF_SEP}", "diff --git a/x.c b/x.c\n")],
    ),
    "a second diff separator": (
        _record("subject", diff=f"a\n{DIFF_SEP}\nb\n"),
        [("subject", "", f"a\n{DIFF_SEP}\nb\n")],
    ),
    "final diff separator without newline": (
        _record("subject", diff="").removesuffix("\n"),
        [("subject", "", "")],
    ),
    "commit separator inside the message": (
        _record(f"subject\n\nsee {COMMIT_SEP}\n{COMMIT_SEP} \n{COMMIT_SEP}{COMMIT_SEP}"),
        [("subject", f"see {COMMIT_SEP}\n{COMMIT_SEP} \n{COMMIT_SEP}{COMMIT_SEP}", "diff --git a/x.c b/x.c\n")],
    ),
    "truncated headers": (HEADERLESS, "record truncated before 'email' header"),
    "headers cut mid-line": (HEADERLESS + "email: b", "record truncated before 'email' header"),
    "missing blank line": (
        _record("subject").replace("\n\nsubject", "\nsubject"),
        "expected blank line after headers",
    ),
    "headers end the record": (HEADERLESS + "email: b\ndate: 1\n", "expected blank line after headers"),
    "missing diff separator": (
        _record("subject").replace(f"{DIFF_SEP}\n", ""),
        "record missing diff separator",
    ),
    "diff separator on the message's last line": (
        _record("subject\n\nbody").replace(f"body\n{DIFF_SEP}", f"body{DIFF_SEP}"),
        "record missing diff separator",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_cases_match_the_oracle(name):
    text, expected = PINNED[name]
    got = assert_matches_oracle(text)
    if isinstance(expected, str):
        assert got[:2] == ("ParseError", expected)
    else:
        assert [(c.subject, c.body, c.diff_text) for c in got] == expected


def _benchmark_run(monkeypatch):
    """benchmarks/run.py, imported read-only under a private name; its
    import-time environment settings are undone afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("bench_run_for_tests", ROOT / "benchmarks" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return module


@pytest.mark.parametrize("workload", ["kernel-default", "corpus-compact"])
def test_the_reader_matches_the_oracle_on_the_benchmark_exports(workload, tmp_path, monkeypatch):
    run = _benchmark_run(monkeypatch)
    info = run.corpus.generate(run.WORKLOADS[workload].shape, 5, tmp_path)
    for name in ("mainline", "stable"):
        text = Path(info["paths"][name]).read_text(encoding="utf-8")
        commits = parse_commit_stream(text)
        assert commits == export_oracle.parse_commit_stream(text)
        assert len(commits) == info[name]


def _readme_export_argv():
    """The README's `git log ... > mainline.export` command as argv."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (command,) = re.findall(r"^git log .*?> mainline\.export$", readme, re.M | re.S)
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[-2:] == [">", "mainline.export"]
    return argv[:-2]


README_FORMAT = (
    "%x01COMMIT%x01%nid: %H%nparents: %P%nauthor: %an%nemail: %ae%ndate: %at%n%n%B%n%x01DIFF%x01"
)


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not on PATH")
def test_the_readme_export_command_reads_back(tmp_path):
    argv = _readme_export_argv()
    assert f"--format={README_FORMAT}" in argv

    repo = tmp_path / "repo"
    repo.mkdir()
    env = {
        "PATH": os.environ["PATH"], "HOME": str(tmp_path), "LC_ALL": "C",
        "GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_AUTHOR_NAME": "Dev One", "GIT_AUTHOR_EMAIL": "dev@example.org",
        "GIT_COMMITTER_NAME": "Dev One", "GIT_COMMITTER_EMAIL": "dev@example.org",
        "GIT_AUTHOR_DATE": "1500000000 +0000", "GIT_COMMITTER_DATE": "1500000000 +0000",
    }

    def git(*args, **kwargs):
        return subprocess.run(["git", *args], cwd=repo, env=env, check=True,
                              capture_output=True, text=True, timeout=60, **kwargs).stdout

    git("init", "-q")
    messages = [
        ("-m", "init: add a.c"),
        ("-m", "fix: set x", "-m", "Signed-off-by: Dev One <dev@example.org>"),
        ("--cleanup=verbatim", "-F", "-"),
        ("--allow-empty-message", "-m", ""),
    ]
    for value, args in enumerate(messages):
        (repo / "a.c").write_text(f"int x = {value};\n")
        git("add", "a.c")
        git("commit", "-q", *args, input="no newline: subject\n\nbody without newline")
    (repo / "mainline.export").write_text(git(*argv[1:]), encoding="utf-8")

    commits = load_commits(str(repo / "mainline.export"))
    ids = git("rev-list", "HEAD").split()
    assert [c.commit_id for c in commits] == ids
    assert [c.parent_ids for c in commits] == [(ids[1],), (ids[2],), (ids[3],), ()]
    assert [(c.subject, c.body) for c in commits] == [
        ("", ""),
        ("no newline: subject", "body without newline"),
        ("fix: set x", "Signed-off-by: Dev One <dev@example.org>"),
        ("init: add a.c", ""),
    ]
    assert all(c.diff_text.lstrip("\n").startswith("diff --git a/a.c b/a.c\n") for c in commits)
    assert [check_eligibility(c).reasons for c in commits] == [(), (), (), (ONLY_ADDS_OR_REMOVES_FILES,)]
