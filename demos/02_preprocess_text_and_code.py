"""Walk through preprocessing: message normalization, code-line
analysis, vocabularies, and the compact index arrays the model
consumes.

    python3 demos/02_preprocess_text_and_code.py
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from patchnet.codeprep import FunctionNameTable, classify_line_kinds, strip_comments_strings, tokenize_code_line
from patchnet.core import Label, LineKind, PatchDims, RawCommit
from patchnet.preprocess import (
    assemble_tensors,
    decode_record,
    preprocess_commits,
    read_tensor_file,
    write_tensor_file,
)
from patchnet.stemmer import porter_stem
from patchnet.textprep import message_tokens, strip_tags

MESSAGE = """net: fix a use-after-free in the ring teardown

The ring buffers are freed before the watchdog stops looking at them.
Stop the watchdog first.

Cc: stable@vger.kernel.org
Fixes: 1234567890ab ("net: add ring watchdog")
Signed-off-by: Demo Dev <dev@example.org>"""

C_SOURCE = """static int ring_start(struct ring *r)
{
\tint err;  /* set by the allocator */

\terr = ring_alloc(r, "rx");
\tif (err)
\t\tgoto fail;
\tr->running = 1;
\treturn 0;
fail:
\tring_free(r);
\treturn err;
}"""


def demo_message():
    print("== message preprocessing ==")
    for word in ("fixes", "freed", "buffers", "stopping", "relational"):
        print(f"  porter_stem({word!r}) = {porter_stem(word)!r}")
    print()
    print("tag lines dropped by strip_tags:")
    for line in MESSAGE.splitlines():
        if line and line not in strip_tags(MESSAGE):
            print(f"  {line}")
    tokens = message_tokens(strip_tags(MESSAGE))
    print(f"tokens ({len(tokens)}): {tokens}")
    print()


def demo_code():
    print("== code-line analysis ==")
    stripped = strip_comments_strings(C_SOURCE)
    kinds = classify_line_kinds(stripped)
    for number, line in enumerate(C_SOURCE.splitlines(), start=1):
        kind = kinds[number]
        marker = {
            LineKind.ERROR_CHECKING: "check",
            LineKind.ERROR_HANDLING: "handle",
        }.get(kind, "")
        print(f"  {number:2} {marker:7} {line}")
    print()

    # The lexer takes each line's kind with its text and tags every
    # token "base@kind".  Function names are kept verbatim only when the
    # corpus calls them often enough; everything else collapses to IDENT.
    table = FunctionNameTable(retained=frozenset({"ring_alloc"}), defined_in={})
    print("tokenized lines:")
    for number in (5, 6):
        text = C_SOURCE.splitlines()[number - 1]
        print(f"  {number:2} {tokenize_code_line(text, kinds[number], table, 'drivers/net/ring.c')}")
    print()


def make_commit(n, subject, added_line, label, removed_line="\told = thing;"):
    diff = (
        "diff --git a/drivers/net/ring.c b/drivers/net/ring.c\n"
        "--- a/drivers/net/ring.c\n"
        "+++ b/drivers/net/ring.c\n"
        "@@ -10,2 +10,3 @@ void frob(void)\n"
        " \tint x;\n"
        f"-{removed_line}\n"
        f"+{added_line}\n"
        "+\tdone = 1;\n"
    )
    return RawCommit(
        commit_id=f"{n:x}".ljust(40, "0"),
        parent_ids=(f"{n + 50:x}".ljust(40, "0"),),
        author_name="Demo Dev",
        author_email="dev@example.org",
        date=1_500_000_000 + n,
        subject=subject,
        body="Keep the ring settings consistent.",
        diff_text=diff,
        label=label,
    )


def demo_tensors():
    print("== vocabularies and tensors ==")
    commits = [
        make_commit(1, "net: fix the ring leak", "\tring_free(r);", Label.STABLE),
        make_commit(2, "net: tune the ring depth", "\tdepth = 64;", Label.NON_STABLE,
                    removed_line="\tring_free(old);"),
        make_commit(3, "net: fix the ring leak again", "\tring_free(q);", Label.STABLE),
        make_commit(4, "net: rename the ring field", "\tdepth = 32;", Label.NON_STABLE,
                    removed_line="\tring_free(old);"),
        make_commit(5, "net: plug the ring leak", "\tring_free(p);", Label.STABLE),
    ]
    # One pass: parse each diff, build the function table, tokenize each
    # message and line, count both vocabularies, then index the tensors.
    dims = PatchDims(msg_len=8, files=2, hunks=2, lines=3, words=8)
    records, table, (msg_vocab, code_vocab), unparsable = preprocess_commits(commits, dims)
    print(f"retained function names (called enough to keep): {sorted(table.retained)}")
    print(f"message vocabulary: {len(msg_vocab)} entries")
    print(f"code vocabulary:    {len(code_vocab)} entries")
    print(f"diffs that did not parse: {unparsable}")

    # Each patch comes out as its tensor-file record, built without numpy.
    # Decoded, it is compact: its message prefix, a table of its distinct
    # non-PAD code lines, and a grid with one row id per line slot.
    print(f"record bytes:         {len(records[0])}")
    patch = decode_record(records[0], dims)
    print(f"message count:        {len(patch.message)} of {dims.msg_len} slots")
    print(f"distinct code rows:   {len(patch.rows)} of {patch.grid.size} line slots")
    print(f"row-id grid:          {patch.grid.shape} {patch.grid.dtype} (0 is the all-PAD row)")
    print(f"index dtype:          {patch.message.dtype} (as on disk)")
    decoded = [msg_vocab.index_to_word[i] for i in patch.message]
    print(f"decoded message:      {decoded}")
    # A single new commit (as `predict` sees it) goes through the same steps.
    again = assemble_tensors(commits[0], table, (msg_vocab, code_vocab), dims)
    same = all(np.array_equal(getattr(again, name), getattr(patch, name))
               for name in ("message_tokens", "removed_code", "added_code"))
    print(f"assemble_tensors rebuilds it (dense decode equal): {same}")

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "tensors.bin")
        write_tensor_file(path, records, dims)
        loaded, loaded_dims = read_tensor_file(path)
        print(
            f"tensor file round trip: {len(loaded)} patches, dims {loaded_dims}, "
            f"labels {[p.label.value for p in loaded]}, {os.path.getsize(path)} bytes"
        )
        print(f"arrays read in place (views of one buffer): {not loaded[0].rows.flags.owndata}")


def main():
    demo_message()
    demo_code()
    demo_tensors()


if __name__ == "__main__":
    main()
