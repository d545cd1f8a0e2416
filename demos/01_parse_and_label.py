"""Walk through dataset construction: parse an exported commit stream,
filter out ineligible commits, and label the rest against stable-tree
evidence.

Run from the repository root after `pip install -e .`:

    python3 demos/01_parse_and_label.py
"""

from patchnet.core import Label
from patchnet.ingest import (
    build_balanced_dataset,
    check_eligibility,
    extract_stable_evidence,
    label_commit,
    parse_commit_stream,
)


def hex_id(n):
    return f"{n:x}".ljust(40, "0")


def diff_for(path, removed, added):
    old = 1 + len(removed)
    new = 1 + len(added)
    lines = [
        f"diff --git a/{path} b/{path}",
        f"--- a/{path}",
        f"+++ b/{path}",
        f"@@ -10,{old} +10,{new} @@ void frob(void)",
        " \tint x;",
    ]
    lines.extend("-" + r for r in removed)
    lines.extend("+" + a for a in added)
    return "\n".join(lines) + "\n"


def record(commit_id, parents, date, message, diff):
    return (
        "\x01COMMIT\x01\n"
        f"id: {commit_id}\n"
        f"parents: {parents}\n"
        "author: Demo Dev\n"
        "email: dev@example.org\n"
        f"date: {date}\n"
        "\n"
        f"{message}\n"
        "\x01DIFF\x01\n"
        f"{diff}"
    )


C_DIFF = diff_for("drivers/net/ring.c", ["\told = depth;"], ["\tdepth = 64;"])
DOC_DIFF = diff_for("Documentation/ring.txt", ["old text"], ["new text"])

MAINLINE = "".join(
    [
        record(hex_id(1), hex_id(11), 1_500_000_000,
               "net: fix ring buffer overrun\n\nKeep the ring index in range.",
               C_DIFF),
        record(hex_id(2), hex_id(12), 1_500_086_400,
               "net: tune default ring depth\n\nLarger rings help burst loads.",
               C_DIFF),
        record(hex_id(3), hex_id(13), 1_500_172_800,
               "docs: describe the ring knobs\n\nPlain documentation change.",
               DOC_DIFF),
        record(hex_id(4), f"{hex_id(14)} {hex_id(15)}", 1_500_259_200,
               "Merge branch 'net-fixes'", C_DIFF),
        record(hex_id(5), hex_id(16), 1_500_345_600,
               "net: drop stale ring counters\n\nNobody reads these anymore.",
               C_DIFF),
    ]
)

# A stable-tree export whose messages cite the mainline commits they
# backport.  This citation is the labeling signal.
STABLE = record(
    hex_id(90), hex_id(91), 1_510_000_000,
    "net: fix ring buffer overrun\n\n"
    f"commit {hex_id(1)} upstream.\n\nBackported to 4.9.",
    C_DIFF,
)


def main():
    commits = parse_commit_stream(MAINLINE)
    print(f"parsed {len(commits)} mainline commits")
    print(f"first: {commits[0].commit_id[:12]} {commits[0].subject!r}")
    print()

    print("eligibility filters:")
    eligible = []
    for c in commits:
        report = check_eligibility(c)
        verdict = "keep" if report.eligible else f"drop ({', '.join(report.reasons)})"
        print(f"  {c.commit_id[:12]} {c.subject[:40]:42} {verdict}")
        if report.eligible:
            eligible.append((c, report.changed_lines))
    print()

    evidence = extract_stable_evidence(parse_commit_stream(STABLE))
    print(f"stable evidence: {len(evidence.back_links)} back link(s)")
    # Balancing takes each label beside its commit and matches on the
    # changed-line count the eligibility check already took from its one
    # parse of the diff; the commits it keeps carry their label.
    labeled = [(c, size, label_commit(c, evidence)) for c, size in eligible]
    for c, size, label in labeled:
        print(f"  {c.commit_id[:12]} -> {label.value} ({size} changed lines)")
    print()

    commits, provenance = build_balanced_dataset(labeled, seed=0)
    stable_n = sum(c.label is Label.STABLE for c in commits)
    print(f"balanced dataset: {stable_n} stable + {len(commits) - stable_n} non-stable")
    print(f"provenance: {provenance}")


if __name__ == "__main__":
    main()
