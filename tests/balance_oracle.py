"""The balancing matcher as it was before the bisect search: a numpy
argmin over every pool entry per stable commit, kept as the oracle that
tests/test_ingest.py checks patchnet.ingest.build_balanced_dataset
against.  Only this docstring and the imports are new; the function is
unchanged, so it takes (labeled commit, size) pairs."""

from __future__ import annotations

import numpy as np

from patchnet.core import Label, RawCommit


def build_balanced_dataset(
    entries: "list[tuple[RawCommit, int]]", seed: int = 0
) -> tuple[list[RawCommit], str]:
    """Keep every stable commit and match each with the unused non-stable
    commit of closest changed-line count.

    Entries are (labeled commit, changed-line count), the count as
    check_eligibility reports it.  Returns the selected commits, stable
    ones first, and a human-readable provenance note.

    Stable commits are processed in (date, commit_id) order; candidate
    ties break to the earlier date, then the lexicographically smaller
    id.  The procedure is deterministic and invariant under permutation
    of the input; the seed is recorded in provenance only.
    """
    if not entries:
        raise ValueError("labeled sequence is empty")

    size_of: dict[str, int] = {}
    unique: list[RawCommit] = []
    for c, size in entries:
        if c.commit_id not in size_of:
            size_of[c.commit_id] = size
            unique.append(c)

    stable = sorted(
        (c for c in unique if c.label is Label.STABLE),
        key=lambda c: (c.date, c.commit_id),
    )
    pool = sorted(
        (c for c in unique if c.label is Label.NON_STABLE),
        key=lambda c: (c.date, c.commit_id),
    )

    notes = [f"{len(stable)} stable, {len(pool)} non-stable candidates, seed={seed}"]
    if not stable:
        notes.append("WARNING: no stable commits in input")
        return [], "; ".join(notes)

    if len(pool) <= len(stable):
        if len(pool) < len(stable):
            notes.append(
                f"WARNING: only {len(pool)} non-stable for {len(stable)} stable"
            )
        chosen = list(range(len(pool)))
    else:
        # The pool is in (date, id) order, so the first minimum of the
        # distance is the tie-break the docstring gives.
        sizes = np.array([size_of[c.commit_id] for c in pool], dtype=np.int64)
        used = np.zeros(len(pool), dtype=bool)
        for s in stable:
            dist = np.abs(sizes - size_of[s.commit_id])
            dist[used] = np.iinfo(np.int64).max
            used[np.argmin(dist)] = True
        chosen = np.flatnonzero(used)

    notes.append(f"selected {len(chosen)} non-stable matches")
    return stable + [pool[i] for i in chosen], "; ".join(notes)
