"""Domain type invariants."""

import pytest

from conftest import hex_id, make_commit
from patchnet.core import (
    CodeLine,
    FileDiff,
    Hunk,
    Label,
)


class TestLabel:
    def test_string_round_trip(self):
        assert Label.from_string("stable") is Label.STABLE
        assert Label.from_string("non-stable") is Label.NON_STABLE
        for lab in Label:
            assert Label.from_string(lab.value) is lab

    def test_int_round_trip(self):
        assert Label.STABLE.to_int() == 1
        assert Label.NON_STABLE.to_int() == 0
        for lab in Label:
            assert Label.from_int(lab.to_int()) is lab

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            Label.from_string("maybe")
        with pytest.raises(ValueError):
            Label.from_int(2)


class TestCodeLine:
    def test_defaults_to_normal_kind(self):
        line = CodeLine(3, "return err;", "-")
        assert line.line_number == 3

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            CodeLine(1, "x", "*")

    def test_rejects_nonpositive_line_number(self):
        with pytest.raises(ValueError):
            CodeLine(0, "x", "+")

    def test_rejects_embedded_newline(self):
        with pytest.raises(ValueError):
            CodeLine(1, "a\nb", "+")


class TestFileDiff:
    def _hunk(self):
        return Hunk(1, 10, 2, 10, 2, (CodeLine(10, "a", "-"),), (CodeLine(10, "b", "+"),))

    def test_modification_when_both_sides_real(self):
        fd = FileDiff("a.c", (self._hunk(),), old_path="a.c")
        assert fd.is_modification

    def test_new_and_deleted_are_not_modifications(self):
        assert not FileDiff("a.c", (), is_new_file=True).is_modification
        assert not FileDiff("a.c", (), is_deleted_file=True).is_modification

    def test_language_relevant_follows_path(self):
        assert FileDiff("drivers/a.c", ()).language_relevant
        assert FileDiff("include/a.h", ()).language_relevant
        assert not FileDiff("Documentation/a.rst", ()).language_relevant
        assert not FileDiff("a.cc", ()).language_relevant


class TestRawCommit:
    def test_message_joins_subject_and_body(self):
        c = make_commit(1, subject="x: subject", body="body line")
        assert c.message == "x: subject\nbody line"

    def test_message_without_body_is_subject(self):
        c = make_commit(1, subject="x: subject", body="")
        assert c.message == "x: subject"


def test_ids_are_deterministic():
    assert hex_id(1) == "0" * 39 + "1"
