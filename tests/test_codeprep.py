"""Tests for code-side preprocessing.

The line-kind table below holds hand-labeled C snippets: every
expected value was worked out on paper from the classification rules
(single-branch `if` whose body ends in `goto` or a non-zero `return`
is checking, its body and error-shaped label blocks are handling,
checking wins ties).  A seeded generator then builds whole functions
whose kinds are known by construction and cross-checks the classifier
on them.
"""

import random
import time
import warnings

import pytest

from patchnet.codeprep import (
    MIN_CALL_COUNT,
    FunctionNameTable,
    build_function_table,
    classify_line_kinds,
    strip_comments_strings,
    tokenize_code_line,
)
from patchnet.core import LineKind
from patchnet.ingest import parse_unified_diff
from patchnet.preprocess import preprocess_commits

from conftest import make_commit, simple_diff

N = LineKind.NORMAL
C = LineKind.ERROR_CHECKING
H = LineKind.ERROR_HANDLING


# ---------------------------------------------------------------------------
# Comment and string stripping


def test_strip_block_comment_keeps_newlines():
    src = "a = 1; /* one\ntwo\nthree */ b = 2;"
    out = strip_comments_strings(src)
    assert out.count("\n") == src.count("\n")
    assert "one" not in out and "three" not in out
    assert "a = 1;" in out and "b = 2;" in out


def test_strip_line_comment():
    assert strip_comments_strings("x++; // trailing\ny++;") == "x++;  \ny++;"


def test_strip_string_contents():
    out = strip_comments_strings('call("hello /* not a comment */ world");')
    assert out == 'call("");'


def test_strip_char_literal_and_escapes():
    assert strip_comments_strings("c = '\\'';") == "c = '';"
    assert strip_comments_strings('s = "a\\"b";') == 's = "";'


def test_strip_comment_containing_quote():
    out = strip_comments_strings("x = 1; /* don't */ y = 2;")
    assert out == "x = 1;   y = 2;"


def test_strip_string_with_line_continuation_keeps_newline():
    out = strip_comments_strings('s = "ab\\\ncd";')
    assert out == 's = "\n";'


def test_strip_newline_terminated_string_is_silent():
    # Malformed in C; the literal closes at the newline and the rest of
    # the text is processed normally.
    out = strip_comments_strings('s = "oops\nnext();')
    assert out == 's = ""\nnext();'


def test_strip_line_variant_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert strip_comments_strings('s = "no end') == 's = ""'
        assert strip_comments_strings("x; /* never closed\ny;") == "x;  \n"


# ---------------------------------------------------------------------------
# Line-kind classification: hand-labeled snippets

SNIPPETS = (
    (
        "goto_check_and_label",
        (
            "int f(void)",
            "{",
            "\trc = do_thing();",
            "\tif (rc)",
            "\t\tgoto out;",
            "\treturn 0;",
            "out:",
            "\tcleanup();",
            "\treturn rc;",
            "}",
        ),
        {4: C, 5: H, 7: H, 8: H, 9: H},
    ),
    (
        "braced_error_return",
        (
            "ptr = kmalloc(size, flags);",
            "if (!ptr) {",
            "\tpr_err(msg);",
            "\treturn -ENOMEM;",
            "}",
            "return 0;",
        ),
        {2: C, 3: H, 4: H, 5: H},
    ),
    (
        "return_zero_body_is_normal",
        ("if (done) {", "\tfinish();", "\treturn 0;", "}"),
        {},
    ),
    (
        "if_else_is_normal",
        ("if (flag) {", "\ta();", "} else {", "\tb();", "}"),
        {},
    ),
    (
        "else_if_chain_is_normal",
        ("if (a) {", "\tx();", "} else if (b) {", "\tgoto err;", "}"),
        {},
    ),
    (
        "single_line_check",
        ("if (rc) return rc;",),
        {1: C},
    ),
    (
        "multiline_condition",
        (
            "if (cond_a &&",
            "    cond_b)",
            "\tgoto fail;",
            "do_more();",
            "fail:",
            "\treturn -1;",
        ),
        {1: C, 2: C, 3: H, 5: H, 6: H},
    ),
    (
        "parenthesized_zero_is_success",
        ("if (x)", "\treturn (0);"),
        {},
    ),
    (
        "parenthesized_value_is_error",
        ("if (x)", "\treturn (ret);"),
        {1: C, 2: H},
    ),
    (
        "label_with_plain_tail_is_normal",
        ("out:", "\tcleanup();", "\tlog_exit();"),
        {},
    ),
    (
        "label_goto_tail",
        ("retry:", "\treset();", "\tgoto retry;"),
        {1: H, 2: H, 3: H},
    ),
    (
        "switch_cases_are_not_labels",
        (
            "switch (v) {",
            "case 3:",
            "\thandle();",
            "\treturn -1;",
            "default:",
            "\tbreak;",
            "}",
        ),
        {},
    ),
    (
        "bitfields_are_not_labels",
        ("struct s {", "\tint a : 3;", "\tint b : 4;", "};"),
        {},
    ),
    (
        "scope_operator_is_not_a_label",
        ("ns::value = 3;",),
        {},
    ),
    (
        "ternary_is_not_a_label",
        ("x = c ? a : b;",),
        {},
    ),
    (
        "empty_if_body",
        ("if (x)", "\t;"),
        {},
    ),
    (
        "nested_error_if_inside_normal_if",
        (
            "if (outer) {",
            "\tmid();",
            "\tif (rc < 0)",
            "\t\tgoto out;",
            "\ttail();",
            "}",
            "out:",
            "\treturn rc;",
        ),
        {3: C, 4: H, 7: H, 8: H},
    ),
    (
        "checking_wins_inside_label_block",
        (
            "err:",
            "\tif (retries)",
            "\t\tgoto retry;",
            "\treturn -1;",
            "retry:",
            "\treset();",
            "\tgoto again;",
        ),
        {1: H, 2: C, 3: H, 4: H, 5: H, 6: H, 7: H},
    ),
    (
        "identifiers_containing_if",
        ("result = modifier(x);", "ifdef_like(y);"),
        {},
    ),
    (
        "error_return_via_call",
        ("if (bad)", "\treturn err_code();"),
        {1: C, 2: H},
    ),
    (
        "one_line_braced_success",
        ("if (x) { return 0; }",),
        {},
    ),
    (
        "one_line_braced_goto",
        ("if (x) { goto out; }", "out:", "\treturn 1;"),
        {1: C, 2: H, 3: H},
    ),
    (
        "loops_are_normal",
        ("for (i = 0; i < n; i++)", "\tsum += a[i];", "while (p)", "\tp = p->next;"),
        {},
    ),
    (
        "multi_statement_error_body",
        (
            "if (err) {",
            "\tcount++;",
            "\tlog_it(err);",
            "\tgoto cleanup;",
            "}",
            "cleanup:",
            "\tfree_all();",
            "\treturn err;",
        ),
        {1: C, 2: H, 3: H, 4: H, 5: H, 6: H, 7: H, 8: H},
    ),
    (
        "hex_zero_is_error",
        # Only the literal token 0 counts as success.
        ("if (x)", "\treturn 0x0;"),
        {1: C, 2: H},
    ),
    (
        "empty_label_block",
        ("void f(void)", "{", "\tif (x)", "\t\tgoto out;", "out:", "\t;", "}"),
        {3: C, 4: H},
    ),
    (
        "same_line_brace_goto_with_tail",
        ("if (ret) { val = 1; goto out; }", "done();", "out:", "\treturn val;"),
        {1: C, 3: H, 4: H},
    ),
    (
        "nested_parens_condition",
        ("if (unlikely(copy_from_user(dst, src, len)))", "\treturn -EFAULT;"),
        {1: C, 2: H},
    ),
    (
        "bare_return_is_normal",
        ("if (done)", "\treturn;"),
        {},
    ),
    (
        "indented_label",
        ("\terror_exit:", "\t\trelease();", "\t\tgoto done;"),
        {1: H, 2: H, 3: H},
    ),
    (
        "case_goto_without_if",
        ("switch (err) {", "case 1:", "\tgoto fail;", "}", "fail:", "\treturn err;"),
        {5: H, 6: H},
    ),
    (
        "null_return_is_error_shaped",
        (
            "slot = find_slot(map);",
            "if (!slot ||",
            "    slot->refcount == 0)",
            "\treturn NULL;",
        ),
        {2: C, 3: C, 4: H},
    ),
    (
        "dangling_else_assignments",
        ("if (a)", "\tx = 1;", "else", "\tx = 2;"),
        {},
    ),
    (
        "goto_like_identifier",
        ("if (x)", "\tgoto_count++;"),
        {},
    ),
)


def test_snippet_count_is_substantial():
    assert len(SNIPPETS) >= 30


def test_hand_labeled_snippets():
    for name, lines, expected in SNIPPETS:
        kinds = classify_line_kinds("\n".join(lines))
        assert set(kinds) == set(range(1, len(lines) + 1)), name
        for i in range(1, len(lines) + 1):
            want = expected.get(i, N)
            assert kinds[i] == want, f"{name} line {i}: {kinds[i]} != {want}"


def test_classify_after_stripping_comments():
    src = "\n".join(
        (
            "x = 1; /* see docs: here */",
            "if (x)",
            "\tgoto out;",
            "out:",
            "\treturn x;",
        )
    )
    kinds = classify_line_kinds(strip_comments_strings(src))
    assert kinds == {1: N, 2: C, 3: H, 4: H, 5: H}


def test_classify_empty_and_blank():
    assert classify_line_kinds("") == {1: N}
    assert classify_line_kinds("\n\n") == {1: N, 2: N, 3: N}


@pytest.mark.parametrize("line", ["if (a\n", "if (a) {\n"], ids=["paren", "brace"])
def test_classify_is_linear_in_unclosed_ifs(line):
    # Each bracket is paired once per call, so an `if` whose `(` or `{`
    # never closes costs no scan to the end of the text.
    started = time.perf_counter()
    kinds = classify_line_kinds(line * 8000)
    assert time.perf_counter() - started < 2.0
    assert set(kinds.values()) == {N}


def test_classify_is_linear_in_nested_error_ifs():
    # Each `if` body's last statement is read in place and each span
    # marked at its two ends, so no nested body is copied or repainted.
    # Every header checks; the return and every `}` line handle.
    depth = 20_000
    text = "if (a) {\n" * depth + "return -1;\n" + "}\n" * depth
    started = time.perf_counter()
    kinds = classify_line_kinds(text)
    assert time.perf_counter() - started < 2.0
    assert kinds == {**dict.fromkeys(range(1, depth + 1), C),
                     **dict.fromkeys(range(depth + 1, 2 * depth + 2), H), 2 * depth + 2: N}


# ---------------------------------------------------------------------------
# Line-kind classification: functions with kinds known by construction


def _generate_function(rng):
    """Emit a flat C function, tracking each line's kind as chosen."""
    lines = []

    def emit(text, kind=N):
        lines.append((text, kind))

    emit("static int gen_func(struct ctx *c)")
    emit("{")
    emit("\tint rc = 0;")
    labels = []
    for b in range(rng.randint(2, 6)):
        shape = rng.choice(
            ("plain", "err_goto", "err_return", "ok_if", "two_branch", "braced_err")
        )
        if shape == "plain":
            emit(f"\tstep_{b}(c);")
        elif shape == "err_goto":
            label = f"fail_{b}"
            labels.append(label)
            emit(f"\tif (check_{b}(c) < 0)", C)
            emit(f"\t\tgoto {label};", H)
        elif shape == "err_return":
            emit(f"\tif (!c->field_{b})", C)
            emit("\t\treturn -EINVAL;", H)
        elif shape == "ok_if":
            emit(f"\tif (c->flag_{b})")
            emit(f"\t\tc->count_{b} = 0;")
        elif shape == "two_branch":
            emit(f"\tif (c->mode_{b}) {{")
            emit(f"\t\tuse_a_{b}(c);")
            emit("\t} else {")
            emit(f"\t\tuse_b_{b}(c);")
            emit("\t}")
        else:
            emit(f"\tif (probe_{b}(c)) {{", C)
            emit(f"\t\tc->bad_{b}++;", H)
            emit("\t\treturn -ENODEV;", H)
            emit("\t}", H)
    emit("\treturn rc;")
    for label in labels:
        terminal = rng.choice(("error", "success", "plain"))
        kind = H if terminal == "error" else N
        emit(f"{label}:", kind)
        for u in range(rng.randint(1, 2)):
            emit(f"\tundo_{label}_{u}(c);", kind)
        if terminal == "error":
            emit(rng.choice(("\treturn -EIO;", "\treturn rc;", f"\tgoto {labels[0]};")), H)
        elif terminal == "success":
            emit("\treturn 0;")
    emit("}")
    text = "\n".join(t for t, _ in lines)
    expected = {i + 1: k for i, (t, k) in enumerate(lines)}
    return text, expected


def test_generated_functions_classify_as_constructed():
    rng = random.Random(1803)
    for case in range(200):
        text, expected = _generate_function(rng)
        kinds = classify_line_kinds(text)
        assert kinds == expected, f"case {case}:\n{text}"


# ---------------------------------------------------------------------------
# Tokenization


EMPTY = FunctionNameTable.empty()


def _nrm(*bases):
    return [base + "@nrm" for base in bases]


def test_tokenize_keywords_and_idents():
    toks = tokenize_code_line("if (rc) return rc;", N, EMPTY)
    assert toks == _nrm("if", "(", "IDENT", ")", "return", "IDENT", ";")


def test_tokenize_annotates_every_token_with_line_kind():
    toks = tokenize_code_line("goto out;", H, EMPTY)
    assert toks == ["goto@hnd", "IDENT@hnd", ";@hnd"]
    toks = tokenize_code_line("if (x)", C, EMPTY)
    assert toks == ["if@chk", "(@chk", "IDENT@chk", ")@chk"]


def test_tokenize_numbers_and_operators():
    toks = tokenize_code_line("x += 0x1F + 2.5e3 - 42u << 3;", N, EMPTY)
    assert toks == _nrm("IDENT", "+=", "NUM", "+", "NUM", "-", "NUM", "<<", "NUM", ";")


def test_tokenize_strings_and_comments_removed():
    toks = tokenize_code_line('printk(err, "boom"); // noisy', N, EMPTY)
    assert toks == _nrm("IDENT", "(", "IDENT", ",", '""', ")", ";")


def test_tokenize_retained_function_names():
    table = FunctionNameTable(
        retained=frozenset({"kmalloc"}), defined_in={"a.c": frozenset({"kmalloc"})}
    )
    toks = tokenize_code_line("p = kmalloc(n);", N, table, path="b.c")
    assert toks == _nrm("IDENT", "=", "kmalloc", "(", "IDENT", ")", ";")
    # In the defining file the name is a plain identifier again.
    toks = tokenize_code_line("p = kmalloc(n);", N, table, path="a.c")
    assert toks == _nrm("IDENT", "=", "IDENT", "(", "IDENT", ")", ";")


def test_tokenize_arrow_and_struct_access():
    toks = tokenize_code_line("c->next = s.head;", N, EMPTY)
    assert toks == _nrm("IDENT", "->", "IDENT", "=", "IDENT", ".", "IDENT", ";")


def test_tokenize_is_total_on_junk():
    toks = tokenize_code_line("\x00 @@ $$ `` 0xZZ", N, EMPTY)
    assert toks and all(isinstance(t, str) and t.endswith("@nrm") for t in toks)


# ---------------------------------------------------------------------------
# Function-name table


def _call_diff(name, times, path="drivers/a.c"):
    added = tuple(f"\t{name}({i});" for i in range(times))
    return simple_diff(path=path, removed=("\told_call();",), added=added)


def _table(*diffs):
    return build_function_table(fd for d in diffs for fd in parse_unified_diff(d))


def test_function_table_retains_frequent_names():
    table = _table(_call_diff("helper_fn", MIN_CALL_COUNT))
    assert "helper_fn" in table.retained
    assert "old_call" not in table.retained


def test_function_table_threshold_boundary():
    assert "almost" not in _table(_call_diff("almost", MIN_CALL_COUNT - 1)).retained


def test_function_table_counts_across_commits():
    table = _table(*(_call_diff("shared_util", 1, path=f"fs/f{i}.c") for i in range(MIN_CALL_COUNT)))
    assert "shared_util" in table.retained


def test_function_table_keywords_never_counted():
    diff = simple_diff(
        added=tuple(f"\tif (x{i}) while (y{i}) sizeof (z{i});" for i in range(6))
    )
    table = _table(diff)
    assert "if" not in table.retained
    assert "while" not in table.retained
    assert "sizeof" not in table.retained


def test_function_table_definition_suppression():
    lines = tuple(f"\tlocal_fn({i});" for i in range(MIN_CALL_COUNT))
    diff = simple_diff(path="lib/impl.c", added=("local_fn(int a)",) + lines)
    table = _table(diff)
    assert "local_fn" in table.retained
    assert not table.is_retained("local_fn", "lib/impl.c")
    assert table.is_retained("local_fn", "lib/other.c")


def test_function_table_skips_unparseable_diffs():
    bad = make_commit(2, diff="@@ not a hunk header\n")
    good = make_commit(1, diff=_call_diff("fine_fn", MIN_CALL_COUNT))
    _, table, _, unparsable = preprocess_commits([bad, good])
    assert "fine_fn" in table.retained
    assert unparsable == 1


def test_function_table_counts_non_c_files():
    table = _table(_call_diff("script_fn", MIN_CALL_COUNT, path="tools/run.py"))
    assert "script_fn" in table.retained


def test_empty_table():
    table = FunctionNameTable.empty()
    assert not table.is_retained("anything")
    assert build_function_table([]).retained == frozenset()


def test_function_table_reader_wants_lists_of_strings():
    table = FunctionNameTable(retained=frozenset({"kfree"}), defined_in={"a.c": frozenset({"foo"})})
    assert FunctionNameTable.from_json_obj(table.to_json_obj()) == table
    assert FunctionNameTable.from_json_obj({}) == FunctionNameTable.empty()
    for bad in (
        {"retained": "kfree", "defined_in": {}},
        {"retained": [], "defined_in": {"a.c": "foo"}},
        {"retained": ["kfree", 1]},
        {"defined_in": {"a.c": ["foo", None]}},
        {"defined_in": {1: ["foo"]}},
        {"defined_in": ["a.c"]},
        ["kfree"],
        "kfree",
    ):
        with pytest.raises(ValueError, match="not a function table"):
            FunctionNameTable.from_json_obj(bad)
