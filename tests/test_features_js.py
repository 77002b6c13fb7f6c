"""JavaScript tokenizer and parser: the counts the feature extractor relies on."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from websift.features import extract_features
from websift.features.jsparse import parse_js, tokenize


def test_empty_source_parses():
    ast = parse_js("")
    assert ast.parse_ok
    assert ast.strings == []
    assert ast.nodes == 0


def test_string_literals_collected_decoded():
    ast = parse_js("var a = 'one'; var b = \"two\\n\"; var c = `three`;")
    assert ast.strings == ["one", "two\n", "three"]


def test_hex_and_unicode_escapes_decode():
    ast = parse_js(r"x = '\x41B\u{43}';")
    assert ast.strings == ["ABC"]


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r", "\u2028", "\u2029"],
                         ids=["lf", "crlf", "cr", "ls", "ps"])
def test_backslash_line_terminator_continues_the_literal(eol):
    ast = parse_js(f"var a = 'one\\{eol}two'; f(a); t = `x\\{eol}y`;")
    assert ast.parse_ok
    assert ast.strings == ["onetwo", "xy"]
    assert ast.named("f") == 1


def test_braced_unicode_escapes_need_hex_digits_and_a_close():
    ast = parse_js(r"x = ['\u{}', '\u{4G}', '\u{110000}', '\u{41', '\u{0041}'];")
    # an out-of-range code point drops the braces with it
    assert ast.strings == ["u{}", "u{4G}", "u", "u{41", "A"]


def test_unterminated_string_flags_error():
    ast = parse_js("var s = 'abc")
    assert not ast.parse_ok
    assert ast.strings == ["abc"]


def test_keyword_count():
    ast = parse_js("var x = 1; if (x) { return new Foo(); }")
    # var, if, return, new
    assert ast.n_keywords == 4


def test_long_name_threshold_is_30():
    ok29 = "v" * 29
    hit30 = "v" * 30
    ast = parse_js(f"var {ok29} = 1; var {hit30} = 2;")
    assert ast.n_long_names == 1


def test_direct_and_named_calls():
    c = parse_js("foo(); obj.bar(); eval('x');")
    assert c.direct_calls == 3
    assert c.named("foo") == 1
    assert c.named("bar") == 1
    assert c.named("eval") == 1


def test_bracket_calls_and_lookups():
    c = parse_js("w['ev'+'al'](p); var v = obj['key']; arr[0];")
    assert c.bracket_calls == 1
    # the call target counts as a lookup too: w['eval'], obj['key'], arr[0]
    assert c.bracket_lookups == 3


def test_special_object_reassignment():
    c = parse_js("window = fake; document = d2; x = 1; location = u;")
    assert c.special_reassignments == 3


def test_member_assignment_is_not_special_reassignment():
    c = parse_js("window.location = u; document.title = 't';")
    assert c.special_reassignments == 0


def test_packer_signature_function():
    c = parse_js("eval(function(p,a,c,k,e,d){return p;}('x',1,2,'y',3,4));")
    assert c.packer_functions == 1
    assert c.named("eval") == 1
    # packer total folds in unescape/unpack call names
    assert c.packer_total() == 1


def test_unescape_counts_into_packer_total():
    c = parse_js("unescape('%41'); unpack(data);")
    assert c.packer_functions == 0
    assert c.packer_total() == 2


def test_wrong_param_order_is_not_packer():
    c = parse_js("function(a,p,c,k,e,d){return 0;}")
    assert c.packer_functions == 0


def test_junk_bytes_fail_parse():
    ast = parse_js("var x = 1; @@@")
    assert not ast.parse_ok


def test_recovery_after_bad_statement():
    c = parse_js("var = ; foo(); bar();")
    assert not c.parse_ok
    # statements after the resync point still contribute
    assert c.named("bar") == 1


def test_e4x_literal_detected():
    ast = parse_js("var doc = <root><leaf/></root>;")
    assert ast.has_e4x
    assert ast.parse_ok


def test_comparison_is_not_e4x():
    ast = parse_js("if (a < b) { c(); }")
    assert not ast.has_e4x


def test_regex_literal_not_division():
    ast = parse_js("var re = /ab+c/i; var q = x / y;")
    assert ast.parse_ok
    toks, _, _ = tokenize("var re = /ab+c/i;")
    assert any(t.kind == "regex" for t in toks)


# Where one token ends and the next begins: punctuators take the longest
# match; numbers start at `str.isdigit` characters (`²` is one, `½` is
# not); identifiers start at `str.isalpha`, `_` or `$` and continue over
# `str.isalnum`; an unterminated block comment runs to the end.
@pytest.mark.parametrize("src,want", [
    ("a>>>=b", [("ident", "a"), ("punct", ">>>="), ("ident", "b")]),
    ("f(...a)", [("ident", "f"), ("punct", "("), ("punct", "..."), ("ident", "a"),
                 ("punct", ")")]),
    ("a?.b", [("ident", "a"), ("punct", "?."), ("ident", "b")]),
    ("a**=2", [("ident", "a"), ("punct", "**="), ("num", "2")]),
    ("x=>y", [("ident", "x"), ("punct", "=>"), ("ident", "y")]),
    ("0x1F", [("num", "0x1F")]),
    ("1.5e+3", [("num", "1.5e+3")]),
    (".5", [("num", ".5")]),
    ("1.2.3", [("num", "1.2"), ("num", ".3")]),
    ("1e", [("num", "1"), ("ident", "e")]),
    ("²³", [("num", "²³")]),
    ("$a _b é", [("ident", "$a"), ("ident", "_b"), ("ident", "é")]),
    ("a²", [("ident", "a²")]),
    ("½a", [("junk", "½"), ("ident", "a")]),
    ("a /* b */ c", [("ident", "a"), ("ident", "c")]),
    ("a /* b", [("ident", "a")]),
    ("a // b", [("ident", "a")]),
    ("a // b\nc", [("ident", "a"), ("ident", "c")]),
])
def test_token_boundaries(src, want):
    toks, lex_error, _ = tokenize(src)
    assert [(t.kind, t.text) for t in toks[:-1]] == want
    assert toks[-1].kind == "eof"
    assert not lex_error


def test_failed_regex_attempts_take_linear_time():
    # every `/` follows `(`, so each one tries a regex that the line never closes
    src = "(/[" * 16000
    started = time.process_time()
    toks, _, _ = tokenize(src)
    assert time.process_time() - started < 2
    assert len(toks) == len(src) + 1
    assert {t.kind for t in toks[:-1]} == {"punct"}


def test_arrow_detection_takes_linear_time():
    # every `(` is left open, so its closing bracket is the end of input
    src = "x=(;" * 8000
    started = time.process_time()
    c = parse_js(src)
    assert time.process_time() - started < 2
    assert not c.parse_ok


def test_arrow_functions_are_told_from_parentheses():
    c = parse_js("f = (a, [b]) => g(a); h = (a, [b]); k = (p) => { m(); };")
    assert c.parse_ok
    assert dict(c.named_calls) == {"g": 1, "m": 1}


def test_comments_are_skipped():
    ast = parse_js("// eval('no')\n/* eval('no') */ var x = 1;")
    assert ast.strings == []
    assert ast.named("eval") == 0


def test_significant_tokens_flag():
    assert parse_js("var x = 1;").has_significant_tokens
    assert not parse_js("hello world").has_significant_tokens


def test_nested_functions_counted_once_each():
    src = "function outer(){ function inner(){ f(); } inner(); }"
    c = parse_js(src)
    assert c.direct_calls == 2


def test_new_expression_parses():
    c = parse_js("var o = new ActiveXObject('WScript.Shell');")
    assert c.named("ActiveXObject") == 1


@given(st.text(max_size=600))
def test_parse_total_on_arbitrary_text(src):
    c = parse_js(src)
    assert c.nodes >= 0
    assert c.n_keywords >= 0
    assert c.direct_calls >= 0
    assert c.packer_total() >= c.packer_functions


# Counts captured from the tree-building parser this one replaced: a
# parameter default and a failed top-level statement count nothing, a
# tagged template is one more call carrying the tag's name, and only
# identifier and dotted callees name a `(...)` call.
# Columns: nodes, named calls, parse_ok, direct calls, bracket calls,
# bracket lookups, special reassignments, packer functions.
@pytest.mark.parametrize("src,want", [
    ("function f(a=g()){}", (2, {}, True, 0, 0, 0, 0, 0)),
    ("var = h(); k();", (3, {"k": 1}, False, 1, 0, 0, 0, 0)),
    ("foo()`x`", (5, {"foo": 2}, True, 2, 0, 0, 0, 0)),
    ("o={[k()]:1, m(p,a,c,k,e,d){}}", (13, {"k": 1}, True, 1, 0, 0, 0, 1)),
    ("class A extends mk() {}", (3, {"mk": 1}, True, 1, 0, 0, 0, 0)),
    ("this = 1; new.target;", (6, {}, True, 0, 0, 0, 1, 0)),
    ('w["e"](1)["f"]();', (9, {}, True, 0, 2, 2, 0, 0)),
    ("f()();", (4, {"f": 1}, True, 2, 0, 0, 0, 0)),
])
def test_counts_match_the_tree_parser(src, want):
    c = parse_js(src)
    assert (c.nodes, dict(c.named_calls), c.parse_ok, c.direct_calls, c.bracket_calls,
            c.bracket_lookups, c.special_reassignments, c.packer_functions) == want


@pytest.mark.parametrize("src,nodes", [
    ('x="a"' + '+"a"' * 4999, 2 * 5000 + 2),  # ExprStmt, Assign, x, n strings, n-1 '+'
    ("a" + ".b" * 5000, 5000 + 2),
    ("f" + "()" * 5000, 5000 + 2),
], ids=["plus", "dots", "calls"])
def test_long_chains_extract_without_recursion(src, nodes):
    vec = extract_features(src.encode(), "application/javascript")
    assert vec["NumNodes"] == nodes
    assert vec["parsingerror"] == 0
    assert parse_js(src).nodes == nodes
