"""58-column extractor: flags, counting rules, validation, serialization."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from websift.features import (
    FEATURE_ORDER,
    FLOAT_FEATURES,
    BOOL_FEATURES,
    FeatureVector,
    extract_features,
    ledger_hash,
)
from websift.features.extract import (
    ENTROPY_FEATURES,
    _IP_RE,
    _KEYWORD_RE,
    KEYWORD_FAMILY,
    LEDGER_VERSION,
    _count_keywords,
    _count_word,
)

# Frozen ledger digest; any change to the column set or order must be a
# deliberate ledger revision, not an accident.
LEDGER_SHA256 = "5fbd1f5c820cf55a00ad5e445db8fc821202fdaee63b7681a3962955b3fd19fb"


def test_ledger_is_pinned():
    assert len(FEATURE_ORDER) == 58
    assert len(set(FEATURE_ORDER)) == 58
    assert ledger_hash() == LEDGER_SHA256


def test_empty_body_is_all_zero():
    fv = extract_features(b"")
    assert all(v == 0 for v in fv.as_row())


def test_html_flag_needs_known_tag():
    assert extract_features(b"<html></html>")["ishtml"] == 1
    assert extract_features(b"<wat></wat>")["ishtml"] == 0
    assert extract_features(b"1 < 2 and 3 > 2")["ishtml"] == 0


def test_plain_text_is_neither_html_nor_js():
    fv = extract_features(b"just some words here")
    assert fv["ishtml"] == 0
    assert fv["isjs"] == 0


def test_declared_javascript_sets_isjs():
    fv = extract_features(b"var x = 1;", "application/javascript")
    assert fv["isjs"] == 1
    assert fv["ishtml"] == 0


def test_js_by_content_hint():
    fv = extract_features(b"var total = 0; total += 5;")
    assert fv["isjs"] == 1


def test_html_with_script_sets_combined_flag():
    fv = extract_features(b"<html><script>var a = 1;</script></html>")
    assert fv["ishtml"] == 1
    assert fv["ishtmlwithjs"] == 1
    assert fv["isjs"] == 0  # isjs is reserved for standalone scripts
    assert fv["containsjstags"] == 1


def test_e4x_flags():
    html = b"<html><script>var d = <a><b/></a>;</script></html>"
    fv = extract_features(html)
    assert fv["ishtmlwithjse4x"] == 1
    # tag names chosen to stay off the HTML-hint list
    raw = b"var d = <root><leaf/></root>; f(d);"
    fv2 = extract_features(raw, "text/javascript")
    assert fv2["isjse4x"] == 1


def test_parsingerror_inside_html_script():
    fv = extract_features(b"<html><script>var = ;;;</script></html>")
    assert fv["parsingerror"] == 1
    assert fv["ishtml"] == 1


def test_keyword_family_counts_raw_text():
    # whole-word, case-insensitive, over the raw text (tags included)
    body = b"<html><body>EVAL eval evaluate <iframe src=x></iframe></body></html>"
    fv = extract_features(body)
    assert fv["Numeval"] == 2  # "evaluate" does not match
    assert fv["iframe"] == 2   # the tag name and the closing tag
    assert fv["script"] == 0


def test_keyword_boundary_excludes_identifier_glue():
    fv = extract_features(b"myeval eval_x _eval eval$ eval")
    assert fv["Numeval"] == 1


# the keywords' letters and their case variants, identifier glue, separators, and
# characters that case-fold onto ASCII letters without lowering to them
_KEYWORD_ALPHABET = "evalscriptfomjbhyEVALSCRIPTFOMJBHY_$09 .<>\n\u017f\u212a\u0131\u0130"
_KEYWORD_PIECES = [word for _, word in KEYWORD_FAMILY] + ["\u017fcript", "i\u0130rame"]
_KEYWORD_TEXT = st.lists(st.one_of(st.text(_KEYWORD_ALPHABET, max_size=6),
                                   st.sampled_from(_KEYWORD_PIECES)),
                         max_size=30).map("".join)


@settings(max_examples=400)
@given(_KEYWORD_TEXT)
def test_one_keyword_pass_counts_what_each_word_scan_counts(text):
    assert _count_keywords(text) == [_count_word(text, word) for _, word in KEYWORD_FAMILY]


# the extraction patterns before the character test that leads each of them
_PLAIN_KEYWORD_RE = re.compile(
    r"(?<![0-9A-Za-z_$])(?:"
    + "|".join(f"({re.escape(word)})" for _, word in KEYWORD_FAMILY)
    + r")(?![0-9A-Za-z_$])",
    re.IGNORECASE,
)
_PLAIN_IP_RE = re.compile(r"(?<![0-9.])(?:\d{1,3}\.){3}\d{1,3}(?![0-9.])")


def _matches(pattern: re.Pattern, text: str) -> list:
    return [(m.span(), m.lastindex) for m in pattern.finditer(text)]


@settings(max_examples=400)
@given(st.one_of(_KEYWORD_TEXT, st.text()))
def test_keyword_pattern_matches_what_the_plain_pattern_matches(text):
    assert _matches(_KEYWORD_RE, text) == _matches(_PLAIN_KEYWORD_RE, text)


# ASCII digits, digits of other scripts that \d takes, dots and separators
_IP_ALPHABET = "0123456789..x \u0663\u06f5\u0967\uff11\U0001d7d9"
_IP_TEXT = st.lists(st.one_of(st.text(_IP_ALPHABET, max_size=5),
                              st.sampled_from(["1.2.3.4", "10.0.0.1", "255.255.255.255",
                                               "1.2.3.4.5", ".9.9.9.9", "1234.1.1.1"])),
                    max_size=20).map("".join)


@settings(max_examples=500)
@given(st.one_of(_IP_TEXT, st.text()))
def test_ip_pattern_matches_what_the_plain_pattern_matches(text):
    assert _matches(_IP_RE, text) == _matches(_PLAIN_IP_RE, text)


def test_keyword_pass_credits_case_folded_matches_to_their_word():
    # U+017F (long s) matches "s" under IGNORECASE but lowers to itself
    text = "\u017fcript SCRIPT evil.eval $eval frames"
    counts = dict(zip((feat for feat, _ in KEYWORD_FAMILY), _count_keywords(text)))
    assert counts["script"] == 2 and counts["evil"] == 1 and counts["Numeval"] == 1
    assert counts["frame"] == 0


def test_ip_address_regex():
    body = b"connect to 10.0.0.1 or 192.168.1.254 not 1.2.3.4.5 nor 999999.1.1.1"
    fv = extract_features(body)
    assert fv["IP_address"] == 2


def test_event_features_attrs_plus_script_words():
    body = (b"<html><body onload='boot()'>"
            b"<script>window.onload = go; x = 'onload';</script>"
            b"</body></html>")
    fv = extract_features(body)
    # one attribute + two occurrences inside the script source
    assert fv["onload"] == 3
    assert fv["htmlEventCount"] == 1


def test_string_statistics():
    body = b"<html><script>var a = 'abcd'; var b = 'efghijkl';</script></html>"
    fv = extract_features(body)
    assert fv["NumStrings"] == 2
    assert fv["MaxStrLen"] == 8
    assert fv["TotalStringLength"] == 12
    assert fv["AvgStringLength"] == 6.0


def test_long_string_threshold_40():
    s39 = b"a" * 39
    s40 = b"b" * 40
    body = b"<html><script>p = '" + s39 + b"'; q = '" + s40 + b"';</script></html>"
    fv = extract_features(body)
    assert fv["NumLongStrings"] == 1


def test_num_iframe_string_counts_strings_not_occurrences():
    body = (b"<html><script>u = 'iframe iframe'; v = 'clean'; "
            b"w = '<IFRAME>';</script></html>")
    fv = extract_features(body)
    assert fv["NumiframeString"] == 2


def test_filesize_and_words():
    fv = extract_features(b"one two  three\nfour")
    assert fv["Filesize"] == 19
    assert fv["NumWords"] == 4


def test_avg_linesize():
    fv = extract_features(b"abcd\nab")
    # lines "abcd" and "ab" -> (4 + 2) / 2
    assert fv["AvgLinesize"] == 3.0


def test_named_call_features():
    body = (b"<html><script>setTimeout(f, 1); setTimeout(g, 2); "
            b"setInterval(h, 3); el.addEventListener('x', f); "
            b"document.dispatchEvent(ev);</script></html>")
    fv = extract_features(body)
    assert fv["NumsetTimeout"] == 2
    assert fv["NumsetInterval"] == 1
    assert fv["NumaddEventListener"] == 1
    assert fv["NumdispatchEvent"] == 1
    assert fv["NumfireEvent"] == 0


def test_activex_and_function_calls():
    body = b"<html><script>var o = new ActiveXObject('x'); go(); o.run();</script></html>"
    fv = extract_features(body)
    assert fv["NumActiveXObject"] == 1
    assert fv["NumFunctionCalls"] == 3


def test_packer_and_bracket_features():
    body = (b"<html><script>eval(function(p,a,c,k,e,d){return p;}('q',0,0,'r',0,0));"
            b"unescape('%41'); w['ev'+'al'](z); t = obj['k'];</script></html>")
    fv = extract_features(body)
    assert fv["NumPackerFunctions"] == 2  # signature function + unescape call
    assert fv["NumBracketCalls"] == 1
    assert fv["NumBracketLookups"] == 2
    assert fv["NumReassignmentOfSpecialObject"] == 0


def test_special_reassignment_feature():
    body = b"<html><script>document = fake; window = w2;</script></html>"
    fv = extract_features(body)
    assert fv["NumReassignmentOfSpecialObject"] == 2


def test_script_tag_data_url_count():
    body = (b'<html><script src="data:text/javascript,eval(a)"></script>'
            b"<script>x = 1;</script></html>")
    fv = extract_features(body)
    assert fv["scriptTagDataURLCount"] == 1
    assert fv["containsjstags"] == 2
    # keyword family counts raw text, so only the occurrence in the URL
    assert fv["Numeval"] == 1
    # but the decoded data URL script is parsed, so the call is counted
    assert fv["NumFunctionCalls"] == 1


def test_vector_requires_full_feature_set():
    with pytest.raises(ValueError, match="feature set mismatch"):
        FeatureVector({"Filesize": 1})


def test_vector_rejects_negative():
    values = dict.fromkeys(FEATURE_ORDER, 0)
    values["NumWords"] = -1
    with pytest.raises(ValueError, match="negative"):
        FeatureVector(values)


def test_vector_rejects_bad_bool():
    values = dict.fromkeys(FEATURE_ORDER, 0)
    values["ishtml"] = 2
    with pytest.raises(ValueError, match="boolean"):
        FeatureVector(values)


def test_vector_rejects_entropy_above_8():
    values = dict.fromkeys(FEATURE_ORDER, 0)
    values["TotalEntropy"] = 8.2
    with pytest.raises(ValueError, match="entropy"):
        FeatureVector(values)


def test_vector_rejects_fractional_count():
    values = dict.fromkeys(FEATURE_ORDER, 0)
    values["NumWords"] = 1.5
    with pytest.raises(ValueError, match="integral"):
        FeatureVector(values)


def _reference_row(values):
    """The row FeatureVector.__init__ built, or the ValueError it raised, when it
    tested each column's name against the kind sets on every call."""
    got = set(values)
    want = set(FEATURE_ORDER)
    if got != want:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise ValueError(f"feature set mismatch: missing={missing} extra={extra}")
    row = []
    for name in FEATURE_ORDER:
        v = values[name]
        if isinstance(v, bool):
            v = int(v)
        if not isinstance(v, (int, float)):
            raise ValueError(f"{name}: non-numeric value {v!r}")
        if v < 0:
            raise ValueError(f"{name}: negative value {v!r}")
        if name in BOOL_FEATURES and v not in (0, 1):
            raise ValueError(f"{name}: boolean feature outside {{0,1}}: {v!r}")
        if name in ENTROPY_FEATURES and v > 8.0:
            raise ValueError(f"{name}: entropy above 8 bits/byte: {v!r}")
        if name == "ShellcodeProbability" and v > 1.0:
            raise ValueError(f"{name}: probability above 1: {v!r}")
        if name not in FLOAT_FEATURES and int(v) != v:
            raise ValueError(f"{name}: expected integral value, got {v!r}")
        row.append(int(v) if name not in FLOAT_FEATURES else float(v))
    return tuple(row)


def _valid_value(name):
    if name in BOOL_FEATURES:
        return st.sampled_from([0, 1, False, True, 0.0, 1.0])
    if name in ENTROPY_FEATURES:
        return st.floats(min_value=0.0, max_value=8.0)
    if name == "ShellcodeProbability":
        return st.floats(min_value=0.0, max_value=1.0)
    if name in FLOAT_FEATURES:
        return st.one_of(st.floats(min_value=0.0, max_value=1e9), st.integers(0, 10**6))
    return st.one_of(st.integers(0, 10**20), st.sampled_from([0.0, 3.0, 1e15]))


_VALID_VECTORS = st.fixed_dictionaries({name: _valid_value(name) for name in FEATURE_ORDER})
_ANY_VALUE = st.one_of(
    st.integers(-3, 10**20), st.booleans(), st.floats(),
    st.sampled_from([-0.0, 0.5, 1.5, 2, 8.0, 8.5, float("nan"), float("inf"), -1e-9]),
    st.sampled_from([None, "1", b"1", 1j, Decimal(1), Fraction(1, 2), [1]]))


def _outcome(build, values):
    try:
        row = build(values)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [(type(v).__name__, repr(v)) for v in row]


@settings(max_examples=500)
@given(_VALID_VECTORS, st.dictionaries(st.sampled_from(FEATURE_ORDER), _ANY_VALUE, max_size=4),
       st.sets(st.sampled_from(FEATURE_ORDER), max_size=2),
       st.dictionaries(st.text(max_size=8), _ANY_VALUE, max_size=2), st.booleans())
def test_vector_checks_match_the_per_name_checks(valid, changed, dropped, added, mutate):
    values = dict(valid)
    if mutate:
        values.update(changed)
        for name in dropped:
            del values[name]
        values.update(added)
    assert _outcome(lambda v: FeatureVector(v).as_row(), values) == _outcome(
        _reference_row, values)


def test_vector_round_trips():
    fv = extract_features(b"<html><script>var s = 'zz';</script></html>")
    assert FeatureVector.from_doc(fv.to_doc()) == fv
    assert FeatureVector(dict(zip(FEATURE_ORDER, fv.as_row()))) == fv
    assert list(fv.as_dict()) == list(FEATURE_ORDER)


def test_vector_keeps_its_repr_and_types_through_every_form():
    fv = extract_features(b"<html><script>var s = 'zz'; eval(s);</script></html>")
    values = dict(zip(FEATURE_ORDER, fv.as_row()))
    assert repr(fv) == f"FeatureVector({values!r})"
    assert repr(extract_features(b"")).startswith(
        "FeatureVector({'NumclearAttributes': 0, 'Filesize': 0, 'crypt': 0, ")
    for again in (FeatureVector(values), FeatureVector(dict(zip(FEATURE_ORDER, fv.as_row()))),
                  FeatureVector.from_doc(fv.to_doc())):
        assert again == fv and repr(again) == repr(fv) and again.as_dict() == values
        assert [type(v) for v in again.as_row()] == [type(v) for v in values.values()]
        assert all(again[name] == value for name, value in values.items())
    row = fv.as_row()
    row[0] = 99
    assert fv.as_row() != row  # the row handed out is the caller's own


def test_trusted_vector_keeps_the_stored_tuple():
    stored = tuple(extract_features(b"<p>x</p>").as_row())
    vector = FeatureVector.from_doc({"ledger": LEDGER_VERSION, "values": stored})
    assert vector.to_doc()["values"] is stored


def test_from_doc_rejects_wrong_ledger():
    fv = extract_features(b"x")
    doc = fv.to_doc()
    doc["ledger"] = "999"
    with pytest.raises(ValueError, match="ledger"):
        FeatureVector.from_doc(doc)


@settings(max_examples=300)
@given(st.binary(max_size=4096))
def test_extract_total_and_bounded(data):
    fv = extract_features(data)
    d = fv.as_dict()
    assert d["Filesize"] == len(data)
    assert 0.0 <= d["TotalEntropy"] <= 8.0
    assert 0.0 <= d["EntropyDensity"] <= 1.0
    assert 0.0 <= d["ShellcodeProbability"] <= 1.0
    for name in BOOL_FEATURES:
        assert d[name] in (0, 1)
    for name, v in d.items():
        assert v >= 0
        if name not in FLOAT_FEATURES:
            assert v == int(v)


@given(st.binary(max_size=2048), st.sampled_from(["", "text/html", "text/javascript"]))
def test_extract_deterministic(data, ctype):
    assert extract_features(data, ctype) == extract_features(data, ctype)
