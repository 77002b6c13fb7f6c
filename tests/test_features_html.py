"""Tolerant HTML parsing: node counts, script capture, interaction targets."""

from hypothesis import given
from hypothesis import strategies as st

from websift.features import extract_features
from websift.features.htmlparse import _attr, parse_html


def fields(html):
    """The fields of each form in `html`, in document order."""
    return [spec.fields for kind, spec in parse_html(html).interactables if kind == "form"]


def test_empty_document():
    doc = parse_html("")
    assert doc.node_count == 0
    assert doc.script_tag_count == 0
    assert doc.script_sources == []
    assert doc.interactables == []


def test_node_count_elements_plus_text_runs():
    # 3 elements (html, body, p) + 1 non-blank text run
    doc = parse_html("<html><body><p>hello</p></body></html>")
    assert doc.node_count == 4


def test_blank_text_runs_do_not_count():
    doc = parse_html("<div>  \n  </div>")
    assert doc.node_count == 1


def test_unclosed_tags_auto_close():
    doc = parse_html("<div><span>text")
    assert doc.node_count == 3
    # a form still open at the end keeps every field after it
    assert fields("<div><form action=/f><input name=a>") == [[("a", "text")]]


def test_stray_end_tag_ignored():
    doc = parse_html("</div><p>ok</p>")
    assert doc.node_count == 2
    # a stray </form> before a form closes nothing
    assert fields("</form><form action=/f><input name=a></form>") == [[("a", "text")]]


def test_end_tag_closes_nearest_match():
    # </div> closes the form opened inside the div, so b is no field
    assert fields("<div><form action=/f></div><input name=b>") == [[]]
    # the inner form closes first; x belongs to the outer one
    assert fields("<form action=/a><form action=/b></form><input name=x></form>") == [
        [("x", "text")], []]


def test_void_elements_take_no_children():
    doc = parse_html("<br><p>x</p>")
    assert doc.node_count == 3
    # a void element is never open, so its end tag is stray and closes nothing
    assert fields("<br><form action=/f></br><input name=a>") == [[("a", "text")]]


def test_inline_script_source_captured():
    doc = parse_html("<script>var a = 1;</script>")
    assert doc.script_tag_count == 1
    assert doc.script_sources == ["var a = 1;"]


def test_unclosed_script_keeps_its_source():
    # html.parser holds script text back until it sees the end tag
    doc = parse_html("<html><script>eval(unescape(x))")
    assert doc.script_tag_count == 1
    assert doc.script_sources == ["eval(unescape(x))"]
    # html and script elements plus the script's text run, as when closed
    assert doc.node_count == parse_html("<html><script>eval(unescape(x))</script>").node_count
    features = extract_features(b"<html><script>eval(unescape(x))", "text/html").as_dict()
    assert features["ishtmlwithjs"] == 1 and features["Numeval"] == 1


def test_script_with_src_contributes_no_source():
    doc = parse_html('<script src="lib.js"></script>')
    assert doc.script_tag_count == 1
    assert doc.script_sources == []


def test_multiple_scripts_in_order():
    doc = parse_html("<script>1;</script><p>x</p><script>2;</script>")
    assert doc.script_sources == ["1;", "2;"]


def test_data_url_script_base64():
    import base64
    payload = base64.b64encode(b"eval(x)").decode()
    doc = parse_html(f'<script src="data:text/javascript;base64,{payload}"></script>')
    assert doc.data_url_script_count == 1
    assert doc.script_sources == ["eval(x)"]


def test_data_url_script_percent_encoded():
    doc = parse_html('<script src="data:text/javascript,alert(%221%22)"></script>')
    assert doc.data_url_script_count == 1
    assert doc.script_sources == ['alert("1")']


def test_event_attributes_counted_by_name():
    doc = parse_html('<body onload="f()"><img onerror="g()"><div onload="h()">')
    assert doc.event_attributes == {"onload": 2, "onerror": 1}
    assert doc.event_total() == 3


def test_plain_on_attribute_is_not_an_event():
    doc = parse_html('<div on="x">')
    assert doc.event_attributes == {}


def test_links_collected_in_order():
    doc = parse_html('<a href="/x">x</a><a>skip</a><a href>empty</a><a href="/y">y</a>')
    assert doc.interactables == [("link", "/x"), ("link", "/y")]


def test_repeated_attribute_first_wins():
    doc = parse_html('<a href="/first" href="/second">x</a>')
    assert doc.interactables == [("link", "/first")]
    assert fields('<form><input name="a" name="b" type="password" type="text"></form>') == [
        [("a", "password")]]


def test_form_fields_and_password_flag():
    doc = parse_html(
        '<form action="/login" method="POST">'
        '<input name="user" type="text">'
        '<input name="pass" type="password">'
        '<input type="submit">'
        "</form>"
    )
    kind, form = doc.interactables[0]
    assert kind == "form"
    assert form.action == "/login"
    assert form.fields == [("user", "text"), ("pass", "password")]
    assert form.has_password


def test_input_without_type_defaults_to_text():
    doc = parse_html('<form><input name="q"><input name="r" type></form>')
    _, form = doc.interactables[0]
    assert form.action == ""
    assert form.fields == [("q", "text"), ("r", "text")]
    assert not form.has_password


def test_inputs_outside_forms_ignored():
    assert fields('<input name="stray"><form action="/s"></form>') == [[]]
    # a self-closed form holds no fields
    assert fields('<form action="/s"/><input name="after">') == [[]]


def test_interactables_document_order():
    doc = parse_html(
        '<a href="/first">1</a>'
        '<form action="/f"></form>'
        '<button formaction="/b">go</button>'
        '<a href="/last">2</a>'
    )
    kinds = [(kind, tgt if kind != "form" else tgt.action)
             for kind, tgt in doc.interactables]
    assert kinds == [("link", "/first"), ("form", "/f"),
                     ("button", "/b"), ("link", "/last")]


def test_button_without_formaction_not_interactable():
    doc = parse_html("<button>plain</button><button formaction>bare</button>")
    assert doc.interactables == []


def test_uppercase_tags_normalized():
    doc = parse_html("<DIV><SCRIPT>x=1;</SCRIPT></DIV>")
    assert doc.script_tag_count == 1
    assert doc.script_sources == ["x=1;"]


def test_attribute_lookup_rule():
    attrs = [("href", "/z"), ("data-k", None), ("href", "/later")]
    assert _attr(attrs, "href") == "/z"
    assert _attr(attrs, "data-k") == ""
    assert _attr(attrs, "missing") is None


def test_uppercase_attribute_names_normalized():
    doc = parse_html('<A HREF="/z" data-k>link</A><BUTTON FormAction="/b">')
    assert doc.interactables == [("link", "/z"), ("button", "/b")]


@given(st.text(max_size=800))
def test_parse_total_on_arbitrary_text(text):
    doc = parse_html(text)
    assert doc.node_count >= doc.script_tag_count + len(doc.interactables)
    assert doc.script_tag_count >= doc.data_url_script_count
    assert doc.event_total() == sum(doc.event_attributes.values())
