"""Tolerant HTML parsing: never fails, auto-closes dangling tags.

Built on html.parser with a stack of open tag names, so that an end tag
closes the nearest open element of its name and every element opened
after it, a stray end tag closes nothing, and unknown tags count as
ordinary elements.  No element tree is kept: the parser collects only
what the feature extractor and the interaction planner read, namely
node and script counts, script sources, event attributes, and links,
forms and buttons in document order.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass, field
from html.parser import HTMLParser
from urllib.parse import unquote_to_bytes

VOID_ELEMENTS = frozenset(
    """area base br col embed hr img input link meta param source track wbr""".split()
)


@dataclass
class FormSpec:
    action: str
    fields: list[tuple[str, str]]  # (name, type)
    has_password: bool


@dataclass
class HtmlDoc:
    node_count: int = 0  # element nodes plus non-blank text runs
    script_tag_count: int = 0
    data_url_script_count: int = 0
    script_sources: list[str] = field(default_factory=list)
    event_attributes: dict[str, int] = field(default_factory=dict)
    # document-order interaction candidates: ("link", href) | ("form", FormSpec)
    # | ("button", formaction)
    interactables: list[tuple[str, object]] = field(default_factory=list)

    def event_total(self) -> int:
        return sum(self.event_attributes.values())


def _attr(attrs: list[tuple[str, str | None]], name: str) -> str | None:
    """The first `name` attribute's value; "" when it has none, None when absent."""
    for k, v in attrs:
        if k == name:
            return v if v is not None else ""
    return None


def _decode_data_url(url: str) -> str | None:
    """Extract the payload of a data: URL, or None if it cannot be read."""
    body = url[5:]
    if "," not in body:
        return None
    meta, payload = body.split(",", 1)
    if meta.lower().endswith(";base64"):
        try:
            raw = base64.b64decode(payload + "=" * (-len(payload) % 4), validate=False)
        except (binascii.Error, ValueError):
            return None
    else:
        raw = unquote_to_bytes(payload)
    return raw.decode("utf-8", "replace")


class _Collector(HTMLParser):
    def __init__(self, doc: HtmlDoc):
        super().__init__(convert_charrefs=True)
        self.doc = doc
        self.open_tags: list[str] = []
        self.script_depth = 0
        self.script_buffer: list[str] = []
        self.script_has_src = False
        self.form_stack: list[FormSpec] = []

    def _open(self, tag: str, attrs, self_closing: bool):
        doc = self.doc
        doc.node_count += 1
        for name, value in attrs:
            if name.startswith("on") and len(name) > 2:
                doc.event_attributes[name] = doc.event_attributes.get(name, 0) + 1
        if tag == "a":
            href = _attr(attrs, "href")
            if href:
                doc.interactables.append(("link", href))
        elif tag == "form":
            spec = FormSpec(action=_attr(attrs, "action") or "", fields=[],
                            has_password=False)
            doc.interactables.append(("form", spec))
            if not self_closing:
                self.form_stack.append(spec)
        elif tag == "input":
            if self.form_stack:
                name = _attr(attrs, "name")
                ftype = (_attr(attrs, "type") or "text").lower()
                if name:
                    self.form_stack[-1].fields.append((name, ftype))
                if ftype == "password":
                    self.form_stack[-1].has_password = True
        elif tag == "button":
            formaction = _attr(attrs, "formaction")
            if formaction:
                doc.interactables.append(("button", formaction))
        elif tag == "script":
            doc.script_tag_count += 1
            src = _attr(attrs, "src")
            if src and src.lower().startswith("data:"):
                doc.data_url_script_count += 1
                decoded = _decode_data_url(src)
                if decoded is not None:
                    doc.script_sources.append(decoded)
            self.script_has_src = bool(src)
        if not self_closing and tag not in VOID_ELEMENTS:
            self.open_tags.append(tag)
            if tag == "script":
                self.script_depth += 1
                self.script_buffer = []

    def handle_starttag(self, tag, attrs):
        self._open(tag, attrs, self_closing=False)

    def handle_startendtag(self, tag, attrs):
        self._open(tag, attrs, self_closing=True)
        if tag == "script" and not self.script_has_src:
            self.doc.script_sources.append("")

    def handle_endtag(self, tag):
        # close the nearest matching open element, auto-closing intermediates
        open_tags = self.open_tags
        for idx in range(len(open_tags) - 1, -1, -1):
            if open_tags[idx] == tag:
                while len(open_tags) > idx:
                    self._element_closed(open_tags.pop())
                return
        # stray end tag: ignored

    def _element_closed(self, tag: str):
        if tag == "script":
            self.script_depth -= 1
            if not self.script_has_src or self.script_buffer:
                self.doc.script_sources.append("".join(self.script_buffer))
            self.script_buffer = []
            self.script_has_src = False
        elif tag == "form" and self.form_stack:
            self.form_stack.pop()

    def handle_data(self, data):
        if self.script_depth > 0:
            self.script_buffer.append(data)
        if data.strip():
            self.doc.node_count += 1

    def finish(self):
        while self.open_tags:
            self._element_closed(self.open_tags.pop())


def parse_html(text: str) -> HtmlDoc:
    """Parse `text` into an HtmlDoc.  Never raises on malformed markup."""
    doc = HtmlDoc()
    collector = _Collector(doc)
    try:
        collector.feed(text)
        collector.close()
        if collector.cdata_elem and collector.rawdata:
            # html.parser holds a <script> or <style> left open back for its end tag
            collector.handle_data(collector.rawdata)
    except Exception:
        # html.parser is robust, but totality matters more than completeness
        pass
    collector.finish()
    return doc
