"""Static 58-feature extraction from decoded document bodies.

Every rule is written up in docs/feature_ledger.md; the ledger hash below
is embedded in trained models so that a model can refuse vectors produced
under a different ledger revision.
"""

from __future__ import annotations

import hashlib
import re
from typing import Mapping

from .entropy import shannon_entropy, shellcode_probability
from .htmlparse import HtmlDoc, parse_html
from .jsparse import JsSummary, parse_js

LEDGER_VERSION = "1"

FEATURE_ORDER: tuple[str, ...] = (
    "NumclearAttributes", "Filesize", "crypt", "NumWords", "ishtml",
    "NumLongStrings", "TotalEntropy", "NumReassignmentOfSpecialObject",
    "onerror", "isjs", "NumActiveXObject", "MaxStringEntropy", "NumKeywords",
    "NumfireEvent", "NumreplaceNode", "NumBracketLookups",
    "ShellcodeProbability", "AvgStringLength", "EntropyDensity",
    "NumattachEvent", "containsjstags", "TotalStringEntropy", "onunload",
    "script", "NumHTMLNodes", "MaxStrLen", "IP_address", "NumBracketCalls",
    "NuminsertAdjacentElement", "NumNodes", "ishtmlwithjse4x", "NumStrings",
    "evil", "NumiframeString", "NumaddEventListener", "NumsetInterval",
    "scriptTagDataURLCount", "htmlEventCount", "AvgLinesize", "shell",
    "NumPackerFunctions", "parsingerror", "ishtmlwithjs", "onload",
    "NumsetTimeout", "TotalStringLength", "embed", "Numeval", "object",
    "frame", "spray", "NumLongVarOrFunNames", "iframe", "isjse4x",
    "NumdispatchEvent", "form", "NumFunctionCalls", "onbeforeload",
)

FLOAT_FEATURES = frozenset(
    ["TotalEntropy", "MaxStringEntropy", "TotalStringEntropy",
     "EntropyDensity", "ShellcodeProbability", "AvgStringLength", "AvgLinesize"]
)
BOOL_FEATURES = frozenset(
    ["ishtml", "isjs", "ishtmlwithjs", "ishtmlwithjse4x", "isjse4x", "parsingerror"]
)
ENTROPY_FEATURES = frozenset(["TotalEntropy", "MaxStringEntropy", "TotalStringEntropy"])

LONG_STRING_LEN = 40

# feature name -> token counted case-insensitively over the whole raw text
KEYWORD_FAMILY = (
    ("Numeval", "eval"), ("script", "script"), ("iframe", "iframe"),
    ("form", "form"), ("embed", "embed"), ("object", "object"),
    ("frame", "frame"), ("shell", "shell"), ("spray", "spray"),
    ("crypt", "crypt"), ("evil", "evil"),
)

EVENT_FEATURES = ("onload", "onerror", "onunload", "onbeforeload")

# feature name -> function name counted from direct call expressions
NAMED_CALL_FEATURES = (
    ("NumclearAttributes", "clearAttributes"),
    ("NumfireEvent", "fireEvent"),
    ("NumreplaceNode", "replaceNode"),
    ("NuminsertAdjacentElement", "insertAdjacentElement"),
    ("NumaddEventListener", "addEventListener"),
    ("NumsetInterval", "setInterval"),
    ("NumsetTimeout", "setTimeout"),
    ("NumdispatchEvent", "dispatchEvent"),
    ("NumattachEvent", "attachEvent"),
)

# a dotted quad not touching another digit or dot; led by the bare \d so
# the scan can skip to a digit before it tests the character behind it
_IP_RE = re.compile(r"\d(?<![0-9.]\d)\d{0,2}\.(?:\d{1,3}\.){2}\d{1,3}(?![0-9.])")

# a document is treated as HTML when it contains at least one tag with a
# recognized name; unknown tags alone do not flip the flag
_HTML_HINT_RE = re.compile(
    r"<\s*(?:!doctype\b|html\b|head\b|body\b|title\b|meta\b|link\b|script\b|"
    r"style\b|div\b|span\b|p\b|a\b|img\b|br\b|hr\b|iframe\b|frame\b|frameset\b|"
    r"form\b|input\b|button\b|table\b|tr\b|td\b|th\b|ul\b|ol\b|li\b|h[1-6]\b|"
    r"em\b|b\b|i\b|strong\b|pre\b|code\b|object\b|embed\b|applet\b|center\b|font\b)",
    re.IGNORECASE,
)

# cheap signal that plain text might be JavaScript worth parsing
_JS_HINT_RE = re.compile(
    r"[;{}()=\[\]]|\b(?:var|let|const|function|return|eval|if|else|for|while|"
    r"new|typeof|document|window)\b"
)

_WORD_PATTERNS: dict[str, re.Pattern[str]] = {}

# every KEYWORD_FAMILY word at once, group i + 1 matching word i; the
# lookahead for the words' first letters lets the scan skip to a candidate
# before it tests the lookbehind
_KEYWORD_RE = re.compile(
    r"(?=[" + "".join(sorted({word[0] for _, word in KEYWORD_FAMILY})) + r"])"
    r"(?<![0-9A-Za-z_$])(?:"
    + "|".join(f"({re.escape(word)})" for _, word in KEYWORD_FAMILY)
    + r")(?![0-9A-Za-z_$])",
    re.IGNORECASE,
)


def _count_word(text: str, word: str) -> int:
    pat = _WORD_PATTERNS.get(word)
    if pat is None:
        pat = re.compile(
            r"(?<![0-9A-Za-z_$])" + re.escape(word) + r"(?![0-9A-Za-z_$])",
            re.IGNORECASE,
        )
        _WORD_PATTERNS[word] = pat
    return len(pat.findall(text))


def _count_keywords(text: str) -> list[int]:
    """_count_word(text, word) for each KEYWORD_FAMILY word, in one pass.

    Two matches each bounded by non-identifier characters cannot overlap,
    so one scan finds what the scans per word find.  A match is credited
    by its group number, never by its lowered text: under IGNORECASE the
    long s and the Kelvin sign match "s" and "k" but do not lower to them.
    """
    counts = [0] * len(KEYWORD_FAMILY)
    for match in _KEYWORD_RE.finditer(text):
        counts[match.lastindex - 1] += 1
    return counts


def ledger_hash() -> str:
    """SHA-256 over the ledger version and the feature column order."""
    payload = "websift-feature-ledger v" + LEDGER_VERSION + "\n" + "\n".join(FEATURE_ORDER)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# feature name -> its column in FEATURE_ORDER
_COLUMN = {name: i for i, name in enumerate(FEATURE_ORDER)}
_FEATURE_SET = frozenset(FEATURE_ORDER)

# each column's kind, which decides the range check it gets and how its value is kept
_BOOL, _ENTROPY, _PROBABILITY, _INTEGRAL, _FLOAT = range(5)
_COLUMN_KINDS = tuple(
    (name, _BOOL if name in BOOL_FEATURES
     else _ENTROPY if name in ENTROPY_FEATURES
     else _PROBABILITY if name == "ShellcodeProbability"
     else _FLOAT if name in FLOAT_FEATURES
     else _INTEGRAL)
    for name in FEATURE_ORDER)


class FeatureVector:
    """Immutable mapping of the 58 feature names to numeric values.

    The values are one tuple in ledger column order, so a vector costs a
    row, not a dict, and a store can hand out the row it holds.
    """

    __slots__ = ("_row",)

    def __init__(self, values: Mapping[str, float]):
        got = set(values)
        if got != _FEATURE_SET:
            missing = sorted(_FEATURE_SET - got)
            extra = sorted(got - _FEATURE_SET)
            raise ValueError(f"feature set mismatch: missing={missing} extra={extra}")
        row: list[float] = []
        for name, kind in _COLUMN_KINDS:
            v = values[name]
            if isinstance(v, bool):
                v = int(v)
            if not isinstance(v, (int, float)):
                raise ValueError(f"{name}: non-numeric value {v!r}")
            if v < 0:
                raise ValueError(f"{name}: negative value {v!r}")
            if kind == _INTEGRAL:
                if (i := int(v)) != v:
                    raise ValueError(f"{name}: expected integral value, got {v!r}")
                row.append(i)
            elif kind == _BOOL:
                if v not in (0, 1):
                    raise ValueError(f"{name}: boolean feature outside {{0,1}}: {v!r}")
                row.append(int(v))
            else:
                if kind == _ENTROPY and v > 8.0:
                    raise ValueError(f"{name}: entropy above 8 bits/byte: {v!r}")
                if kind == _PROBABILITY and v > 1.0:
                    raise ValueError(f"{name}: probability above 1: {v!r}")
                row.append(float(v))
        self._row = tuple(row)

    def __getitem__(self, name: str) -> float:
        return self._row[_COLUMN[name]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FeatureVector) and self._row == other._row

    def __repr__(self) -> str:
        return f"FeatureVector({self.as_dict()!r})"

    def as_row(self) -> list[float]:
        """Values in ledger column order."""
        return list(self._row)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_ORDER, self._row))

    def to_doc(self) -> dict:
        return {"ledger": LEDGER_VERSION, "values": self._row}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "FeatureVector":
        """The vector a to_doc() document holds, its stored tuple kept as the row.

        Only a FlowStore builds vectors this way, from documents it wrote
        from vectors that passed __init__'s checks, so the per-value checks
        are skipped; the ledger and the value count are still checked.
        """
        if doc.get("ledger") != LEDGER_VERSION:
            raise ValueError(f"feature ledger mismatch: {doc.get('ledger')!r}")
        values = doc["values"]
        if len(values) != len(FEATURE_ORDER):
            raise ValueError(f"expected {len(FEATURE_ORDER)} values, got {len(values)}")
        vector = cls.__new__(cls)
        vector._row = tuple(values)
        return vector


def _declared_is_js(declared_type: str) -> bool:
    t = declared_type.lower()
    return "javascript" in t or "ecmascript" in t


def extract_features(data: bytes, declared_type: str = "") -> FeatureVector:
    """Compute the 58-feature vector for a decoded document body.

    Total on arbitrary byte input: undecodable bytes are replaced, HTML is
    parsed tolerantly, and JavaScript grammar failures surface only through
    the parsingerror feature.
    """
    text = data.decode("utf-8", "replace")
    f: dict[str, float] = dict.fromkeys(FEATURE_ORDER, 0)

    f["Filesize"] = len(data)
    f["TotalEntropy"] = shannon_entropy(data)
    f["EntropyDensity"] = f["TotalEntropy"] / 8.0
    f["NumWords"] = len(text.split())
    lines = text.split("\n")
    f["AvgLinesize"] = (sum(len(ln) for ln in lines) / len(lines)) if text else 0.0
    for (feat, _), count in zip(KEYWORD_FAMILY, _count_keywords(text)):
        f[feat] = count
    f["IP_address"] = len(_IP_RE.findall(text))

    doc: HtmlDoc | None = None
    js_sources: list[str] = []
    attempted_js = False
    if _HTML_HINT_RE.search(text):
        doc = parse_html(text)
        f["ishtml"] = 1
        f["NumHTMLNodes"] = doc.node_count
        f["containsjstags"] = doc.script_tag_count
        f["scriptTagDataURLCount"] = doc.data_url_script_count
        f["htmlEventCount"] = doc.event_total()
        js_sources = [s for s in doc.script_sources if s.strip()]
        attempted_js = bool(js_sources)
    else:
        declared_js = _declared_is_js(declared_type)
        if text.strip() and (declared_js or _JS_HINT_RE.search(text)):
            js_sources = [text]
            attempted_js = True

    scripts: list[JsSummary] = [parse_js(src) for src in js_sources]
    all_ok = all(js.parse_ok for js in scripts)
    if attempted_js and not all_ok:
        f["parsingerror"] = 1

    if doc is not None:
        if js_sources:
            f["ishtmlwithjs"] = 1
        if any(js.has_e4x for js in scripts):
            f["ishtmlwithjse4x"] = 1
    elif attempted_js:
        declared_js = _declared_is_js(declared_type)
        significant = any(js.has_significant_tokens for js in scripts)
        if all_ok and (declared_js or significant):
            f["isjs"] = 1
            if any(js.has_e4x for js in scripts):
                f["isjse4x"] = 1

    strings: list[str] = []
    for js in scripts:
        strings.extend(js.strings)
        f["NumKeywords"] += js.n_keywords
        f["NumLongVarOrFunNames"] += js.n_long_names
        f["NumNodes"] += js.nodes
        f["NumFunctionCalls"] += js.direct_calls
        f["NumBracketCalls"] += js.bracket_calls
        f["NumBracketLookups"] += js.bracket_lookups
        f["NumReassignmentOfSpecialObject"] += js.special_reassignments
        f["NumPackerFunctions"] += js.packer_total()
        f["NumActiveXObject"] += js.named("ActiveXObject")
        for feat, fn_name in NAMED_CALL_FEATURES:
            f[feat] += js.named(fn_name)

    f["NumStrings"] = len(strings)
    if strings:
        lengths = [len(s) for s in strings]
        f["MaxStrLen"] = max(lengths)
        f["TotalStringLength"] = sum(lengths)
        f["AvgStringLength"] = f["TotalStringLength"] / len(strings)
        f["NumLongStrings"] = sum(1 for n in lengths if n >= LONG_STRING_LEN)
        f["MaxStringEntropy"] = max(
            shannon_entropy(s.encode("utf-8", "replace")) for s in strings
        )
        f["TotalStringEntropy"] = shannon_entropy(
            b"".join(s.encode("utf-8", "replace") for s in strings)
        )
        f["ShellcodeProbability"] = shellcode_probability(strings)
        f["NumiframeString"] = sum(1 for s in strings if _count_word(s, "iframe"))

    attr_counts = doc.event_attributes if doc is not None else {}
    for name in EVENT_FEATURES:
        f[name] = attr_counts.get(name, 0) + sum(
            _count_word(src, name) for src in js_sources
        )

    return FeatureVector(f)
