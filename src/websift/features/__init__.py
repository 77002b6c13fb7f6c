"""Static HTML/JavaScript feature extraction (58-column vector)."""

from .entropy import shannon_entropy, shellcode_probability
from .extract import (
    BOOL_FEATURES,
    FEATURE_ORDER,
    FLOAT_FEATURES,
    LEDGER_VERSION,
    LONG_STRING_LEN,
    FeatureVector,
    extract_features,
    ledger_hash,
)
from .htmlparse import FormSpec, HtmlDoc, parse_html
from .jsparse import JsSummary, Token, parse_js, tokenize

__all__ = [
    "BOOL_FEATURES",
    "FEATURE_ORDER",
    "FLOAT_FEATURES",
    "FeatureVector",
    "FormSpec",
    "HtmlDoc",
    "JsSummary",
    "LEDGER_VERSION",
    "LONG_STRING_LEN",
    "Token",
    "extract_features",
    "ledger_hash",
    "parse_html",
    "parse_js",
    "shannon_entropy",
    "shellcode_probability",
    "tokenize",
]
