"""Tolerant JavaScript tokenizer and counting parser.

Tokenization never fails: unknown characters become junk tokens and
unterminated literals are closed at end of input (flagging a lex error).
One compiled pattern takes the tokens that need no context; numbers,
strings, templates, and the regex and E4X literals that only an expression
position allows keep hand-written scanners (docs/feature_ledger.md states
the lexical rules).  The grammar is deliberately small; it recognizes the
constructs the feature extractor counts (calls, member and bracket access,
assignments, literals, function definitions) and recovers at statement
boundaries when it cannot parse something, leaving `parse_ok` false.
Both passes take linear time, hostile sources included.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

KEYWORDS = frozenset(
    """break case catch class const continue debugger default delete do else
    export extends finally for function if import in instanceof let new return
    super switch this throw try typeof var void while with yield await
    null true false undefined""".split()
)

SPECIAL_OBJECTS = frozenset(
    ["this", "window", "document", "location", "self", "top", "parent", "navigator"]
)

PACKER_PARAMS = ("p", "a", "c", "k", "e", "d")
PACKER_CALL_NAMES = frozenset(["unescape", "unpack"])

LONG_NAME_LEN = 30

ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "**=", "<<=", ">>=", ">>>=",
     "&=", "|=", "^=", "&&=", "||=", "??="]
)

_BINARY_BP = {
    "??": 1, "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10, "**": 11,
}

_MAX_PARSE_DEPTH = 200


@dataclass
class Token:
    kind: str  # ident, keyword, num, str, regex, xml, punct, junk, eof
    text: str
    pos: int
    value: str | None = None  # decoded literal content for str tokens


@dataclass
class JsSummary:
    """What the feature extractor reads from one parsed script source.

    `nodes` counts the grammar constructs the parser keeps (the script as a
    whole is not one of them); the call, lookup, reassignment and packer
    counts are taken while parsing, from the same constructs.
    """

    strings: list[str]
    parse_ok: bool
    has_e4x: bool
    n_keywords: int
    n_long_names: int
    has_significant_tokens: bool
    nodes: int
    direct_calls: int
    bracket_calls: int
    bracket_lookups: int
    special_reassignments: int
    packer_functions: int
    named_calls: dict[str, int]

    def named(self, name: str) -> int:
        return self.named_calls.get(name, 0)

    def packer_total(self) -> int:
        hits = self.packer_functions
        for name in PACKER_CALL_NAMES:
            hits += self.named(name)
        return hits


class _ParseFail(Exception):
    pass


# ---------------------------------------------------------------------------
# tokenizer

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
            "v": "\v", "0": "\0", "'": "'", '"': '"', "`": "`", "\\": "\\"}

# what may follow a backslash besides one character: a hex or Unicode escape,
# or a line continuation, which ECMA-262 allows before any line terminator
_ESCAPE_RE = re.compile(
    r"x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|u\{([0-9a-fA-F]+)\}|\r\n|[\n\r\u2028\u2029]")

# tokens after which a '/' or '<' starts an expression rather than an operator
_EXPR_KEYWORDS = frozenset(
    ["return", "typeof", "delete", "void", "new", "in", "instanceof", "case",
     "throw", "yield", "await", "do", "else"]
)


# Every token that needs no context, one alternative per token class.
# `\s` is exactly `str.isspace` and `[\w$]` exactly "`isalnum`, `_` or `$`"
# on every code point.  Identifier starts and digits are not expressible
# (`[^\W\d]` is not `isalpha`, `\d` is not `isdigit`), so `run` takes a
# `word` as an identifier only when its first character may start one, and
# numbers keep their hand-written scanner.  Punctuators are tried longest
# first; `//` and `/*` are comments wherever they stand.
_TOKEN_RE = re.compile(
    r"(?P<skip>\s+|//[^\n]*\n?|/\*(?s:.*?\*/|.*))"
    r"|(?P<word>[\w$]+)"
    r"|(?P<punct>>>>=|\.\.\.|===|!==|\*\*=|<<=|>>=|>>>|&&=|\|\|=|\?\?="
    r"|=>|==|!=|<=|>=|&&|\|\||\?\?|\?\.|\+\+|--"
    r"|\+=|-=|\*=|/=|%=|&=|\|=|\^=|\*\*|<<|>>"
    r"|[-+*/%=<>!&|^~?:;,.()\[\]{}])"
)


class _Lexer:
    def __init__(self, src: str):
        self.src = src
        self.i = 0
        self.n = len(src)
        self.tokens: list[Token] = []
        self.lex_error = False
        self.has_e4x = False
        # the (position, in-class) states regex scans passed, one per in-class
        self._regex_seen: tuple[bytearray, bytearray] | None = None

    def _expression_position(self) -> bool:
        prev = self.tokens[-1] if self.tokens else None
        if prev is None:
            return True
        if prev.kind == "punct":
            return prev.text not in (")", "]", "}")
        if prev.kind == "keyword":
            return prev.text in _EXPR_KEYWORDS
        return False  # ident, num, str, regex, xml

    def run(self) -> list[Token]:
        src, n, tokens = self.src, self.n, self.tokens
        match = _TOKEN_RE.match
        i = 0
        while i < n:
            m = match(src, i)
            group = m.lastgroup if m else None
            ch = src[i]
            if group == "skip":
                i = m.end()
                continue
            if group == "word" and (ch.isalpha() or ch in "_$"):
                text = m.group()
                tokens.append(Token("keyword" if text in KEYWORDS else "ident", text, i))
                i = m.end()
                continue
            if group == "punct" and ch not in "./<":
                tokens.append(Token("punct", m.group(), i))
                i = m.end()
                continue
            # context, escapes or Unicode decide the rest
            self.i = i
            if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
                self._number()
            elif ch in "'\"":
                self._string(ch)
            elif ch == "`":
                self._template()
            elif ch == "/" and self._expression_position() and self._regex():
                pass
            elif ch == "<" and self._expression_position() and i + 1 < n \
                    and (src[i + 1].isalpha() or src[i + 1] == "_"):
                self._xml()
            elif group == "punct":
                tokens.append(Token("punct", m.group(), i))
                self.i = m.end()
            else:  # a character that starts no token, such as `@` or `½`
                tokens.append(Token("junk", ch, i))
                self.i = i + 1
            i = self.i
        tokens.append(Token("eof", "", n))
        return tokens

    def _number(self):
        start = self.i
        src, n = self.src, self.n
        if src[self.i] == "0" and self.i + 1 < n and src[self.i + 1] in "xXoObB":
            self.i += 2
            while self.i < n and (src[self.i].isalnum() or src[self.i] == "_"):
                self.i += 1
        else:
            seen_dot = False
            seen_exp = False
            while self.i < n:
                c = src[self.i]
                if c.isdigit():
                    self.i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    self.i += 1
                elif c in "eE" and not seen_exp and self.i + 1 < n \
                        and (src[self.i + 1].isdigit() or src[self.i + 1] in "+-"):
                    seen_exp = True
                    self.i += 2
                else:
                    break
        self.tokens.append(Token("num", src[start:self.i], start))

    def _decode_escape(self) -> str:
        # self.i points at the char after the backslash
        m = _ESCAPE_RE.match(self.src, self.i)
        if m:
            self.i = m.end()
            if m.lastindex is None:
                return ""  # line continuation
            code = int(m.group(m.lastindex), 16)
            return chr(code) if code < 0x110000 else "u"
        if self.i >= self.n:
            return ""
        c = self.src[self.i]
        self.i += 1
        return _ESCAPES.get(c, c)

    def _string(self, quote: str):
        start = self.i
        src, n = self.src, self.n
        self.i += 1
        out: list[str] = []
        closed = False
        while self.i < n:
            c = src[self.i]
            if c == quote:
                self.i += 1
                closed = True
                break
            if c == "\\":
                self.i += 1
                out.append(self._decode_escape())
                continue
            if c == "\n":
                break  # unterminated on this line
            out.append(c)
            self.i += 1
        if not closed:
            self.lex_error = True
        self.tokens.append(Token("str", src[start:self.i], start, value="".join(out)))

    def _template(self):
        start = self.i
        src, n = self.src, self.n
        self.i += 1
        out: list[str] = []
        depth = 0
        closed = False
        while self.i < n:
            c = src[self.i]
            if c == "\\":
                self.i += 1
                out.append(self._decode_escape())
                continue
            if c == "`" and depth == 0:
                self.i += 1
                closed = True
                break
            if c == "$" and self.i + 1 < n and src[self.i + 1] == "{":
                depth += 1
                out.append(c)
                self.i += 1
                continue
            if c == "}" and depth > 0:
                depth -= 1
            out.append(c)
            self.i += 1
        if not closed:
            self.lex_error = True
        self.tokens.append(Token("str", src[start:self.i], start, value="".join(out)))

    def _regex(self) -> bool:
        # attempt to scan a regex literal; return False to fall back to punct.
        # Each (position, in-class) state fixes the next, so a scan that
        # reaches a state an earlier scan passed fails: that scan failed from
        # there, or succeeded and the lexer is already past it.
        src, n = self.src, self.n
        if self._regex_seen is None:
            self._regex_seen = (bytearray(n), bytearray(n))
        start = self.i
        i = self.i + 1
        in_class = False
        seen = self._regex_seen[0]
        while i < n:
            if seen[i]:
                return False
            seen[i] = 1
            c = src[i]
            if c == "\\":
                i += 2
                continue
            if c == "\n":
                return False
            if c == "[":
                in_class = True
                seen = self._regex_seen[1]
            elif c == "]":
                in_class = False
                seen = self._regex_seen[0]
            elif c == "/" and not in_class:
                i += 1
                while i < n and src[i].isalpha():
                    i += 1
                self.tokens.append(Token("regex", src[start:i], start))
                self.i = i
                return True
            i += 1
        return False

    def _xml(self):
        # E4X-style XML literal: consume balanced tags, tolerate anything else
        src, n = self.src, self.n
        start = self.i
        depth = 0
        i = self.i
        saw_tag = False
        while i < n:
            if src[i] == "<":
                closing = i + 1 < n and src[i + 1] == "/"
                j = i + 1
                quote = None
                while j < n:
                    c = src[j]
                    if quote:
                        if c == quote:
                            quote = None
                    elif c in "'\"":
                        quote = c
                    elif c == ">":
                        break
                    j += 1
                if j >= n:
                    self.lex_error = True
                    i = n
                    break
                self_closing = src[j - 1] == "/"
                if closing:
                    depth -= 1
                elif not self_closing:
                    depth += 1
                saw_tag = True
                i = j + 1
                if depth <= 0:
                    break
            else:
                i += 1
        if not saw_tag:
            self.lex_error = True
        self.has_e4x = True
        self.tokens.append(Token("xml", src[start:i], start))
        self.i = i


def tokenize(src: str) -> tuple[list[Token], bool, bool]:
    """Tokenize `src`; returns (tokens, lex_error, has_e4x)."""
    lx = _Lexer(src)
    toks = lx.run()
    return toks, lx.lex_error, lx.has_e4x


# ---------------------------------------------------------------------------
# parser
#
# The parser keeps no tree. Where a grammar construct is recognized it adds
# one to `nodes` and to whichever structural count the construct feeds.
# Expression methods return only what their caller inspects: the kind of
# the construct (the callee of a call, the target of an assignment) and
# the name a call through it would carry.

_SIGNIFICANT_PUNCTS = set(";{}()[]=")
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_PREFIX_OPS = ("!", "~", "+", "-", "++", "--")
_PREFIX_KEYWORDS = ("typeof", "void", "delete", "await", "yield")


def _closers(tokens: list[Token]) -> dict[int, int]:
    # index of each opening bracket -> index of its closing one; any closing
    # bracket closes any opening one, and one left open maps to eof
    closers: dict[int, int] = {}
    open_at: list[int] = []
    for k, t in enumerate(tokens):
        if t.kind == "punct":
            if t.text in _OPENERS:
                open_at.append(k)
            elif t.text in _CLOSERS and open_at:
                closers[open_at.pop()] = k
    for k in open_at:
        closers[k] = len(tokens) - 1
    return closers


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.closers = _closers(tokens)
        self.i = 0
        self.ok = True
        self.depth = 0
        self.nodes = 0
        self.direct_calls = 0
        self.bracket_calls = 0
        self.bracket_lookups = 0
        self.special_reassignments = 0
        self.packer_functions = 0
        self.call_names: list[str] = []

    # --- token helpers

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def at_punct(self, text: str) -> bool:
        return self.at("punct", text)

    def expect_punct(self, text: str):
        if not self.at_punct(text):
            raise _ParseFail()
        self.next()

    def eat_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    def eat_keyword(self, text: str) -> bool:
        if self.at("keyword", text):
            self.next()
            return True
        return False

    # --- counts

    def _mark(self) -> tuple[int, ...]:
        return (self.nodes, self.direct_calls, self.bracket_calls, self.bracket_lookups,
                self.special_reassignments, self.packer_functions, len(self.call_names))

    def _reset(self, mark: tuple[int, ...]) -> None:
        """Drop what was counted since `mark`: the parser did not keep it."""
        (self.nodes, self.direct_calls, self.bracket_calls, self.bracket_lookups,
         self.special_reassignments, self.packer_functions, n_names) = mark
        del self.call_names[n_names:]

    def _count_call(self, name: str | None) -> None:
        self.direct_calls += 1
        if name is not None:
            self.call_names.append(name)

    # --- entry

    def parse_program(self) -> None:
        while not self.at("eof"):
            mark = self._mark()
            try:
                self.statement()
            except (_ParseFail, RecursionError):
                self.ok = False
                self.depth = 0
                self._reset(mark)
                self._resync()

    def _resync(self):
        # skip to just past the next statement boundary
        while not self.at("eof"):
            t = self.next()
            if t.kind == "punct" and t.text in (";", "}"):
                return
        return

    # --- statements

    def statement(self) -> None:
        t = self.peek()
        kw = t.text if t.kind == "keyword" else None
        if t.kind == "punct" and t.text == "{":
            self.block()
            return
        if kw in ("var", "let", "const"):
            self.var_decl()
            return
        if kw == "function":
            self.function_def()
            return
        if kw == "class":
            self.class_def()
            return
        # each statement below is one node, plus what it contains
        if t.kind == "punct" and t.text == ";":
            self.next()
        elif kw == "if":
            self.if_stmt()
        elif kw == "for":
            self.for_stmt()
        elif kw == "while":
            self.while_stmt()
        elif kw == "do":
            self.do_stmt()
        elif kw in ("return", "throw"):
            self.next()
            if not self.at("eof") and not self.at_punct(";") and not self.at_punct("}"):
                self.expression()
            self.eat_punct(";")
        elif kw == "try":
            self.try_stmt()
        elif kw == "switch":
            self.switch_stmt()
        elif kw in ("break", "continue"):
            self.next()
            if self.at("ident"):
                self.next()
            self.eat_punct(";")
        elif kw == "debugger":
            self.next()
            self.eat_punct(";")
        elif kw in ("import", "export"):
            self.module_stmt()
        elif t.kind == "ident" and self.toks[self.i + 1].kind == "punct" \
                and self.toks[self.i + 1].text == ":":
            self.next()
            self.next()
            self.statement()
        else:
            self.expression()
            self.eat_punct(";")
        self.nodes += 1

    def block(self) -> None:
        self.expect_punct("{")
        self.nodes += 1
        while not self.at_punct("}"):
            if self.at("eof"):
                raise _ParseFail()
            self.statement()
        self.next()

    def var_decl(self) -> None:
        self.next()
        self.nodes += 1
        while True:
            self.declarator()
            if not self.eat_punct(","):
                break
        self.eat_punct(";")

    def declarator(self) -> None:
        t = self.peek()
        if t.kind == "punct" and t.text in ("[", "{"):
            self._skip_balanced()
        elif t.kind == "ident" or (t.kind == "keyword" and t.text in ("undefined",)):
            self.next()
        else:
            raise _ParseFail()
        self.nodes += 2  # the declarator and its target
        if self.eat_punct("="):
            self.assignment()

    def _skip_balanced(self):
        open_t = self.next().text
        close_t = {"[": "]", "{": "}", "(": ")"}[open_t]
        depth = 1
        while depth and not self.at("eof"):
            t = self.next()
            if t.kind == "punct":
                if t.text == open_t:
                    depth += 1
                elif t.text == close_t:
                    depth -= 1
        if depth:
            raise _ParseFail()

    def function_def(self) -> tuple[str, str | None]:
        self.next()  # function
        self.eat_punct("*")
        name = None
        if self.at("ident"):
            name = self.next().text
        if tuple(self.param_list()) == PACKER_PARAMS:
            self.packer_functions += 1
        self.block()
        self.nodes += 1
        return "FunctionDef", name

    def param_list(self) -> list[str]:
        self.expect_punct("(")
        params: list[str] = []
        while not self.at_punct(")"):
            if self.at("eof"):
                raise _ParseFail()
            t = self.peek()
            if t.kind == "punct" and t.text in ("[", "{"):
                self._skip_balanced()
                params.append("")
            elif t.kind == "punct" and t.text == "...":
                self.next()
                continue
            elif t.kind == "ident":
                self.next()
                params.append(t.text)
            else:
                raise _ParseFail()
            if self.eat_punct("="):
                # default value: consumed, but not counted
                mark = self._mark()
                self.assignment()
                self._reset(mark)
            if not self.at_punct(")"):
                self.expect_punct(",")
        self.next()
        return params

    def if_stmt(self) -> None:
        self.next()
        self.expect_punct("(")
        self.expression()
        self.expect_punct(")")
        self.statement()
        if self.eat_keyword("else"):
            self.statement()

    def for_stmt(self) -> None:
        self.next()
        self.eat_keyword("await")
        self.expect_punct("(")
        if not self.at_punct(";"):
            if self.peek().kind == "keyword" and self.peek().text in ("var", "let", "const"):
                self.next()
                self.declarator()
            else:
                self.expression(no_in=True)
        if self.at("keyword") and self.peek().text in ("in", "instanceof"):
            self.next()
            self.expression()
        elif self.at("ident") and self.peek().text == "of":
            self.next()
            self.expression()
        else:
            self.expect_punct(";")
            if not self.at_punct(";"):
                self.expression()
            self.expect_punct(";")
            if not self.at_punct(")"):
                self.expression()
        self.expect_punct(")")
        self.statement()

    def while_stmt(self) -> None:
        self.next()
        self.expect_punct("(")
        self.expression()
        self.expect_punct(")")
        self.statement()

    def do_stmt(self) -> None:
        self.next()
        self.statement()
        if not self.eat_keyword("while"):
            raise _ParseFail()
        self.expect_punct("(")
        self.expression()
        self.expect_punct(")")
        self.eat_punct(";")

    def try_stmt(self) -> None:
        self.next()
        self.block()
        if self.eat_keyword("catch"):
            if self.eat_punct("("):
                t = self.peek()
                if t.kind == "punct" and t.text in ("[", "{"):
                    self._skip_balanced()
                elif t.kind == "ident":
                    self.next()
                self.expect_punct(")")
            self.block()
        if self.eat_keyword("finally"):
            self.block()

    def switch_stmt(self) -> None:
        self.next()
        self.expect_punct("(")
        self.expression()
        self.expect_punct(")")
        self.expect_punct("{")
        while not self.at_punct("}"):
            if self.at("eof"):
                raise _ParseFail()
            if self.eat_keyword("case"):
                self.expression()
                self.expect_punct(":")
            elif self.eat_keyword("default"):
                self.expect_punct(":")
            else:
                self.statement()
        self.next()

    def class_def(self) -> tuple[str, str | None]:
        self.next()
        name = None
        if self.at("ident"):
            name = self.next().text
        if self.eat_keyword("extends"):
            self.unary()
        if not self.at_punct("{"):
            raise _ParseFail()
        self._skip_balanced()
        self.nodes += 1
        return "Class", name

    def module_stmt(self) -> None:
        # import/export: consume loosely up to statement end
        self.next()
        while not self.at("eof") and not self.at_punct(";"):
            t = self.peek()
            if t.kind == "punct" and t.text in ("{", "(", "["):
                self._skip_balanced()
                continue
            if t.kind == "punct" and t.text == "}":
                break
            self.next()
        self.eat_punct(";")

    # --- expressions

    def expression(self, no_in: bool = False) -> None:
        self.assignment(no_in=no_in)
        while self.at_punct(","):
            self.next()
            self.assignment(no_in=no_in)
            self.nodes += 1

    def assignment(self, no_in: bool = False) -> None:
        self.depth += 1
        if self.depth > _MAX_PARSE_DEPTH:
            raise _ParseFail()
        try:
            kind, name = self.ternary(no_in=no_in)
            t = self.peek()
            if t.kind == "punct" and t.text in ASSIGN_OPS:
                self.next()
                self.assignment(no_in=no_in)
                self.nodes += 1
                if t.text == "=" and (kind == "This" or
                                      (kind == "Ident" and name in SPECIAL_OBJECTS)):
                    self.special_reassignments += 1
        finally:
            self.depth -= 1

    def ternary(self, no_in: bool = False) -> tuple[str, str | None]:
        cond = self.binary(1, no_in=no_in)
        if self.at_punct("?"):
            self.next()
            self.assignment()
            self.expect_punct(":")
            self.assignment(no_in=no_in)
            self.nodes += 1
            return "Ternary", None
        return cond

    def binary(self, min_bp: int, no_in: bool = False) -> tuple[str, str | None]:
        left = self.unary()
        while True:
            t = self.peek()
            op = None
            if t.kind == "punct" and t.text in _BINARY_BP:
                op = t.text
            elif t.kind == "keyword" and t.text in ("in", "instanceof"):
                if t.text == "in" and no_in:
                    break
                op = t.text
            if op is None:
                break
            bp = _BINARY_BP[op]
            if bp < min_bp:
                break
            self.next()
            self.binary(bp + 1, no_in=no_in)
            self.nodes += 1
            left = "Binary", None
        return left

    def unary(self) -> tuple[str, str | None]:
        self.depth += 1
        if self.depth > _MAX_PARSE_DEPTH:
            raise _ParseFail()
        try:
            t = self.peek()
            if (t.kind == "punct" and t.text in _PREFIX_OPS) or \
                    (t.kind == "keyword" and t.text in _PREFIX_KEYWORDS):
                self.next()
                if not (t.text == "yield" and
                        (self.at_punct(";") or self.at_punct(")") or self.at("eof"))):
                    self.unary()
                self.nodes += 1
                return "Unary", None
            if t.kind == "keyword" and t.text == "new":
                self.next()
                self.nodes += 1
                if self.at_punct("."):  # new.target
                    self.next()
                    if self.at("ident"):
                        self.next()
                    return "Ident", "new.target"
                self.unary()
                return "New", None
            return self.postfix()
        finally:
            self.depth -= 1

    def postfix(self) -> tuple[str, str | None]:
        kind, name = self.primary()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text in (".", "?."):
                self.next()
                prop = self.peek()
                if prop.kind not in ("ident", "keyword"):
                    raise _ParseFail()
                self.next()
                kind, name = "MemberDot", prop.text
            elif t.kind == "punct" and t.text == "[":
                self.next()
                self.expression()
                self.expect_punct("]")
                self.bracket_lookups += 1
                kind, name = "MemberBracket", None
            elif t.kind == "punct" and t.text == "(":
                self.arguments()
                if kind == "MemberBracket":
                    self.bracket_calls += 1
                    kind = "BracketCall"
                else:
                    if kind not in ("Ident", "MemberDot"):
                        name = None
                    self._count_call(name)
                    kind = "Call"
            elif t.kind == "punct" and t.text in ("++", "--"):
                self.next()
                kind, name = "Unary", None
            elif t.kind == "str" and t.text.startswith("`"):
                # tagged template: a call carrying the tag's name, plus its string
                self.next()
                self.nodes += 1
                self._count_call(name)
                kind = "Call"
            else:
                break
            self.nodes += 1
        return kind, name

    def arguments(self) -> None:
        self.expect_punct("(")
        while not self.at_punct(")"):
            if self.at("eof"):
                raise _ParseFail()
            self.eat_punct("...")
            self.assignment()
            if not self.at_punct(")"):
                self.expect_punct(",")
        self.next()

    def primary(self) -> tuple[str, str | None]:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            self.nodes += 1
            if self.at_punct("=>"):
                self.next()
                return self.arrow_body()
            return "Ident", t.text
        if t.kind in ("num", "str", "regex", "xml"):
            self.next()
            self.nodes += 1
            return "Literal", None
        if t.kind == "keyword":
            kw = t.text
            if kw == "function":
                return self.function_def()
            if kw == "class":
                return self.class_def()
            if kw not in ("this", "true", "false", "null", "undefined", "super", "import"):
                raise _ParseFail()
            self.next()
            self.nodes += 1
            if kw == "this":
                return "This", None
            if kw in ("super", "import"):  # super(...) and dynamic import(...)
                return "Ident", kw
            return "Literal", None
        if t.kind == "punct":
            if t.text == "(":
                return self.paren_or_arrow()
            if t.text == "[":
                return self.array_literal()
            if t.text == "{":
                return self.object_literal()
        raise _ParseFail()

    def paren_or_arrow(self) -> tuple[str, str | None]:
        # an arrow function's parameter list is followed by `=>`
        j = self.closers[self.i] + 1
        if j < len(self.toks) and self.toks[j].kind == "punct" and self.toks[j].text == "=>":
            self.param_list()
            self.expect_punct("=>")
            return self.arrow_body()
        self.expect_punct("(")
        self.expression()
        self.expect_punct(")")
        self.nodes += 1
        return "Paren", None

    def arrow_body(self) -> tuple[str, str | None]:
        if self.at_punct("{"):
            self.block()
        else:
            self.assignment()
        self.nodes += 1
        return "Arrow", None

    def array_literal(self) -> tuple[str, str | None]:
        self.expect_punct("[")
        self.nodes += 1
        while not self.at_punct("]"):
            if self.at("eof"):
                raise _ParseFail()
            if self.eat_punct(","):
                continue
            self.eat_punct("...")
            self.assignment()
        self.next()
        return "Array", None

    def object_literal(self) -> tuple[str, str | None]:
        self.expect_punct("{")
        self.nodes += 1
        while not self.at_punct("}"):
            if self.at("eof"):
                raise _ParseFail()
            if self.eat_punct(","):
                continue
            if self.eat_punct("..."):
                self.assignment()
                continue
            t = self.peek()
            if t.kind in ("ident", "keyword") and t.text in ("get", "set") \
                    and self.toks[self.i + 1].kind in ("ident", "keyword", "str", "num"):
                self.next()
                t = self.peek()
            if t.kind in ("ident", "keyword", "str", "num"):
                self.next()
            elif t.kind == "punct" and t.text == "[":
                self.next()
                self.assignment()
                self.expect_punct("]")
            else:
                raise _ParseFail()
            self.nodes += 2  # the property and its key
            if self.eat_punct(":"):
                self.assignment()
            elif self.at_punct("("):  # method
                if tuple(self.param_list()) == PACKER_PARAMS:
                    self.packer_functions += 1
                self.block()
                self.nodes += 1
        self.next()
        return "Object", None


def parse_js(src: str) -> JsSummary:
    """Parse one script source, always returning a usable JsSummary."""
    tokens, lex_error, has_e4x = tokenize(src)
    parser = _Parser(tokens)
    parser.parse_program()
    ok = parser.ok and not lex_error
    strings: list[str] = []
    n_keywords = n_long_names = 0
    significant = False
    for t in tokens:
        kind = t.kind
        if kind == "str":
            strings.append(t.value)
        elif kind == "keyword":
            n_keywords += 1
            significant = True
        elif kind == "ident":
            if len(t.text) >= LONG_NAME_LEN:
                n_long_names += 1
        elif kind == "punct":
            if t.text in _SIGNIFICANT_PUNCTS:
                significant = True
        elif kind == "junk":
            ok = False
    return JsSummary(
        strings=strings,
        parse_ok=ok,
        has_e4x=has_e4x,
        n_keywords=n_keywords,
        n_long_names=n_long_names,
        has_significant_tokens=significant,
        nodes=parser.nodes,
        direct_calls=parser.direct_calls,
        bracket_calls=parser.bracket_calls,
        bracket_lookups=parser.bracket_lookups,
        special_reassignments=parser.special_reassignments,
        packer_functions=parser.packer_functions,
        named_calls=Counter(parser.call_names),
    )
