"""Deterministic synthetic web: site generation and an instrumented server.

A site spec is a JSON document listing pages with links, optional login
forms, optional gzip content coding, and a kind of "benign" or
"malicious".  Malicious pages carry eval chains, long high-entropy
strings, hidden iframes, onload handlers and a fixed signature marker, so
every labeling stage has something to find.  The server ledgers each
request, so tests can check that all traffic came through the proxy.  It
is wire's _ThreadedServer with wire's framing, one request per connection:
a bad head gets 400, a method other than GET or POST 501, a request not
whole within RESPONSE_DEADLINE_TIMEOUTS reads of SITE_TIMEOUT no answer,
and a body the proxy's reader (`wire._read_request_body`, capped at
MAX_BODY_SIZE) refuses the proxy's status, with nothing ledgered.
"""

from __future__ import annotations

import base64
import gzip as gzip_mod
import json
import random
import threading
import time
from dataclasses import dataclass, field
from hashlib import sha256
from urllib.parse import parse_qs, urlsplit

from . import wire

SIGNATURE_MARKER = b"WS-SIG-ALPHA-7f3e"
SIGNATURE_NAME = "Test.Sig.Alpha"
PAGE_KINDS = ("benign", "malicious")
FIXTURE_DETECTIONS = 12  # engines that flag each malicious page in engine_fixture_for

_WORDS = ("maple", "harbor", "lantern", "copper", "meadow", "drift", "quarry",
          "ember", "willow", "summit", "cedar", "hollow", "prairie", "garnet")


# the types a page's other optional fields take in a site spec
_FIELD_TYPES = {"body": (str, type(None)), "title": str, "login_form": bool, "gzip": bool}
_LOGIN_FORM = ('<form action="/login" method="post">\n'
               '<input type="text" name="user">\n'
               '<input type="password" name="pass">\n'
               '<input type="submit" value="Sign in">\n'
               "</form>")


class SiteSpecError(ValueError):
    pass


@dataclass
class PageSpec:
    path: str
    kind: str = "benign"
    links: list[str] = field(default_factory=list)
    login_form: bool = False
    gzip: bool = False
    body: str | None = None
    title: str = ""


def signature_line() -> str:
    """Signature-file line matching the marker embedded in malicious pages."""
    return f"{SIGNATURE_NAME}:{SIGNATURE_MARKER.hex()}"


# ---------------------------------------------------------------------------
# site generation

def _noise_string(rng: random.Random, length: int = 66) -> str:
    raw = bytes(rng.randrange(256) for _ in range(length))
    return base64.b64encode(raw).decode("ascii")[:length]


def _benign_body(page: PageSpec, rng: random.Random) -> str:
    paragraphs = []
    for _ in range(rng.randrange(2, 5)):
        words = " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(8, 20)))
        paragraphs.append(f"<p>{words}.</p>")
    links = "\n".join(f'<a href="{href}">visit {href}</a>' for href in page.links)
    return (
        "<html><head><title>{title}</title></head><body>\n"
        "<h1>{title}</h1>\n{paragraphs}\n{form}\n{links}\n"
        "</body></html>"
    ).format(title=page.title or page.path, paragraphs="\n".join(paragraphs),
             form=_LOGIN_FORM if page.login_form else "", links=links)


def _malicious_body(page: PageSpec, rng: random.Random) -> str:
    blob_a = _noise_string(rng)
    blob_b = _noise_string(rng)
    drop_host = f"drop-{rng.randrange(1000):03d}.invalid"
    links = "\n".join(f'<a href="{href}">more {href}</a>' for href in page.links)
    return (
        "<html><head><title>{title}</title></head>\n"
        '<body onload="boot()">\n'
        "<script>\n"
        'var p0 = "{blob_a}";\n'
        'var p1 = "{blob_b}";\n'
        "function boot() {{ var s = unescape(p0); eval(s); }}\n"
        "eval(p1);\n"
        'document.write("<iframe src=\'http://{drop}/x\'></iframe>");\n'
        "</script>\n"
        '<iframe src="/banner" width="1" height="1"></iframe>\n'
        '<span data-k="{marker}"></span>\n'
        "{links}\n"
        "</body></html>"
    ).format(title=page.title or page.path, blob_a=blob_a, blob_b=blob_b,
             drop=drop_host, marker=SIGNATURE_MARKER.decode("ascii"), links=links)


def render_page(page: PageSpec, seed: int = 0) -> bytes:
    """Deterministic page bytes (pre content-coding)."""
    if page.body is not None:
        return page.body.encode("utf-8")
    rng = random.Random(f"{seed}:{page.path}:{page.kind}")
    if page.kind == "malicious":
        return _malicious_body(page, rng).encode("utf-8")
    return _benign_body(page, rng).encode("utf-8")


def generate_site(n_benign: int, n_malicious: int, seed: int = 1) -> dict:
    """Site spec with n_benign + n_malicious interlinked pages."""
    rng = random.Random(seed)
    paths = [f"/b{i:03d}" for i in range(n_benign)] + \
            [f"/m{i:03d}" for i in range(n_malicious)]
    pages = []
    for idx, path in enumerate(paths):
        n_links = rng.randrange(1, 4) if len(paths) > 1 else 0
        links = []
        for _ in range(n_links):
            target = paths[rng.randrange(len(paths))]
            if target != path and target not in links:
                links.append(target)
        pages.append({
            "path": path,
            "kind": "malicious" if path.startswith("/m") else "benign",
            "links": links,
            "login_form": idx == 0,
            "gzip": rng.random() < 0.25,
        })
    return {"seed": seed, "pages": pages}


def load_site_spec(doc: dict) -> dict[str, PageSpec]:
    if not isinstance(doc, dict) or not isinstance(doc.get("pages"), list):
        raise SiteSpecError("site spec must be an object with a 'pages' list")
    pages: dict[str, PageSpec] = {}
    for i, entry in enumerate(doc["pages"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise SiteSpecError(f"page {i} needs a string 'path'")
        path = entry["path"]
        if not path.startswith("/"):
            raise SiteSpecError(f"page path {path!r} must start with '/'")
        if path in pages:
            raise SiteSpecError(f"duplicate page path {path!r}")
        kind = entry.get("kind", "benign")
        if kind not in PAGE_KINDS:
            raise SiteSpecError(f"page {path!r} has unknown kind {kind!r}")
        links = entry.get("links", [])
        if not isinstance(links, list) or any(not isinstance(h, str) for h in links):
            raise SiteSpecError(f"page {path!r} links must be strings")
        for key, types in _FIELD_TYPES.items():
            if key in entry and not isinstance(entry[key], types):
                raise SiteSpecError(f"page {path!r} {key} may not be {type(entry[key]).__name__}")
        pages[path] = PageSpec(path, kind, list(links),
                               **{key: entry[key] for key in _FIELD_TYPES if key in entry})
    return pages


def load_site_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SiteSpecError(f"site spec is not valid JSON: {exc}") from None


def engine_fixture_for(doc: dict) -> dict[str, list[str]]:
    """Engine fixture mapping each malicious page's body digest to alerts.

    Keyed by SHA-256 of the decoded body, which is what the engine set
    hashes on submit; FIXTURE_DETECTIONS engines flag each malicious page
    so ground truth lands on the malicious side of the threshold.
    """
    from .labels import ENGINE_NAMES

    seed = doc.get("seed", 0)
    fixture: dict[str, list[str]] = {}
    for path, page in load_site_spec(doc).items():
        if page.kind != "malicious":
            continue
        digest = sha256(render_page(page, seed)).hexdigest()
        start = int(digest[:4], 16) % len(ENGINE_NAMES)
        fixture[digest] = [ENGINE_NAMES[(start + i) % len(ENGINE_NAMES)]
                           for i in range(FIXTURE_DETECTIONS)]
    return fixture


# ---------------------------------------------------------------------------
# instrumented server

SITE_TIMEOUT = 10.0  # seconds any one read of a site connection may wait
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Content Too Large",
            501: "Not Implemented"}
_WELCOME = b"<html><body><h1>welcome</h1></body></html>"  # the answer to every POST


def _http_date(t: float) -> str:
    """IMF-fixdate (RFC 9110 §5.6.7) of epoch time `t`; asctime's names ignore the locale."""
    day, month, mday, hms, year = time.asctime(time.gmtime(t)).split()
    return f"{day}, {int(mday):02d} {month} {year} {hms} GMT"


class SynthWebServer:
    """Serves a site spec and ledgers every request it handles."""

    def __init__(self, doc: dict, host: str = "127.0.0.1", port: int = 0):
        self.pages = load_site_spec(doc)
        self.seed = doc.get("seed", 0)
        self.requests: list[dict] = []
        self._ledger_lock = threading.Lock()
        self._server = wire._ThreadedServer((host, port), self._serve_one, SITE_TIMEOUT)

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def request_count(self) -> int:
        with self._ledger_lock:
            return len(self.requests)

    def ledger(self) -> list[dict]:
        with self._ledger_lock:
            return [dict(r) for r in self.requests]

    def start(self) -> "SynthWebServer":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()

    def _send(self, wfile, status: int, body: bytes | None = None, coding: str | None = None,
              head_only: bool = False) -> bool:
        """Write a closing response, by default a page naming the status; False, to close."""
        if body is None:
            body = f"<html><body>{_REASONS[status].lower()}</body></html>".encode("ascii")
        headers = [("Server", "synthweb"), ("Date", _http_date(time.time())),
                   ("Content-Type", "text/html; charset=utf-8"),
                   *([("Content-Encoding", coding)] if coding else []),
                   ("Content-Length", str(len(body)))]
        wfile.write(wire._client_response_bytes(
            wire.HttpResponse(status, _REASONS[status], headers), body, head_only=head_only))
        return False

    def _serve_one(self, rfile, wfile) -> bool:
        """Answer one request: GET and POST are ledgered and served, others get 501."""
        try:
            head = wire._read_head(rfile)
            if head is None:
                return False
            request, _ = wire._parse_http_request_head(head)
        except ValueError:  # a bad head; IcapParseError is one
            return self._send(wfile, 400)
        if request.method not in ("GET", "POST"):
            return self._send(wfile, 501, head_only=request.method == "HEAD")
        try:
            raw = wire._read_request_body(rfile, request, len(head), wire.MAX_BODY_SIZE)
        except wire._Refusal as exc:  # args: (status, reason, text)
            return self._send(wfile, exc.args[0])
        form = ({k: v[0] for k, v in parse_qs(raw.decode("utf-8", "replace")).items()}
                if request.method == "POST" else None)
        with self._ledger_lock:
            self.requests.append({"method": request.method, "path": request.url,
                                  "via": request.header("Via"),
                                  "agent": request.header(wire.AGENT_HEADER), "form": form})
        if form is not None:
            return self._send(wfile, 200, _WELCOME)
        page = self.pages.get(urlsplit(request.url).path)
        if page is None:
            return self._send(wfile, 404)
        body = render_page(page, self.seed)
        if page.gzip:
            return self._send(wfile, 200, gzip_mod.compress(body, mtime=0), "gzip")
        return self._send(wfile, 200, body)
