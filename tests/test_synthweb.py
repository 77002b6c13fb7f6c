"""Synthetic site generation and the instrumented origin server."""

import email.utils
import gzip
import http.client
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from websift import synthweb, wire
from websift.features import LONG_STRING_LEN, extract_features
from websift.labels import ENGINE_NAMES, GROUND_TRUTH_THRESHOLD, SignatureSet
from websift.synthweb import (
    SIGNATURE_MARKER,
    SIGNATURE_NAME,
    PageSpec,
    SiteSpecError,
    SynthWebServer,
    engine_fixture_for,
    generate_site,
    load_site_file,
    load_site_spec,
    render_page,
    signature_line,
)


# --- page rendering ---

def test_render_page_is_deterministic():
    page = PageSpec("/b001", kind="benign", links=["/b002"])
    assert render_page(page, seed=3) == render_page(page, seed=3)
    assert render_page(page, seed=3) != render_page(page, seed=4)


def test_render_page_explicit_body_wins():
    page = PageSpec("/custom", body="<html><body>fixed</body></html>")
    assert render_page(page, seed=1) == b"<html><body>fixed</body></html>"
    assert render_page(page, seed=2) == b"<html><body>fixed</body></html>"


def test_benign_page_lists_links_and_form():
    page = PageSpec("/b000", links=["/b001", "/m000"], login_form=True)
    body = render_page(page, seed=1).decode("utf-8")
    assert 'href="/b001"' in body
    assert 'href="/m000"' in body
    assert 'type="password"' in body
    assert 'action="/login"' in body


def test_malicious_page_carries_every_labeling_hook():
    page = PageSpec("/m000", kind="malicious")
    body = render_page(page, seed=1)
    assert SIGNATURE_MARKER in body
    vec = extract_features(body, "text/html").as_dict()
    assert vec["ishtmlwithjs"] == 1
    assert vec["Numeval"] >= 1
    assert vec["NumLongStrings"] >= 1
    assert vec["iframe"] >= 1
    assert vec["onload"] >= 1
    assert vec["MaxStrLen"] >= LONG_STRING_LEN


def test_malicious_page_varies_with_seed_but_keeps_marker():
    page = PageSpec("/m001", kind="malicious")
    a = render_page(page, seed=1)
    b = render_page(page, seed=2)
    assert a != b
    assert SIGNATURE_MARKER in a and SIGNATURE_MARKER in b


def test_signature_line_matches_rendered_malicious_page():
    sigdb = SignatureSet.from_text(signature_line())
    assert len(sigdb) == 1
    body = render_page(PageSpec("/m002", kind="malicious"), seed=9)
    assert sigdb.scan(body) == [SIGNATURE_NAME]
    assert sigdb.scan(render_page(PageSpec("/b002"), seed=9)) == []


# --- site generation ---

def test_generate_site_shape_and_determinism():
    doc = generate_site(6, 3, seed=11)
    assert doc == generate_site(6, 3, seed=11)
    assert doc != generate_site(6, 3, seed=12)
    pages = load_site_spec(doc)
    assert len(pages) == 9
    kinds = {p.kind for p in pages.values()}
    assert kinds == {"benign", "malicious"}
    assert sum(p.kind == "malicious" for p in pages.values()) == 3


def test_generate_site_links_stay_on_site():
    doc = generate_site(5, 2, seed=7)
    pages = load_site_spec(doc)
    for page in pages.values():
        for href in page.links:
            assert href in pages
            assert href != page.path


def test_generate_site_marks_a_login_page():
    pages = load_site_spec(generate_site(4, 1, seed=5))
    assert sum(p.login_form for p in pages.values()) == 1


# --- spec validation ---

@pytest.mark.parametrize("doc", [
    [],
    {"pages": "nope"},
    {"pages": [{"kind": "benign"}]},
    {"pages": [{"path": "relative"}]},
    {"pages": [{"path": "/a"}, {"path": "/a"}]},
    {"pages": [{"path": "/a", "kind": "parked"}]},
    {"pages": [{"path": "/a", "links": [1, 2]}]},
    {"pages": [{"path": "/a", "kind": "malicious", "body": 5}]},
    {"pages": [{"path": "/a", "body": ["<p>"]}]},
    {"pages": [{"path": "/a", "title": None}]},
    {"pages": [{"path": "/a", "login_form": 1}]},
    {"pages": [{"path": "/a", "gzip": "false"}]},
])
def test_load_site_spec_rejects_malformed(doc):
    with pytest.raises(SiteSpecError):
        load_site_spec(doc)


def test_load_site_spec_keeps_typed_fields():
    page = load_site_spec({"pages": [{"path": "/a", "body": None, "title": "A",
                                      "login_form": True, "gzip": False}]})["/a"]
    assert page == PageSpec("/a", title="A", login_form=True)


def test_load_site_file_round_trip(tmp_path):
    doc = generate_site(2, 1, seed=3)
    path = tmp_path / "site.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_site_file(path) == doc


def test_load_site_file_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SiteSpecError):
        load_site_file(path)


# --- engine fixture ---

def test_engine_fixture_covers_malicious_pages_only():
    doc = generate_site(3, 2, seed=21)
    fixture = engine_fixture_for(doc)
    pages = load_site_spec(doc)
    digests = {synthweb.sha256(render_page(p, doc["seed"])).hexdigest()
               for p in pages.values() if p.kind == "malicious"}
    assert set(fixture) == digests
    for names in fixture.values():
        assert len(names) == 12
        assert len(set(names)) == 12
        assert set(names) <= set(ENGINE_NAMES)
        assert len(names) >= GROUND_TRUTH_THRESHOLD


# --- instrumented server ---

@pytest.fixture
def site_server():
    doc = {
        "seed": 4,
        "pages": [
            {"path": "/plain", "kind": "benign"},
            {"path": "/mal", "kind": "malicious"},
            {"path": "/zipped", "kind": "benign", "gzip": True},
            {"path": "/fixed", "body": "<html><body>pinned</body></html>"},
        ],
    }
    server = SynthWebServer(doc).start()
    try:
        yield server
    finally:
        server.stop()


def fetch(server, path, method="GET", body=None, headers=None):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def test_server_serves_rendered_pages(site_server):
    status, _, body = fetch(site_server, "/plain")
    assert status == 200
    assert body == render_page(site_server.pages["/plain"], site_server.seed)
    status, _, body = fetch(site_server, "/fixed")
    assert body == b"<html><body>pinned</body></html>"


def test_server_unknown_path_is_404(site_server):
    status, _, body = fetch(site_server, "/missing")
    assert status == 404
    assert b"not found" in body


def test_server_gzip_pages_decode_to_rendered_bytes(site_server):
    status, headers, body = fetch(site_server, "/zipped")
    assert status == 200
    assert headers["Content-Encoding"] == "gzip"
    assert gzip.decompress(body) == render_page(site_server.pages["/zipped"],
                                                site_server.seed)
    # mtime pinned to zero keeps the compressed bytes reproducible
    _, _, again = fetch(site_server, "/zipped")
    assert again == body


def test_server_post_returns_welcome_and_ledgers_form(site_server):
    status, _, body = fetch(site_server, "/login", method="POST",
                            body="user=testuser&pass=testpass",
                            headers={"Content-Type": "application/x-www-form-urlencoded"})
    assert status == 200
    assert b"welcome" in body
    entry = site_server.ledger()[-1]
    assert entry["method"] == "POST"
    assert entry["form"] == {"user": "testuser", "pass": "testpass"}


def test_server_ledger_captures_proxy_metadata(site_server):
    fetch(site_server, "/plain", headers={"Via": "1.1 websift",
                                          "X-Websift-Agent": "agent-3"})
    entry = site_server.ledger()[-1]
    assert entry["via"] == "1.1 websift"
    assert entry["agent"] == "agent-3"
    assert entry["path"] == "/plain"


def test_server_request_count_tracks_every_hit(site_server):
    before = site_server.request_count()
    fetch(site_server, "/plain")
    fetch(site_server, "/missing")
    assert site_server.request_count() == before + 2


def exchange(server, raw: bytes, timeout: float = 5.0) -> tuple[int, list[tuple[str, str]], bytes]:
    """Send `raw` on a fresh connection and read the answer to its end: (status, headers, body)."""
    with socket.create_connection(server.address, timeout=timeout) as sock:
        sock.sendall(raw)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = [tuple(part.strip() for part in line.split(":", 1)) for line in lines[1:]]
    return int(lines[0].split(" ")[1]), headers, body


IMF_FIXDATE = re.compile(r"[A-Z][a-z]{2}, \d{2} [A-Z][a-z]{2} \d{4} \d{2}:\d{2}:\d{2} GMT")


@pytest.mark.parametrize("path, status, coding", [
    ("/plain", 200, None), ("/zipped", 200, "gzip"), ("/missing", 404, None),
])
def test_server_answers_name_their_headers_and_close(site_server, path, status, coding):
    got, headers, body = exchange(site_server,
                                  f"GET {path} HTTP/1.1\r\nHost: site.test\r\n\r\n".encode())
    assert got == status
    names = ["Server", "Date", "Content-Type", "Content-Length", "Connection"]
    names += ["Content-Encoding"] if coding else []
    assert sorted(k for k, _ in headers) == sorted(names)
    fields = dict(headers)
    assert fields["Content-Type"] == "text/html; charset=utf-8"
    assert fields.get("Content-Encoding") == coding
    assert fields["Content-Length"] == str(len(body))
    assert fields["Connection"] == "close"
    assert IMF_FIXDATE.fullmatch(fields["Date"])
    assert abs(email.utils.parsedate_to_datetime(fields["Date"]).timestamp() - time.time()) < 60
    if status == 404:
        assert body == b"<html><body>not found</body></html>"


def test_server_date_is_the_imf_fixdate_email_writes():
    for t in (0, 951782400, 1_000_000_000, 4102444799):  # 1970, a leap day, 2001, 2099
        assert synthweb._http_date(t) == email.utils.formatdate(t, usegmt=True)


def test_server_post_body_is_the_welcome_page(site_server):
    form = b"user=u%20one&pass=p"
    status, headers, body = exchange(
        site_server, b"POST /login HTTP/1.1\r\nHost: site.test\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(form), form))
    assert (status, body) == (200, b"<html><body><h1>welcome</h1></body></html>")
    assert dict(headers)["Connection"] == "close"
    assert site_server.ledger()[-1] == {"method": "POST", "path": "/login", "via": None,
                                        "agent": None, "form": {"user": "u one", "pass": "p"}}


@pytest.mark.parametrize("method", ["HEAD", "PUT"])
def test_server_refuses_other_methods_with_501(site_server, method):
    before = site_server.request_count()
    status, _, body = exchange(site_server, f"{method} /plain HTTP/1.1\r\nHost: site.test\r\n"
                                            "Content-Length: 0\r\n\r\n".encode())
    assert status == 501
    assert (body == b"") == (method == "HEAD")  # a response to HEAD ends at its head
    assert site_server.request_count() == before


@pytest.mark.parametrize("length, status", [
    ("ten", 400), ("-1", 400), ("1, 2", 400), (str(wire.MAX_BODY_SIZE + 1), 413),
])
def test_server_refuses_a_bad_or_oversized_length_before_reading_a_body(
        site_server, length, status):
    before = site_server.request_count()
    got, headers, _ = exchange(site_server, "POST /login HTTP/1.1\r\nHost: site.test\r\n"
                                            f"Content-Length: {length}\r\n\r\n".encode())
    assert got == status
    assert dict(headers)["Connection"] == "close"
    assert site_server.request_count() == before


def test_server_refuses_a_bad_head_with_400(site_server):
    assert exchange(site_server, b"GET /plain\r\n\r\n")[0] == 400


def test_server_reads_a_chunked_post_body(site_server):
    status, _, _ = exchange(site_server, b"POST /login HTTP/1.1\r\nHost: site.test\r\n"
                                         b"Transfer-Encoding: chunked\r\n\r\n"
                                         b"6\r\nuser=a\r\n0\r\n\r\n")
    assert status == 200
    assert site_server.ledger()[-1]["form"] == {"user": "a"}


def test_stop_without_start_returns():
    server = SynthWebServer({"pages": [{"path": "/a"}]})
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()


def test_stop_ends_the_handlers_of_an_idle_client_and_a_negative_length():
    before = set(threading.enumerate())
    server = SynthWebServer({"pages": [{"path": "/a"}]}).start()
    idle = socket.create_connection(server.address, timeout=5)
    negative = socket.create_connection(server.address, timeout=3)
    try:
        negative.sendall(b"POST /a HTTP/1.1\r\nHost: site.test\r\nContent-Length: -1\r\n\r\n")
        try:
            negative.recv(65536)
        except TimeoutError:
            pass  # a server that never answers still has to let stop() end its handler
        deadline = time.monotonic() + 5
        while len(set(threading.enumerate()) - before) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)  # the accept loop's thread and the idle client's handler
        server.stop()
        assert [t for t in set(threading.enumerate()) - before if t.is_alive()] == []
    finally:
        idle.close()
        negative.close()


def test_a_process_that_serves_no_site_loads_no_http_ssl_or_email():
    # a fresh interpreter: other tests load these modules into this one; it also
    # loads none of them once it has served a page and stopped its site
    probe = (
        "import socket, sys, websift.cli, websift.synthweb\n"
        "def loaded():\n"
        "    return sorted(m for m in ('http.server', 'http.client', 'ssl', 'email')\n"
        "                  if m in sys.modules)\n"
        "print(loaded())\n"
        "site = websift.synthweb.SynthWebServer({'pages': [{'path': '/a'}]}).start()\n"
        "with socket.create_connection(site.address, timeout=10) as sock:\n"
        "    sock.sendall(b'GET /a HTTP/1.1\\r\\nHost: site.test\\r\\n\\r\\n')\n"
        "    reply = b''.join(iter(lambda: sock.recv(65536), b''))\n"
        "site.stop()\n"
        "print(reply.split(b' ')[1].decode(), loaded())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n200 []\n"
