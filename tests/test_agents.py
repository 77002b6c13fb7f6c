"""Agent planning, seed rotation, and proxied visits."""

import gzip
import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from test_wire import count_accepted, record_handlers, trickling_peer

from websift import agents as agents_module
from websift import pipeline as pipeline_module, wire
from websift.agents import (
    FALLBACK_CREDENTIALS,
    Agent,
    AgentConfig,
    AgentConfigError,
    load_credentials,
    plan_interaction,
    proxy_request,
)
from websift.features import parse_html
from websift.fixtures import FixtureFormatError
from websift.flowstore import FlowStore
from websift.pipeline import LabelSources, Pipeline, run_crawl
from websift.synthweb import SynthWebServer, generate_site, render_page
from websift.wire import RESPONSE_DEADLINE_TIMEOUTS, IdleConnections

BASE = "http://site.test/landing"

LOGIN_PAGE = """<html><body>
<a href="/pre">pre</a>
<form action="/login" method="post">
<input type="text" name="user">
<input type="password" name="pass">
<input type="submit" name="go" value="Sign in">
</form>
<a href="/one">one</a>
<a href="http://other.test/x">cross</a>
<a href="/two">two</a>
</body></html>"""


def plan(html, budget=10, creds=None, base=BASE):
    cfg = AgentConfig(agent_id="agent-1", interaction_budget=budget)
    return plan_interaction(parse_html(html), cfg, creds, base)


# --- configuration ---

def test_agent_config_defaults_are_valid():
    cfg = AgentConfig(agent_id="agent-1")
    assert cfg.focus == "benign"
    assert cfg.interaction_budget == 10


def test_agent_config_rejects_negative_budget():
    with pytest.raises(AgentConfigError):
        AgentConfig(agent_id="a", interaction_budget=-1)


def test_agent_config_rejects_unknown_focus():
    with pytest.raises(AgentConfigError):
        AgentConfig(agent_id="a", focus="gambling")


# --- credentials ---

def test_load_credentials_parses_csv(tmp_path):
    path = tmp_path / "creds.csv"
    path.write_text("# host,user,pass\nSite.Test, alice , s3cret\n"
                    "bank.test,bob,hunter2\n", encoding="utf-8")
    creds = load_credentials(path)
    assert creds == {"site.test": ("alice", "s3cret"),
                     "bank.test": ("bob", "hunter2")}


def test_load_credentials_rejects_short_rows(tmp_path):
    path = tmp_path / "creds.csv"
    path.write_text("host.test,justuser\n", encoding="utf-8")
    with pytest.raises(FixtureFormatError) as exc:
        load_credentials(path)
    assert exc.value.line == 1


# --- interaction planning ---

def test_plan_logs_in_first_with_fallback_credentials():
    got = plan(LOGIN_PAGE)
    assert got.actions[0].kind == "login"
    assert got.actions[0].target == "http://site.test/login"
    user, password = FALLBACK_CREDENTIALS
    assert got.actions[0].fields == {"user": user, "pass": password}
    # remaining actions in document order, cross-origin link dropped
    assert [(a.kind, a.target) for a in got.actions[1:]] == [
        ("follow", "http://site.test/pre"),
        ("follow", "http://site.test/one"),
        ("follow", "http://site.test/two"),
    ]
    assert got.stop_reason == "depleted"


def test_plan_budget_cuts_after_login_plus_one():
    got = plan(LOGIN_PAGE, budget=2)
    assert [a.kind for a in got.actions] == ["login", "follow"]
    assert got.actions[1].target == "http://site.test/pre"
    assert got.stop_reason == "budget"


def test_plan_zero_budget_plans_nothing():
    got = plan(LOGIN_PAGE, budget=0)
    assert got.actions == []
    assert got.stop_reason == "budget"


def test_plan_empty_page_is_depleted():
    got = plan("<html><body><p>nothing to do</p></body></html>")
    assert got.actions == []
    assert got.stop_reason == "depleted"


def test_plan_uses_host_credentials_when_known():
    creds = {"site.test": ("alice", "wonderland")}
    got = plan(LOGIN_PAGE, creds=creds)
    assert got.actions[0].fields == {"user": "alice", "pass": "wonderland"}
    other = plan(LOGIN_PAGE, creds={"bank.test": ("bob", "x")})
    assert other.actions[0].fields == {"user": "testuser", "pass": "testpass"}


def test_plan_same_origin_filter():
    html = """<html><body>
    <a href="http://site.test/abs">in</a>
    <a href="http://site.test:8080/port">out</a>
    <a href="https://site.test/tls">out</a>
    <a href="/rel">in</a>
    <a href="http://other.test/">out</a>
    </body></html>"""
    got = plan(html)
    assert [a.target for a in got.actions] == ["http://site.test/abs",
                                               "http://site.test/rel"]


def test_plan_classifies_form_fields():
    html = """<html><body><form action="/submit">
    <input type="text" name="user">
    <input type="email" name="mail">
    <input type="password" name="pw">
    <input type="hidden" name="csrf" value="t">
    <input type="checkbox" name="agree">
    <input type="radio" name="pick">
    <input type="submit" name="send">
    <input type="button" name="btn">
    <input type="text">
    </form></body></html>"""
    got = plan(html)
    assert len(got.actions) == 1
    action = got.actions[0]
    assert action.kind == "login"
    assert action.fields == {"user": "testuser", "mail": "testuser",
                             "pw": "testpass"}


def test_plan_login_form_not_submitted_twice():
    html = LOGIN_PAGE.replace(
        "</body>", '<form action="/search"><input type="text" name="q"></form></body>')
    got = plan(html)
    kinds = [a.kind for a in got.actions]
    assert kinds.count("login") == 1
    assert kinds.count("submit") == 1
    submit = got.actions[kinds.index("submit")]
    assert submit.target == "http://site.test/search"
    assert submit.fields == {"q": "testuser"}


def test_plan_drops_references_urllib_rejects_and_keeps_the_rest():
    html = """<html><body>
<a href="http://[x/">v6</a>
<a href="/one">one</a>
<a href="http://site.test:99999/">port</a>
<form action="http://[x/"><input name="q"></form>
<form action="/search"><input name="q"></form>
<button formaction="http://site.test:abc/">bad</button>
<button formaction="/go">Go</button>
<a href="//site.test:-1/">negative</a>
<a href="/two">two</a>
</body></html>"""
    p = plan(html)
    assert [(a.kind, a.target) for a in p.actions] == [
        ("follow", "http://site.test/one"),
        ("submit", "http://site.test/search"),
        ("click", "http://site.test/go"),
        ("follow", "http://site.test/two"),
    ]


def test_plan_drops_a_login_form_whose_action_urllib_rejects():
    html = LOGIN_PAGE.replace('action="/login"', 'action="http://[x/login"')
    p = plan(html, creds={})
    assert [a.kind for a in p.actions] == ["follow", "follow", "follow"]


def test_plan_buttons_with_formaction_become_clicks():
    html = '<html><body><button formaction="/go">Go</button></body></html>'
    got = plan(html)
    assert [(a.kind, a.target) for a in got.actions] == [
        ("click", "http://site.test/go")]


def test_plan_form_with_relative_action_resolves_against_base():
    html = ('<html><body><form action="next"><input type="password" name="p">'
            "</form></body></html>")
    got = plan(html, base="http://site.test/dir/page.html")
    assert got.actions[0].target == "http://site.test/dir/next"


# references a page may carry: same-origin, cross-origin, and ones urllib rejects
_REFS = ("/a", "b?q=1", "http://site.test/abs", "//site.test/c", "#top",
         "http://other.test/x", "https://site.test/tls", "http://[x/", "http://site.test:99999/")
_ELEMENTS = st.one_of(
    st.builds('<a href="{}">x</a>'.format, st.sampled_from(_REFS)),
    st.builds('<button formaction="{}">b</button>'.format, st.sampled_from(_REFS)),
    st.builds('<form action="{}"><input name="q">{}</form>'.format, st.sampled_from(_REFS),
              st.sampled_from(["", '<input type="password" name="p">'])),
)


@given(st.lists(_ELEMENTS, max_size=12), st.integers(min_value=0, max_value=14))
def test_plan_equals_the_full_plan_cut_to_the_budget(elements, budget):
    html = "<html><body>" + "".join(elements) + "</body></html>"
    full = plan(html, budget=len(elements) + 1)
    assert full.stop_reason == "depleted"
    got = plan(html, budget=budget)
    assert got.actions == full.actions[:budget]
    assert got.stop_reason == ("budget" if len(full.actions) > budget else "depleted")


def test_plan_resolves_no_reference_past_the_one_after_its_budget(monkeypatch):
    resolved = []
    real_resolve = agents_module._resolve

    def counting_resolve(base_url, ref):
        resolved.append(ref)
        return real_resolve(base_url, ref)

    monkeypatch.setattr(agents_module, "_resolve", counting_resolve)
    html = "<html><body>" + "".join(f'<a href="/p{i}">p</a>' for i in range(50)) + "</body></html>"
    for budget in (0, 2):
        resolved.clear()
        got = plan(html, budget=budget)
        assert len(got.actions) == budget and got.stop_reason == "budget"
        assert resolved == [f"/p{i}" for i in range(budget + 1)]


# --- live visits through the proxy ---

LANDING = """<html><body>
<form action="/login" method="post">
<input type="text" name="user">
<input type="password" name="pass">
<input type="submit" value="Sign in">
</form>
<a href="/a">a</a>
<a href="/b">b</a>
<a href="http://off-origin.invalid/x">away</a>
</body></html>"""

SITE = {
    "seed": 8,
    "pages": [
        {"path": "/landing", "body": LANDING},
        {"path": "/a"},
        {"path": "/b"},
    ],
}


@pytest.fixture
def site():
    server = SynthWebServer(SITE).start()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture
def proxy(capture):
    return capture().proxy


def test_proxy_request_fetches_through_proxy(site, proxy):
    url = f"{site.base_url}/a"
    status, headers, body = proxy_request(proxy.address, "GET", url,
                                          [("Host", "ignored")])
    assert status == 200
    assert body == render_page(site.pages["/a"], site.seed)
    assert any(k.lower() == "content-length" for k, _ in headers)


def test_agent_visit_runs_login_then_links(site, proxy):
    cfg = AgentConfig(agent_id="agent-5", focus="phishing", interaction_budget=2)
    agent = Agent(cfg, proxy.address, creds={})
    summary = agent.visit(f"{site.base_url}/landing")

    assert summary.requests_made == 3
    assert summary.actions_executed == 2
    assert summary.stop_reason == "budget"
    assert summary.errors == []

    ledger = site.ledger()
    assert [(e["method"], e["path"]) for e in ledger] == [
        ("GET", "/landing"), ("POST", "/login"), ("GET", "/a")]
    assert ledger[1]["form"] == {"user": "testuser", "pass": "testpass"}
    # traffic is attributable: agent id and proxy hop are visible at the origin
    assert all(e["agent"] == "agent-5" for e in ledger)
    assert all(e["via"] == "1.1 websift" for e in ledger)


def test_agent_visit_full_budget_covers_all_links(site, proxy):
    cfg = AgentConfig(agent_id="agent-6", interaction_budget=10)
    summary = Agent(cfg, proxy.address, creds={}).visit(
        f"{site.base_url}/landing")
    assert summary.stop_reason == "depleted"
    paths = [e["path"] for e in site.ledger()]
    assert paths == ["/landing", "/login", "/a", "/b"]


def test_agent_visit_404_stops_after_seed(site, proxy):
    cfg = AgentConfig(agent_id="agent-7")
    summary = Agent(cfg, proxy.address, creds={}).visit(
        f"{site.base_url}/missing")
    assert summary.requests_made == 1
    assert summary.actions_executed == 0


def test_agent_unreachable_proxy_reports_error(site, dead_port):
    cfg = AgentConfig(agent_id="agent-8")
    summary = Agent(cfg, ("127.0.0.1", dead_port), creds={}).visit(
        f"{site.base_url}/landing")
    assert summary.requests_made == 0
    assert summary.errors and "seed fetch failed" in summary.errors[0]


def test_agent_run_consumes_seeds_in_order(site, proxy):
    cfg = AgentConfig(agent_id="agent-9", interaction_budget=0)
    summaries = Agent(cfg, proxy.address, creds={}).run(
        [f"{site.base_url}/a", f"{site.base_url}/b", f"{site.base_url}/a"])
    assert [s.seed for s in summaries] == [
        f"{site.base_url}/a", f"{site.base_url}/b", f"{site.base_url}/a"]
    assert [e["path"] for e in site.ledger()] == ["/a", "/b", "/a"]


def count_parses(monkeypatch):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_html(text)

    monkeypatch.setattr(agents_module, "parse_html", counting_parse)
    return calls


def test_agent_at_budget_zero_fetches_each_seed_and_parses_nothing(site, proxy, monkeypatch):
    calls = count_parses(monkeypatch)
    cfg = AgentConfig(agent_id="agent-13", interaction_budget=0)
    summaries = Agent(cfg, proxy.address, creds={}).run(
        [f"{site.base_url}/landing", f"{site.base_url}/missing"])
    assert calls == []
    assert [(s.requests_made, s.actions_executed, s.stop_reason) for s in summaries] == [
        (1, 0, "budget"), (1, 0, "budget")]
    assert [e["path"] for e in site.ledger()] == ["/landing", "/missing"]


def test_agent_at_budget_one_parses_the_seed_page(site, proxy, monkeypatch):
    calls = count_parses(monkeypatch)
    cfg = AgentConfig(agent_id="agent-14", interaction_budget=1)
    summary = Agent(cfg, proxy.address, creds={}).visit(
        f"{site.base_url}/landing")
    assert len(calls) == 1
    assert (summary.requests_made, summary.stop_reason) == (2, "budget")


def test_agent_interacts_with_a_gzip_page(proxy):
    links = "".join(f'<a href="/p{i}">p</a>' for i in range(4))
    site = SynthWebServer({"seed": 8, "pages": [
        {"path": "/zipped", "gzip": True, "body": f"<html><body>{links}</body></html>"},
        *({"path": f"/p{i}"} for i in range(4)),
    ]}).start()
    try:
        status, headers, raw = proxy_request(proxy.address, "GET", f"{site.base_url}/zipped", [])
        assert (status, gzip.decompress(raw)[:12]) == (200, b"<html><body>")
        assert ("Content-Encoding", "gzip") in headers
        cfg = AgentConfig(agent_id="agent-12", interaction_budget=3)
        summary = Agent(cfg, proxy.address, creds={}).visit(
            f"{site.base_url}/zipped")
        assert (summary.actions_executed, summary.stop_reason) == (3, "budget")
        assert [e["path"] for e in site.ledger()] == ["/zipped", "/zipped", "/p0", "/p1", "/p2"]
    finally:
        site.stop()


def test_agent_parses_the_raw_bytes_of_a_body_that_does_not_decode(proxy):
    # says gzip, is plain HTML: the agent still follows its links
    with socket.create_server(("127.0.0.1", 0)) as origin:
        def serve():
            for _ in range(2):
                conn, _ = origin.accept()
                with conn:
                    conn.recv(4096)
                    body = b'<html><body><a href="/next">n</a></body></html>'
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                                 b"Content-Encoding: gzip\r\nContent-Length: %d\r\n\r\n"
                                 % len(body) + body)

        thread = threading.Thread(target=serve)
        thread.start()
        host, port = origin.getsockname()
        cfg = AgentConfig(agent_id="agent-13", interaction_budget=3)
        summary = Agent(cfg, proxy.address, creds={}).visit(
            f"http://{host}:{port}/")
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (summary.requests_made, summary.actions_executed, summary.errors) == (2, 1, [])


def test_proxy_request_gives_up_on_a_proxy_that_trickles_past_the_deadline(monkeypatch):
    monkeypatch.setattr(agents_module, "REQUEST_TIMEOUT", 0.3)
    with trickling_peer(b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n") as addr:
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="not complete within 1.8 s"):
            proxy_request(addr, "GET", "http://site.test/", [], idle=IdleConnections())
        assert time.monotonic() - started < RESPONSE_DEADLINE_TIMEOUTS * 0.3 + 1.5


# --- one persistent proxy connection per agent ---

def test_agent_run_keeps_one_proxy_connection_and_closes_it(site, proxy, monkeypatch):
    accepted = count_accepted(monkeypatch, proxy)
    handlers = record_handlers(monkeypatch, proxy)
    cfg = AgentConfig(agent_id="agent-10", interaction_budget=10)
    summaries = Agent(cfg, proxy.address, creds={}).run(
        [f"{site.base_url}/landing", f"{site.base_url}/a"])
    assert [s.requests_made for s in summaries] == [4, 1]
    assert [e["path"] for e in site.ledger()] == ["/landing", "/login", "/a", "/b", "/a"]
    assert len(accepted) == 1
    # run closed its connection, so the proxy's handler ends without waiting
    handlers[0].join(timeout=1)
    assert not handlers[0].is_alive()


def test_a_run_sends_no_connection_header(site, capture):
    servers = capture()
    px, emitted = servers.proxy, servers.emitted
    cfg = AgentConfig(agent_id="agent-11", interaction_budget=0)
    Agent(cfg, px.address, creds={}).run([f"{site.base_url}/a", f"{site.base_url}/a"])
    proxy_request(px.address, "GET", f"{site.base_url}/b", [])
    heads = [e.exchange.request.headers for e in emitted]
    assert [h for h in heads[0] if h[0].lower() == "connection"] == []
    assert [h for h in heads[1] if h[0].lower() == "connection"] == []
    assert ("Connection", "close") in heads[2]


def test_crawl_serves_each_agent_over_one_proxy_connection(tmp_path, monkeypatch):
    doc = generate_site(1500, 0, seed=21)
    origin = SynthWebServer(doc).start()
    real_pipeline = pipeline_module.Pipeline
    accepted: list = []

    def recording_pipeline(*args, **kw):
        pipeline = real_pipeline(*args, **kw)
        accepted.append(count_accepted(monkeypatch, pipeline.proxy))
        return pipeline

    monkeypatch.setattr(pipeline_module, "Pipeline", recording_pipeline)
    try:
        seeds = [origin.base_url + p["path"] for p in doc["pages"]]
        with FlowStore(tmp_path / "store") as store:
            summary = run_crawl(store, LabelSources(), seeds, n_agents=2, budget=0)
    finally:
        origin.stop()
    assert summary.records == 1500 and summary.errors == 0
    assert summary.agent_requests == 1500
    assert 1 <= len(accepted[0]) <= 2


def test_a_get_on_a_connection_the_proxy_timed_out_is_resent_once(site, capture, monkeypatch):
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.2)
    servers = capture()  # its proxy drops a client idle for 0.2 s
    px, emitted = servers.proxy, servers.emitted
    accepted = count_accepted(monkeypatch, px)
    idle = IdleConnections()
    try:
        assert proxy_request(px.address, "GET", f"{site.base_url}/a", [], idle=idle)[0] == 200
        time.sleep(0.6)  # the proxy drops the pooled connection
        assert proxy_request(px.address, "GET", f"{site.base_url}/b", [], idle=idle)[0] == 200
    finally:
        idle.close()
    assert len(accepted) == 2
    assert [e["path"] for e in site.ledger()] == ["/a", "/b"]
    assert [e.exchange.request.url for e in emitted] == [f"{site.base_url}/a",
                                                         f"{site.base_url}/b"]


def test_a_post_on_a_connection_the_proxy_timed_out_is_not_resent(site, capture, monkeypatch):
    monkeypatch.setattr(wire, "PROXY_TIMEOUT", 0.2)
    servers = capture()  # its proxy drops a client idle for 0.2 s
    px, emitted = servers.proxy, servers.emitted
    accepted = count_accepted(monkeypatch, px)
    idle = IdleConnections()
    try:
        assert proxy_request(px.address, "GET", f"{site.base_url}/a", [], idle=idle)[0] == 200
        time.sleep(0.6)
        with pytest.raises(ConnectionError):
            proxy_request(px.address, "POST", f"{site.base_url}/login", [], b"user=u",
                          idle=idle)
    finally:
        idle.close()
    assert len(accepted) == 1
    assert [e["path"] for e in site.ledger()] == ["/a"]
    assert len(emitted) == 1


def test_stop_capture_ends_an_idle_agent_connection_at_once(site, tmp_path, monkeypatch):
    with FlowStore(tmp_path / "store") as store:
        pipeline = Pipeline(store)
        handlers = record_handlers(monkeypatch, pipeline.proxy)
        pipeline.start()
        idle = IdleConnections()
        try:
            status, _, _ = proxy_request(pipeline.proxy_addr, "GET", f"{site.base_url}/a", [],
                                         idle=idle)
            assert status == 200
            started = time.monotonic()
            pipeline.stop_capture()
            assert time.monotonic() - started < 1
        finally:
            idle.close()
        assert store.record_count() == 1
    assert len(handlers) == 1 and not handlers[0].is_alive()
