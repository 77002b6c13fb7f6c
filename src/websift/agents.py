"""Headless user agents: seed URL lists and login-then-interact.

Agents fetch seed URLs through the forward proxy, undo the content
codings of the returned HTML, parse it with the tolerant parser, and
execute a deterministic action plan: one login first when a password
form exists, then links, forms and buttons in document order until the
interaction budget runs out; at budget 0 an agent only fetches its seeds.
Only same-origin links are followed, one level deep from the seed.

During `run` an agent keeps one persistent connection to the proxy, as
a browser does, and sends no Connection header on it; the proxy closes
it only by its own rules (see wire).  A GET or HEAD whose reused
connection the proxy had closed while idle is resent once on a fresh
connection; a POST is not resent, since the proxy may have served it.
Outside `run`, and for callers of proxy_request that pass no connection
stack, each request has its own connection and says `Connection: close`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlencode, urljoin, urlsplit

from .contentprep import BodyDecodeError, decode_body
from .features import FormSpec, HtmlDoc, parse_html
from .fixtures import fixture_rows
from .wire import (
    AGENT_HEADER,
    MAX_BODY_SIZE,
    SEEDER_HEADER,
    SEEDER_TAGS,
    IdleConnections,
    _header,
    _read_response,
    _says_close,
    _transact,
    _write_head,
)

FALLBACK_CREDENTIALS = ("testuser", "testpass")
VIEWPORT = "1366x768"
USER_AGENT = "Mozilla/5.0 (X11; Linux x86_64) websift-agent/0.1"

VIEWPORT_HEADER = "X-Websift-Viewport"
REQUEST_TIMEOUT = 10.0  # seconds one read of an agent's proxy connection may wait


class AgentConfigError(ValueError):
    pass


@dataclass
class AgentConfig:
    agent_id: str
    focus: str = "benign"
    interaction_budget: int = 10

    def __post_init__(self):
        if self.interaction_budget < 0:
            raise AgentConfigError("interaction_budget must be >= 0")
        if self.focus not in SEEDER_TAGS:
            raise AgentConfigError(f"unknown seed focus {self.focus!r}")


@dataclass
class Action:
    kind: str  # login | follow | submit | click
    target: str
    fields: dict[str, str] = field(default_factory=dict)


@dataclass
class ActionPlan:
    actions: list[Action] = field(default_factory=list)
    stop_reason: str = "depleted"  # budget | depleted


@dataclass
class VisitSummary:
    seed: str
    requests_made: int = 0
    actions_executed: int = 0
    # the plan's stop reason; "budget" without a parse when the budget is 0
    stop_reason: str = "depleted"
    errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# credentials

def load_credentials(path) -> dict[str, tuple[str, str]]:
    """CSV host,user,password -> host-keyed credential map."""
    with open(path, "r", encoding="utf-8") as fh:
        return {host.lower(): (user, password)
                for _, (host, user, password) in fixture_rows(fh, "host,user,password")}


# ---------------------------------------------------------------------------
# interaction planning

def _form_fields(form: FormSpec, user: str, password: str) -> dict[str, str]:
    fields = {}
    for name, ftype in form.fields:
        if not name:
            continue
        if ftype == "password":
            fields[name] = password
        elif ftype in ("submit", "hidden", "checkbox", "radio", "button"):
            continue
        else:
            fields[name] = user
    return fields


def plan_interaction(page: HtmlDoc, cfg: AgentConfig,
                     creds: dict[str, tuple[str, str]] | None,
                     base_url: str) -> ActionPlan:
    """Login first when possible, then document-order interactables.

    The login form is consumed by the login action and not submitted a
    second time.  Cross-origin links and references urllib rejects never
    enter the plan; the budget counts every action including the login.
    """
    host = (urlsplit(base_url).hostname or "").lower()
    user, password = (creds or {}).get(host, FALLBACK_CREDENTIALS)
    base_origin = _origin(base_url)

    login_form = None
    for kind, payload in page.interactables:
        if kind == "form" and payload.has_password:
            login_form = payload
            break

    # one action past the budget decides the stop reason; later ones are never resolved
    limit = cfg.interaction_budget
    queue: list[Action] = []
    if login_form is not None:
        target = _resolve(base_url, login_form.action or "")
        if target is not None:
            queue.append(Action("login", target, _form_fields(login_form, user, password)))
    for kind, payload in page.interactables:
        if len(queue) > limit:
            break
        if kind == "link":
            target = _resolve(base_url, payload)
            if target is not None and _origin(target) == base_origin:
                queue.append(Action("follow", target))
        elif kind == "form":
            if payload is login_form:
                continue
            target = _resolve(base_url, payload.action or "")
            if target is not None:
                queue.append(Action("submit", target, _form_fields(payload, user, password)))
        elif kind == "button":
            target = _resolve(base_url, payload)
            if target is not None:
                queue.append(Action("click", target))

    if len(queue) > limit:
        return ActionPlan(queue[:limit], "budget")
    return ActionPlan(queue, "depleted")


def _resolve(base_url: str, ref: str) -> str | None:
    """`ref` made absolute against `base_url`, or None if urllib rejects it.

    A page may carry any reference: `http://[x/` makes urljoin raise, and
    a port outside 0-65535 or not a number makes `.port` raise.
    """
    try:
        target = urljoin(base_url, ref)
        urlsplit(target).port
    except ValueError:
        return None
    return target


def _origin(url: str) -> tuple[str, str, int]:
    parts = urlsplit(url)
    port = parts.port or (443 if parts.scheme == "https" else 80)
    return (parts.scheme.lower(), (parts.hostname or "").lower(), port)


# ---------------------------------------------------------------------------
# proxied HTTP client

def proxy_request(proxy_addr: tuple[str, int], method: str, url: str,
                  headers: list[tuple[str, str]], body: bytes = b"", *,
                  idle: IdleConnections | None = None,
                  ) -> tuple[int, list[tuple[str, str]], bytes]:
    """One absolute-URI request through the forward proxy.

    Without `idle` the request goes over a fresh connection and says
    `Connection: close`.  With it, the request says nothing about the
    connection: one from `idle` is reused, or a fresh one opened, and it
    goes back to `idle` when the proxy keeps it open.  A GET or HEAD on a
    reused connection the proxy had closed is resent once on a fresh one.
    Each read waits at most REQUEST_TIMEOUT, and the whole response must
    arrive within wire.RESPONSE_DEADLINE_TIMEOUTS of them, counted from the
    send, else TimeoutError.
    """
    headers = list(headers)
    if body:
        headers.append(("Content-Length", str(len(body))))
    if idle is None:
        headers.append(("Connection", "close"))
    head_only = method == "HEAD"

    def read(conn):
        try:
            response, data, truncated = _read_response(conn.rfile, MAX_BODY_SIZE, head_only)
        except ValueError as exc:
            raise ConnectionError(f"bad proxy response: {exc}") from None
        # a body framed by the end of the connection leaves nothing to reuse
        framed = (response.header("Content-Length") is not None or head_only
                  or response.status in (204, 304))
        keep = framed and not truncated and not _says_close(response.headers)
        return (response.status, response.headers, data), keep

    return _transact(proxy_addr, _write_head(f"{method} {url} HTTP/1.1", headers) + body,
                     REQUEST_TIMEOUT, idle, read, resend=method in ("GET", "HEAD"))


# ---------------------------------------------------------------------------
# the agent

def _is_html(headers: list[tuple[str, str]]) -> bool:
    ctype = _header(headers, "Content-Type") or ""
    return "html" in ctype.lower() or not ctype


class Agent:
    def __init__(self, cfg: AgentConfig, proxy_addr: tuple[str, int],
                 creds: dict[str, tuple[str, str]] | None = None):
        self.cfg = cfg
        self.proxy_addr = proxy_addr
        self.creds = creds
        self._idle: IdleConnections | None = None  # the proxy connection, during run

    def _headers(self) -> list[tuple[str, str]]:
        return [
            ("User-Agent", USER_AGENT),
            (AGENT_HEADER, self.cfg.agent_id),
            (SEEDER_HEADER, self.cfg.focus),
            (VIEWPORT_HEADER, VIEWPORT),
            ("Accept", "text/html,*/*"),
        ]

    def _request(self, method: str, url: str, body: bytes = b""):
        headers = self._headers()
        if method == "POST":  # agents post only forms
            headers.append(("Content-Type", "application/x-www-form-urlencoded"))
        return proxy_request(self.proxy_addr, method, url, headers, body, idle=self._idle)

    def visit(self, url: str) -> VisitSummary:
        summary = VisitSummary(seed=url)
        try:
            status, headers, data = self._request("GET", url)
        except (OSError, ConnectionError) as exc:
            summary.errors.append(f"seed fetch failed: {exc}")
            return summary
        summary.requests_made += 1
        if self.cfg.interaction_budget == 0:
            summary.stop_reason = "budget"
            return summary
        if status != 200 or not _is_html(headers):
            return summary

        try:
            data = decode_body(data, headers).data
        except BodyDecodeError:
            pass  # parse what came, as a browser shows what it can
        page = parse_html(data.decode("utf-8", "replace"))
        plan = plan_interaction(page, self.cfg, self.creds, url)
        summary.stop_reason = plan.stop_reason
        for action in plan.actions:
            try:
                if action.kind == "follow":
                    self._request("GET", action.target)
                else:
                    self._request("POST", action.target,
                                  urlencode(action.fields).encode("ascii"))
                summary.requests_made += 1
                summary.actions_executed += 1
            except (OSError, ConnectionError) as exc:
                summary.errors.append(f"{action.kind} {action.target}: {exc}")
        return summary

    def run(self, urls: list[str]) -> list[VisitSummary]:
        """Visit `urls` in order over one proxy connection, closed at the end."""
        self._idle = IdleConnections()
        try:
            return [self.visit(url) for url in urls]
        finally:
            self._idle.close()
            self._idle = None

