import contextlib
import socket
from dataclasses import dataclass

import hypothesis
import pytest

from websift.wire import EmittedExchange, IcapGateway, ProxyServer

# Property suites run alongside socket-heavy integration tests; a wall
# clock deadline would make them flaky under load.
hypothesis.settings.register_profile(
    "websift", deadline=None, derandomize=True,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("websift")


@pytest.fixture
def dead_port():
    """A loopback port that refuses every connection for the whole test.

    The socket stays bound but never listens, so a connect is refused and
    the kernel cannot hand the port to a server the test starts on port 0.
    """
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]


@dataclass
class CaptureServers:
    proxy: ProxyServer
    gateway: IcapGateway
    emitted: list[EmittedExchange]  # what the default callbacks were handed


@contextlib.contextmanager
def capture_servers(*, emit=None, emit_fallback=None, fail_policy="closed", mode="collect",
                    gateway_addr=None):
    """A started proxy that inspects through a started gateway, built as Pipeline builds them.

    Pipeline hands both servers its one emit callback, so `emit_fallback`
    defaults to `emit`, and `emit` to one that collects into `emitted`.
    `gateway_addr` sends the proxy's ICAP messages elsewhere instead: a dead
    port, or a peer that answers only some of them.
    """
    emitted: list[EmittedExchange] = []
    emit = emitted.append if emit is None else emit
    with contextlib.ExitStack() as stack:
        gateway = IcapGateway(host="127.0.0.1", port=0, mode=mode, emit=emit).start()
        stack.callback(gateway.stop)
        proxy = ProxyServer(host="127.0.0.1", port=0,
                            gateway_addr=gateway_addr or gateway.address,
                            fail_policy=fail_policy,
                            emit_fallback=emit if emit_fallback is None else emit_fallback)
        stack.callback(proxy.stop)
        yield CaptureServers(proxy.start(), gateway, emitted)


@pytest.fixture
def capture():
    """`capture(**overrides)` starts a capture_servers set, stopped when the test ends."""
    with contextlib.ExitStack() as stack:
        yield lambda **overrides: stack.enter_context(capture_servers(**overrides))
