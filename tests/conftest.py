import socket

import hypothesis
import pytest

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
