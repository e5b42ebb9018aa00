"""Fixtures for the server suite: factory-built, always-torn-down daemons.

Every test builds its servers through ``make_server`` so a failing assertion
can never leak a scheduler thread or a warm worker process into the rest of
the session -- the factory closes (cancelling, not draining) whatever the
test left running.
"""

import time

import pytest

from repro.server.core import VerificationServer


@pytest.fixture
def make_server():
    """Build started servers; close every one at teardown, pass or fail."""
    servers = []

    def make(**options):
        server = VerificationServer(**options).start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close(drain=False)


def wait_until(predicate, timeout=10.0, tick=0.01):
    """Poll *predicate* until it holds (or fail the test after *timeout*)."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return
        time.sleep(tick)
    raise AssertionError("condition not reached within {}s".format(timeout))
