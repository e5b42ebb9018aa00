"""Shared fixtures for the test suite.

Randomized tests draw every input from a generator seeded through the
session-scoped ``repro_seed`` fixture.  By default each pytest session picks
a fresh seed (printed in the report header); set the ``REPRO_SEED``
environment variable to replay a previous session bit-for-bit:

    REPRO_SEED=123456789 python -m pytest tests/csp/test_laws_property.py

Failure messages from :func:`repro.quickcheck.testing.for_all` embed the
session seed and the shrunk input, so any red randomized test is
reproducible from its output alone.
"""

import os
import random

import pytest

from repro.csp.events import Alphabet, Channel, event
from repro.csp.process import Environment


def _session_seed() -> int:
    value = os.environ.get("REPRO_SEED")
    if value is not None:
        try:
            return int(value)
        except ValueError:
            raise pytest.UsageError(
                "REPRO_SEED must be an integer, got {!r}".format(value)
            )
    return random.SystemRandom().randrange(2**32)


#: One seed per pytest session: every randomized test derives its own RNG
#: from (seed, test name, case index), so tests stay order-independent.
SESSION_SEED = _session_seed()


@pytest.fixture(scope="session")
def repro_seed():
    """The session seed for randomized tests (override with REPRO_SEED)."""
    return SESSION_SEED


def pytest_report_header(config):
    return (
        "randomized tests: session seed {} "
        "(replay with REPRO_SEED={})".format(SESSION_SEED, SESSION_SEED)
    )


@pytest.fixture
def abc_events():
    """Three plain events."""
    return event("a"), event("b"), event("c")


@pytest.fixture
def msgs_channels():
    """The paper's Sec. V-B channels: ``channel send, rec : msgs``."""
    msgs = ["reqSw", "rptSw", "reqApp", "rptUpd"]
    return Channel("send", msgs), Channel("rec", msgs)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def msgs_alphabet(msgs_channels):
    send, rec = msgs_channels
    return Alphabet.from_channels(send, rec)
