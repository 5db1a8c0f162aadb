"""Fixtures for the live-runtime tests.

Every async test body runs through :func:`drive`, which wraps it in
``asyncio.wait_for`` — a per-test hard timeout, so a hung protocol fails
fast instead of stalling the suite (and CI).  :func:`two_peers` builds
the endpoint pair the protocol tests run on: a two-peer fabric.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime import Fabric

#: Hard ceiling for any single async test body.
ASYNC_TEST_TIMEOUT = 20.0


@pytest.fixture
def drive():
    """Run a coroutine to completion on a fresh loop, with a timeout."""

    def runner(coro, timeout: float = ASYNC_TEST_TIMEOUT):
        return asyncio.run(asyncio.wait_for(coro, timeout))

    return runner


@pytest.fixture
def two_peers():
    """Build a :class:`Fabric` with peers ``src`` and ``dst``, for tests
    that drive a protocol's sender and receiver by hand; returns
    ``(fabric, src, dst)``."""

    async def build(mode: str = "cm5", **kwargs):
        fabric = Fabric(mode, **kwargs)
        return fabric, await fabric.add_peer("src"), await fabric.add_peer("dst")

    return build
