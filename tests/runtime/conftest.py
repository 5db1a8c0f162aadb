"""Fixtures for the live-runtime tests.

Every async test body runs through :func:`drive`, which wraps it in
``asyncio.wait_for`` — a per-test hard timeout, so a hung protocol fails
fast instead of stalling the suite (and CI).  :func:`drive_virtual` does
the same on a virtual clock: time moves only when the loop would wait,
and by exactly the wait, so a test that counts acks or retransmissions
gets the same counts on a loaded machine as on an idle one.
:func:`two_peers` builds the endpoint pair the protocol tests run on: a
two-peer fabric.
"""

from __future__ import annotations

import asyncio
import selectors

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


class VirtualClock(selectors.DefaultSelector):
    """A selector that never sleeps: where the loop would wait for its
    next timer, the clock moves forward by the wait instead.

    Every pass of the loop advances the clock by at least 1 ns, so a
    deadline missed by less than the loop's clock resolution still sees
    time pass, as it would on a real clock.
    """

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0

    def select(self, timeout=None):
        if timeout is None:
            raise RuntimeError("event loop idle with nothing scheduled")
        self.now += max(timeout, 1e-9)
        return super().select(0)


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose ``time()`` is a :class:`VirtualClock`."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        super().__init__(self.clock)

    def time(self) -> float:
        return self.clock.now


@pytest.fixture
def drive_virtual():
    """Run a coroutine to completion on a fresh virtual-clock loop, with
    a timeout in virtual seconds; leftover tasks are cancelled on the
    way out, as :func:`asyncio.run` does."""

    def runner(coro, timeout: float = ASYNC_TEST_TIMEOUT):
        loop = VirtualClockLoop()
        try:
            asyncio.set_event_loop(loop)
            return loop.run_until_complete(asyncio.wait_for(coro, timeout))
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

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
