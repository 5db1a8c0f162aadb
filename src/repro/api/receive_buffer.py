"""The receiving side's in-order payloads, shared by the simulated
channel (:mod:`repro.api.channel`) and the live one
(:mod:`repro.runtime.channels`).

A leaf: it imports nothing from the simulator, so the live runtime can
use it without loading the simulated protocols.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple


class ChannelReceiveBuffer:
    """The receiving side's in-order payloads.

    With an :meth:`on_record` consumer attached each payload is handed
    over and not kept; without one it accumulates in ``records`` for
    :meth:`read`.  ``len()`` counts every word delivered either way.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[int, ...]] = []
        self._word_count = 0
        self._callback: Optional[Callable[[Tuple[int, ...]], None]] = None

    def on_record(self, callback: Callable[[Tuple[int, ...]], None]) -> None:
        self._callback = callback

    def _deliver(self, _seq: int, payload: Tuple[int, ...]) -> None:
        self._word_count += len(payload)
        if self._callback is None:
            self.records.append(payload)
        else:
            self._callback(payload)

    def read(self) -> List[int]:
        """All words kept so far, in transmission order (flattened from
        ``records`` on each call; empty while a consumer is attached)."""
        return [word for record in self.records for word in record]

    def __len__(self) -> int:
        return self._word_count
