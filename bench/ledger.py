"""The per-layer ledgers: calls counted by layer, and time at boundaries.

**Calls.**  A counting run profiles the traffic with ``cProfile`` and
:func:`call_ledger` charges every call, Python or built-in, to a layer:
a Python function to the layer its source file belongs to, a built-in
to the layer of the code that called it.  Library code of no layer
(``enum``, ``functools``, dataclass-generated methods) is charged to the
layers of its callers, in proportion to the calls each made.  The
layers' counts add up to the run's total exactly.  On the virtual clock
the run is the same with and without the profiler, so the counts are
exact and repeat for a given seed.

**Time.**  A traced run wraps the calls at each layer boundary of
``repro.runtime`` (the table below), from benchmark code only, so the
program itself is unchanged.  Each wrapper charges its duration to its
layer and subtracts the time its child boundaries took, so a layer's
*self* time is what it spent outside every other wrapped layer.

Coroutine boundaries are timed one step (``send()``/``throw()``) at a
time: the busy part of each step is self time, the time the coroutine
spends suspended is *wait* time.  All frames pushed during a step are
popped before it yields, so tasks interleaving on the event loop never
see each other's frames.

Wrappers must be installed before the ``Fabric`` is built: the runtime
captures handlers as bound methods when it binds channels and sets
receivers.  A boundary that no longer exists is listed in
:attr:`Ledger.missing` and its time falls to its caller (or to the
unattributed remainder); a refactor of the program never breaks the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent

#: ``repro`` packages outside ``repro.runtime`` whose code runs on the
#: message path, and the layer that uses them.
PACKAGE_LAYERS = {"api": "channels", "protocols": "protocols", "arch": "spans"}

#: Layers every counting run reports, 0 where a workload bypasses one.
CALL_LAYERS = ("transport", "frames", "endpoint", "channels", "protocols",
               "reliability", "flowcontrol", "membership", "spans", "tracing",
               "loop", "bench")


def code_layer(path: str) -> Optional[str]:
    """The layer a source file belongs to, or None for library code that
    is charged to its callers.  ``repro/runtime/<module>.py`` is the layer
    ``<module>``; asyncio and the selector are ``loop``; this directory is
    ``bench``."""
    if path.startswith(str(BENCH)):
        return "bench"
    parts = Path(path).parts
    if "repro" in parts:
        rest = parts[len(parts) - parts[::-1].index("repro"):]
        if len(rest) >= 2 and rest[0] == "runtime":
            return Path(rest[1]).stem
        if len(rest) >= 2:
            return PACKAGE_LAYERS.get(rest[0], rest[0])
    if "asyncio" in parts or Path(path).name == "selectors.py":
        return "loop"
    return None


def call_ledger(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Calls per layer from a profile's ``stats`` (after
    ``cProfile.Profile.create_stats``).

    Each entry maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each calling function to a tuple
    whose *first* field is how many calls it made.  Built-ins have file
    ``"~"``.  Calls whose caller the profiler never saw (it starts in the
    middle of the stack) are charged to ``loop``, which resumes tasks.
    """
    shares: Dict[tuple, Dict[str, float]] = {}

    def layers_of(func: tuple, seen: frozenset) -> Dict[str, float]:
        """How one call of ``func`` splits over layers."""
        own = code_layer(func[0]) if func[0] != "~" else None
        if own is not None:
            return {own: 1.0}
        if func in shares:
            return shares[func]
        if func in seen or func not in stats:
            return {"loop": 1.0}
        calls, callers = stats[func][1], stats[func][4]
        split: Dict[str, float] = {}
        for caller, edge in callers.items():
            for layer, part in layers_of(caller, seen | {func}).items():
                split[layer] = split.get(layer, 0.0) + edge[0] * part
        seen_calls = sum(edge[0] for edge in callers.values())
        if calls > seen_calls:
            split["loop"] = split.get("loop", 0.0) + calls - seen_calls
        total = sum(split.values()) or 1.0
        shares[func] = {layer: n / total for layer, n in split.items()}
        return shares[func]

    ledger: Dict[str, float] = {}
    for func, entry in stats.items():
        for layer, part in layers_of(func, frozenset()).items():
            ledger[layer] = ledger.get(layer, 0.0) + entry[1] * part
    return ledger


#: layer -> (module, qualified name) of every boundary the layer owns.
#: Layer names follow the ``src/repro/runtime`` modules they time.
BOUNDARIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "transport": (
        ("repro.runtime.transport", "LoopbackTransport.send_now"),
        ("repro.runtime.transport", "LoopbackHub._hand_over"),
    ),
    # Bound names, not definitions: these are the references the
    # protocols and the endpoint actually call.
    "frames.build": (
        ("repro.runtime.protocols", "data_frame"),
        ("repro.runtime.protocols", "cum_ack_frame"),
    ),
    "frames.encode": (
        ("repro.runtime.endpoint", "encode_frame"),
        ("repro.runtime.endpoint", "encode_batch"),
    ),
    "frames.decode": (
        ("repro.runtime.endpoint", "decode_frame"),
    ),
    "endpoint": (
        ("repro.runtime.endpoint", "RuntimeEndpoint.send_frame"),
        ("repro.runtime.endpoint", "RuntimeEndpoint.post_frame"),
        ("repro.runtime.endpoint", "RuntimeEndpoint._flush"),
        ("repro.runtime.endpoint", "RuntimeEndpoint._on_datagram"),
    ),
    "channels.send": (
        ("repro.runtime.channels", "LiveFramedChannel.send_message"),
        ("repro.runtime.channels", "LiveChannel.send"),
    ),
    "channels.recv": (
        ("repro.api.channel", "ChannelReceiveBuffer._deliver"),
        ("repro.api.framing", "FrameAssembler.feed"),
    ),
    "protocols.send": (
        ("repro.runtime.protocols", "OrderedChannelSender.send"),
    ),
    "protocols.recv": (
        ("repro.runtime.protocols", "OrderedChannelReceiver._on_frame"),
    ),
    "protocols.ack_rx": (
        ("repro.runtime.protocols", "OrderedChannelSender._on_frame"),
    ),
    "reliability": (
        ("repro.runtime.reliability", "Retransmitter.track"),
        ("repro.runtime.reliability", "Retransmitter.ack"),
        ("repro.runtime.reliability", "Retransmitter.ack_below"),
        ("repro.runtime.reliability", "Retransmitter._fire"),
    ),
    "flowcontrol": (
        ("repro.runtime.flowcontrol", "SenderWindow.can_send"),
        ("repro.runtime.flowcontrol", "SenderWindow.consume"),
        ("repro.runtime.flowcontrol", "SenderWindow.apply"),
        ("repro.runtime.flowcontrol", "SenderWindow.signal"),
        ("repro.runtime.flowcontrol", "ReceiverWindow.on_data"),
        ("repro.runtime.flowcontrol", "ReceiverWindow.on_deliver"),
        ("repro.runtime.flowcontrol", "ReceiverWindow.advertise"),
    ),
    "membership": (
        ("repro.runtime.membership", "SwimDetector._probe_round"),
        ("repro.runtime.membership", "SwimDetector._expire_probes"),
        ("repro.runtime.membership", "SwimDetector._evaluate_suspects"),
        ("repro.runtime.membership", "SwimDetector._on_frame"),
    ),
    "spans": (
        ("repro.runtime.spans", "_Span.__enter__"),
        ("repro.runtime.spans", "_Span.__exit__"),
    ),
}


class Ledger:
    """Self and wait time per layer, plus call counts per boundary."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: Dict[str, int] = {}
        self.wait_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.missing: List[str] = []
        # One child-time accumulator per active boundary step.
        self._stack: List[List[int]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary in ``boundaries`` (see :data:`BOUNDARIES`)."""
        for layer, targets in boundaries.items():
            self.self_ns.setdefault(layer, 0)
            for module_name, qualname in targets:
                label = f"{module_name}:{qualname}"
                try:
                    owner = importlib.import_module(module_name)
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(label)
                    continue
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, label, original))

    def uninstall(self) -> None:
        """Put every wrapped boundary back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, layer: str, label: str, fn: Callable) -> Callable:
        """A boundary around ``fn`` charging ``layer``; coroutine
        functions are timed step by step."""
        self.self_ns.setdefault(layer, 0)
        self.wait_ns.setdefault(layer, 0)
        self.calls.setdefault(label, 0)
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(layer, label, fn)
        clock, stack, self_ns, calls = (self.clock, self._stack,
                                        self.self_ns, self.calls)

        @functools.wraps(fn)
        def boundary(*args, **kwargs):
            calls[label] += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return boundary

    def _wrap_coroutine(self, layer: str, label: str, fn: Callable) -> Callable:
        clock, stack, self_ns, wait_ns, calls = (
            self.clock, self._stack, self.self_ns, self.wait_ns, self.calls)

        def settle(start: int, frame: List[int]) -> None:
            elapsed = clock() - start
            stack.pop()
            self_ns[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed

        @types.coroutine
        def stepped(coro):
            value, error = None, None
            while True:
                frame = [0]
                stack.append(frame)
                start = clock()
                try:
                    if error is None:
                        signal = coro.send(value)
                    else:
                        signal = coro.throw(error)
                except StopIteration as stop:
                    settle(start, frame)
                    return stop.value
                except BaseException:
                    settle(start, frame)
                    raise
                settle(start, frame)
                suspended = clock()
                try:
                    value, error = (yield signal), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine
                    value, error = None, exc
                wait_ns[layer] += clock() - suspended

        # A native coroutine around the stepper, so the wrapped function
        # still passes asyncio's coroutine checks (create_task et al.).
        @functools.wraps(fn)
        async def boundary(*args, **kwargs):
            calls[label] += 1
            return await stepped(fn(*args, **kwargs))

        return boundary

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Zero every total (call with no boundary active)."""
        for totals in (self.self_ns, self.wait_ns, self.calls):
            for key in totals:
                totals[key] = 0

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Copies of the self/wait/call totals."""
        return {"self_ns": dict(self.self_ns), "wait_ns": dict(self.wait_ns),
                "calls": dict(self.calls)}

