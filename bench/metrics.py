"""Which end-to-end metric each layer metric should move, and where.

Written down before any measurement, as the choosing-metrics method
asks: a later change that claims a saving in one layer names the row
here and shows the end-to-end metric moving on that workload, and the
other workloads staying put.  ``BENCHMARK.json`` lists the names, units
and directions; this table adds the prediction.

A layer's real self time moves ``calls_per_msg`` only when its saving
removes calls.  A saving inside native code (a cheaper ``struct`` or
``crc32`` call) moves only the self time and the real CPU time, which
are reported but carry no bound: on a shared machine they are too
noisy to gate on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: per-layer metric -> (end-to-end metric it should move, workload).
LAYER_TARGETS: Dict[str, Tuple[str, str]] = {
    # Calls per layer: the deterministic ledger, which adds up to
    # calls_per_msg exactly.
    "transport.calls_per_msg": ("calls_per_msg", "rpc-open"),
    "frames.calls_per_msg": ("calls_per_msg", "bulk-cm5"),
    "endpoint.calls_per_msg": ("calls_per_msg", "rpc-open"),
    "channels.calls_per_msg": ("calls_per_msg", "bulk-cm5"),
    "protocols.calls_per_msg": ("calls_per_msg", "small-cm5"),
    "reliability.calls_per_msg": ("calls_per_msg", "small-cm5"),
    "flowcontrol.calls_per_msg": ("calls_per_msg", "small-cr"),
    "membership.calls_per_msg": ("calls_per_msg", "rpc-open"),
    "spans.calls_per_msg": ("calls_per_msg", "small-cr"),
    "tracing.calls_per_msg": ("calls_per_msg", "small-cr"),
    "loop.calls_per_msg": ("calls_per_msg", "rpc-open"),
    "bench.calls_per_msg": ("calls_per_msg", "small-cr"),
    # Real self time per layer, from the traced run.
    "transport.self_us_per_msg": ("calls_per_msg", "rpc-open"),
    "frames.build_us_per_msg": ("calls_per_msg", "small-cr"),
    "frames.encode_us_per_msg": ("calls_per_msg", "small-cr"),
    "frames.decode_us_per_msg": ("calls_per_msg", "bulk-cm5"),
    "endpoint.self_us_per_msg": ("calls_per_msg", "rpc-open"),
    "channels.send_us_per_msg": ("calls_per_msg", "bulk-cm5"),
    "channels.recv_us_per_msg": ("calls_per_msg", "bulk-cm5"),
    "protocols.send_us_per_msg": ("calls_per_msg", "small-cm5"),
    "protocols.recv_us_per_msg": ("calls_per_msg", "small-cm5"),
    "protocols.ack_rx_us_per_msg": ("calls_per_msg", "small-cm5"),
    "flowcontrol.self_us_per_msg": ("calls_per_msg", "small-cr"),
    "spans.self_us_per_msg": ("calls_per_msg", "small-cr"),
    "loop.unattributed_us_per_msg": ("calls_per_msg", "rpc-open"),
    # What the layers do, counted.
    "frames.decodes_per_msg": ("calls_per_msg", "small-cr"),
    "endpoint.frames_per_datagram": ("datagrams_per_msg", "small-cr"),
    "endpoint.flushes_per_msg": ("datagrams_per_msg", "rpc-open"),
    "channels.retained_items_per_msg": ("peak_rss_mib", "bulk-cm5"),
    "protocols.acks_per_data": ("datagrams_per_msg", "rpc-open"),
    "protocols.ooo_share": ("calls_per_msg", "small-cm5"),
    "reliability.rtx_per_drop": ("wire_bytes_per_msg", "small-cm5"),
    "reliability.spurious_rtx_share": ("wire_bytes_per_msg", "small-cm5"),
    "reliability.timer_fires_per_msg": ("calls_per_msg", "rpc-open"),
    "flowcontrol.credit_frames_per_msg": ("datagrams_per_msg", "small-cr"),
    "membership.frames_per_peer_per_s": ("datagrams_per_msg", "rpc-open"),
    "spans.per_msg": ("calls_per_msg", "small-cr"),
    "spans.ordering_fault_share": ("calls_per_msg", "small-cm5"),
    "loop.callbacks_per_msg": ("calls_per_msg", "rpc-open"),
    "loop.timers_per_msg": ("calls_per_msg", "rpc-open"),
    "loop.tasks_per_msg": ("calls_per_msg", "rpc-open"),
    "loop.gc_share": ("peak_rss_mib", "bulk-cm5"),
}

#: Recorded in every result file but kept out of ``BENCHMARK.json``.
#: The rule: a per-layer *time* is listed only if no workload reads it
#: as exactly 0, since a time that reads the same on every run measures
#: nothing; a *count or ratio* may read 0 where its layer is bypassed
#: (``small-cr`` has no acks, reordering or retransmits), because that 0
#: is the Figure 6 control a change must leave alone.  Witnesses of the
#: run rather than of a layer stay out too.
EXTRA_METRICS: Dict[str, str] = {
    "reliability.self_us_per_msg": "us",       # time, 0 on small-cr: no retransmitter
    "membership.self_us_per_msg": "us",        # time, 0 off rpc-open: no detector
    "protocols.send_wait_us_per_msg": "us",    # time, 0 where window and credit never fill
    "bench.self_us_per_msg": "us",             # the harness's own work
    "bench.calib_ms": "ms",                    # machine-speed witness, never a divisor
    "transport.drops": "count",                # injected faults: base of rtx_per_drop
    "reliability.retransmissions": "count",    # the other base of rtx_per_drop
    "membership.false_dead": "count",          # must be 0: part of the check
}

#: Real times, from the ``time`` repetitions: the program's own speed on
#: this machine, reported with every full run but never bounded.
MEASURED_METRICS: Dict[str, str] = {
    "cpu_us_per_msg": "us",
    "msgs_per_s": "msg/s",
    "goodput_mib_s": "MiB/s",
}

#: Metrics read from the ``trace`` repetitions: self times and the
#: boundary call counts of the time ledger.
TRACED = ("frames.decodes_per_msg", "endpoint.flushes_per_msg",
          "reliability.timer_fires_per_msg")
#: Read from the unwatched ``time`` repetitions: real-time ratios, and
#: memory without the profiler's own.
TIMED = ("peak_rss_mib", "loop.gc_share", "spans.ordering_fault_share",
         *MEASURED_METRICS)


def source(name: str) -> Optional[str]:
    """The worker mode whose repetitions measure ``name``, or None when
    counting and timing repetitions measure it alike: set-up comes before
    either watches, and the program's own counters come out the same
    whatever watches the run."""
    if name == "calls_per_msg" or name.endswith(".calls_per_msg"):
        return "count"
    if name in TIMED:
        return "time"
    if name in TRACED or name.endswith("_us_per_msg"):
        return "trace"
    return None


def measured_by(name: str, mode: str) -> bool:
    """True when repetitions in ``mode`` measure ``name``."""
    wanted = source(name)
    return mode == wanted if wanted else mode in ("count", "time")
