"""User-facing communication API.

A small, sockets-flavoured façade over the protocol layer — what a
downstream user of this library actually programs against:

* :class:`~repro.api.endpoint.Endpoint` — a node's communication context
  (dispatcher + handler registration + active-message send).
* :class:`~repro.api.channel.Channel` — an ordered, reliable,
  flow-controlled word stream between two endpoints.
* :func:`~repro.api.bulk.bulk_put` — a one-shot memory-to-memory transfer.

The API inspects the network's service flags (``provides_in_order``,
``provides_flow_control``, ``provides_reliability``) and instantiates the
cheap Section 4 protocols when the hardware provides the services, or the
full CMAM machinery when it does not — the paper's thesis, operating as a
dispatch rule.
"""

from repro._lazy import exported_names, lazy_exports

# Imported on first use (see repro._lazy): the live runtime needs only
# ``framing`` and ``receive_buffer`` and should not load the simulated
# protocols the channel and bulk modules run on.
_EXPORTS = {
    "repro.api.endpoint": ("Endpoint",),
    "repro.api.channel": ("Channel", "open_channel"),
    "repro.api.bulk": ("BulkResult", "bulk_put"),
    "repro.api.framing": ("FramedChannel", "FrameAssembler"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = exported_names(_EXPORTS)
