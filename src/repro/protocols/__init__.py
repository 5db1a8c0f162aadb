"""The paper's communication protocols.

Three protocols over the CMAM layer (Section 3.2) — single-packet, finite
sequence, and indefinite sequence — and their drastically simplified
counterparts over a Compressionless Routing substrate (Section 4).
"""

from repro._lazy import exported_names, lazy_exports

# Imported on first use (see repro._lazy): the live runtime needs only
# ``sequencing`` and should not load the simulated protocols.
_EXPORTS = {
    "repro.protocols.base": (
        "ProtocolResult", "ProtocolRun", "packets_for", "packet_payload_sizes"),
    "repro.protocols.acks": (
        "AckPolicy", "PerPacketAck", "GroupAck", "NoAck", "make_ack_policy"),
    "repro.protocols.sequencing": (
        "ReorderWindow", "SequenceGenerator", "SequenceError"),
    "repro.protocols.retransmit": ("RetransmitBuffer", "SendRecord"),
    "repro.protocols.single_packet": (
        "run_single_packet", "TABLE1_ROWS", "table1_totals"),
    "repro.protocols.finite_sequence": (
        "FiniteSequenceSender", "FiniteSequenceReceiver", "run_finite_sequence"),
    "repro.protocols.indefinite_sequence": (
        "StreamSender", "StreamReceiver", "run_indefinite_sequence"),
    "repro.protocols.cr_protocols": (
        "CRFiniteSender", "CRFiniteReceiver", "CRStreamSender",
        "CRStreamReceiver", "run_cr_finite_sequence",
        "run_cr_indefinite_sequence"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = exported_names(_EXPORTS)
