"""Instruction-level cost accounting substrate.

The paper measures messaging cost as *dynamic instruction counts*, split into
three subcategories reflecting the cost hierarchy of machines with
memory-mapped network interfaces (Appendix A):

* ``reg``  -- register-based instructions,
* ``mem``  -- loads and stores to memory,
* ``dev``  -- loads and stores to memory-mapped devices (the NI).

This package provides the machinery to perform that accounting while the
messaging layer actually executes: an instruction taxonomy
(:mod:`repro.arch.isa`), per-feature attribution of counts
(:mod:`repro.arch.attribution`), count matrices
(:mod:`repro.arch.counters`), an abstract processor that messaging-layer
code charges its work to (:mod:`repro.arch.machine`), and weighted cycle
models that convert counts into machine-specific cycle estimates
(:mod:`repro.arch.costmodel`).
"""

from repro._lazy import exported_names, lazy_exports

# Imported on first use (see repro._lazy): the live runtime needs only
# ``attribution`` and should not load the instruction-accounting machinery.
_EXPORTS = {
    "repro.arch.isa": ("InstrClass", "InstructionMix"),
    "repro.arch.attribution": ("Feature", "AttributionStack"),
    "repro.arch.counters": ("CostMatrix",),
    "repro.arch.machine": ("AbstractProcessor",),
    "repro.arch.costmodel": ("CostModel", "UNIT_COST_MODEL", "CM5_CYCLE_MODEL"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = exported_names(_EXPORTS)
