"""The live runtime imports only the runtime, and the lazy package inits
keep the public surface they had when they imported everything.

Each check runs in a fresh interpreter: in this process earlier tests
have already imported the simulator and bound the lazy names, which
would hide both an import that leaks into the simulator and a package
function whose body looks up a name its own ``__getattr__`` cannot
serve.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: ``repro`` modules outside ``repro.runtime`` that ``import
#: repro.runtime`` may load: the four shared leaves the runtime uses and
#: the package inits above them.
RUNTIME_SHARED_MODULES = frozenset({
    "repro",
    "repro._lazy",
    "repro.arch",
    "repro.arch.attribution",
    "repro.protocols",
    "repro.protocols.sequencing",
    "repro.api",
    "repro.api.framing",
    "repro.api.receive_buffer",
})

#: Every lazy package init and the public names it exported when it
#: imported its submodules eagerly.
PUBLIC_NAMES = {
    "repro": """
        quick_setup quick_cr_setup Simulator Node make_node_pair CmamCosts
        CostBook AbstractProcessor CostMatrix CostModel Feature InstrClass
        InstructionMix CM5_CYCLE_MODEL UNIT_COST_MODEL CM5Network
        CM5NetworkConfig CRNetwork CRNetworkConfig FaultInjector FaultPlan
        InOrderDelivery PairSwapReorder FractionReorder HeadDelayReorder
        GroupAck NoAck PerPacketAck ProtocolResult run_single_packet
        run_finite_sequence run_indefinite_sequence run_cr_finite_sequence
        run_cr_indefinite_sequence""",
    "repro.arch": """
        InstrClass InstructionMix Feature AttributionStack CostMatrix
        AbstractProcessor CostModel UNIT_COST_MODEL CM5_CYCLE_MODEL""",
    "repro.protocols": """
        ProtocolResult ProtocolRun packets_for packet_payload_sizes
        AckPolicy PerPacketAck GroupAck NoAck make_ack_policy ReorderWindow
        SequenceGenerator SequenceError RetransmitBuffer SendRecord
        run_single_packet TABLE1_ROWS table1_totals FiniteSequenceSender
        FiniteSequenceReceiver run_finite_sequence StreamSender
        StreamReceiver run_indefinite_sequence CRFiniteSender
        CRFiniteReceiver CRStreamSender CRStreamReceiver
        run_cr_finite_sequence run_cr_indefinite_sequence""",
    "repro.api": """
        Endpoint Channel open_channel BulkResult bulk_put FramedChannel
        FrameAssembler""",
}


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on its path;
    returns its stdout, and fails the test with its stderr if it
    exits non-zero."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_runtime_loads_no_simulator_module():
    loaded = run_fresh("""
        import sys
        import repro.runtime
        print("\\n".join(sorted(sys.modules)))
    """).split()
    outside = {name for name in loaded
               if (name == "repro" or name.startswith("repro."))
               and name != "repro.runtime"
               and not name.startswith("repro.runtime.")}
    assert outside <= RUNTIME_SHARED_MODULES, sorted(
        outside - RUNTIME_SHARED_MODULES)


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_lazy_package_keeps_its_public_surface(package):
    run_fresh(f"""
        import importlib, inspect, sys

        package = importlib.import_module({package!r})
        # The init itself imports none of the submodules it re-exports.
        assert package._EXPORTS, "not a lazy init"
        early = [name for name in package._EXPORTS if name in sys.modules]
        assert not early, early
        expected = {PUBLIC_NAMES[package].split()!r}
        assert sorted(package.__all__) == sorted(expected), package.__all__
        assert set(expected) <= set(dir(package))

        star = {{}}
        exec("from {package} import *", star)
        assert set(expected) <= set(star), set(expected) - set(star)

        for module_name, names in package._EXPORTS.items():
            module = importlib.import_module(module_name)
            for name in names:
                value = getattr(package, name)
                assert value is getattr(module, name), name
                assert star[name] is value, name
                if inspect.isclass(value) or inspect.isfunction(value):
                    assert value.__module__.startswith({package!r}), name

        try:
            package.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("an unknown name resolved")
    """)


def test_quick_setups_run_in_a_fresh_interpreter():
    # The package's own functions cannot lean on its lazy ``__getattr__``.
    out = run_fresh("""
        from repro import quick_cr_setup, quick_setup
        for setup in (quick_setup, quick_cr_setup):
            sim, src, dst, network = setup()
            print(type(network).__name__)
    """)
    assert out.split() == ["CM5Network", "CRNetwork"]
