"""``python -m repro`` — self-verification and the live runtime CLI.

With no arguments (or ``selfcheck``): run the keystone calibration pins
in a few hundred milliseconds and print a one-screen report — is this
installation reproducing the paper?  For the full artifact regeneration
use ``python -m repro.experiments.runner``.

``python -m repro runtime COMMAND`` drives the live asyncio runtime:
the same three protocols over real transports, with measured wall-clock
feature breakdowns (see :mod:`repro.runtime`).
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    InOrderDelivery,
    quick_cr_setup,
    quick_setup,
    run_cr_indefinite_sequence,
    run_finite_sequence,
    run_indefinite_sequence,
    run_single_packet,
)

PINS = (
    ("single-packet source/dest", (20, 27)),
    ("finite 16w src/dst", (173, 224)),
    ("finite 1024w src/dst", (6221, 5516)),
    ("indefinite 16w src/dst", (216, 265)),
    ("indefinite 1024w src/dst", (13824, 16141)),
    ("CR indefinite 1024w total", (8717,)),
)


def selfcheck() -> int:
    print("repro self-check: Karamcheti & Chien (ASPLOS 1994) calibration pins\n")
    failures = 0

    def check(name, expected, actual):
        nonlocal failures
        ok = tuple(actual) == tuple(expected)
        if not ok:
            failures += 1
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {actual}"
              + ("" if ok else f" (expected {expected})"))

    sim, src, dst, _net = quick_setup()
    r = run_single_packet(sim, src, dst)
    check("single-packet source/dest", (20, 27),
          (r.src_costs.total, r.dst_costs.total))

    for words, expected in ((16, (173, 224)), (1024, (6221, 5516))):
        sim, src, dst, _net = quick_setup(delivery_factory=InOrderDelivery)
        r = run_finite_sequence(sim, src, dst, words)
        check(f"finite {words}w src/dst", expected,
              (r.src_costs.total, r.dst_costs.total))

    for words, expected in ((16, (216, 265)), (1024, (13824, 16141))):
        sim, src, dst, _net = quick_setup()
        r = run_indefinite_sequence(sim, src, dst, words)
        check(f"indefinite {words}w src/dst", expected,
              (r.src_costs.total, r.dst_costs.total))

    sim, src, dst, _net = quick_cr_setup()
    r = run_cr_indefinite_sequence(sim, src, dst, 1024)
    check("CR indefinite 1024w total", (8717,), (r.total,))
    check("CR indefinite overhead", (0,), (r.overhead_total,))

    print()
    if failures:
        print(f"{failures} pin(s) FAILED — the reproduction is broken.")
        return 1
    print("All calibration pins reproduce the paper exactly.")
    print("Full artifacts: python -m repro.experiments.runner all")
    return 0


def main(argv=()) -> int:
    """Entry point.  ``main()`` with no arguments runs the self-check."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction self-check and live-runtime CLI.",
    )
    commands = parser.add_subparsers(dest="command")
    commands.add_parser(
        "selfcheck", help="verify the calibration pins (the default)")
    runtime = commands.add_parser(
        "runtime", help="run the live asyncio messaging runtime")

    from repro.runtime.demo import add_runtime_subparsers
    add_runtime_subparsers(runtime)

    args = parser.parse_args(list(argv))
    if args.command is None or args.command == "selfcheck":
        return selfcheck()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
