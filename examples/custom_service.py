#!/usr/bin/env python3
"""Benchmark a *new* cloud storage service with the same methodology.

The paper stresses that its methodology "is generic and can be applied to
any other service" (§2.4).  This example shows how a downstream user would
do that with this library: describe a hypothetical provider ("NimbusDrive"
— European storage, bundling, smart compression, but no deduplication) as
a ``[[service]]`` table in ``examples/specs/synthetic.toml``, register it,
and immediately get the full Table 1 row and Fig. 6 numbers for it, side by
side with Dropbox.  No Python describes the service: the spec is all there
is to it.

Run it with::

    python examples/custom_service.py
"""

from __future__ import annotations

import os
import sys

from repro import PerformanceExperiment, register_services_from_file, render_grouped_bars, render_table, workload_by_name
from repro.core.capabilities import CapabilityProber

SPEC_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs", "synthetic.toml")


def main() -> int:
    register_services_from_file(SPEC_FILE)
    services = ["dropbox", "nimbusdrive"]

    # Table 1 row for the new service, produced by the traffic-based probes.
    print("Probing capabilities (this is the methodology of Sec. 4)...")
    matrix = CapabilityProber().build_matrix(services)
    print()
    print(render_table(matrix.rows(), title="Capability matrix (Table 1, extended with NimbusDrive)"))

    # Fig. 6-style performance comparison on two workloads.
    print()
    print("Running the performance benchmarks (Sec. 5)...")
    experiment = PerformanceExperiment(
        services=services,
        workloads=[workload_by_name("1x1MB"), workload_by_name("100x10kB")],
        repetitions=2,
        pause_between_runs=30.0,
    )
    result = experiment.run()
    print()
    print(render_grouped_bars(result.figure_series("completion"), group_order=["1x1MB", "100x10kB"],
                              title="Completion time (s)"))
    print()
    print(render_grouped_bars(result.figure_series("overhead"), group_order=["1x1MB", "100x10kB"],
                              value_format="{:.3f}", title="Protocol overhead"))
    print()
    print("NimbusDrive benefits from nearby storage and bundling, but without deduplication "
          "it re-uploads every replica — exactly the kind of trade-off the paper's methodology exposes.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
