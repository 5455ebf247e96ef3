#!/usr/bin/env python
"""Declarative multi-tenant QoS on the programmable data plane.

A latency-sensitive ``prod`` tenant and a best-effort ``batch`` tenant
share a node with the Table IV checkpointing noise.  Instead of wiring
weights and throttles by hand, each tenant's contract is a single
declarative :class:`~repro.api.QosPolicy` — weight, token-bucket
shaping, priority class, SLO target — and the scenario config's
``max_inflight`` turns on per-device priority admission control.  The
run reports per-tenant SLO scoring plus the plane's per-stage decision
counters.

Run:  python examples/qos_dataplane.py
"""

from repro.api import QosPolicy, SloTarget, run_qosplane
from repro.util.units import MiB, mb_per_s

# The same contract shape run_qosplane() sweeps — shown here so the
# example reads as documentation for the policy schema.
EXAMPLE_CONTRACT = {
    "prod": QosPolicy(priority="high", slo=SloTarget("p99_latency", 5.0)),
    "batch": QosPolicy(priority="low", slo=SloTarget("bandwidth_floor", mb_per_s(2))),
    "noise-6": QosPolicy(rate_bps=mb_per_s(15), burst_bytes=512 * MiB, priority="low"),
}


def main() -> None:
    for tenant, policy in EXAMPLE_CONTRACT.items():
        print(f"  {tenant:8s} -> {policy}")
    print()

    result = run_qosplane(max_steps=8)
    print(result.format_rows())
    print()
    for scenario in ("baseline", "qos"):
        total = result.violation_total(scenario)
        print(f"  {scenario:8s}: {total} SLO violations")


if __name__ == "__main__":
    main()
