#!/usr/bin/env python3
"""Runtime design space: donor-selection policies and fault handling.

The paper's prototype allocator "only considers distance" and leaves
reliability to future work.  This example exercises the runtime layer
beyond that starting point: it compares three donor-selection policies
on the same burst of memory requests, then injects a link failure and a
node failure and shows the recovery plan the Monitor Node produces.

Run with:  python examples/runtime_policies.py
"""

from collections import Counter

from repro.fabric.topology import build_mesh3d
from repro.runtime.agent import NodeAgent
from repro.runtime.fault import FaultHandler
from repro.runtime.monitor import MonitorNode
from repro.runtime.policies import (
    BandwidthAwarePolicy,
    DistanceFirstPolicy,
    LoadBalancedPolicy,
)

MB = 1024 * 1024
GB = 1024 * MB


def build_monitor(policy) -> MonitorNode:
    topology = build_mesh3d((2, 2, 2))
    monitor = MonitorNode(topology, policy=policy)
    for node in range(8):
        monitor.register_agent(NodeAgent(
            node_id=node, memory_capacity_bytes=4 * GB,
            num_accelerators=1, num_nics=1,
            neighbors=tuple(topology.neighbors(node))))
    return monitor


def main() -> None:
    print("donor choice for eight 256 MB requests from node 0, per policy\n")
    for policy in (DistanceFirstPolicy(), LoadBalancedPolicy(),
                   BandwidthAwarePolicy()):
        monitor = build_monitor(policy)
        donors = [monitor.request_memory(requester=0, size_bytes=256 * MB).donor
                  for _ in range(8)]
        spread = dict(sorted(Counter(donors).items()))
        print(f"{policy.name:>16}: donors used {spread}")

    print("\nfault handling on the distance-first runtime")
    monitor = build_monitor(DistanceFirstPolicy())
    handler = FaultHandler(monitor)
    allocation = monitor.request_memory(requester=0, size_bytes=512 * MB)
    print(f"  node 0 borrowed 512 MB from node {allocation.donor}")

    plan = handler.handle_link_down(0, allocation.donor)
    step = plan.affected()[0]
    print(f"  link (0,{allocation.donor}) failed -> {step.action.value}; "
          f"new path {step.new_path}")

    plan = handler.handle_node_failure(allocation.donor)
    step = plan.affected()[0]
    replacement = f"node {step.new_donor}" if step.new_donor is not None else "nothing"
    print(f"  node {allocation.donor} failed -> {step.action.value}; "
          f"memory now comes from {replacement}")
    print(f"  active allocations after recovery: {len(monitor.rat.active())}")


if __name__ == "__main__":
    main()
