#!/usr/bin/env python3
"""Quickstart: build a Venice rack, borrow remote memory, and measure it.

This walks the complete Figure 2 flow from the public API:

1. build the Table 1 system (eight nodes, 3D mesh, Monitor Node runtime);
2. ask the Monitor Node for remote memory on behalf of node 0;
3. hot-plug the donated region and access it transparently through the
   CRMA channel, comparing latencies against local DRAM and against a
   conventional swap-to-storage configuration;
4. release the memory again.

Run with:  python examples/quickstart.py
"""

from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.mem.swap import LocalDiskSwapDevice, SwapConfig, SwapManager

MB = 1024 * 1024


def main() -> None:
    # 1. Build the paper's platform (Table 1 defaults).
    system = VeniceSystem.build(VeniceConfig())
    print(f"built a Venice system with nodes {system.node_ids} "
          f"on a {system.topology.name} topology")

    # 2. Node 0 asks the Monitor Node for 256 MB of remote memory.
    allocation, grant = system.request_remote_memory(requester=0,
                                                     size_bytes=256 * MB)
    print(f"monitor node granted 256 MB from donor node {allocation.donor} "
          f"({allocation.hops} hop away)")
    print(f"the borrowed region appears at physical address "
          f"{grant.recipient_base:#x} on node 0")

    # 3. Access local and borrowed memory through the same hierarchy.
    node0 = system.node(0)
    hierarchy = node0.build_hierarchy(
        remote_backend=system.remote_backend_for(grant))
    core = node0.build_core(hierarchy)

    local_latency = core.read(64 * MB)                       # local DRAM
    remote_latency = core.read(grant.recipient_base + 4096)  # borrowed memory
    print(f"local DRAM access:      {local_latency:6d} ns")
    print(f"remote (CRMA) access:   {remote_latency:6d} ns  "
          f"({remote_latency / max(local_latency, 1):.1f}x local)")

    # For reference: the conventional alternative, paging to storage.
    swap_core = node0.build_core(node0.build_hierarchy(
        swap=SwapManager(SwapConfig(resident_frames=1024), LocalDiskSwapDevice())))
    swap_latency = swap_core.read(node0.memory_map.highest_address() + 4096)
    print(f"swap-to-storage access: {swap_latency:6d} ns  "
          f"({swap_latency / max(remote_latency, 1):.1f}x the CRMA path)")

    # 4. Tear the sharing down; the donor gets its memory back.
    system.release_remote_memory(allocation, grant)
    donor = system.node(allocation.donor)
    print(f"released: donor node {allocation.donor} has "
          f"{donor.donated_memory_bytes // MB} MB donated, "
          f"{donor.local_memory_bytes // MB} MB local again")


if __name__ == "__main__":
    main()
