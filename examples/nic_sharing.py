#!/usr/bin/env python3
"""Remote NIC sharing (Figure 16b): bond borrowed NICs for more bandwidth.

A network-bound phase on node 0 borrows the NICs of donor nodes.  Each
borrowed NIC is presented by a front-end driver as a virtual NIC whose
traffic rides IP-over-QPair to the donor's back-end driver, crosses the
donor's software bridge, and leaves through the donor's physical NIC.
Linux bonding combines the local NIC and the VNICs into one interface.

The script measures iPerf-style throughput of the bonded interface for
a range of packet sizes and reports utilisation of the aggregate line
rate -- showing the paper's point that tiny packets pay heavily for the
per-packet forwarding path while 256 B packets approach line rate.

Run with:  python examples/nic_sharing.py
"""

from repro.core.config import VeniceConfig
from repro.core.system import VeniceSystem
from repro.core.sharing.remote_nic import RemoteNicSharing
from repro.workloads.iperf import IperfConfig, IperfWorkload


def main() -> None:
    system = VeniceSystem.build(VeniceConfig())
    local_nic = system.node(0).primary_nic()
    sharing = RemoteNicSharing(local_nic=local_nic)

    # Borrow three NICs through the Monitor Node.
    for _ in range(3):
        allocation = system.monitor.request_nic(requester=0)
        donor = system.node(allocation.donor)
        sharing.attach_remote_nic(donor.primary_nic(),
                                  qpair=system.qpair_channel(0, allocation.donor))
        print(f"borrowed the NIC of node {allocation.donor} "
              f"({allocation.hops} hop away)")

    iperf = IperfWorkload(IperfConfig(payload_sizes=(4, 16, 64, 256)))
    print(f"\n{'payload':>8} {'config':>8} {'throughput':>12} "
          f"{'vs local NIC':>13} {'utilisation':>12}")
    for payload in iperf.config.payload_sizes:
        local_gbps = local_nic.throughput_gbps(payload)
        print(f"{payload:>6} B {'local':>8} {local_gbps:>10.3f} Gb/s "
              f"{1.0:>12.2f}x {local_nic.line_rate_utilization(payload) * 100:>10.1f} %")
        for num_remote in (1, 2, 3):
            bond = sharing.bonded_interface(num_remote=num_remote)
            gbps = bond.throughput_gbps(payload)
            utilisation = bond.line_rate_utilization(payload) * 100
            print(f"{payload:>6} B {f'LN+{num_remote}RN':>8} {gbps:>10.3f} Gb/s "
                  f"{gbps / local_gbps:>12.2f}x {utilisation:>10.1f} %")
        print()


if __name__ == "__main__":
    main()
