"""Commodity-interconnect baselines used in the Figure 3 feasibility study.

The paper measures remote-memory access over a legacy x86 cluster with
four configurations:

* 10 Gb Ethernet with remote memory as a swap partition behind a vDisk
  driver (:class:`~repro.interconnects.ethernet.EthernetSwapDevice`);
* InfiniBand with the SCSI RDMA Protocol providing a virtual block
  device (:class:`~repro.interconnects.infiniband.InfinibandSrpSwapDevice`);
* a semi-custom PCIe interconnect doing page swapping with DMAs
  (:class:`~repro.interconnects.pcie.PcieRdmaSwapDevice`); and
* the same PCIe interconnect doing direct load/store cacheline fills
  (:class:`~repro.interconnects.pcie.PcieLoadStoreBackend`), both with
  the crippling commodity-chip limitation the paper notes and with that
  limitation fixed.

Each model composes a per-operation latency out of software-stack,
adapter/IO-bus, wire and protocol components so experiments can reason
about where the time goes.
"""
