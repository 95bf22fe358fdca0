"""Resource-joining mechanisms (Section 5.2).

* :mod:`repro.core.sharing.remote_memory` -- direct remote memory via
  hot-plug + CRMA, and remote memory as swap space via RDMA.
* :mod:`repro.core.sharing.remote_accelerator` -- mailbox-based remote
  accelerator access with the exclusive-mapping fast path.
* :mod:`repro.core.sharing.remote_nic` -- IP-over-QPair virtual NICs
  combined with Linux bonding.
"""
