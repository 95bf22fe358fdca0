"""The Venice architecture: transport channels, resource-sharing
mechanisms, and node/system composition.

This package implements the paper's primary contribution on top of the
substrates:

* :mod:`repro.core.config`   -- Table 1 configuration dataclasses.
* :mod:`repro.core.address`  -- Remote Address Mapping Table (RAMT) and
  transport-layer TLB (Figure 8).
* :mod:`repro.core.channels` -- the CRMA, RDMA and QPair transport
  channels plus inter-channel collaboration (Section 5.1.2-5.1.3).
* :mod:`repro.core.sharing`  -- resource-joining mechanisms for remote
  memory, remote accelerators and remote NICs (Section 5.2).
* :mod:`repro.core.node` / :mod:`repro.core.system` -- node composition
  and whole-system wiring over a topology.
"""
