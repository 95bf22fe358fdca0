"""Venice transport-layer channels (Section 5.1.2) and their
inter-channel collaboration (Section 5.1.3).

* :class:`~repro.core.channels.path.FabricPath` -- the latency/bandwidth
  description of the route between two nodes (links, switches, optional
  external router, on-chip vs off-chip interface logic).
* :class:`~repro.core.channels.crma.CrmaChannel` -- cacheline remote
  memory access via load/store instructions.
* :class:`~repro.core.channels.rdma.RdmaChannel` -- bulk DMA transfers.
* :class:`~repro.core.channels.qpair.QPairChannel` -- user-level
  send/receive queue pairs.
* :mod:`~repro.core.channels.collaboration` -- adaptive channel
  selection and CRMA-assisted credit return for QPair flow control.
* :mod:`~repro.core.channels.backend` -- how channel operations are
  costed: :class:`~repro.core.channels.backend.ClosedFormBackend`
  (formulas over the fabric path, the default) or
  :class:`~repro.core.channels.backend.EventBackend` (measured packets
  over the shared event-driven fabric).
"""
