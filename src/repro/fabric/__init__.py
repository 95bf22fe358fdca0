"""Venice interconnect fabric substrate.

The fabric is organised exactly as in Figure 7 of the paper, bottom-up:

* :mod:`repro.fabric.phy`      -- physical links (serialization +
  propagation delay, bandwidth caps, optional bit errors), plus the
  external-router parameters the Figure 6 experiment costs in closed
  form.
* :mod:`repro.fabric.datalink` -- point-to-point reliable transmission:
  credit-based flow control, CRC error detection on the receiver and a
  replay mechanism on the sender.
* :mod:`repro.fabric.network`  -- the low-radix on-chip switch with a
  routing table, plus "switchless" direct chip-to-chip operation.
* :mod:`repro.fabric.topology` -- topology builders (direct pair,
  3D mesh, star through an external router).

Transport-layer channels (CRMA, RDMA, QPair) live in
:mod:`repro.core.channels` and sit on top of this package.
"""
