"""Cluster subsystem: N-node fleets over configurable fabric topologies.

* :mod:`repro.cluster.cluster`       -- :class:`Cluster` /
  :class:`ClusterConfig`: a fleet of Venice nodes over a point-to-point,
  star, multi-router fat-tree, or 3D-mesh fabric.
* :mod:`repro.cluster.matchmaker`    -- borrower/donor matchmaking for
  remote-memory, remote-accelerator and remote-NIC shares.
* :mod:`repro.cluster.latency_cache` -- shared memoization of the
  closed-form path latencies so N-node sweeps stay cheap.
"""
