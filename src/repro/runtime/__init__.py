"""Resource-management runtime (Section 5.3).

The runtime is the third Venice layer: a Monitor Node (MN) maintains a
global view of available resources through three tables -- the Resource
Registration Table (RRT), the Resource Allocation Table (RAT) and the
Topology Status Table (TST) -- fed by per-node agents that report
availability and link status on every heartbeat.  When a node requests
resources beyond its local capacity the MN selects donor nodes
(distance-first, as in the prototype) and orchestrates the handshake,
retrying on stale records.
"""
