"""Fault handling for the resource-sharing runtime.

The paper leaves fault containment as future work but names the
ingredients: heartbeats let the Monitor Node infer node status, and the
Topology Status Table tracks link health from agent reports.  This
module implements the recovery actions on top of those tables:

* **link failures** -- when a link goes down, allocations whose
  requester-to-donor path used that link are flagged; the recovery plan
  either re-routes (if another path exists) or re-allocates from a
  different donor.
* **node failures** -- when a node's heartbeats stop, every allocation
  it is involved in (as donor or requester) is revoked, and its donated
  resources are written off until it returns.

Recovery is expressed as a :class:`RecoveryPlan` so callers (and tests)
can inspect exactly what the runtime decided to do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.fabric.topology import NoPathError
from repro.runtime.monitor import AllocationError, MonitorNode
from repro.runtime.tables import AllocationRecord, LinkStatus, ResourceKind


class RecoveryAction(enum.Enum):
    """What the runtime decided to do about one affected allocation."""

    UNAFFECTED = "unaffected"
    REROUTE = "reroute"
    REALLOCATE = "reallocate"
    REVOKE = "revoke"


@dataclass
class RecoveryStep:
    """One allocation's recovery decision."""

    allocation: AllocationRecord
    action: RecoveryAction
    #: New donor when the action is REALLOCATE.
    new_donor: Optional[int] = None
    #: Alternate path when the action is REROUTE.
    new_path: Optional[List[int]] = None


@dataclass
class RecoveryPlan:
    """The full outcome of handling one fault event."""

    event: str
    steps: List[RecoveryStep] = field(default_factory=list)

    def affected(self) -> List[RecoveryStep]:
        return [step for step in self.steps
                if step.action is not RecoveryAction.UNAFFECTED]

    def count(self, action: RecoveryAction) -> int:
        return sum(1 for step in self.steps if step.action is action)


class FaultHandler:
    """Implements link- and node-failure recovery over a MonitorNode."""

    def __init__(self, monitor: MonitorNode,
                 reallocate_on_node_failure: bool = True):
        self.monitor = monitor
        self.events_handled = 0
        #: When False, allocations orphaned by a donor crash are revoked
        #: instead of replaced in place, leaving re-provisioning to a
        #: fleet-level re-borrower (the cluster matchmaker) that also
        #: rebuilds the transport channel -- the in-place reallocation
        #: only fixes the Monitor Node's books.
        self.reallocate_on_node_failure = reallocate_on_node_failure
        #: Nodes already handled as failed.  The heartbeat sweep runs
        #: periodically and a dead node stays dead until it recovers, so
        #: without this dedup every sweep would re-revoke (and re-count)
        #: the same failure.
        self._known_dead: set = set()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _path_uses_link(self, requester: int, donor: int,
                        link: Tuple[int, int]) -> bool:
        path = self.monitor.topology.shortest_path(requester, donor)
        links = {tuple(sorted(pair)) for pair in zip(path, path[1:])}
        return tuple(sorted(link)) in links

    def _alternate_path(self, requester: int, donor: int,
                        down_link: Tuple[int, int]) -> Optional[List[int]]:
        """Shortest path avoiding ``down_link``, or None if disconnected."""
        graph = self.monitor.topology.graph.copy()
        if graph.has_edge(*down_link):
            graph.remove_edge(*down_link)
        try:
            return graph.shortest_path(requester, donor)
        except NoPathError:
            return None

    def _report_link(self, node_a: int, node_b: int,
                     status: LinkStatus) -> None:
        """Record a link status in the TST *and* the endpoint agents.

        Heartbeats re-report each agent's link table over the TST -- and
        releasing a grant ingests the donor's heartbeat immediately.  If
        the agents still believed the link was up, the very recovery
        plan that marked it DOWN would heal it mid-plan (and re-pick the
        unreachable donor).  Router endpoints have no agent; only
        registered endpoints are updated.
        """
        self.monitor.tst.report(node_a, node_b, status,
                                now_ns=self.monitor.now_ns)
        registered = set(self.monitor.registered_nodes)
        for reporter, neighbor in ((node_a, node_b), (node_b, node_a)):
            if reporter in registered:
                self.monitor.agent(reporter).set_link_status(neighbor, status)

    def _reallocate(self, allocation: AllocationRecord,
                    exclude_donor: int) -> Optional[int]:
        """Find a replacement donor for a failed allocation."""
        requester = allocation.requester
        try:
            if allocation.kind is ResourceKind.MEMORY:
                replacement = self.monitor.request_memory(requester, allocation.amount)
            elif allocation.kind is ResourceKind.ACCELERATOR:
                replacement = self.monitor.request_accelerator(requester)
            else:
                replacement = self.monitor.request_nic(requester)
        except AllocationError:
            return None
        if replacement.donor == exclude_donor:
            # The failed donor was somehow selected again; give it back.
            self.monitor.release(replacement)
            return None
        return replacement.donor

    # ------------------------------------------------------------------
    # Fault entry points
    # ------------------------------------------------------------------
    def handle_link_down(self, node_a: int, node_b: int) -> RecoveryPlan:
        """A fabric link failed: update the TST and fix affected grants."""
        self.events_handled += 1
        self._report_link(node_a, node_b, LinkStatus.DOWN)
        plan = RecoveryPlan(event=f"link({node_a},{node_b})-down")
        for allocation in list(self.monitor.rat.active()):
            if not self._path_uses_link(allocation.requester, allocation.donor,
                                        (node_a, node_b)):
                plan.steps.append(RecoveryStep(allocation, RecoveryAction.UNAFFECTED))
                continue
            alternate = self._alternate_path(allocation.requester, allocation.donor,
                                             (node_a, node_b))
            if alternate is not None:
                plan.steps.append(RecoveryStep(allocation, RecoveryAction.REROUTE,
                                               new_path=alternate))
                continue
            # Release *before* requesting the replacement: the failed
            # grant's capacity must be back in the RRT while the new
            # donor is chosen, or a near-full cluster double-books and
            # spuriously revokes grants a one-for-one swap could have
            # saved.  The unreachable old donor cannot be re-picked --
            # the TST DOWN report above vetoes every path to it (and
            # ``_reallocate`` guards the donor id as a backstop).
            self.monitor.release(_allocation_view(self.monitor, allocation))
            new_donor = self._reallocate(allocation, exclude_donor=allocation.donor)
            if new_donor is not None:
                plan.steps.append(RecoveryStep(allocation, RecoveryAction.REALLOCATE,
                                               new_donor=new_donor))
            else:
                plan.steps.append(RecoveryStep(allocation, RecoveryAction.REVOKE))
        return plan

    def handle_link_up(self, node_a: int, node_b: int) -> RecoveryPlan:
        """A failed link recovered: clear its TST state.

        The recovery mirror of :meth:`handle_link_down` -- the missing
        half of the paper's TST story, which only ever reported DOWN.
        Marking the link UP immediately restores the preferred
        (shortest-path) routes through it: ``MonitorNode._path_usable``
        stops vetoing donors behind the link, so subsequent allocations
        and re-borrows use the recovered route again.  Existing grants
        are untouched (re-routing back is a policy decision, not a
        correctness one), so the plan carries no steps.
        """
        self.events_handled += 1
        self._report_link(node_a, node_b, LinkStatus.UP)
        return RecoveryPlan(event=f"link({node_a},{node_b})-up")

    def _write_off_node_resources(self, node_id: int) -> None:
        """Mark every resource of a failed node unavailable in the RRT."""
        from repro.runtime.tables import ResourceRecord

        for kind in ResourceKind:
            record = self.monitor.rrt.get(node_id, kind)
            if record is not None:
                self.monitor.rrt.register(ResourceRecord(
                    node_id=node_id, kind=kind, capacity=record.capacity,
                    available=0, last_heartbeat_ns=record.last_heartbeat_ns))

    def handle_node_failure(self, node_id: int) -> RecoveryPlan:
        """A node stopped heart-beating: revoke everything it touches."""
        self.events_handled += 1
        self._known_dead.add(node_id)
        # Its resources are written off until the node returns, so the
        # re-allocation below can never select the dead node again.
        self._write_off_node_resources(node_id)
        plan = RecoveryPlan(event=f"node{node_id}-failure")
        for allocation in list(self.monitor.rat.active()):
            if allocation.donor != node_id and allocation.requester != node_id:
                plan.steps.append(RecoveryStep(allocation, RecoveryAction.UNAFFECTED))
                continue
            # Allocations the dead node was serving may be replaceable;
            # allocations it was consuming are simply revoked.
            if allocation.donor == node_id:
                # Drop the failed record *before* requesting the
                # replacement (the dead donor's capacity is already
                # written off, but the requester may hold other grants
                # whose books must be settled first) -- the
                # reallocate-then-release order transiently double-books
                # the requester's demand and spuriously revokes at full
                # occupancy.  No hot-add-back: the donor is dead, so the
                # RAT record is released directly.
                self.monitor.rat.release(allocation.allocation_id)
                new_donor = (self._reallocate(allocation, exclude_donor=node_id)
                             if self.reallocate_on_node_failure else None)
                if new_donor is not None:
                    plan.steps.append(RecoveryStep(allocation,
                                                   RecoveryAction.REALLOCATE,
                                                   new_donor=new_donor))
                    continue
            else:
                self.monitor.release(_allocation_view(self.monitor, allocation))
            plan.steps.append(RecoveryStep(allocation, RecoveryAction.REVOKE))
        return plan

    def handle_node_recovery(self, node_id: int) -> None:
        """A previously failed node came back: reinstate its resources.

        Clears the failure dedup (so a later crash is handled afresh),
        settles any releases that were orphaned while the donor was gone
        (so its advertised capacity does not leak), and re-ingests the
        node's heartbeat, which re-registers its RRT rows with live
        capacity in place of the write-off.
        """
        self.events_handled += 1
        self._known_dead.discard(node_id)
        agent = self.monitor.agent(node_id)
        self.monitor.reconcile_orphaned_releases(node_id)
        self.monitor.ingest_agent_heartbeat(agent)

    def check_heartbeats(self) -> List[RecoveryPlan]:
        """Sweep for dead nodes and handle each *new* failure.

        Nodes already handled (still dead from an earlier sweep) are
        skipped until :meth:`handle_node_recovery` clears them, so a
        periodic sweep driven from the simulator clock converges
        instead of re-revoking the same node every period.
        """
        plans = []
        for node_id in self.monitor.dead_nodes():
            if node_id in self._known_dead:
                continue
            plans.append(self.handle_node_failure(node_id))
        return plans


def _allocation_view(monitor: MonitorNode, record: AllocationRecord):
    """Wrap a RAT record in the Allocation shape ``MonitorNode.release`` expects."""
    from repro.runtime.monitor import Allocation

    return Allocation(record=record, donor=record.donor, amount=record.amount,
                      hops=monitor.topology.hop_count(record.requester, record.donor))
