"""PageRank workload.

PageRank is the paper's example of a latency-*tolerant* application
(Section 4.2.1): its per-edge work items are independent, so a
sophisticated software implementation can keep many remote accesses in
flight (the "Async On-Chip QPair" configuration), while the naive
implementation issues them one at a time.

The access pattern per iteration is a sequential scan of the edge list
combined with random accesses into the source-rank array and
accumulating writes into the destination-contribution array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.cpu.core import LockstepGroup, TimingCore
from repro.sim.rng import DeterministicRNG
from repro.workloads.base import Workload

@dataclass
class PageRankConfig:
    """Parameters of the PageRank workload."""

    num_vertices: int = 16_384
    num_edges: int = 95_000
    iterations: int = 1
    #: Bytes per rank entry (double) and per edge (two 32-bit ids).
    rank_entry_bytes: int = 8
    edge_entry_bytes: int = 8
    #: Instructions per processed edge (multiply-accumulate, bounds).
    instructions_per_edge: int = 12
    #: Issue remote/memory reads asynchronously (latency-tolerant code).
    asynchronous: bool = False
    #: Extra software overhead per edge for explicit-messaging versions
    #: (QPair library calls); 0 for load/store access.
    per_access_overhead_ns: int = 0
    seed: int = 3

    def __post_init__(self) -> None:
        if self.num_vertices <= 0 or self.num_edges <= 0 or self.iterations <= 0:
            raise ValueError("vertices, edges and iterations must be positive")

    @property
    def edge_array_bytes(self) -> int:
        return self.num_edges * self.edge_entry_bytes

    @property
    def rank_array_bytes(self) -> int:
        return self.num_vertices * self.rank_entry_bytes

    @property
    def dataset_bytes(self) -> int:
        """Total bytes of the edge list plus the two rank arrays."""
        return self.edge_array_bytes + 2 * self.rank_array_bytes


class PageRankWorkload(Workload):
    """Edge-centric PageRank with optional asynchronous issue."""

    name = "pagerank"

    def __init__(self, config: PageRankConfig = None):
        self.config = config or PageRankConfig()

    def _addresses(self):
        """Base addresses of the edge list and the two rank arrays."""
        config = self.config
        edge_base = 0
        src_rank_base = config.edge_array_bytes
        dst_rank_base = src_rank_base + config.rank_array_bytes
        return edge_base, src_rank_base, dst_rank_base

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        config = self.config
        rng = DeterministicRNG(config.seed)
        for _ in range(config.iterations):
            core.execute(self._iteration(rng), asynchronous=config.asynchronous,
                         stall_ns=config.per_access_overhead_ns)
            core.drain()
        return dict(edges_processed=config.iterations * config.num_edges,
                    iterations=config.iterations)

    def _iteration(self, rng: DeterministicRNG) -> Iterator[tuple]:
        """One pass over the edge list: per edge, compute, the edge, the
        source rank, then the destination-rank accumulation."""
        config = self.config
        edge_base, src_rank_base, dst_rank_base = self._addresses()
        instructions = config.instructions_per_edge
        edge_bytes, rank_bytes = config.edge_entry_bytes, config.rank_entry_bytes
        high = config.num_vertices - 1
        for edge_index in range(config.num_edges):
            src = rng.uniform_int(0, high)
            dst = rng.uniform_int(0, high)
            yield instructions, edge_base + edge_index * edge_bytes, False
            yield None, src_rank_base + src * rank_bytes, False
            yield None, dst_rank_base + dst * rank_bytes, True
