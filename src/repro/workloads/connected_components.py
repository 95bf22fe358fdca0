"""Spark Connected Components (CC) workload.

CC is the paper's example of a *contiguous* access pattern (Figure 17,
"CC contiguous access"): label propagation repeatedly streams through
the edge list in order, reading the labels of both endpoints and
writing the smaller label back.  Because the dominant traffic is the
sequential edge-list scan, this workload favours bulk transfers
(RDMA/page swapping) over fine-grained cacheline access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.cpu.core import LockstepGroup, TimingCore
from repro.sim.rng import DeterministicRNG
from repro.workloads.base import Workload

@dataclass
class ConnectedComponentsConfig:
    """Parameters of the CC workload (paper: 8192 nodes, 21461 edges)."""

    num_vertices: int = 8_192
    num_edges: int = 21_461
    iterations: int = 4
    label_entry_bytes: int = 8
    edge_entry_bytes: int = 8
    instructions_per_edge: int = 10
    seed: int = 5

    def __post_init__(self) -> None:
        if self.num_vertices <= 0 or self.num_edges <= 0 or self.iterations <= 0:
            raise ValueError("vertices, edges and iterations must be positive")

    @property
    def edge_array_bytes(self) -> int:
        return self.num_edges * self.edge_entry_bytes

    @property
    def label_array_bytes(self) -> int:
        return self.num_vertices * self.label_entry_bytes

    @property
    def dataset_bytes(self) -> int:
        return self.edge_array_bytes + self.label_array_bytes


class ConnectedComponentsWorkload(Workload):
    """Label-propagation connected components with sequential scans."""

    name = "connected-components"

    def __init__(self, config: ConnectedComponentsConfig = None):
        self.config = config or ConnectedComponentsConfig()
        self.rng = DeterministicRNG(self.config.seed)
        # Pre-draw endpoints so every iteration streams the same edges.
        self._edges = [
            (self.rng.uniform_int(0, self.config.num_vertices - 1),
             self.rng.uniform_int(0, self.config.num_vertices - 1))
            for _ in range(self.config.num_edges)
        ]

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        config = self.config
        for _ in range(config.iterations):
            core.execute(self._iteration())
        return dict(edges_processed=config.iterations * len(self._edges),
                    iterations=config.iterations)

    def _iteration(self) -> Iterator[tuple]:
        """One label-propagation pass: per edge, compute, the sequential
        edge read, both labels, then the smaller label written back."""
        config = self.config
        instructions = config.instructions_per_edge
        edge_bytes, label_bytes = config.edge_entry_bytes, config.label_entry_bytes
        label_base = config.edge_array_bytes
        for edge_index, (src, dst) in enumerate(self._edges):
            dst_label = label_base + dst * label_bytes
            yield instructions, edge_index * edge_bytes, False
            yield None, label_base + src * label_bytes, False
            yield None, dst_label, False
            yield None, dst_label, True
