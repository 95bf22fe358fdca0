"""Graph500 BFS workload over an R-MAT graph.

The paper runs Graph500 at R-MAT scale 22, edge factor 14.  The
reproduction builds a (scaled-down) R-MAT graph in CSR form and walks
it breadth-first: the traversal mixes a sequential scan of the frontier
with random accesses into the adjacency arrays and the visited map --
an irregular pattern that sits between the fully random key/value
workload and the fully streaming Grep scan, which is where Figure 15
places it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.cpu.core import LockstepGroup, TimingCore
from repro.workloads.base import Workload
from repro.workloads.rmat import RmatConfig, RmatGenerator

@dataclass
class Graph500Config:
    """Parameters of the BFS workload."""

    scale: int = 11
    edge_factor: int = 14
    #: Number of BFS roots traversed (Graph500 uses 64; scaled down).
    num_roots: int = 2
    vertex_entry_bytes: int = 8
    edge_entry_bytes: int = 8
    instructions_per_edge: int = 8
    seed: int = 11

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.edge_factor <= 0 or self.num_roots <= 0:
            raise ValueError("scale, edge factor and root count must be positive")

    @property
    def rmat(self) -> RmatConfig:
        return RmatConfig(scale=self.scale, edge_factor=self.edge_factor, seed=self.seed)

    @property
    def num_vertices(self) -> int:
        return 1 << self.scale

    @property
    def num_edges(self) -> int:
        return self.num_vertices * self.edge_factor

    @property
    def dataset_bytes(self) -> int:
        """CSR offsets + edge targets + visited/parent arrays."""
        return (self.num_vertices * self.vertex_entry_bytes * 2
                + self.num_edges * self.edge_entry_bytes)


class Graph500Workload(Workload):
    """Breadth-first search over a CSR-encoded R-MAT graph."""

    name = "graph500"

    def __init__(self, config: Graph500Config = None):
        self.config = config or Graph500Config()
        self._offsets, self._targets = self._build_csr()

    def _build_csr(self):
        generator = RmatGenerator(self.config.rmat)
        edges = generator.generate()
        adjacency: List[List[int]] = [[] for _ in range(self.config.num_vertices)]
        for src, dst in edges:
            adjacency[src].append(dst)
        offsets = [0]
        targets: List[int] = []
        for neighbors in adjacency:
            targets.extend(neighbors)
            offsets.append(len(targets))
        return offsets, targets

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        config = self.config
        tally = [0, 0]  # vertices visited, edges traversed
        for root_index in range(config.num_roots):
            core.execute(self._bfs((root_index * 7919) % config.num_vertices, tally))
        return dict(edges_traversed=tally[1],
                    vertices_visited=tally[0])

    def _bfs(self, root: int, tally: List[int]) -> Iterator[tuple]:
        """The stream of one breadth-first search from ``root``.

        Per vertex, its CSR offset; per edge, compute, the edge target
        and the neighbour's visited flag, plus the flag update on a
        first visit.  The visit order depends only on the graph.
        """
        config = self.config
        instructions = config.instructions_per_edge
        vertex_bytes, edge_bytes = config.vertex_entry_bytes, config.edge_entry_bytes
        offsets, targets = self._offsets, self._targets
        targets_base = config.num_vertices * vertex_bytes
        visited_base = targets_base + len(targets) * edge_bytes
        visited = bytearray(config.num_vertices)
        frontier = deque([root])
        visited[root] = 1
        while frontier:
            vertex = frontier.popleft()
            start, end = offsets[vertex], offsets[vertex + 1]
            tally[0] += 1
            tally[1] += end - start
            yield None, vertex * vertex_bytes, False
            for edge_index in range(start, end):
                neighbor = targets[edge_index]
                flag = visited_base + neighbor * vertex_bytes
                yield instructions, targets_base + edge_index * edge_bytes, False
                yield None, flag, False
                if not visited[neighbor]:
                    # Check the flag, then mark the neighbour visited.
                    visited[neighbor] = 1
                    yield None, flag, True
                    frontier.append(neighbor)
