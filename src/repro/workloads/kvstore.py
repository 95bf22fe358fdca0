"""BerkeleyDB-style key/value workload.

Reproduces the access pattern of the paper's in-memory database
experiments: a large record array accessed at random with an OLTP-like
80/20 read/write mix (Section 4.1), or grouped into client transactions
of five queries (four gets, one put -- Section 4.2.1, footnote 3).

The defining property for the Figure 5 comparison is that queries are
*dependent*: the client must check the return status of each query
before issuing the next, so asynchronous issue cannot hide remote
latency -- unlike PageRank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.cpu.core import LockstepGroup, TimingCore
from repro.sim.rng import DeterministicRNG
from repro.workloads.base import Workload, record_address, record_lines


@dataclass
class KeyValueConfig:
    """Parameters of the key/value workload."""

    #: Total dataset size in bytes (the paper uses 1-6 GB; scaled down
    #: in experiments together with local-memory capacity).
    dataset_bytes: int = 64 * 1024 * 1024
    #: Size of one record (key + value + index overhead).
    record_bytes: int = 64
    #: Number of queries to execute.
    num_queries: int = 20_000
    #: Fraction of queries that are reads (0.8 = the paper's OLTP mix).
    read_fraction: float = 0.8
    #: CPU instructions per query (hashing, comparison, bookkeeping).
    instructions_per_query: int = 400
    #: Zipf skew of key popularity; 0 gives uniform random access.
    zipf_skew: float = 0.0
    #: Extra per-query software overhead in ns (e.g. explicit QPair
    #: messaging library costs); 0 for direct load/store access.
    per_query_overhead_ns: int = 0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.dataset_bytes <= 0 or self.record_bytes <= 0 or self.num_queries <= 0:
            raise ValueError("dataset, record size and query count must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")

    @property
    def num_records(self) -> int:
        return max(1, self.dataset_bytes // self.record_bytes)


class KeyValueWorkload(Workload):
    """Random-access key/value store (BerkeleyDB / MySQL-style)."""

    name = "kvstore"

    def __init__(self, config: KeyValueConfig = None):
        self.config = config or KeyValueConfig()

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        config = self.config
        tally = [0]  # writes
        core.execute(self._queries(core.line_bytes, tally),
                     stall_ns=config.per_query_overhead_ns)
        writes = tally[0]
        reads = config.num_queries - writes
        return dict(queries=config.num_queries, reads=reads, writes=writes,
                    read_fraction=reads / config.num_queries)

    def _queries(self, line_bytes: int, tally: List[int]) -> Iterator[tuple]:
        """Per query: its compute, then every line of one random record."""
        config = self.config
        rng = DeterministicRNG(config.seed)
        instructions = config.instructions_per_query
        lines = record_lines(config.record_bytes, line_bytes)
        for _ in range(config.num_queries):
            if config.zipf_skew > 0:
                index = rng.zipf_index(config.num_records, config.zipf_skew)
            else:
                index = rng.uniform_int(0, config.num_records - 1)
            address = record_address(index, config.record_bytes)
            is_write = not rng.bernoulli(config.read_fraction)
            tally[0] += is_write
            before = instructions
            for offset in lines:
                yield before, address + offset, is_write
                before = None


class TransactionalKeyValueWorkload(Workload):
    """Client transactions of five queries: four gets and one put.

    Matches the BerkeleyDB setup of Section 4.2.1 (footnote 3); the
    response of each query is consumed before the next query is issued,
    so there is no exploitable intra-transaction parallelism.
    """

    name = "kvstore-txn"

    def __init__(self, config: KeyValueConfig = None, queries_per_transaction: int = 5):
        if queries_per_transaction <= 0:
            raise ValueError("queries_per_transaction must be positive")
        self.config = config or KeyValueConfig()
        self.queries_per_transaction = queries_per_transaction

    def _drive(self, core: TimingCore | LockstepGroup) -> Dict[str, float]:
        transactions = max(1, self.config.num_queries // self.queries_per_transaction)
        core.execute(self._transactions(transactions, core.line_bytes),
                     stall_ns=self.config.per_query_overhead_ns)
        return dict(transactions=transactions,
                    queries=transactions * self.queries_per_transaction)

    def _transactions(self, transactions: int, line_bytes: int) -> Iterator[tuple]:
        """Per query: its compute, then every line of one random record;
        the last query of each transaction is the put."""
        config = self.config
        rng = DeterministicRNG(config.seed)
        instructions = config.instructions_per_query
        lines = record_lines(config.record_bytes, line_bytes)
        put = self.queries_per_transaction - 1
        for _ in range(transactions):
            for query_index in range(self.queries_per_transaction):
                index = rng.uniform_int(0, config.num_records - 1)
                address = record_address(index, config.record_bytes)
                is_write = query_index == put
                before = instructions
                for offset in lines:
                    yield before, address + offset, is_write
                    before = None
