"""Workload generators.

Each workload reproduces the *access pattern* of one of the paper's
applications (Table 1) against the simulated memory hierarchy / fabric,
scaled down so experiments complete in seconds:

* :mod:`repro.workloads.kvstore` -- BerkeleyDB-style key/value store:
  random record accesses, 80/20 read/write OLTP mix, dependent queries.
* :mod:`repro.workloads.pagerank` -- PageRank: massively parallel,
  latency-tolerant vertex/edge traversal.
* :mod:`repro.workloads.connected_components` -- Spark CC: contiguous
  edge-list scans (bulk-transfer friendly).
* :mod:`repro.workloads.grep` -- Hadoop Grep: streaming scan.
* :mod:`repro.workloads.graph500` -- Graph500 BFS over an R-MAT graph.
* :mod:`repro.workloads.rediscache` -- Redis cache in front of a MySQL
  backing store (the Figure 13 mini data-center service).
* :mod:`repro.workloads.fft_offload` -- SPLASH2-FFT offload to (remote)
  accelerators.
* :mod:`repro.workloads.iperf` -- iPerf-style fixed-size packet streams.
* :mod:`repro.workloads.rmat` -- R-MAT synthetic graph generator.
"""
