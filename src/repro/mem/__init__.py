"""Memory-system substrate: caches, DRAM, the physical memory map with
hot-plug/hot-remove support, and the page-granularity swap subsystem.

These models provide the local memory hierarchy of every node.  Remote
memory (the paper's contribution) is layered on top by
:mod:`repro.core.sharing.remote_memory`, which maps hot-plugged regions
onto CRMA or RDMA channels.
"""
