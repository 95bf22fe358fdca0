"""Processor substrate: a simple in-order timing core and the memory
hierarchy it issues accesses into.

The Venice experiments are dominated by memory-system and fabric
latency, so the core model is intentionally simple: it executes
abstract operation streams (compute bursts and memory accesses),
stalling on blocking accesses and optionally overlapping independent
remote accesses when the workload permits asynchronous issue (the
Scale-out-NUMA-style latency-tolerance baseline in Figure 5).
"""
