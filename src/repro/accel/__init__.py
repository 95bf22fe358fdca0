"""Accelerator substrate.

The paper's accelerator case study (Section 5.2.2 / Figure 16a) offloads
SPLASH2 FFT to Xilinx-implemented FFT accelerators ("XFFT") and mentions
crypto accelerators in its mailbox example.  This package models the
accelerator devices themselves and the mailbox abstraction Venice uses
to expose a (possibly remote) accelerator to applications.
"""
