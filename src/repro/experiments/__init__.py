"""Experiment drivers: one module per table/figure of the evaluation.

Every driver exposes a ``run_*`` function returning a
:class:`repro.analysis.report.FigureReport` whose series carry both the
measured values and (where the paper states them) the paper's reference
numbers, so ``benchmarks/`` can print paper-versus-measured rows.

Absolute magnitudes are not expected to match the authors' FPGA
prototype; the reproduction targets the *shape* of each result -- which
configuration wins, by roughly what factor, and where the crossovers
fall.  Scaling factors (dataset and memory sizes reduced together) are
documented per driver.
"""
