"""Discrete-event simulation engine used by every Venice substrate.

The engine is deliberately small and dependency-free.  It provides:

* :class:`~repro.sim.engine.Simulator` -- the event loop and clock;
  hardware and software activities are callback chains scheduled on it.
* :mod:`repro.sim.resources` -- one-shot :class:`SimEvent` callbacks and
  the :class:`CreditPool` used for credit-based flow control.
* :mod:`repro.sim.stats` -- named counters for collecting measurements
  during a run.
* :mod:`repro.sim.rng` -- deterministic random-number helpers so that
  every experiment is reproducible from a seed.

Time is kept as an integer number of **nanoseconds**.
"""
