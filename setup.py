"""Setuptools shim.

The project needs no installation: it runs from a checkout with
``PYTHONPATH=src`` and the standard library alone.  This file only
declares the optional compiled dispatch core, so that
``python setup.py build_ext --inplace`` builds it the conventional way
(``python -m repro.sim._ccore_build`` is the setuptools-free
equivalent).

The extension is strictly optional: when it fails to build (or was
never built), ``Simulator(core="auto")`` runs the byte-identical
pure-Python engine.  ``optional=True`` keeps source installs working on
compiler-less hosts.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.sim._ccore",
            sources=["src/repro/sim/_ccore.c"],
            optional=True,
        ),
    ],
)
