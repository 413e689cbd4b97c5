"""Legacy setup shim.

The execution environment has no ``wheel`` package, so pip's PEP 517
editable path (which builds an editable wheel) cannot run.  Keeping a
``setup.py`` and omitting ``[build-system]`` from ``pyproject.toml``
makes ``pip install -e .`` take the legacy ``setup.py develop`` route,
which works offline.  All metadata lives in ``pyproject.toml``.

The C engine (``repro.sim._cengine``) is an *optional* extension:
``make compiled`` (or ``python setup.py build_ext --inplace``) builds it
in place, and a missing compiler degrades to a warning so pure-Python
installs keep working.  Whether it is built is the only switch: when it
imports, every simulator runs on it (see ``repro/sim/backend.py``).
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.sim._cengine",
            sources=["src/repro/sim/_cengine.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ],
)
