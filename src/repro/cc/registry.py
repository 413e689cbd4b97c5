"""Name-based CC algorithm registry.

The control plane (Section 3.2) lets operators select an algorithm by
name; custom algorithms register themselves here, which is the software
analogue of flashing new HLS firmware onto the FPGA.
"""

from __future__ import annotations

from typing import Any, Type

from repro.cc.base import CCAlgorithm
from repro.errors import ConfigError

_REGISTRY: dict[str, Type[CCAlgorithm]] = {}


def register(cls: Type[CCAlgorithm]) -> Type[CCAlgorithm]:
    """Register a CC algorithm class under its ``name`` attribute.

    Usable as a decorator for user-defined algorithms::

        @register
        class MyCC(CCAlgorithm):
            name = "mycc"
            ...
    """
    name = cls.name
    if not name or name == "abstract":
        raise ConfigError(f"CC class {cls.__name__} must define a concrete name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ConfigError(f"CC algorithm {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def create(name: str, **params: Any) -> CCAlgorithm:
    """Instantiate a registered algorithm; parameters outside its
    declared table raise :class:`ConfigError` (:class:`CCAlgorithm`)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown CC algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    algorithm = cls(**params)
    algorithm.validate()
    return algorithm


def available() -> list[str]:
    """Names of all registered algorithms."""
    return sorted(_REGISTRY)


def _register_builtins() -> None:
    from repro.cc.cubic import Cubic
    from repro.cc.dcqcn import Dcqcn
    from repro.cc.dctcp import Dctcp
    from repro.cc.hpcc import Hpcc
    from repro.cc.reno import Reno
    from repro.cc.swift import Swift
    from repro.cc.timely import Timely

    for cls in (Reno, Dctcp, Dcqcn, Cubic, Timely, Hpcc, Swift):
        register(cls)


_register_builtins()
