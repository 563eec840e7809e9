"""Small shared helpers used across subpackages."""

from __future__ import annotations

import importlib
import sys

from numpy import ndarray

__all__ = ["lazy_exports", "near_equal_splits", "sizeof_block"]


def lazy_exports(package: str, exports: dict[str, str]):
    """The PEP 562 module ``__getattr__`` of a package whose public names
    live in its submodules: ``exports`` maps each name to its submodule,
    imported when the name is first read (``from package import *``
    included).  A package that imports nothing up front can be imported
    from any of its submodules without an import cycle."""

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{exports[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


def near_equal_splits(extent: int, parts: int) -> list[int]:
    """Boundaries of ``min(parts, extent)`` near-equal contiguous ranges.

    ``near_equal_splits(10, 4) == [0, 2, 5, 7, 10]``.  Every part is
    non-empty; blocked GEP is correct for any contiguous partition, so
    callers never need divisibility.
    """
    if extent < 0:
        raise ValueError("extent must be non-negative")
    if parts < 1:
        raise ValueError("parts must be >= 1")
    n = min(parts, extent) if extent else 1
    return [(extent * t) // n for t in range(n + 1)]


def sizeof_block(value) -> int:
    """Byte size of a payload as shipped over the simulated network.

    NumPy arrays report their buffer size; containers are measured
    recursively (the engine ships role-tagged tuples and role dicts), so
    shuffle/collect accounting reflects the real data volume, not
    container-header sizes.

    Called per distinct shuffled value and per cached block, so the
    shapes the engine ships — exact ``tuple`` / ``list`` / ``dict`` of
    arrays, ``str``, ``int`` and ``float`` — are dispatched on ``type(v)
    is`` in one flat loop per container, arrays first (the members a
    role tuple or role dict is mostly made of), and an ASCII ``str``
    (a role tag) is its length without encoding it; everything else
    (subclasses, sets, bytes, complex, ``None``, unknown objects) takes
    :func:`_sizeof_other`.  Both give the same number for the same
    payload.
    """
    kind = type(value)
    if kind is tuple or kind is list:
        members = value
    elif kind is dict:
        members = [*value, *value.values()]
    else:
        return _sizeof_other(value)
    total = 8
    for v in members:
        kind = type(v)
        if kind is ndarray:
            total += v.nbytes
        elif kind is str:
            total += len(v) if v.isascii() else len(v.encode())
        elif kind is int or kind is float:
            total += 8
        elif kind is tuple or kind is list or kind is dict:
            total += sizeof_block(v)
        else:
            nbytes = getattr(v, "nbytes", None)
            total += int(nbytes) if nbytes is not None else _sizeof_other(v)
    return total


def _sizeof_other(value) -> int:
    """:func:`sizeof_block` by ``isinstance``, for what its flat loop
    does not name."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (tuple, list, set, frozenset)):
        return 8 + sum(sizeof_block(v) for v in value)
    if isinstance(value, dict):
        return 8 + sum(
            sizeof_block(k) + sizeof_block(v) for k, v in value.items()
        )
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (int, float, complex, bool)) or value is None:
        return 8
    return sys.getsizeof(value)
