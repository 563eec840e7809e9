"""The kernel contract's batch entry: one task's call list, updated.

A *call* is ``(case, tile, u, v, w, gi0, gj0, gk0, n_global)`` — the
arguments of ``kernel.run`` with the tile to update in place of ``x``.
A task's tile updates are a list of calls, and that list is the unit of
the data plane: the driver's threads hand it to :func:`update_tiles`,
the process plane pickles it to a worker as it is (pickle's memo ships
each distinct array once, so operands shared by identity stay shared)
and the worker hands it to :func:`update_tiles` too.  These two
functions are where a tile gets its private copy and has its aliases
resolved — directly, or through the kernel's ``run_stacks``, which
applies the same rule to the copies it makes — so both sides of the
process boundary compute the same thing, the same batches included, by
construction.

Kernels stay duck-typed: anything with ``run(case, x, u, v, w, gi0,
gj0, gk0, n_global, stats=)`` is one, and ``run_stacks(calls, stats)``
is optional — which is why these are module functions, not methods of
a base class.

This module imports nothing from ``repro``: the engine imports it while
``repro.kernels`` is still initialising.
"""

from __future__ import annotations

__all__ = ["ALIAS_X", "update_tile", "update_tiles"]


class _AliasX:
    """Type of :data:`ALIAS_X`; pickles by reference, so the sentinel
    that arrives in a worker is that process's own ``ALIAS_X``."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "ALIAS_X"

    def __repr__(self) -> str:
        return "ALIAS_X"


#: Kernel-operand sentinel: "this operand aliases the tile being
#: updated" (cases A/B/C).  The kernel contract encodes the case in the
#: aliasing pattern, so the alias is established against the private
#: copy :func:`update_tile` makes.
ALIAS_X = _AliasX()


def update_tile(kernel, call, stats=None):
    """Run one call on a private copy of its tile; returns the copy.

    An operand that is :data:`ALIAS_X` — or literally the call's tile —
    reads the copy (A's ``u=v=w=x``, B's ``v=x``, C's ``u=x``: later
    pivot steps must see what earlier ones wrote).  The input tile and
    every operand are left untouched, which is the retry-purity rule:
    a retried attempt sees pristine inputs.
    """
    case, tile, u, v, w, gi0, gj0, gk0, n_global = call
    x = tile.copy()
    u, v, w = (x if op is ALIAS_X or op is tile else op for op in (u, v, w))
    kernel.run(case, x, u, v, w, gi0, gj0, gk0, n_global, stats=stats)
    return x


def update_tiles(kernel, calls, stats=None, *, stacks=True, mark=None) -> list:
    """Update one task's tiles; returns the updated arrays in call order.

    The kernel's ``run_stacks``, where it has one (and ``stacks`` is
    true, and there is more than one call — the process worker's rule
    too), takes the calls it can batch — the iterative kernel's is one
    C call; :func:`update_tile` takes whatever it left (``None``), one
    call at a time.  Both produce the same bytes.

    ``mark(None)`` runs before the batched phase and ``mark(i)`` before
    call ``i`` goes through :func:`update_tile`: the process worker
    publishes its heartbeat token there, which is how a crash is pinned
    to the batched phase or to one call (DESIGN.md §13).
    """
    stacks = stacks and len(calls) > 1
    run_stacks = getattr(kernel, "run_stacks", None) if stacks else None
    if run_stacks is None:
        results = [None] * len(calls)
    else:
        if mark is not None:
            mark(None)
        results = run_stacks(calls, stats)
    for idx, call in enumerate(calls):
        if results[idx] is None:
            if mark is not None:
                mark(idx)
            results[idx] = update_tile(kernel, call, stats)
    return results
