"""Broadcast variables: driver-to-all-executors distribution."""

from __future__ import annotations

from typing import Generic, TypeVar

from ..util import sizeof_block
from .errors import TransientIOError
from .metrics import EngineMetrics

T = TypeVar("T")

__all__ = ["Broadcast"]


class Broadcast(Generic[T]):
    """Read-only value shipped once to every executor.

    The value is shared by reference on both backends (an offloaded
    kernel that reads a broadcast tile gets it pickled in its batch's
    operand pool); the metrics charge ``nbytes * num_executors`` of
    network traffic, which is what the cost model prices.  An attached
    :class:`~repro.sparkle.chaos.FaultPlan` can flake executor-side
    reads transiently (the scheduler retries the reading task).
    """

    def __init__(
        self,
        bc_id: int,
        value: T,
        num_executors: int,
        metrics=None,
        fault_plan=None,
    ) -> None:
        self.id = bc_id
        self._value = value
        self.nbytes = sizeof_block(value)
        self.fault_plan = fault_plan
        metrics = metrics or EngineMetrics()
        metrics.broadcast_bytes += self.nbytes * num_executors
        metrics.broadcast_count += 1

    @property
    def value(self) -> T:
        if self.fault_plan is not None and self.fault_plan.io_fault("bcast", self.id):
            raise TransientIOError(f"injected broadcast read failure: id={self.id}")
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Broadcast(id={self.id}, nbytes={self.nbytes})"
