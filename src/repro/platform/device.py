"""Processing-unit model.

A :class:`Device` abstracts one processing unit of the heterogeneous platform
(paper Sec. IV-A: one AMD Epyc 7351P CPU, one AMD Radeon RX Vega 56 GPU and
one Xilinx XCZ7045 FPGA).  The parameters capture exactly the properties the
mapping algorithms are sensitive to:

``lane_gops`` / ``lanes``
    Throughput of one execution lane (Gop/s) and the number of lanes.  A
    task with parallelizability ``p`` achieves the Amdahl speedup
    ``1 / ((1 - p) + p / lanes)`` over a single lane.  CPUs have few fast
    lanes; GPUs have many slow ones, so poorly parallelizable tasks run
    *slower* on the GPU than on the CPU.
``stream_gops``
    FPGA only: dataflow throughput per unit of task *streamability*; the
    effective FPGA throughput of a task is ``stream_gops * streamability``.
``setup_s``
    Fixed per-task launch overhead (kernel launch, DMA setup, ...).
``area_capacity``
    FPGA only: total area budget; the summed ``area`` of all tasks mapped to
    the FPGA must not exceed it (hard feasibility constraint).
``serializes`` / ``slots``
    Whether the device executes a bounded number of tasks at a time.  A
    serializing device offers ``slots`` concurrent task slots (a 16-core CPU
    is modeled as 4 slots of 4 lanes each: independent tasks share the
    cores).  GPUs serialize kernels (1 slot).  The FPGA does not serialize —
    tasks occupy disjoint area and run concurrently (spatial compute), which
    together with ``streaming`` models the dataflow behaviour the paper
    emphasises.
``streaming``
    Whether consecutive co-mapped tasks may stream data on-chip: the consumer
    starts once the producer's pipeline is filled instead of waiting for its
    completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

__all__ = ["DeviceKind", "Device", "cpu", "gpu", "fpga", "amdahl_speedup"]


class DeviceKind(str, Enum):
    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"


def amdahl_speedup(parallelizability: float, lanes: int) -> float:
    """Amdahl's-law speedup of a ``p``-parallelizable task on ``lanes`` lanes."""
    p = min(max(parallelizability, 0.0), 1.0)
    return 1.0 / ((1.0 - p) + p / max(lanes, 1))


@dataclass(frozen=True)
class Device:
    """One processing unit (see module docstring for field semantics)."""

    name: str
    kind: DeviceKind
    lane_gops: float
    lanes: int = 1
    stream_gops: float = 0.0
    setup_s: float = 0.0
    area_capacity: Optional[float] = None
    serializes: bool = True
    streaming: bool = False
    slots: int = 1
    #: power draw while executing a task / while idle (multi-objective
    #: extension, Sec. V: "can easily be transferred to multi-objective
    #: optimization"); defaults follow the device kind, see ``cpu``/``gpu``/
    #: ``fpga`` below.
    watts_active: float = 0.0
    watts_idle: float = 0.0

    def __post_init__(self) -> None:
        if self.lane_gops <= 0 and self.stream_gops <= 0:
            raise ValueError(f"device {self.name!r} has no throughput")
        if self.lanes < 1:
            raise ValueError(f"device {self.name!r} needs at least one lane")
        if self.setup_s < 0:
            raise ValueError(f"device {self.name!r} has negative setup time")
        if self.area_capacity is not None and not (
                0 < self.area_capacity < math.inf):
            raise ValueError(
                f"device {self.name!r} needs a positive finite area capacity"
            )
        if self.slots < 1:
            raise ValueError(f"device {self.name!r} needs at least one slot")
        if self.watts_active < 0 or self.watts_idle < 0:
            raise ValueError(f"device {self.name!r} has negative power draw")

    @property
    def is_fpga(self) -> bool:
        return self.kind is DeviceKind.FPGA

    @property
    def peak_gops(self) -> float:
        """Throughput of a perfectly parallelizable task."""
        if self.kind is DeviceKind.FPGA:
            return self.stream_gops
        return self.lane_gops * self.lanes


def cpu(
    name: str = "cpu",
    *,
    lane_gops: float = 8.0,
    lanes: int = 4,
    slots: int = 4,
    setup_s: float = 1e-5,
    watts_active: float = 155.0,
    watts_idle: float = 45.0,
) -> Device:
    """A multicore CPU (default: 16 cores as 4 slots x 4 lanes, Epyc 7351P).

    ``slots`` independent tasks run concurrently; each uses up to ``lanes``
    cores for its intra-task (Amdahl) parallelism.
    """
    return Device(
        name=name,
        kind=DeviceKind.CPU,
        lane_gops=lane_gops,
        lanes=lanes,
        slots=slots,
        setup_s=setup_s,
        watts_active=watts_active,
        watts_idle=watts_idle,
    )


def gpu(
    name: str = "gpu",
    *,
    lane_gops: float = 3.0,
    lanes: int = 64,
    setup_s: float = 2e-4,
    watts_active: float = 210.0,
    watts_idle: float = 25.0,
) -> Device:
    """A discrete GPU (default: 64 CUs, modeled after the RX Vega 56).

    One GPU lane is slower than a CPU core, but there are many: perfectly
    parallelizable tasks gain, sequential tasks lose.
    """
    return Device(
        name=name,
        kind=DeviceKind.GPU,
        lane_gops=lane_gops,
        lanes=lanes,
        setup_s=setup_s,
        watts_active=watts_active,
        watts_idle=watts_idle,
    )


def fpga(
    name: str = "fpga",
    *,
    stream_gops: float = 3.0,
    area_capacity: float = 100.0,
    setup_s: float = 5e-5,
    watts_active: float = 18.0,
    watts_idle: float = 3.0,
) -> Device:
    """A streaming FPGA (default modeled after the Xilinx XCZ7045).

    Effective throughput of a task is ``stream_gops * streamability`` (median
    streamability in the paper's augmentation is ~7.4).  The FPGA does not
    serialize tasks (spatial compute) but is bounded by ``area_capacity``.
    """
    return Device(
        name=name,
        kind=DeviceKind.FPGA,
        lane_gops=0.1,  # irrelevant fallback; FPGA uses stream_gops
        lanes=1,
        stream_gops=stream_gops,
        setup_s=setup_s,
        area_capacity=area_capacity,
        serializes=False,
        streaming=True,
        watts_active=watts_active,
        watts_idle=watts_idle,
    )
