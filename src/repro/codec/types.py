"""Core codec data types: frame kinds, prediction modes, macroblock records.

These types are shared by the encoder, the decoder, and the VideoApp
analysis (which consumes the per-macroblock trace records emitted during
encoding).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

MB_SIZE = 16


class FrameType(enum.IntEnum):
    """H.264 coded frame kinds."""

    I = 0  #: self-contained; intra prediction only (checkpoint frames)
    P = 1  #: predicted from one earlier reference frame
    B = 2  #: predicted from an earlier and a later reference frame


class MacroblockMode(enum.IntEnum):
    """Top-level prediction choice for one macroblock."""

    SKIP = 0   #: inter, predicted motion vector, no residual
    INTER = 1  #: motion-compensated with coded partitions and residual
    INTRA = 2  #: spatially predicted from neighbors within the frame


class IntraMode(enum.IntEnum):
    """16x16 intra prediction modes (H.264's four)."""

    DC = 0        #: mean of available border pixels
    VERTICAL = 1  #: each column copies the pixel above the macroblock
    HORIZONTAL = 2  #: each row copies the pixel left of the macroblock
    PLANE = 3     #: linear plane fitted to the above row and left column


class PartitionType(enum.IntEnum):
    """Macroblock-level inter partition layouts."""

    P16x16 = 0
    P16x8 = 1
    P8x16 = 2
    P8x8 = 3  #: each 8x8 quadrant further chooses a SubPartitionType


class SubPartitionType(enum.IntEnum):
    """8x8 sub-macroblock partition layouts."""

    S8x8 = 0
    S8x4 = 1
    S4x8 = 2
    S4x4 = 3


class PredictionDirection(enum.IntEnum):
    """Reference pick for one inter partition (B-frames)."""

    FORWARD = 0   #: reference list 0 (earlier anchor)
    BACKWARD = 1  #: reference list 1 (later anchor, coded earlier)
    BIDIRECTIONAL = 2  #: average of both references (B-frames)


#: Partition rectangles (offset_y, offset_x, height, width) within the MB.
PARTITION_RECTS: Dict[PartitionType, Tuple[Tuple[int, int, int, int], ...]] = {
    PartitionType.P16x16: ((0, 0, 16, 16),),
    PartitionType.P16x8: ((0, 0, 8, 16), (8, 0, 8, 16)),
    PartitionType.P8x16: ((0, 0, 16, 8), (0, 8, 16, 8)),
}

#: Sub-partition rectangles within one 8x8 quadrant (relative to quadrant).
SUBPARTITION_RECTS: Dict[SubPartitionType,
                         Tuple[Tuple[int, int, int, int], ...]] = {
    SubPartitionType.S8x8: ((0, 0, 8, 8),),
    SubPartitionType.S8x4: ((0, 0, 4, 8), (4, 0, 4, 8)),
    SubPartitionType.S4x8: ((0, 0, 8, 4), (0, 4, 8, 4)),
    SubPartitionType.S4x4: ((0, 0, 4, 4), (0, 4, 4, 4),
                            (4, 0, 4, 4), (4, 4, 4, 4)),
}

#: Quadrant origins within a macroblock, in raster order.
QUADRANT_ORIGINS: Tuple[Tuple[int, int], ...] = ((0, 0), (0, 8), (8, 0), (8, 8))


@dataclass(frozen=True)
class MotionVector:
    """Integer-pel displacement in pixels (dy, dx)."""

    dy: int = 0
    dx: int = 0

    def __add__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.dy + other.dy, self.dx + other.dx)

    def __sub__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.dy - other.dy, self.dx - other.dx)

    @property
    def magnitude(self) -> int:
        return abs(self.dy) + abs(self.dx)


@dataclass
class InterPartition:
    """One motion-compensated rectangle of a macroblock.

    ``rect`` is (offset_y, offset_x, height, width) relative to the MB's
    top-left corner; ``mv`` displaces it within the forward (or, for a
    backward-only partition, the backward) reference. Bidirectional
    partitions carry a second vector, ``mv_backward``, into the backward
    reference; their prediction is the rounded average of the two
    compensated blocks.
    """

    rect: Tuple[int, int, int, int]
    mv: MotionVector
    direction: PredictionDirection = PredictionDirection.FORWARD
    mv_backward: Optional[MotionVector] = None


@dataclass
class MacroblockDecision:
    """Everything the encoder decided for one macroblock.

    This is the unit that the syntax layer serializes, the reconstruction
    step consumes, and the decoder reproduces from the bitstream.
    """

    mode: MacroblockMode
    qp: int
    intra_mode: Optional[IntraMode] = None
    partition_type: Optional[PartitionType] = None
    sub_types: Optional[List[SubPartitionType]] = None  # 4, when P8x8
    partitions: List[InterPartition] = field(default_factory=list)
    #: Quantized 4x4 coefficient blocks in MB raster order (16 blocks),
    #: or None when nothing is coded (skip).
    coefficients: Optional[object] = None  # np.ndarray (16, 4, 4) int32
    #: Per-quadrant coded flags (coded block pattern).
    cbp: Tuple[bool, bool, bool, bool] = (False, False, False, False)
    #: The bitstream parse's nonzero coefficients as (flat raster
    #: positions, levels); see ``EntropyDecoder.decode_residual``.
    #: ``syntax.attach_coefficients`` turns a frame's worth into
    #: ``coefficients`` in one batch. None for encoder decisions and
    #: skipped macroblocks.
    levels: Optional[Tuple[List[int], List[int]]] = None

    @property
    def nonzero(self) -> int:
        """Number of nonzero coefficients: counted by the parse when it
        produced ``levels``, else counted in ``coefficients``."""
        if self.levels is not None:
            return len(self.levels[1])
        if self.coefficients is None:
            return 0
        return int(np.count_nonzero(self.coefficients))


@dataclass
class DependencyRecord:
    """One pixel-domain dependency: this MB reads pixels of another MB.

    ``source`` identifies the supplying macroblock as (coded frame index,
    mb index) — for intra prediction the source frame equals the
    dependent MB's own frame. ``pixels`` counts how many of the dependent
    MB's predicted pixels come from the source MB; VideoApp normalizes
    these into edge weights. Fractional values arise from bidirectional
    prediction, where each reference supplies half of every pixel.
    """

    source: Tuple[int, int]
    pixels: float


@dataclass
class MacroblockTrace:
    """Analysis-facing record of one encoded macroblock."""

    frame_coded_index: int
    mb_index: int
    bit_start: int  #: first payload bit attributed to this MB
    bit_end: int    #: one past the last payload bit attributed to this MB
    dependencies: List[DependencyRecord] = field(default_factory=list)

    @property
    def bit_length(self) -> int:
        return self.bit_end - self.bit_start


@dataclass
class FrameTrace:
    """Analysis-facing record of one encoded frame."""

    coded_index: int
    display_index: int
    frame_type: FrameType
    payload_bits: int
    slice_starts: List[int]  #: first MB index of each slice
    macroblocks: List[MacroblockTrace] = field(default_factory=list)


@dataclass
class EncodingTrace:
    """Complete dependency/bit-layout record for one encoded video."""

    mb_rows: int
    mb_cols: int
    frames: List[FrameTrace] = field(default_factory=list)

    @property
    def macroblocks_per_frame(self) -> int:
        return self.mb_rows * self.mb_cols

    def total_payload_bits(self) -> int:
        return sum(f.payload_bits for f in self.frames)
