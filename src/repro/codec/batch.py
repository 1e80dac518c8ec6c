"""Batch entry points and GOP work units for the encode farm.

:func:`encode_batch` and :func:`encode_batch_with_recon` are the
module-level form of :meth:`~repro.codec.encoder.Encoder.
encode_batch_with_recon`: N clips of any geometry in, one stream (and
one closed-loop reconstruction) per clip out, in input order.
Same-geometry clips ride one lockstep pass of the encoder's loop.

GOP work units: with ``bframes == 0`` every GOP is self-contained, so
:func:`gop_unit_bounds` / :func:`assemble_gop_units` let a scheduler
encode GOP-sized slices of *different* clips in one batch and stitch
the unit streams back into a whole-clip stream that is byte-identical
to encoding the clip in one piece. B-frames straddle GOP boundaries,
so a B-frame clip is one whole-clip unit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EncoderError, GopStructureError
from ..video.frame import MACROBLOCK_SIZE, VideoSequence
from .config import EncoderConfig
from .encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from .encoder import Encoder
from .types import EncodingTrace, FrameTrace, MacroblockTrace


def encode_batch(videos: Sequence[VideoSequence],
                 config: Optional[EncoderConfig] = None
                 ) -> List[EncodedVideo]:
    """Encode N clips in as few lockstep passes as their geometries
    allow; one :class:`EncodedVideo` per input, in input order."""
    return encode_batch_with_recon(videos, config)[0]


def encode_batch_with_recon(videos: Sequence[VideoSequence],
                            config: Optional[EncoderConfig] = None
                            ) -> Tuple[List[EncodedVideo],
                                       List[np.ndarray]]:
    """Like :func:`encode_batch`, also returning per-clip
    reconstructions (``(frames, H, W) uint8`` each, display order)."""
    return Encoder(config).encode_batch_with_recon(videos)


# -- GOP work units -----------------------------------------------------------

def gop_unit_bounds(num_frames: int, config: EncoderConfig
                    ) -> List[Tuple[int, int]]:
    """Display-index ranges ``[(start, stop), ...]`` of independent
    GOP work units.

    Only valid for ``bframes == 0``: every GOP then opens with an
    I-frame that resets all prediction and no frame references across
    the boundary, so each unit encodes to exactly the bytes the
    whole-clip encode produces for those frames. With B-frames a GOP's
    trailing B-frames reference the *next* GOP's anchor, so splitting
    is refused.
    """
    if num_frames < 1:
        raise EncoderError(f"num_frames must be >= 1, got {num_frames}")
    if config.bframes != 0:
        raise GopStructureError(
            f"GOP work units require bframes == 0 (B-frames straddle GOP "
            f"boundaries; got bframes={config.bframes}). Encode the clip "
            f"as one whole-clip unit instead — the farm does this "
            f"automatically.")
    gop = config.gop_size
    return [(start, min(start + gop, num_frames))
            for start in range(0, num_frames, gop)]


def assemble_gop_units(unit_encodes: Sequence[EncodedVideo],
                       num_frames: int) -> EncodedVideo:
    """Stitch per-GOP unit streams back into one whole-clip stream.

    ``unit_encodes`` must be the encodes of consecutive
    :func:`gop_unit_bounds` units, in order. Frame payloads are reused
    as-is; headers and traces are re-indexed by each unit's frame
    offset. The result is byte-identical (``serialize()``) to encoding
    the whole clip in one call — asserted by the equivalence tests.
    """
    if not unit_encodes:
        raise EncoderError("cannot assemble an empty unit list")
    first = unit_encodes[0].header
    frames: List[EncodedFrame] = []
    trace = EncodingTrace(mb_rows=first.height // MACROBLOCK_SIZE,
                          mb_cols=first.width // MACROBLOCK_SIZE)
    offset = 0
    for unit in unit_encodes:
        if unit.header.bframes != 0:
            raise EncoderError("GOP units require bframes == 0")
        for frame in unit.frames:
            fh = frame.header
            frames.append(EncodedFrame(
                header=FrameHeader(
                    coded_index=fh.coded_index + offset,
                    display_index=fh.display_index + offset,
                    frame_type=fh.frame_type,
                    base_qp=fh.base_qp,
                    ref_forward=(None if fh.ref_forward is None
                                 else fh.ref_forward + offset),
                    ref_backward=(None if fh.ref_backward is None
                                  else fh.ref_backward + offset),
                    slice_byte_lengths=list(fh.slice_byte_lengths),
                ),
                payload=frame.payload,
            ))
        if unit.trace is not None:
            for frame_trace in unit.trace.frames:
                trace.frames.append(FrameTrace(
                    coded_index=frame_trace.coded_index + offset,
                    display_index=frame_trace.display_index + offset,
                    frame_type=frame_trace.frame_type,
                    payload_bits=frame_trace.payload_bits,
                    slice_starts=list(frame_trace.slice_starts),
                    macroblocks=[
                        MacroblockTrace(
                            frame_coded_index=(mb.frame_coded_index
                                               + offset),
                            mb_index=mb.mb_index,
                            bit_start=mb.bit_start,
                            bit_end=mb.bit_end,
                            dependencies=[
                                type(dep)(
                                    source=(dep.source[0] + offset,
                                            dep.source[1]),
                                    pixels=dep.pixels)
                                for dep in mb.dependencies
                            ],
                        )
                        for mb in frame_trace.macroblocks
                    ],
                ))
        offset += len(unit.frames)
    if offset != num_frames:
        raise EncoderError(
            f"units cover {offset} frames, expected {num_frames}")
    header = VideoHeader(
        width=first.width, height=first.height, num_frames=num_frames,
        gop_size=first.gop_size, bframes=first.bframes,
        slices=first.slices, entropy_coder=first.entropy_coder,
        crf=first.crf, search_range=first.search_range, fps=first.fps,
        deblocking=first.deblocking,
    )
    has_traces = all(unit.trace is not None for unit in unit_encodes)
    return EncodedVideo(header=header, frames=frames,
                        trace=trace if has_traces else None)
