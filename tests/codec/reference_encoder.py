"""Per-macroblock encode loop: the reference the batched encoder is checked
against.

This is the loop the library's encoder ran before every clip went
through the lockstep batch: one frame at a time, one macroblock at a
time, with the single-block intra choice, the per-macroblock inter
decision on every inter frame, single-macroblock transform and
reconstruction, and no batch axis anywhere. It calls the codec's
per-block kernels and the encoder's per-macroblock helpers
(``Encoder._decide_inter``, ``Encoder._dependencies`` and the
entropy-coder factory) but never the encoder's batched loop, so an
equivalence test compares two loops, not one loop with itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from reference import (
    FrameMotionSearch,
    coded_block_pattern_scalar,
    transform_and_quantize,
)

from repro.codec.config import EncoderConfig
from repro.codec.deblock import deblock_frame
from repro.codec.encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from repro.codec.encoder import Encoder, slice_bands
from repro.codec.gop import FramePlan, plan_gop
from repro.codec.intra import choose_intra_mode
from repro.codec.motion import pad_reference
from repro.codec.neighbors import FrameMbState
from repro.codec.ratecontrol import frame_activity_offsets, frame_qp
from repro.codec.reconstruct import (
    ReferenceSet,
    build_prediction,
    reconstruct_macroblock,
)
from repro.codec.syntax import encode_macroblock, finalize_macroblock
from repro.codec.transform import (
    MAX_QP,
    MIN_QP,
    reconstruct_residual,
)
from repro.codec.types import (
    DependencyRecord,
    EncodingTrace,
    FrameTrace,
    FrameType,
    InterPartition,
    MacroblockDecision,
    MacroblockMode,
    MacroblockTrace,
    PartitionType,
    PredictionDirection,
)
from repro.errors import EncoderError
from repro.video.frame import MACROBLOCK_SIZE, VideoSequence


class ReferenceEncoder:
    """Encodes one clip macroblock by macroblock; same stream as
    :class:`repro.codec.encoder.Encoder`."""

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        self.config = config or EncoderConfig()
        self._helpers = Encoder(self.config)
        self._pad = self.config.search_range

    def encode(self, video: VideoSequence) -> EncodedVideo:
        """Encode ``video``; the result carries the VideoApp trace."""
        if len(video) == 0:
            raise EncoderError("cannot encode an empty sequence")
        config = self.config
        plans = plan_gop(len(video), config.gop_size, config.bframes)
        coded_of = {plan.display_index: plan.coded_index for plan in plans}
        if config.slices > video.mb_rows:
            raise EncoderError(
                f"slices ({config.slices}) exceed MB rows ({video.mb_rows})"
            )
        trace = EncodingTrace(mb_rows=video.mb_rows, mb_cols=video.mb_cols)
        padded: Dict[int, np.ndarray] = {}
        frames: List[EncodedFrame] = []
        for plan in plans:
            frame, frame_trace, recon = self._encode_frame(
                plan, video, padded, coded_of
            )
            frames.append(frame)
            trace.frames.append(frame_trace)
            padded[plan.display_index] = pad_reference(recon, self._pad)
        header = VideoHeader(
            width=video.width,
            height=video.height,
            num_frames=len(video),
            gop_size=config.gop_size,
            bframes=config.bframes,
            slices=config.slices,
            entropy_coder=config.entropy_coder,
            crf=config.crf,
            search_range=config.search_range,
            fps=video.fps,
            deblocking=config.deblocking,
        )
        return EncodedVideo(header=header, frames=frames, trace=trace)

    def _references(
        self, plan: FramePlan, padded: Dict[int, np.ndarray]
    ) -> ReferenceSet:
        references: ReferenceSet = {}
        if plan.ref_forward is not None:
            references[PredictionDirection.FORWARD] = padded[plan.ref_forward]
        if plan.ref_backward is not None:
            references[PredictionDirection.BACKWARD] = padded[plan.ref_backward]
        return references

    def _encode_frame(
        self,
        plan: FramePlan,
        video: VideoSequence,
        padded: Dict[int, np.ndarray],
        coded_of: Dict[int, int],
    ) -> Tuple[EncodedFrame, FrameTrace, np.ndarray]:
        config = self.config
        source = video[plan.display_index]
        mb_rows, mb_cols = video.mb_rows, video.mb_cols
        base_qp = frame_qp(config.crf, plan.frame_type)
        references = self._references(plan, padded)
        ref_coded = {
            PredictionDirection.FORWARD: coded_of.get(plan.ref_forward, -1),
            PredictionDirection.BACKWARD: coded_of.get(plan.ref_backward, -1),
        }
        state = FrameMbState(mb_rows, mb_cols)
        qp_offsets = frame_activity_offsets(source) if config.adaptive_qp else None
        searches = {
            direction: FrameMotionSearch(
                source,
                reference,
                self._pad,
                config.search_range,
                config.mv_cost_lambda,
            )
            for direction, reference in references.items()
        }
        recon = np.zeros_like(source)
        slice_payloads: List[bytes] = []
        slice_starts: List[int] = []
        mb_traces: List[MacroblockTrace] = []
        offset_bits = 0
        for start_row, end_row in slice_bands(mb_rows, config.slices):
            encoder = self._helpers._new_entropy_encoder()
            state.start_slice(base_qp)
            slice_starts.append(start_row * mb_cols)
            for mb_row in range(start_row, end_row):
                for mb_col in range(mb_cols):
                    bit_start = offset_bits + encoder.bits_emitted
                    deps = self._encode_macroblock(
                        encoder,
                        plan,
                        source,
                        recon,
                        references,
                        ref_coded,
                        state,
                        base_qp,
                        mb_row,
                        mb_col,
                        start_row,
                        searches,
                        qp_offsets,
                    )
                    mb_traces.append(
                        MacroblockTrace(
                            frame_coded_index=plan.coded_index,
                            mb_index=mb_row * mb_cols + mb_col,
                            bit_start=bit_start,
                            bit_end=offset_bits + encoder.bits_emitted,
                            dependencies=deps,
                        )
                    )
            payload = encoder.finish()
            slice_payloads.append(payload)
            offset_bits += 8 * len(payload)

        if config.deblocking:
            # In-loop filter: the deblocked frame is what references and
            # viewers see; intra prediction above used unfiltered pixels.
            recon = deblock_frame(recon, base_qp)

        full_payload = b"".join(slice_payloads)
        header = FrameHeader(
            coded_index=plan.coded_index,
            display_index=plan.display_index,
            frame_type=plan.frame_type,
            base_qp=base_qp,
            ref_forward=plan.ref_forward,
            ref_backward=plan.ref_backward,
            slice_byte_lengths=[len(p) for p in slice_payloads],
        )
        frame_trace = FrameTrace(
            coded_index=plan.coded_index,
            display_index=plan.display_index,
            frame_type=plan.frame_type,
            payload_bits=8 * len(full_payload),
            slice_starts=slice_starts,
            macroblocks=mb_traces,
        )
        return EncodedFrame(header=header, payload=full_payload), frame_trace, recon

    def _encode_macroblock(
        self,
        encoder,
        plan: FramePlan,
        source: np.ndarray,
        recon: np.ndarray,
        references: ReferenceSet,
        ref_coded: Dict[PredictionDirection, int],
        state: FrameMbState,
        base_qp: int,
        mb_row: int,
        mb_col: int,
        min_mb_row: int,
        searches: Dict[PredictionDirection, FrameMotionSearch],
        qp_offsets: Optional[np.ndarray],
    ) -> List[DependencyRecord]:
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE
        current = source[top : top + MACROBLOCK_SIZE, left : left + MACROBLOCK_SIZE]
        offset = int(qp_offsets[mb_row, mb_col]) if qp_offsets is not None else 0
        qp = min(max(base_qp + offset, MIN_QP), MAX_QP)
        pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)

        if plan.frame_type == FrameType.I:
            decision = self._decide_intra(
                current, recon, mb_row, mb_col, min_mb_row, qp
            )
        else:
            decision = self._helpers._decide_inter(
                plan,
                current,
                recon,
                references,
                searches,
                state,
                mb_row,
                mb_col,
                min_mb_row,
                qp,
                pred_mv,
            )

        # Residual coding against the chosen prediction.
        prediction = build_prediction(
            decision, recon, references, self._pad, mb_row, mb_col, min_mb_row
        )
        residual = current.astype(np.int32) - prediction.astype(np.int32)
        coefficients = transform_and_quantize(residual, decision.qp)
        cbp = coded_block_pattern_scalar(coefficients)
        decision.coefficients = coefficients
        decision.cbp = cbp

        # Skip conversion: inter 16x16, forward, predicted MV, no residual.
        if (
            plan.frame_type != FrameType.I
            and decision.mode == MacroblockMode.INTER
            and decision.partition_type == PartitionType.P16x16
            and decision.partitions[0].direction == PredictionDirection.FORWARD
            and decision.partitions[0].mv == pred_mv
            and not any(cbp)
        ):
            decision = MacroblockDecision(
                mode=MacroblockMode.SKIP,
                qp=state.prev_qp,
                partition_type=PartitionType.P16x16,
                partitions=[InterPartition(rect=(0, 0, 16, 16), mv=pred_mv)],
            )
            prediction = build_prediction(
                decision, recon, references, self._pad, mb_row, mb_col, min_mb_row
            )

        encode_macroblock(
            encoder,
            self._helpers._model,
            state,
            decision,
            plan.frame_type,
            mb_row,
            mb_col,
            min_mb_row,
        )

        # Reconstruction (closed loop).
        residual_pixels = None
        if decision.coefficients is not None and any(decision.cbp):
            residual_pixels = reconstruct_residual(decision.coefficients, decision.qp)
        recon_mb = reconstruct_macroblock(decision, prediction, residual_pixels)
        recon[top : top + MACROBLOCK_SIZE, left : left + MACROBLOCK_SIZE] = recon_mb

        finalize_macroblock(state, decision, mb_row, mb_col)
        return self._helpers._dependencies(
            plan, decision, ref_coded, mb_row, mb_col, min_mb_row, source.shape
        )

    @staticmethod
    def _decide_intra(
        current: np.ndarray,
        recon: np.ndarray,
        mb_row: int,
        mb_col: int,
        min_mb_row: int,
        qp: int,
    ) -> MacroblockDecision:
        mode, _prediction, _sad = choose_intra_mode(
            current, recon, mb_row, mb_col, min_mb_row
        )
        return MacroblockDecision(mode=MacroblockMode.INTRA, qp=qp, intra_mode=mode)
