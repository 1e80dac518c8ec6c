"""The video encoder.

Encodes raw luma video into an H.264-like bitstream with a closed
reconstruction loop (references are the *reconstructed* frames, exactly
what a decoder will see), while emitting the per-macroblock
:class:`~repro.codec.types.EncodingTrace` that VideoApp's dependency
analysis consumes: bit ranges and pixel-source dependencies. The
closed-loop reconstruction is returned beside the stream — it is the
paper's "coded video without bit flips" quality baseline and is
byte-identical to a clean decode, so no caller decodes a stream it just
encoded.

One loop encodes every clip. The paper's evaluation is Monte-Carlo
campaigns of many *small* encodes, and a single encode spends most of
its time in per-macroblock Python, not in numpy; so same-geometry clips
are stacked on a leading batch axis and driven through the vectorized
kernels in lockstep, one numpy call per stage per macroblock position
instead of one per clip. A lone clip is a batch of one.

What batches (one call for all N clips):

* motion search — :class:`BatchFrameMotionSearch` streams the chunked
  SAD pipeline over the displacement window with a leading clip axis;
* the whole P-frame inter mode decision — partition costs for every
  macroblock of every clip come out of the stacked SAD tables with a
  handful of argmins;
* intra mode selection, the 4x4 transform/quantization, coefficient
  block patterns, reconstruction, and the deblocking filter.

What stays per clip: entropy coding, neighbor state, trace dependencies,
and the B-frame inter decision (:meth:`Encoder._decide_inter`:
bidirectional candidates need per-macroblock compensation). Every
batched stage makes the decision the per-macroblock reference encoder
makes (integer arithmetic batches exactly; the float stages are exact
in float), so a clip's stream never depends on the clips it was batched
with — enforced against ``tests/codec/reference_encoder.py`` by
``tests/codec/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EncoderError
from ..obs import trace as obs_trace
from ..video.frame import MACROBLOCK_SIZE, VideoSequence
from .cabac import CabacEncoder
from .cavlc import CavlcEncoder
from .config import EncoderConfig, EntropyCoder
from .contexts import DEFAULT_CONTEXT_MODEL
from .deblock import deblock_frames
from .encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from .gop import FramePlan, plan_gop
from .intra import choose_intra_mode, intra_dependencies
from .motion import (
    _CHUNK_BUDGET_BYTES,
    _ENCODER_RECT_MASK,
    _TILE_ONES,
    MB_SIZE,
    RECT_COLUMN,
    compensate,
    reference_dependencies,
)
from .neighbors import FrameMbState
from .ratecontrol import frame_activity_offsets, frame_qp
from .reconstruct import ReferenceSet, build_prediction
from .syntax import encode_macroblock, finalize_macroblock
from .transform import (
    MAX_QP,
    MIN_QP,
    reconstruct_residuals_many,
    transform_and_quantize_many,
)
from .types import (
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
    DependencyRecord,
    EncodingTrace,
    FrameTrace,
    FrameType,
    InterPartition,
    IntraMode,
    MacroblockDecision,
    MacroblockMode,
    MacroblockTrace,
    MotionVector,
    PartitionType,
    PredictionDirection,
    SubPartitionType,
)


def slice_bands(mb_rows: int, slices: int) -> List[Tuple[int, int]]:
    """Split MB rows into ``slices`` horizontal bands [(start, end)...]."""
    if slices > mb_rows:
        raise EncoderError(
            f"cannot cut {mb_rows} MB rows into {slices} slices"
        )
    base = mb_rows // slices
    remainder = mb_rows % slices
    bands = []
    start = 0
    for index in range(slices):
        size = base + (1 if index < remainder else 0)
        bands.append((start, start + size))
        start += size
    return bands


class BatchFrameMotionSearch:
    """Full-search motion estimation for every macroblock of N clips.

    One chunked streaming pass over the displacement window with a
    leading clip axis: per chunk, one strided window view, one
    abs-diff, one float32 tile reduction, and one float64 masked matmul
    cover every clip at once. All intermediates are exact integers in
    their float dtypes (the bounds do not depend on the batch shape),
    and the first-minimum-within-chunk / strict-less-than cross-chunk
    merge makes results chunk-size invariant — so the per-clip SAD
    tables are bitwise identical to N separate one-clip passes
    (``FrameMotionSearch`` in ``tests/codec/reference.py``) and to the
    per-macroblock ``MacroblockSearch`` there.
    """

    def __init__(self, currents: np.ndarray, refs_padded: np.ndarray,
                 pad: int, search_range: int,
                 mv_cost_lambda: float) -> None:
        if pad < search_range:
            raise EncoderError(
                f"padding {pad} smaller than search range {search_range}"
            )
        num_clips, height, width = currents.shape
        if height % MB_SIZE or width % MB_SIZE:
            raise EncoderError(
                f"frame {height}x{width} is not macroblock-aligned"
            )
        self.search_range = search_range
        self._mb_cols = width // MB_SIZE
        diameter = 2 * search_range + 1
        self._diameter = diameter
        num_mbs = (height // MB_SIZE) * self._mb_cols
        mask = _ENCODER_RECT_MASK.astype(np.float64)
        source = currents.astype(np.int16)
        tile_rows = height // 4
        tile_cols = width // 4
        mb_rows_count = tile_rows // 4

        num_rects = _ENCODER_RECT_MASK.shape[1]
        offsets = np.abs(np.arange(-search_range, search_range + 1))
        penalty_flat = (mv_cost_lambda * (
            offsets[:, None] + offsets[None, :]).reshape(-1)
        ).astype(np.float64)
        band_full = refs_padded[
            :,
            pad - search_range:pad + search_range + height,
            pad - search_range:pad + search_range + width]

        # The per-clip cache budget, grown with the batch (capped at 4x:
        # measured throughput peaks there and thrashes beyond) so the
        # chunk does not degenerate to single displacement rows at batch
        # 8+. Chunk size never affects results — the strict-< merge is
        # chunk-invariant.
        row_bytes = 6 * num_clips * diameter * height * width
        budget = _CHUNK_BUDGET_BYTES * min(num_clips, 4)
        chunk = max(1, min(diameter, budget // row_bytes))

        best_cost = np.full((num_clips, num_mbs, num_rects), np.inf)
        best_sad = np.zeros((num_clips, num_mbs, num_rects),
                            dtype=np.float64)
        best_flat = np.zeros((num_clips, num_mbs, num_rects),
                             dtype=np.int64)
        for start in range(0, diameter, chunk):
            rows = min(chunk, diameter - start)
            dd = rows * diameter
            sub = band_full[:, start:start + rows - 1 + height, :]
            windows = np.lib.stride_tricks.sliding_window_view(
                sub, (height, width), axis=(1, 2))
            diff = np.abs(source[:, None, None] - windows)
            col_sums = (
                diff.reshape(-1, 4).astype(np.float32) @ _TILE_ONES
            ).reshape(num_clips, dd, tile_rows, 4, tile_cols)
            tiles = col_sums.sum(axis=3, dtype=np.float32)
            mb_tiles = tiles.reshape(
                num_clips, dd, mb_rows_count, 4, self._mb_cols, 4
            ).transpose(0, 1, 2, 4, 3, 5).reshape(
                num_clips, dd, num_mbs, MB_SIZE)
            sads = mb_tiles.astype(np.float64) @ mask
            cost = sads + penalty_flat[start * diameter:
                                       start * diameter + dd][None, :,
                                                              None, None]
            pick = np.argmin(cost, axis=1)
            picked = pick[:, None]
            chunk_cost = np.take_along_axis(cost, picked, axis=1)[:, 0]
            chunk_sad = np.take_along_axis(sads, picked, axis=1)[:, 0]
            better = chunk_cost < best_cost
            best_cost[better] = chunk_cost[better]
            best_sad[better] = chunk_sad[better]
            best_flat[better] = np.broadcast_to(
                start * diameter + pick, best_flat.shape)[better]
        self._best_sad = best_sad.astype(np.int64)
        self._best_flat = best_flat.astype(np.int32)

    def clip_view(self, clip: int) -> "_ClipSearchView":
        """One clip's per-macroblock view of the SAD tables."""
        return _ClipSearchView(self._best_sad[clip], self._best_flat[clip],
                               self.search_range, self._diameter,
                               self._mb_cols)


class _ClipSearchView:
    """One clip's slice of a batched search, for the per-macroblock
    B-frame decision: :meth:`mb_table` answers one macroblock."""

    def __init__(self, best_sad: np.ndarray, best_flat: np.ndarray,
                 search_range: int, diameter: int, mb_cols: int) -> None:
        self._best_sad = best_sad
        self._best_flat = best_flat
        self.search_range = search_range
        self._diameter = diameter
        self._mb_cols = mb_cols

    def mb_table(self, mb_row: int, mb_col: int
                 ) -> List[Tuple[MotionVector, float]]:
        mb = mb_row * self._mb_cols + mb_col
        flats = self._best_flat[mb].tolist()
        sads = self._best_sad[mb].tolist()
        diameter = self._diameter
        radius = self.search_range
        return [
            (MotionVector(flat // diameter - radius,
                          flat % diameter - radius), float(sad))
            for flat, sad in zip(flats, sads)
        ]


# -- vectorized P-frame inter decision tables ---------------------------------

_P16x16_COL = RECT_COLUMN[(0, 0, 16, 16)]
_P16x8_COLS = np.array([RECT_COLUMN[r]
                        for r in PARTITION_RECTS[PartitionType.P16x8]])
_P8x16_COLS = np.array([RECT_COLUMN[r]
                        for r in PARTITION_RECTS[PartitionType.P8x16]])


def _sub_layout_tables():
    """Padded (quadrant, sub-type, rect) column/validity tables."""
    cols = np.zeros((4, 4, 4), dtype=np.int64)
    valid = np.zeros((4, 4, 4), dtype=np.float64)
    counts = np.zeros((4, 4), dtype=np.float64)
    rects: List[List[List[Tuple[int, int, int, int]]]] = []
    for q, (qy, qx) in enumerate(QUADRANT_ORIGINS):
        by_sub: List[List[Tuple[int, int, int, int]]] = []
        for s, sub in enumerate(SubPartitionType):
            sub_rects = [(qy + oy, qx + ox, h, w)
                         for oy, ox, h, w in SUBPARTITION_RECTS[sub]]
            by_sub.append(sub_rects)
            counts[q, s] = len(sub_rects)
            for r, rect in enumerate(sub_rects):
                cols[q, s, r] = RECT_COLUMN[rect]
                valid[q, s, r] = 1.0
        rects.append(by_sub)
    return cols, valid, counts, rects


_SUB_COLS, _SUB_VALID, _SUB_COUNTS, _SUB_RECTS = _sub_layout_tables()

#: Candidate order of :meth:`Encoder._decide_inter` (argmin tie-break
#: order).
_PTYPE_ORDER = (PartitionType.P16x16, PartitionType.P16x8,
                PartitionType.P8x16, PartitionType.P8x8)
_SUBTYPE_ORDER = tuple(SubPartitionType)


class _FrameInterTables:
    """All P-frame inter decisions of a batch, precomputed per frame.

    From the stacked forward SAD tables ``(N, M, 41)`` this derives, in
    a few whole-frame numpy calls, exactly what the per-macroblock
    :meth:`Encoder._decide_inter` computes for single-reference frames:
    the winning partition layout, its cost, and the chosen sub-layouts.
    Candidate evaluation order (P16x16, P16x8, P8x16, P8x8; sub-types in
    enum order) matches its strict-less-than scan, and every cost is an
    exact integer in float64 (SAD sums plus penalty products), so argmin
    reproduces its tie-breaking bit for bit.
    """

    def __init__(self, search: BatchFrameMotionSearch,
                 partition_penalty: float) -> None:
        sad = search._best_sad.astype(np.float64)
        pp = partition_penalty
        c16 = sad[..., _P16x16_COL]
        c168 = sad[..., _P16x8_COLS].sum(axis=-1) + pp
        c816 = sad[..., _P8x16_COLS].sum(axis=-1) + pp
        sub_costs = ((sad[..., _SUB_COLS] * _SUB_VALID).sum(axis=-1)
                     + pp * _SUB_COUNTS)          # (N, M, 4, 4)
        sub_pick = np.argmin(sub_costs, axis=-1)  # (N, M, 4)
        sub_best = np.take_along_axis(
            sub_costs, sub_pick[..., None], axis=-1)[..., 0]
        c88 = sub_best.sum(axis=-1) - pp
        candidates = np.stack([c16, c168, c816, c88], axis=-1)
        ptype_pick = np.argmin(candidates, axis=-1)  # (N, M)
        best_cost = np.take_along_axis(
            candidates, ptype_pick[..., None], axis=-1)[..., 0]

        # Plain nested lists: the per-MB winner construction in the
        # lockstep loop indexes these heavily, and Python-level list
        # access beats array scalar reads there.
        self.best_cost: List[List[float]] = best_cost.tolist()
        self._ptype_pick: List[List[int]] = ptype_pick.tolist()
        self._sub_pick: List[List[List[int]]] = sub_pick.tolist()
        self._flats: List[List[List[int]]] = search._best_flat.tolist()
        self._diameter = search._diameter
        self._radius = search.search_range

    def _mv(self, flat: int) -> MotionVector:
        return MotionVector(flat // self._diameter - self._radius,
                            flat % self._diameter - self._radius)

    def decision(self, clip: int, mb: int, qp: int) -> MacroblockDecision:
        """Materialize the winning inter decision (winner only — the
        losing candidates' partition objects are never built)."""
        flats = self._flats[clip][mb]
        ptype = _PTYPE_ORDER[self._ptype_pick[clip][mb]]
        sub_types: Optional[List[SubPartitionType]] = None
        if ptype == PartitionType.P8x8:
            sub_types = []
            partitions = []
            for q, s in enumerate(self._sub_pick[clip][mb]):
                sub_types.append(_SUBTYPE_ORDER[s])
                for rect in _SUB_RECTS[q][s]:
                    partitions.append(InterPartition(
                        rect=rect, mv=self._mv(flats[RECT_COLUMN[rect]])))
        else:
            partitions = [
                InterPartition(rect=rect,
                               mv=self._mv(flats[RECT_COLUMN[rect]]))
                for rect in PARTITION_RECTS[ptype]
            ]
        return MacroblockDecision(
            mode=MacroblockMode.INTER, qp=qp, partition_type=ptype,
            sub_types=sub_types, partitions=partitions,
        )


# -- batched intra selection --------------------------------------------------

class _BatchIntraChoice:
    """Intra mode selection for one MB position across all clips.

    Mirrors :func:`~repro.codec.intra.choose_intra_mode` with a leading
    clip axis: border SADs are integer sums, the DC value uses the same
    half-to-even rounding, and the PLANE gradient is the same integer
    shift arithmetic — so modes, SADs, and winner predictions are
    identical per clip. Availability (slice boundary, frame edge) is
    position-dependent only, hence uniform across the batch.
    """

    def __init__(self, current_stack: np.ndarray, recon_stack: np.ndarray,
                 mb_row: int, mb_col: int, min_mb_row: int) -> None:
        num_clips = current_stack.shape[0]
        top = mb_row * MB_SIZE
        left = mb_col * MB_SIZE
        has_above = mb_row > min_mb_row
        has_left = mb_col > 0
        current = current_stack.astype(np.int32)
        sad_flat = np.abs(current - 128).sum(axis=(1, 2), dtype=np.int64)

        above = (recon_stack[:, top - 1, left:left + MB_SIZE]
                 if has_above else None)
        left_col = (recon_stack[:, top:top + MB_SIZE, left - 1]
                    if has_left else None)
        self._above = above
        self._left = left_col

        if above is None and left_col is None:
            dc_values = np.full(num_clips, 128, dtype=np.int64)
            sad_dc = sad_flat
        else:
            totals = np.zeros(num_clips, dtype=np.int64)
            count = 0
            if above is not None:
                totals += above.astype(np.int64).sum(axis=1)
                count += MB_SIZE
            if left_col is not None:
                totals += left_col.astype(np.int64).sum(axis=1)
                count += MB_SIZE
            dc_values = np.rint(totals / count).astype(np.int64)
            sad_dc = np.abs(current - dc_values[:, None, None]).sum(
                axis=(1, 2), dtype=np.int64)
        sad_v = (sad_flat if above is None
                 else np.abs(current - above.astype(np.int32)[:, None, :]
                             ).sum(axis=(1, 2), dtype=np.int64))
        sad_h = (sad_flat if left_col is None
                 else np.abs(current - left_col.astype(np.int32)[:, :, None]
                             ).sum(axis=(1, 2), dtype=np.int64))
        planes: Optional[np.ndarray] = None
        if (above is None or left_col is None
                or mb_row == 0 or mb_col == 0):
            sad_p = sad_flat
        else:
            corner = recon_stack[:, top - 1, left - 1].astype(np.int64)
            above64 = above.astype(np.int64)
            left64 = left_col.astype(np.int64)
            above_ext = np.concatenate([corner[:, None], above64], axis=1)
            left_ext = np.concatenate([corner[:, None], left64], axis=1)
            taps = np.arange(1, 9, dtype=np.int64)
            h_grad = (taps * (above_ext[:, 8 + taps]
                              - above_ext[:, 8 - taps])).sum(axis=1)
            v_grad = (taps * (left_ext[:, 8 + taps]
                              - left_ext[:, 8 - taps])).sum(axis=1)
            slope_x = (5 * h_grad + 32) >> 6
            slope_y = (5 * v_grad + 32) >> 6
            base = 16 * (above64[:, 15] + left64[:, 15])
            xs = np.arange(MB_SIZE, dtype=np.int64) - 7
            plane = (base[:, None, None]
                     + slope_x[:, None, None] * xs[None, None, :]
                     + slope_y[:, None, None] * xs[None, :, None] + 16) >> 5
            planes = np.clip(plane, 0, 255).astype(np.uint8)
            sad_p = np.abs(current - planes.astype(np.int32)).sum(
                axis=(1, 2), dtype=np.int64)
        self._dc_values = dc_values
        self._planes = planes
        stacked = np.stack([sad_dc, sad_v, sad_h, sad_p], axis=1)
        picks = np.argmin(stacked, axis=1)  # first min, MODE_ORDER
        self.modes: List[IntraMode] = [
            (IntraMode.DC, IntraMode.VERTICAL, IntraMode.HORIZONTAL,
             IntraMode.PLANE)[p]
            for p in picks.tolist()
        ]
        self.sads: List[int] = np.take_along_axis(
            stacked, picks[:, None], axis=1)[:, 0].tolist()

    def prediction(self, clip: int, mode: IntraMode) -> np.ndarray:
        """The winner's 16x16 prediction — identical to
        :func:`~repro.codec.intra.predict_intra` for this mode."""
        if mode == IntraMode.VERTICAL:
            if self._above is None:
                return np.full((MB_SIZE, MB_SIZE), 128, dtype=np.uint8)
            return np.repeat(self._above[clip][np.newaxis, :], MB_SIZE,
                             axis=0)
        if mode == IntraMode.HORIZONTAL:
            if self._left is None:
                return np.full((MB_SIZE, MB_SIZE), 128, dtype=np.uint8)
            return np.repeat(self._left[clip][:, np.newaxis], MB_SIZE,
                             axis=1)
        if mode == IntraMode.PLANE:
            if self._planes is None:
                return np.full((MB_SIZE, MB_SIZE), 128, dtype=np.uint8)
            return self._planes[clip]
        return np.full((MB_SIZE, MB_SIZE),
                       np.uint8(self._dc_values[clip]), dtype=np.uint8)


#: 4x4 coefficient-block indices composing each 8x8 quadrant.
_QUADRANT_BLOCKS = np.array([
    [(qy // 4 + by) * 4 + (qx // 4 + bx)
     for by in range(2) for bx in range(2)]
    for qy, qx in QUADRANT_ORIGINS
])


def _coded_block_patterns_many(levels: np.ndarray) -> np.ndarray:
    """(K, 16, 4, 4) levels -> (K, 4) per-quadrant coded flags."""
    block_coded = levels.reshape(levels.shape[0], 16, 16).any(axis=2)
    return block_coded[:, _QUADRANT_BLOCKS].any(axis=2)


class Encoder:
    """H.264-like encoder; see :class:`EncoderConfig` for knobs."""

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        self.config = config or EncoderConfig()
        self._model = DEFAULT_CONTEXT_MODEL
        self._pad = self.config.search_range

    # -- public API --------------------------------------------------------

    def encode(self, video: VideoSequence) -> EncodedVideo:
        """Encode ``video`` as a batch of one; the result carries the
        VideoApp trace."""
        return self.encode_batch_with_recon([video])[0][0]

    def encode_batch_with_recon(self, videos: Sequence[VideoSequence]
                                ) -> Tuple[List[EncodedVideo],
                                           List[np.ndarray]]:
        """Encode N clips of any geometry, in input order.

        Clips that share a geometry (frame count, height, width) ride
        one lockstep pass; each clip's stream is the same whatever it
        is batched with. The second element holds one ``(frames, H, W)
        uint8`` array per clip — the closed-loop reconstruction in
        display order, byte-identical to a clean decode of the stream.
        """
        if any(len(video) == 0 for video in videos):
            raise EncoderError("cannot encode an empty sequence")
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for index, video in enumerate(videos):
            geometry = (len(video), video.height, video.width)
            groups.setdefault(geometry, []).append(index)
        encoded: List[EncodedVideo] = [None] * len(videos)  # type: ignore
        recons: List[np.ndarray] = [None] * len(videos)  # type: ignore
        with obs_trace.span("encode", clips=len(videos),
                            frames=sum(len(video) for video in videos),
                            entropy=self.config.entropy_coder.name):
            for indices in groups.values():
                group = self._encode_sequences([videos[i] for i in indices])
                for index, clip_encoded, recon in zip(indices, *group):
                    encoded[index] = clip_encoded
                    recons[index] = recon
        return encoded, recons

    def _new_entropy_encoder(self):
        if self.config.entropy_coder == EntropyCoder.CABAC:
            return CabacEncoder(self._model.total_contexts)
        return CavlcEncoder(self._model.total_contexts)

    # -- sequence loop -----------------------------------------------------

    def _encode_sequences(self, videos: Sequence[VideoSequence]
                          ) -> Tuple[List[EncodedVideo], List[np.ndarray]]:
        config = self.config
        num_clips = len(videos)
        sources = np.stack([video.to_array() for video in videos])
        num_frames = sources.shape[1]
        mb_rows = videos[0].mb_rows
        mb_cols = videos[0].mb_cols
        if config.slices > mb_rows:
            raise EncoderError(
                f"slices ({config.slices}) exceed MB rows ({mb_rows})"
            )
        plans = plan_gop(num_frames, config.gop_size, config.bframes)
        coded_of = {plan.display_index: plan.coded_index for plan in plans}

        traces = [EncodingTrace(mb_rows=mb_rows, mb_cols=mb_cols)
                  for _ in range(num_clips)]
        frames_out: List[List[EncodedFrame]] = [[] for _ in range(num_clips)]
        recon_by_display: Dict[int, np.ndarray] = {}
        padded: Dict[int, np.ndarray] = {}
        for plan in plans:
            with obs_trace.span("encode.frame", coded_index=plan.coded_index,
                                frame_type=plan.frame_type.name,
                                batch=num_clips):
                stages = obs_trace.stage_clock()
                frame_list, trace_list, recon_stack = self._encode_frame(
                    plan, sources, padded, coded_of, mb_rows, mb_cols,
                    stages)
                stages.emit(batch=num_clips)
            for clip in range(num_clips):
                frames_out[clip].append(frame_list[clip])
                traces[clip].frames.append(trace_list[clip])
            recon_by_display[plan.display_index] = recon_stack
            padded[plan.display_index] = np.pad(
                recon_stack, ((0, 0), (self._pad, self._pad),
                              (self._pad, self._pad)), mode="edge")

        encoded: List[EncodedVideo] = []
        recons: List[np.ndarray] = []
        display_order = np.stack(
            [recon_by_display[d] for d in range(num_frames)], axis=1)
        for clip, video in enumerate(videos):
            header = VideoHeader(
                width=video.width, height=video.height,
                num_frames=num_frames, gop_size=config.gop_size,
                bframes=config.bframes, slices=config.slices,
                entropy_coder=config.entropy_coder, crf=config.crf,
                search_range=config.search_range, fps=video.fps,
                deblocking=config.deblocking,
            )
            encoded.append(EncodedVideo(header=header,
                                        frames=frames_out[clip],
                                        trace=traces[clip]))
            recons.append(display_order[clip])
        return encoded, recons

    # -- frame loop --------------------------------------------------------

    def _encode_frame(self, plan: FramePlan, sources: np.ndarray,
                      padded: Dict[int, np.ndarray],
                      coded_of: Dict[int, int], mb_rows: int, mb_cols: int,
                      stages) -> Tuple[List[EncodedFrame],
                                       List[FrameTrace], np.ndarray]:
        config = self.config
        num_clips = sources.shape[0]
        source_stack = np.ascontiguousarray(
            sources[:, plan.display_index])
        base_qp = frame_qp(config.crf, plan.frame_type)
        references: Dict[PredictionDirection, np.ndarray] = {}
        if plan.ref_forward is not None:
            references[PredictionDirection.FORWARD] = padded[plan.ref_forward]
        if plan.ref_backward is not None:
            references[PredictionDirection.BACKWARD] = \
                padded[plan.ref_backward]
        clip_references = [
            {direction: stack[clip] for direction, stack
             in references.items()}
            for clip in range(num_clips)
        ]
        ref_coded = {
            PredictionDirection.FORWARD:
                coded_of.get(plan.ref_forward, -1),
            PredictionDirection.BACKWARD:
                coded_of.get(plan.ref_backward, -1),
        }
        states = [FrameMbState(mb_rows, mb_cols) for _ in range(num_clips)]
        qp_offset_lists: Optional[List[List[List[int]]]] = None
        if config.adaptive_qp:
            qp_offset_lists = [
                frame_activity_offsets(source_stack[clip]).tolist()
                for clip in range(num_clips)
            ]
        searches: Dict[PredictionDirection, BatchFrameMotionSearch] = {}
        clip_searches: List[Dict[PredictionDirection, _ClipSearchView]] = []
        inter_tables: Optional[_FrameInterTables] = None
        if plan.frame_type != FrameType.I:
            with stages.time("encode.inter"):
                searches = {
                    direction: BatchFrameMotionSearch(
                        source_stack, stack, self._pad,
                        config.search_range, config.mv_cost_lambda)
                    for direction, stack in references.items()
                }
                if plan.frame_type == FrameType.P:
                    # Single reference: the entire per-MB mode
                    # decision collapses into whole-frame numpy.
                    inter_tables = _FrameInterTables(
                        searches[PredictionDirection.FORWARD],
                        config.partition_penalty)
                else:
                    clip_searches = [
                        {direction: search.clip_view(clip)
                         for direction, search in searches.items()}
                        for clip in range(num_clips)
                    ]

        recon_stack = np.zeros_like(source_stack)
        slice_payloads: List[List[bytes]] = [[] for _ in range(num_clips)]
        slice_starts: List[int] = []
        mb_traces: List[List[MacroblockTrace]] = [[] for _ in
                                                  range(num_clips)]
        offset_bits = [0] * num_clips
        for start_row, end_row in slice_bands(mb_rows, config.slices):
            encoders = [self._new_entropy_encoder()
                        for _ in range(num_clips)]
            for state in states:
                state.start_slice(base_qp)
            slice_starts.append(start_row * mb_cols)
            for mb_row in range(start_row, end_row):
                for mb_col in range(mb_cols):
                    bit_starts = [offset_bits[clip]
                                  + encoders[clip].bits_emitted
                                  for clip in range(num_clips)]
                    decisions, deps_lists = self._encode_macroblocks(
                        plan, source_stack, recon_stack, clip_references,
                        ref_coded, states, encoders, base_qp, mb_row,
                        mb_col, start_row, stages, inter_tables,
                        clip_searches, qp_offset_lists)
                    mb_index = mb_row * mb_cols + mb_col
                    for clip in range(num_clips):
                        mb_traces[clip].append(MacroblockTrace(
                            frame_coded_index=plan.coded_index,
                            mb_index=mb_index,
                            bit_start=bit_starts[clip],
                            bit_end=(offset_bits[clip]
                                     + encoders[clip].bits_emitted),
                            dependencies=deps_lists[clip],
                        ))
            with stages.time("encode.entropy"):
                for clip in range(num_clips):
                    payload = encoders[clip].finish()
                    slice_payloads[clip].append(payload)
                    offset_bits[clip] += 8 * len(payload)

        if config.deblocking:
            with stages.time("encode.deblock"):
                recon_stack = deblock_frames(recon_stack, base_qp)

        frame_list: List[EncodedFrame] = []
        trace_list: List[FrameTrace] = []
        for clip in range(num_clips):
            full_payload = b"".join(slice_payloads[clip])
            header = FrameHeader(
                coded_index=plan.coded_index,
                display_index=plan.display_index,
                frame_type=plan.frame_type,
                base_qp=base_qp,
                ref_forward=plan.ref_forward,
                ref_backward=plan.ref_backward,
                slice_byte_lengths=[len(p) for p in slice_payloads[clip]],
            )
            frame_list.append(EncodedFrame(header=header,
                                           payload=full_payload))
            trace_list.append(FrameTrace(
                coded_index=plan.coded_index,
                display_index=plan.display_index,
                frame_type=plan.frame_type,
                payload_bits=8 * len(full_payload),
                slice_starts=list(slice_starts),
                macroblocks=mb_traces[clip],
            ))
        return frame_list, trace_list, recon_stack

    # -- lockstep macroblock step ----------------------------------------

    def _encode_macroblocks(self, plan: FramePlan, source_stack: np.ndarray,
                            recon_stack: np.ndarray,
                            clip_references: List[Dict],
                            ref_coded: Dict[PredictionDirection, int],
                            states: List[FrameMbState], encoders: List,
                            base_qp: int, mb_row: int, mb_col: int,
                            min_mb_row: int, stages,
                            inter_tables: Optional[_FrameInterTables],
                            clip_searches: List[Dict],
                            qp_offset_lists) -> Tuple[List, List]:
        config = self.config
        num_clips = source_stack.shape[0]
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE
        current_stack = source_stack[:, top:top + MACROBLOCK_SIZE,
                                     left:left + MACROBLOCK_SIZE]
        if qp_offset_lists is not None:
            qps = [min(max(base_qp + qp_offset_lists[clip][mb_row][mb_col],
                           MIN_QP), MAX_QP)
                   for clip in range(num_clips)]
        else:
            qps = [base_qp] * num_clips
        pred_mvs = [state.predict_mv(mb_row, mb_col, min_mb_row)
                    for state in states]

        decisions: List[MacroblockDecision] = []
        intra_choice: Optional[_BatchIntraChoice] = None
        if plan.frame_type == FrameType.I:
            with stages.time("encode.intra"):
                intra_choice = _BatchIntraChoice(
                    current_stack, recon_stack, mb_row, mb_col, min_mb_row)
                decisions = [
                    MacroblockDecision(mode=MacroblockMode.INTRA,
                                       qp=qps[clip],
                                       intra_mode=intra_choice.modes[clip])
                    for clip in range(num_clips)
                ]
        elif inter_tables is not None:
            with stages.time("encode.inter"):
                intra_choice = _BatchIntraChoice(
                    current_stack, recon_stack, mb_row, mb_col, min_mb_row)
                mb = mb_row * (source_stack.shape[2] // MACROBLOCK_SIZE) \
                    + mb_col
                intra_penalty = config.intra_penalty
                for clip in range(num_clips):
                    if (intra_choice.sads[clip] + intra_penalty
                            < inter_tables.best_cost[clip][mb]):
                        decisions.append(MacroblockDecision(
                            mode=MacroblockMode.INTRA, qp=qps[clip],
                            intra_mode=intra_choice.modes[clip]))
                    else:
                        decisions.append(
                            inter_tables.decision(clip, mb, qps[clip]))
        else:
            # B-frames: bidirectional candidates need per-MB
            # compensation, so each clip takes the per-macroblock
            # decision (it also runs the intra compete) against its
            # slice of the batched search tables.
            with stages.time("encode.inter"):
                decisions = [
                    self._decide_inter(
                        plan, current_stack[clip], recon_stack[clip],
                        clip_references[clip], clip_searches[clip],
                        states[clip], mb_row, mb_col, min_mb_row,
                        qps[clip], pred_mvs[clip])
                    for clip in range(num_clips)
                ]

        # Residual coding against the chosen predictions, batched.
        with stages.time("encode.transform"):
            predictions = np.empty_like(current_stack)
            for clip, decision in enumerate(decisions):
                if decision.mode == MacroblockMode.INTRA:
                    if intra_choice is not None:
                        predictions[clip] = intra_choice.prediction(
                            clip, decision.intra_mode)
                    else:
                        predictions[clip] = build_prediction(
                            decision, recon_stack[clip],
                            clip_references[clip], self._pad, mb_row,
                            mb_col, min_mb_row)
                else:
                    predictions[clip] = build_prediction(
                        decision, recon_stack[clip], clip_references[clip],
                        self._pad, mb_row, mb_col, min_mb_row)
            residuals = (current_stack.astype(np.int32)
                         - predictions.astype(np.int32))
            levels = transform_and_quantize_many(
                residuals, [d.qp for d in decisions])
            cbps = _coded_block_patterns_many(levels)
        cbp_rows = cbps.tolist()
        for clip, decision in enumerate(decisions):
            decision.coefficients = levels[clip]
            decision.cbp = tuple(cbp_rows[clip])

        # Skip conversion: inter 16x16, forward, predicted MV, no
        # residual — per clip.
        if plan.frame_type != FrameType.I:
            for clip, decision in enumerate(decisions):
                if (decision.mode == MacroblockMode.INTER
                        and decision.partition_type == PartitionType.P16x16
                        and decision.partitions[0].direction
                        == PredictionDirection.FORWARD
                        and decision.partitions[0].mv == pred_mvs[clip]
                        and not any(decision.cbp)):
                    decision = MacroblockDecision(
                        mode=MacroblockMode.SKIP,
                        qp=states[clip].prev_qp,
                        partition_type=PartitionType.P16x16,
                        partitions=[InterPartition(rect=(0, 0, 16, 16),
                                                   mv=pred_mvs[clip])],
                    )
                    decisions[clip] = decision
                    predictions[clip] = build_prediction(
                        decision, recon_stack[clip], clip_references[clip],
                        self._pad, mb_row, mb_col, min_mb_row)

        with stages.time("encode.entropy"):
            for clip, decision in enumerate(decisions):
                encode_macroblock(encoders[clip], self._model,
                                  states[clip], decision, plan.frame_type,
                                  mb_row, mb_col, min_mb_row)

        # Reconstruction (closed loop), batched over the coded clips.
        with stages.time("encode.transform"):
            recon_mbs = predictions.copy()
            coded = [clip for clip, decision in enumerate(decisions)
                     if decision.coefficients is not None
                     and any(decision.cbp)]
            if coded:
                residual_pixels = reconstruct_residuals_many(
                    np.stack([decisions[clip].coefficients
                              for clip in coded]),
                    [decisions[clip].qp for clip in coded])
                combined = (predictions[coded].astype(np.int32)
                            + residual_pixels)
                recon_mbs[coded] = np.clip(combined, 0, 255).astype(
                    np.uint8)
        recon_stack[:, top:top + MACROBLOCK_SIZE,
                    left:left + MACROBLOCK_SIZE] = recon_mbs

        deps_lists = []
        frame_shape = source_stack.shape[1:]
        for clip, decision in enumerate(decisions):
            finalize_macroblock(states[clip], decision, mb_row, mb_col)
            deps_lists.append(self._dependencies(
                plan, decision, ref_coded, mb_row, mb_col, min_mb_row,
                frame_shape))
        return decisions, deps_lists

    # -- per-macroblock B-frame decision ------------------------------------

    def _decide_inter(self, plan: FramePlan, current: np.ndarray,
                      recon: np.ndarray, references: ReferenceSet,
                      searches: Dict[PredictionDirection, _ClipSearchView],
                      state: FrameMbState, mb_row: int, mb_col: int,
                      min_mb_row: int, qp: int,
                      pred_mv: MotionVector) -> MacroblockDecision:
        config = self.config
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE

        tables = {
            direction: searcher.mb_table(mb_row, mb_col)
            for direction, searcher in searches.items()
        }

        def best_for_rect(rect):
            """(mv, direction, cost, mv_backward) of the best candidate:
            forward, backward, or the bidirectional average."""
            column = RECT_COLUMN[rect]
            per_direction = {}
            best = None
            for direction, table in tables.items():
                mv, sad = table[column]
                per_direction[direction] = mv
                if best is None or sad < best[2]:
                    best = (mv, direction, sad, None)
            if len(per_direction) == 2:
                # Bidirectional candidate: rounded average of the two
                # best single-direction blocks.
                oy, ox, height, width = rect
                current_rect = current[oy:oy + height, ox:ox + width]
                blocks = {}
                for direction, mv in per_direction.items():
                    blocks[direction] = compensate(
                        references[direction], self._pad, top, left, rect,
                        mv).astype(np.int32)
                averaged = (blocks[PredictionDirection.FORWARD]
                            + blocks[PredictionDirection.BACKWARD] + 1) >> 1
                sad_bi = float(np.abs(current_rect.astype(np.int32)
                                      - averaged).sum()) + config.bi_penalty
                if sad_bi < best[2]:
                    best = (per_direction[PredictionDirection.FORWARD],
                            PredictionDirection.BIDIRECTIONAL, sad_bi,
                            per_direction[PredictionDirection.BACKWARD])
            return best

        candidates = []  # (cost, partition_type, sub_types, partitions)
        for ptype in (PartitionType.P16x16, PartitionType.P16x8,
                      PartitionType.P8x16):
            rects = PARTITION_RECTS[ptype]
            parts = [best_for_rect(rect) for rect in rects]
            cost = (sum(p[2] for p in parts)
                    + config.partition_penalty * (len(rects) - 1))
            partitions = [
                InterPartition(rect=rect, mv=p[0], direction=p[1],
                               mv_backward=p[3])
                for rect, p in zip(rects, parts)
            ]
            candidates.append((cost, ptype, None, partitions))

        # P8x8: choose the best sub-layout per quadrant independently.
        sub_types: List[SubPartitionType] = []
        partitions8: List[InterPartition] = []
        total_cost = 0.0
        for qy, qx in QUADRANT_ORIGINS:
            best_quadrant = None
            for sub in SubPartitionType:
                rects = [(qy + oy, qx + ox, h, w)
                         for oy, ox, h, w in SUBPARTITION_RECTS[sub]]
                parts = [best_for_rect(rect) for rect in rects]
                cost = (sum(p[2] for p in parts)
                        + config.partition_penalty * len(rects))
                if best_quadrant is None or cost < best_quadrant[0]:
                    best_quadrant = (cost, sub, [
                        InterPartition(rect=rect, mv=p[0], direction=p[1],
                                       mv_backward=p[3])
                        for rect, p in zip(rects, parts)
                    ])
            assert best_quadrant is not None
            total_cost += best_quadrant[0]
            sub_types.append(best_quadrant[1])
            partitions8.extend(best_quadrant[2])
        candidates.append((total_cost - config.partition_penalty,
                           PartitionType.P8x8, sub_types, partitions8))

        best_cost, ptype, subs, partitions = min(candidates,
                                                 key=lambda c: c[0])

        # Intra competes in inter frames too.
        intra_mode, _pred, intra_sad = choose_intra_mode(
            current, recon, mb_row, mb_col, min_mb_row)
        if intra_sad + config.intra_penalty < best_cost:
            return MacroblockDecision(mode=MacroblockMode.INTRA, qp=qp,
                                      intra_mode=intra_mode)
        return MacroblockDecision(
            mode=MacroblockMode.INTER, qp=qp, partition_type=ptype,
            sub_types=subs, partitions=partitions,
        )

    # -- trace dependencies -----------------------------------------------

    def _dependencies(self, plan: FramePlan, decision: MacroblockDecision,
                      ref_coded: Dict[PredictionDirection, int],
                      mb_row: int, mb_col: int, min_mb_row: int,
                      frame_shape: Tuple[int, int]
                      ) -> List[DependencyRecord]:
        height, width = frame_shape
        mb_cols = width // MACROBLOCK_SIZE
        if decision.mode == MacroblockMode.INTRA:
            assert decision.intra_mode is not None
            return intra_dependencies(plan.coded_index, mb_row, mb_col,
                                      mb_cols, decision.intra_mode,
                                      min_mb_row)
        deps: List[DependencyRecord] = []
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE
        for partition in decision.partitions:
            if partition.direction == PredictionDirection.BIDIRECTIONAL:
                # Each reference supplies half of every averaged pixel.
                assert partition.mv_backward is not None
                halves = [
                    (PredictionDirection.FORWARD, partition.mv),
                    (PredictionDirection.BACKWARD, partition.mv_backward),
                ]
                for direction, mv in halves:
                    for record in reference_dependencies(
                            ref_coded[direction], top, left,
                            partition.rect, mv, height, width, mb_cols):
                        deps.append(DependencyRecord(
                            source=record.source,
                            pixels=record.pixels / 2.0))
                continue
            deps.extend(reference_dependencies(
                ref_coded[partition.direction], top, left, partition.rect,
                partition.mv, height, width, mb_cols))
        return deps
