"""Macroblock syntax: the bitstream grammar.

``encode_macroblock`` and ``decode_macroblock`` are exact mirrors; they
walk the same element order, select the same contexts from the same
neighbor state, and use the same binarizations. All error-propagation
behaviour the paper studies emerges here: a flipped payload bit makes
the entropy decoder emit different bins, which changes decoded values,
which corrupts the neighbor state, which changes context selection and
metadata prediction for the rest of the slice.

Element order per macroblock:

1. ``skip_flag``                      (P/B frames only)
2. ``is_intra``                       (P/B, non-skip)
3. intra mode | partition tree + motion vector differences
4. delta-QP
5. coded block pattern (4 quadrant flags)
6. residual: per coded 4x4 block, nnz + significance map + levels
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError, EncoderError
from .contexts import ContextModel
from .entropy import (
    LEVEL_BUCKETS,
    QUADRANT_BLOCKS,
    EntropyDecoder,
    EntropyEncoder,
    uint_bin_ops,
)
from .neighbors import FrameMbState
from .transform import MAX_QP, MIN_QP, ZIGZAG_FLAT_INDEX
from .types import (
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
    FrameType,
    InterPartition,
    IntraMode,
    MacroblockDecision,
    MacroblockMode,
    MotionVector,
    PartitionType,
    PredictionDirection,
    SubPartitionType,
)


def partition_rectangles(
    partition_type: PartitionType,
    sub_types: Optional[List[SubPartitionType]],
) -> List[Tuple[int, int, int, int]]:
    """Canonical (offset_y, offset_x, h, w) list for a partition layout."""
    if partition_type != PartitionType.P8x8:
        return list(PARTITION_RECTS[partition_type])
    if sub_types is None or len(sub_types) != 4:
        raise EncoderError("P8x8 requires exactly 4 sub-partition types")
    rects = []
    for (qy, qx), sub in zip(QUADRANT_ORIGINS, sub_types):
        for oy, ox, height, width in SUBPARTITION_RECTS[sub]:
            rects.append((qy + oy, qx + ox, height, width))
    return rects


#: Context groups the grammar reads, in :func:`_syntax_groups` order.
_GROUP_NAMES = ("skip_flag", "is_intra", "intra_mode", "partition_type",
                "sub_type", "direction", "mvd_x", "mvd_y", "dqp", "cbp",
                "nnz", "sig", "level")

#: Enum members by decoded value; every group's ``max_value`` clamp
#: keeps decoded values inside these.
_INTRA_MODES = tuple(IntraMode)
_PARTITION_TYPES = tuple(PartitionType)
_SUB_TYPES = tuple(SubPartitionType)
_DIRECTIONS = tuple(PredictionDirection)

# Enum members the parse compares against, bound once: a class
# attribute lookup on an enum costs several plain global loads.
_I_FRAME = FrameType.I
_B_FRAME = FrameType.B
_FORWARD = PredictionDirection.FORWARD
_BIDIRECTIONAL = PredictionDirection.BIDIRECTIONAL
_P8x8 = PartitionType.P8x8


def _syntax_groups(model: ContextModel) -> tuple:
    """The model's groups in :data:`_GROUP_NAMES` order, resolved once.

    Memoized on the model, which leaves it out of pickles like the
    block-plan caches: name lookups per macroblock would cost more than
    several of the symbols they select.
    """
    groups = model.__dict__.get("_syntax_groups")
    if groups is None:
        groups = tuple(model[name] for name in _GROUP_NAMES)
        model._syntax_groups = groups
    return groups


# ----------------------------------------------------------------------
# Residual blocks
# ----------------------------------------------------------------------

#: Per-variant cap on cached whole-block plans; quantized residual
#: blocks repeat heavily, so the cache saturates far below this.
_PLAN_CACHE_LIMIT = 1 << 16


def _block_ops(plan_cache, nnz_ops, sig_base, level_tables, level_group,
               vector: List[int]) -> List[int]:
    # ``vector`` is the block's zigzag scan as plain Python ints (the
    # caller gathers all 16 blocks of the MB in one indexing op) and the
    # op tables are hoisted out of the residual loop by the caller. The
    # whole block is planned as one bin string and the caller emits all
    # of a macroblock's blocks in a single ``encode_bins`` call —
    # identical bins, contexts, and order to symbol-by-symbol encoding,
    # without per-symbol dispatch. Bin strings depend only on the
    # values (never on coder state), so whole-block plans are memoized
    # by scan content: quantization collapses most blocks onto a small
    # set of sparse vectors.
    key = tuple(vector)
    ops = plan_cache.get(key)
    if ops is not None:
        return ops
    nonzero = 16 - vector.count(0)
    ops = list(nnz_ops[nonzero])
    append = ops.append
    extend = ops.extend
    found = 0
    for position in range(16):
        remaining = nonzero - found
        if remaining == 0:
            break
        value = vector[position]
        if 16 - position == remaining:
            significant = True  # implied: all remaining positions are set
        else:
            significant = value != 0
            append(((sig_base + position) << 1) | (1 if significant else 0))
        if significant:
            magnitude = abs(value) - 1
            table = level_tables[LEVEL_BUCKETS[position]]
            if magnitude < len(table):
                extend(table[magnitude])
            else:
                # Rare large level: plan on the fly (validates range).
                if magnitude > level_group.max_value:
                    raise BitstreamError(
                        f"value {magnitude} exceeds group max "
                        f"{level_group.max_value}")
                extend(uint_bin_ops(
                    magnitude,
                    level_group.unary_ladder(LEVEL_BUCKETS[position]),
                    level_group.tu_cap))
            append(-2 if value < 0 else -1)
            found += 1
    if len(plan_cache) < _PLAN_CACHE_LIMIT:
        plan_cache[key] = ops
    return ops


# ----------------------------------------------------------------------
# Macroblocks
# ----------------------------------------------------------------------

def encode_macroblock(enc: EntropyEncoder, model: ContextModel,
                      state: FrameMbState, decision: MacroblockDecision,
                      frame_type: FrameType, mb_row: int, mb_col: int,
                      min_mb_row: int) -> None:
    """Serialize one macroblock decision."""
    inter_frame = frame_type != FrameType.I
    if inter_frame:
        skip_variant = state.skip_context(mb_row, mb_col, min_mb_row)
        enc.encode_flag(decision.mode == MacroblockMode.SKIP,
                        model["skip_flag"], variant=skip_variant)
        if decision.mode == MacroblockMode.SKIP:
            return
        intra_variant = state.intra_context(mb_row, mb_col, min_mb_row)
        enc.encode_flag(decision.mode == MacroblockMode.INTRA,
                        model["is_intra"], variant=intra_variant)
    elif decision.mode != MacroblockMode.INTRA:
        raise EncoderError("I-frame macroblocks must be intra")

    if decision.mode == MacroblockMode.INTRA:
        enc.encode_uint(int(decision.intra_mode), model["intra_mode"])
    else:
        assert decision.partition_type is not None
        part_variant = state.partition_context(mb_row, mb_col, min_mb_row)
        enc.encode_uint(int(decision.partition_type),
                        model["partition_type"], variant=part_variant)
        if decision.partition_type == PartitionType.P8x8:
            assert decision.sub_types is not None
            for sub in decision.sub_types:
                enc.encode_uint(int(sub), model["sub_type"])
        pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)
        mvd_variant = state.mvd_context(mb_row, mb_col, min_mb_row)
        previous_direction = PredictionDirection.FORWARD
        for partition in decision.partitions:
            if frame_type == FrameType.B:
                variant = 0 if previous_direction == \
                    PredictionDirection.FORWARD else 1
                enc.encode_uint(int(partition.direction),
                                model["direction"], variant=variant)
                previous_direction = partition.direction
            mvd = partition.mv - pred_mv
            enc.encode_sint(mvd.dx, model["mvd_x"], variant=mvd_variant)
            enc.encode_sint(mvd.dy, model["mvd_y"], variant=mvd_variant)
            if partition.direction == PredictionDirection.BIDIRECTIONAL:
                assert partition.mv_backward is not None
                mvd_backward = partition.mv_backward - pred_mv
                enc.encode_sint(mvd_backward.dx, model["mvd_x"],
                                variant=mvd_variant)
                enc.encode_sint(mvd_backward.dy, model["mvd_y"],
                                variant=mvd_variant)

    dqp = decision.qp - state.prev_qp
    enc.encode_sint(dqp, model["dqp"], variant=state.dqp_context())

    for quadrant in range(4):
        enc.encode_flag(bool(decision.cbp[quadrant]), model["cbp"],
                        variant=quadrant)
    nnz_variant = state.nnz_context(mb_row, mb_col, min_mb_row)
    if decision.coefficients is not None:
        # Zigzag-scan all 16 blocks to plain Python ints in one gather.
        vectors = np.asarray(decision.coefficients).reshape(16, 16)[
            :, ZIGZAG_FLAT_INDEX].tolist()
        level_group = model["level"]
        nnz_group = model["nnz"]
        nnz_ops = nnz_group.uint_op_table(nnz_variant)
        sig_base = model["sig"].first_bin_context(0)
        level_tables = (level_group.uint_op_table(0),
                        level_group.uint_op_table(1),
                        level_group.uint_op_table(2))
        # Whole-block plan caches live on the model (one per nnz
        # variant — the plan's nnz prefix depends on it; everything
        # else in the plan is variant-independent).
        caches = getattr(model, "_block_plan_caches", None)
        if caches is None:
            caches = tuple({} for _ in range(nnz_group.variants))
            model._block_plan_caches = caches
        plan_cache = caches[nnz_variant]
        # All coded blocks of the MB go out in one encode_bins call:
        # the op streams concatenate exactly as the per-block calls
        # would have emitted them.
        combined: List[int] = []
        extend = combined.extend
        for quadrant in range(4):
            if not decision.cbp[quadrant]:
                continue
            for index in QUADRANT_BLOCKS[quadrant]:
                extend(_block_ops(plan_cache, nnz_ops, sig_base,
                                  level_tables, level_group,
                                  vectors[index]))
        if combined:
            enc.encode_bins(combined)


def decode_macroblock(dec: EntropyDecoder, model: ContextModel,
                      state: FrameMbState, frame_type: FrameType,
                      mb_row: int, mb_col: int,
                      min_mb_row: int) -> MacroblockDecision:
    """Parse one macroblock; mirrors :func:`encode_macroblock` exactly.

    Never fails on corrupted input: every decoded value is clamped to
    its legal range and every loop is bounded. The residual comes back
    sparse in the decision's ``levels``, from one
    :meth:`~repro.codec.entropy.EntropyDecoder.decode_residual` call;
    :func:`attach_coefficients` builds ``coefficients`` from a batch.
    """
    (skip_group, intra_group, intra_mode_group, partition_group,
     sub_group, direction_group, mvd_x_group, mvd_y_group, dqp_group,
     cbp_group, nnz_group, sig_group, level_group) = _syntax_groups(model)
    decode_flag = dec.decode_flag
    if frame_type != _I_FRAME:
        if decode_flag(skip_group,
                       state.skip_context(mb_row, mb_col, min_mb_row)):
            pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)
            return MacroblockDecision(
                mode=MacroblockMode.SKIP,
                qp=state.prev_qp,
                partition_type=PartitionType.P16x16,
                partitions=[InterPartition(rect=(0, 0, 16, 16), mv=pred_mv)],
            )
        is_intra = decode_flag(
            intra_group, state.intra_context(mb_row, mb_col, min_mb_row))
    else:
        is_intra = True

    intra_mode: Optional[IntraMode] = None
    partition_type: Optional[PartitionType] = None
    sub_types: Optional[List[SubPartitionType]] = None
    partitions: List[InterPartition] = []
    if is_intra:
        intra_mode = _INTRA_MODES[dec.decode_uint(intra_mode_group)]
    else:
        decode_sint = dec.decode_sint
        partition_type = _PARTITION_TYPES[dec.decode_uint(
            partition_group,
            state.partition_context(mb_row, mb_col, min_mb_row))]
        if partition_type == _P8x8:
            sub_types = [_SUB_TYPES[dec.decode_uint(sub_group)]
                         for _ in range(4)]
        pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)
        mvd_variant = state.mvd_context(mb_row, mb_col, min_mb_row)
        previous_direction = _FORWARD
        for rect in partition_rectangles(partition_type, sub_types):
            direction = _FORWARD
            if frame_type == _B_FRAME:
                variant = 0 if previous_direction == _FORWARD else 1
                direction = _DIRECTIONS[dec.decode_uint(direction_group,
                                                        variant)]
                previous_direction = direction
            mvd_x = decode_sint(mvd_x_group, mvd_variant)
            mvd_y = decode_sint(mvd_y_group, mvd_variant)
            mv_backward = None
            if direction == _BIDIRECTIONAL:
                back_x = decode_sint(mvd_x_group, mvd_variant)
                back_y = decode_sint(mvd_y_group, mvd_variant)
                mv_backward = pred_mv + MotionVector(back_y, back_x)
            partitions.append(InterPartition(
                rect=rect,
                mv=pred_mv + MotionVector(mvd_y, mvd_x),
                direction=direction,
                mv_backward=mv_backward,
            ))

    dqp = dec.decode_sint(dqp_group, state.dqp_context())
    qp = min(max(state.prev_qp + dqp, MIN_QP), MAX_QP)

    cbp = (decode_flag(cbp_group, 0), decode_flag(cbp_group, 1),
           decode_flag(cbp_group, 2), decode_flag(cbp_group, 3))
    levels = dec.decode_residual(
        nnz_group, sig_group, level_group,
        state.nnz_context(mb_row, mb_col, min_mb_row), cbp)

    return MacroblockDecision(
        mode=MacroblockMode.INTRA if is_intra else MacroblockMode.INTER,
        qp=qp,
        intra_mode=intra_mode,
        partition_type=partition_type,
        sub_types=sub_types,
        partitions=partitions,
        cbp=cbp,
        levels=levels,
    )


def attach_coefficients(decisions: Sequence[MacroblockDecision]
                        ) -> np.ndarray:
    """Build the parsed coefficients of ``decisions`` in one batch.

    Scatters every decision's sparse ``levels`` into one zeroed
    ``(N, 16, 4, 4)`` int32 array, row ``i`` for ``decisions[i]``, and
    points each decision's ``coefficients`` at its row (a view). One
    allocation and one scatter per frame replace an array conversion
    per macroblock. Every decision must carry ``levels``.
    """
    batch = np.zeros((len(decisions), 16, 4, 4), dtype=np.int32)
    positions: List[int] = []
    values: List[int] = []
    counts: List[int] = []
    for row, decision in enumerate(decisions):
        where, levels = decision.levels
        positions.extend(where)
        values.extend(levels)
        counts.append(len(levels))
        decision.coefficients = batch[row]
    if values:
        offsets = np.repeat(np.arange(0, 256 * len(decisions), 256), counts)
        batch.reshape(-1)[offsets + np.array(positions)] = values
    return batch


def finalize_macroblock(state: FrameMbState, decision: MacroblockDecision,
                        mb_row: int, mb_col: int) -> None:
    """Update neighbor state after one MB; shared by encoder and decoder."""
    if decision.mode == MacroblockMode.INTRA:
        representative_mv = MotionVector(0, 0)
    else:
        representative_mv = decision.partitions[0].mv
    dqp = 0 if decision.mode == MacroblockMode.SKIP else (
        decision.qp - state.prev_qp)
    state.record(mb_row, mb_col, decision.mode, representative_mv,
                 decision.qp, dqp, decision.nonzero)
