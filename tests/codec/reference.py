"""Scalar reference kernels for the vectorized codec hot paths.

Each function here is a deliberately naive, loop-level implementation of
a kernel that the production codec runs in batched numpy form. They are
*not* used on any encode/decode path — they exist so the property tests
in ``tests/codec/test_vectorized_equivalence.py`` can assert, input by
input, that vectorization changed only the speed of the codec and not a
single output bit.

Three entries are not loop-level: :func:`transform_and_quantize`,
:class:`MacroblockSearch` and :class:`FrameMotionSearch` are the
per-macroblock and per-clip forms of the encoder's batched transform
and motion search. The encoder no longer runs them; they stay here as
the oracles the batched kernels and the reference encoder
(``reference_encoder.py``) are checked with.

Keep these boring. When a production kernel changes behaviour on
purpose, change the matching reference here in the same commit and
refresh the golden digests; if a test disagrees with its reference and
the change was *not* on purpose, the production kernel is wrong.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.codec.intra import MODE_ORDER, predict_intra
from repro.codec.motion import (
    _CHUNK_BUDGET_BYTES,
    _ENCODER_RECT_MASK,
    _TILE_ONES,
    MB_SIZE,
    RECT_COLUMN,
)
from repro.codec.transform import (
    CF,
    SCALE,
    blockify,
    forward_transform,
    inverse_transform,
    quant_step,
    quantize,
)
from repro.codec.types import IntraMode, MotionVector
from repro.errors import EncoderError


def sad_scalar(block_a: np.ndarray, block_b: np.ndarray) -> int:
    """Sum of absolute differences via explicit Python loops."""
    total = 0
    rows, cols = block_a.shape
    for row in range(rows):
        for col in range(cols):
            total += abs(int(block_a[row, col]) - int(block_b[row, col]))
    return total


def best_mv_scalar(current: np.ndarray, ref_padded: np.ndarray, pad: int,
                   top: int, left: int,
                   rect: Tuple[int, int, int, int], search_range: int,
                   mv_cost_lambda: float) -> Tuple[MotionVector, float]:
    """Exhaustive scalar motion search for one partition rectangle.

    Scans displacements in row-major order keeping the first strict
    minimum — the tie-break contract every production search implements.
    """
    oy, ox, height, width = rect
    src = current[top + oy:top + oy + height, left + ox:left + ox + width]
    best_cost = None
    best = (MotionVector(0, 0), 0.0)
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            row = top + oy + dy + pad
            col = left + ox + dx + pad
            candidate = ref_padded[row:row + height, col:col + width]
            sad = sad_scalar(src, candidate)
            cost = sad + mv_cost_lambda * (abs(dy) + abs(dx))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = (MotionVector(dy, dx), float(sad))
    return best


def choose_intra_mode_scalar(source_mb: np.ndarray,
                             reconstructed: np.ndarray, mb_row: int,
                             mb_col: int, min_mb_row: int = 0
                             ) -> Tuple[IntraMode, np.ndarray, float]:
    """Strict-less-than scan over intra modes, one SAD at a time."""
    best_mode = None
    best_prediction = None
    best_sad = None
    for mode in MODE_ORDER:
        prediction = predict_intra(reconstructed, mb_row, mb_col, mode,
                                   min_mb_row)
        sad = float(sad_scalar(source_mb, prediction))
        if best_sad is None or sad < best_sad:
            best_mode, best_prediction, best_sad = mode, prediction, sad
    assert best_mode is not None and best_prediction is not None
    return best_mode, best_prediction, float(best_sad)


def forward_transform_scalar(block: np.ndarray) -> np.ndarray:
    """Integer transform of one 4x4 block: CF @ X @ CF^T, loop form."""
    x = block.astype(np.int64)
    out = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for l in range(4):  # noqa: E741 - matches the einsum subscript
            acc = 0
            for j in range(4):
                for k in range(4):
                    acc += int(CF[i, j]) * int(x[j, k]) * int(CF[l, k])
            out[i, l] = acc
    return out


def quantize_scalar(coefficients: np.ndarray, qp: int) -> np.ndarray:
    """Per-coefficient rounding against the scaled quantizer step."""
    step = quant_step(qp)
    out = np.zeros((4, 4), dtype=np.int32)
    for i in range(4):
        for j in range(4):
            out[i, j] = np.int32(np.rint(
                np.float64(coefficients[i, j]) / (step * SCALE[i, j])))
    return out


def reconstruct_residual_block_scalar(levels: np.ndarray,
                                      qp: int) -> np.ndarray:
    """Per-element dequantize, then a single-block inverse transform.

    Dequantization is scalarized (each output depends on exactly one
    level, so loop form is exact). The float inverse stays on the
    production ``inverse_transform`` einsum on purpose: a loop-form
    matrix product would associate the reduction differently and can
    drift by an ulp — the very hazard the vectorized code avoids by
    never re-deriving that kernel.
    """
    step = quant_step(qp)
    dequantized = np.zeros((4, 4), dtype=np.float64)
    for i in range(4):
        for j in range(4):
            dequantized[i, j] = (np.float64(levels[i, j]) * step
                                 * SCALE[i, j])
    return inverse_transform(dequantized[np.newaxis])[0]


def transform_and_quantize(residual_mb: np.ndarray, qp: int) -> np.ndarray:
    """16x16 residual -> (16, 4, 4) quantized levels, one macroblock.

    The per-macroblock form of ``transform_and_quantize_many``.
    """
    return quantize(forward_transform(blockify(residual_mb)), qp)


class MacroblockSearch:
    """SAD oracle for one macroblock against one padded reference.

    Args:
        current_mb: the 16x16 source block being encoded.
        ref_padded: reference frame padded by at least ``search_range``.
        pad: the padding amount used to build ``ref_padded``.
        top, left: pixel coordinates of the MB in the unpadded frame.
        search_range: displacement radius R; candidates span [-R, R]^2.
    """

    def __init__(self, current_mb: np.ndarray, ref_padded: np.ndarray,
                 pad: int, top: int, left: int, search_range: int) -> None:
        if pad < search_range:
            raise EncoderError(
                f"padding {pad} smaller than search range {search_range}"
            )
        self.search_range = search_range
        window_size = 2 * search_range + MB_SIZE
        row0 = top + pad - search_range
        col0 = left + pad - search_range
        window = ref_padded[row0:row0 + window_size,
                            col0:col0 + window_size].astype(np.int32)
        candidates = np.lib.stride_tricks.sliding_window_view(
            window, (MB_SIZE, MB_SIZE))
        diff = np.abs(candidates - current_mb.astype(np.int32))
        # Integral image over the in-block axes: any rectangle SAD for all
        # displacements via 4 gathers.
        integral = np.zeros(
            (diff.shape[0], diff.shape[1], MB_SIZE + 1, MB_SIZE + 1),
            dtype=np.int64,
        )
        integral[:, :, 1:, 1:] = diff.cumsum(axis=2).cumsum(axis=3)
        self._integral = integral

    def sad_grid(self, rect: Tuple[int, int, int, int]) -> np.ndarray:
        """SAD of partition ``rect`` for every displacement, shape (D, D)."""
        oy, ox, height, width = rect
        integral = self._integral
        return (
            integral[:, :, oy + height, ox + width]
            - integral[:, :, oy, ox + width]
            - integral[:, :, oy + height, ox]
            + integral[:, :, oy, ox]
        )

    def best_mv(self, rect: Tuple[int, int, int, int],
                mv_cost_lambda: float) -> Tuple[MotionVector, float]:
        """Lowest-cost displacement for a partition.

        Cost = SAD + lambda * (|dy| + |dx|), the bit-cost bias real
        encoders apply. Returns (motion vector, raw SAD at that vector).
        """
        grid = self.sad_grid(rect)
        radius = self.search_range
        offsets = np.abs(np.arange(-radius, radius + 1))
        penalty = mv_cost_lambda * (offsets[:, None] + offsets[None, :])
        cost = grid + penalty
        flat_index = int(np.argmin(cost))
        dy, dx = np.unravel_index(flat_index, cost.shape)
        mv = MotionVector(int(dy) - radius, int(dx) - radius)
        return mv, float(grid[dy, dx])


class FrameMotionSearch:
    """Full-search SAD oracle for every macroblock of one frame.

    The one-clip form of the encoder's ``BatchFrameMotionSearch``,
    kept as its oracle: the batch must answer exactly what N of these
    do.

    Computes, in one streaming pass over the displacement window, the
    lowest-cost motion vector (cost = SAD + lambda * |mv|_1) and its raw
    SAD for all macroblocks and all ``ENCODER_RECTS`` partition
    rectangles at once. Answers are bitwise identical to running
    :meth:`MacroblockSearch.best_mv` per macroblock and rectangle —
    including argmin tie-breaking, which both resolve to the first
    candidate in row-major displacement order.

    Args:
        current: the full frame being encoded (uint8, MB-aligned).
        ref_padded: reference frame padded by at least ``search_range``.
        pad: the padding amount used to build ``ref_padded``.
        search_range: displacement radius R; candidates span [-R, R]^2.
        mv_cost_lambda: SAD penalty per pixel of motion-vector deviation.
    """

    def __init__(self, current: np.ndarray, ref_padded: np.ndarray,
                 pad: int, search_range: int,
                 mv_cost_lambda: float) -> None:
        if pad < search_range:
            raise EncoderError(
                f"padding {pad} smaller than search range {search_range}"
            )
        height, width = current.shape
        if height % MB_SIZE or width % MB_SIZE:
            raise EncoderError(
                f"frame {height}x{width} is not macroblock-aligned"
            )
        self.search_range = search_range
        self._mb_cols = width // MB_SIZE
        diameter = 2 * search_range + 1
        self._diameter = diameter
        num_mbs = (height // MB_SIZE) * self._mb_cols
        # float64 mask routes the per-displacement rect reduction through
        # BLAS; tile SADs are <= 16*4080 so every sum is an exactly
        # representable integer and results match the int64 matmul bit
        # for bit.
        mask = _ENCODER_RECT_MASK.astype(np.float64)
        source = current.astype(np.int16)
        tile_rows = height // 4
        tile_cols = width // 4
        mb_rows_count = tile_rows // 4

        num_rects = _ENCODER_RECT_MASK.shape[1]
        offsets = np.abs(np.arange(-search_range, search_range + 1))
        penalty_flat = (mv_cost_lambda * (
            offsets[:, None] + offsets[None, :]).reshape(-1)
        ).astype(np.float64)
        band_full = ref_padded[
            pad - search_range:pad + search_range + height,
            pad - search_range:pad + search_range + width]

        # dy rows are processed in chunks sized to keep the per-chunk
        # diff buffers (int16 + float32 passes, ~6 bytes per candidate
        # pixel) inside a few MB of cache — full batching thrashes at
        # larger frames, a per-row loop pays numpy call overhead 2R+1
        # times.
        row_bytes = 6 * diameter * height * width
        chunk = max(1, min(diameter, _CHUNK_BUDGET_BYTES // row_bytes))

        best_cost = np.full((num_mbs, num_rects), np.inf)
        best_sad = np.zeros((num_mbs, num_rects), dtype=np.float64)
        best_flat = np.zeros((num_mbs, num_rects), dtype=np.int64)
        for start in range(0, diameter, chunk):
            rows = min(chunk, diameter - start)
            dd = rows * diameter
            # All (dy, dx) displacements of these dy rows at once:
            # windows is a strided (rows, D, height, width) view.
            sub = band_full[start:start + rows - 1 + height, :]
            windows = np.lib.stride_tricks.sliding_window_view(
                sub, (height, width))
            diff = np.abs(source[None, None] - windows)
            # 4-wide column sums via a BLAS matvec, then the 4-row sum:
            # per-pixel diffs are <= 255 and tile sums <= 4080, so
            # float32 holds every intermediate exactly and this is ~3x
            # faster than a strided integer reduction over both axes.
            col_sums = (
                diff.reshape(-1, 4).astype(np.float32) @ _TILE_ONES
            ).reshape(dd, tile_rows, 4, tile_cols)
            tiles = col_sums.sum(axis=2, dtype=np.float32)
            mb_tiles = tiles.reshape(
                dd, mb_rows_count, 4, self._mb_cols, 4
            ).transpose(0, 1, 3, 2, 4).reshape(dd, num_mbs, MB_SIZE)
            sads = mb_tiles.astype(np.float64) @ mask
            cost = sads + penalty_flat[start * diameter:
                                       start * diameter + dd, None, None]
            # First-minimum within the chunk (argmin over the flat
            # displacement axis), then strict < across chunks: together
            # that reproduces the scalar path's row-major flat argmin
            # tie-breaking exactly.
            pick = np.argmin(cost, axis=0)
            picked = np.expand_dims(pick, 0)
            chunk_cost = np.take_along_axis(cost, picked, axis=0)[0]
            chunk_sad = np.take_along_axis(sads, picked, axis=0)[0]
            better = chunk_cost < best_cost
            best_cost[better] = chunk_cost[better]
            best_sad[better] = chunk_sad[better]
            best_flat[better] = (start * diameter + pick)[better]
        self._best_sad = best_sad.astype(np.int64)
        self._best_flat = best_flat.astype(np.int32)

    def best(self, mb_row: int, mb_col: int,
             rect: Tuple[int, int, int, int]
             ) -> Tuple[MotionVector, float]:
        """Lowest-cost (motion vector, raw SAD) for one MB's rect."""
        mb = mb_row * self._mb_cols + mb_col
        column = RECT_COLUMN[rect]
        flat = int(self._best_flat[mb, column])
        radius = self.search_range
        mv = MotionVector(flat // self._diameter - radius,
                          flat % self._diameter - radius)
        return mv, float(self._best_sad[mb, column])

    def mb_table(self, mb_row: int, mb_col: int
                 ) -> List[Tuple[MotionVector, float]]:
        """All of one MB's per-rect winners as plain Python values.

        Returns a list indexed by :data:`ENCODER_RECTS` position of
        (motion vector, raw SAD) pairs — one bulk fetch instead of 41
        array-scalar reads.
        """
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


def deblock_edge_scalar(p1: int, p0: int, q0: int, q1: int, alpha: int,
                        beta: int, clip_limit: int) -> Tuple[int, int]:
    """H.264 normal filter for one pixel quadruple across an edge."""
    if not (abs(p0 - q0) < alpha and abs(p1 - p0) < beta
            and abs(q1 - q0) < beta):
        return p0, q0
    delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3
    delta = min(max(delta, -clip_limit), clip_limit)
    new_p0 = min(max(p0 + delta, 0), 255)
    new_q0 = min(max(q0 - delta, 0), 255)
    return new_p0, new_q0


def filter_vertical_edges_scalar(frame: np.ndarray, alpha: int, beta: int,
                                 clip_limit: int) -> None:
    """Pixel-at-a-time sweep over all vertical 4x4-grid edges, in place."""
    height, width = frame.shape
    for col in range(4, width, 4):
        for row in range(height):
            p1 = int(frame[row, col - 2])
            p0 = int(frame[row, col - 1])
            q0 = int(frame[row, col])
            q1 = int(frame[row, col + 1]) if col + 1 < width else q0
            new_p0, new_q0 = deblock_edge_scalar(p1, p0, q0, q1, alpha,
                                                 beta, clip_limit)
            frame[row, col - 1] = new_p0
            frame[row, col] = new_q0


def encode_bypass_bits_scalar(encoder, value: int, count: int) -> None:
    """MSB-first bit loop through ``encode_bypass`` (the bulk paths'
    contract)."""
    for shift in range(count - 1, -1, -1):
        encoder.encode_bypass((value >> shift) & 1)


def decode_bypass_bits_scalar(decoder, count: int) -> int:
    """Bit-at-a-time mirror of :func:`encode_bypass_bits_scalar`."""
    value = 0
    for _ in range(count):
        value = (value << 1) | decoder.decode_bypass()
    return value


def write_bits_scalar(writer, value: int, count: int) -> None:
    """MSB-first loop through ``BitWriter.write_bit``."""
    for shift in range(count - 1, -1, -1):
        writer.write_bit((value >> shift) & 1)


def read_bits_scalar(reader, count: int) -> int:
    """Bit-at-a-time mirror of :func:`write_bits_scalar`."""
    value = 0
    for _ in range(count):
        value = (value << 1) | reader.read_bit()
    return value


def coded_block_pattern_scalar(coefficients: np.ndarray
                               ) -> Tuple[bool, bool, bool, bool]:
    """Quadrant coded flags via explicit block loops."""
    flags: List[bool] = []
    for qy, qx in ((0, 0), (0, 8), (8, 0), (8, 8)):
        coded = False
        for by in range(2):
            for bx in range(2):
                index = (qy // 4 + by) * 4 + (qx // 4 + bx)
                if np.any(coefficients[index]):
                    coded = True
        flags.append(coded)
    return tuple(flags)  # type: ignore[return-value]


__all__ = [
    "sad_scalar",
    "best_mv_scalar",
    "choose_intra_mode_scalar",
    "forward_transform_scalar",
    "quantize_scalar",
    "reconstruct_residual_block_scalar",
    "transform_and_quantize",
    "FrameMotionSearch",
    "deblock_edge_scalar",
    "filter_vertical_edges_scalar",
    "encode_bypass_bits_scalar",
    "decode_bypass_bits_scalar",
    "write_bits_scalar",
    "read_bits_scalar",
    "coded_block_pattern_scalar",
]
