"""Per-frame macroblock state shared by encoder and decoder.

Context-adaptive coding and predictive metadata coding both condition on
the state of already-coded neighboring macroblocks. Encoder and decoder
must maintain this state identically — and this module being their
*single* implementation is what guarantees that. It is also the paper's
error-propagation vehicle: when a corrupted stream makes the decoder's
state diverge, every later context selection and metadata prediction in
the slice diverges with it (Figure 2).

Slices never predict across their boundary: all availability checks take
the slice's first MB row, and the left neighbor stops at column 0.
"""

from __future__ import annotations

from typing import List, Tuple

from .types import MacroblockMode, MotionVector

_SKIP = int(MacroblockMode.SKIP)
_INTER = int(MacroblockMode.INTER)
_INTRA = int(MacroblockMode.INTRA)
#: Modes whose stored vector takes part in motion-vector prediction.
_MOTION_MODES = (_INTER, _SKIP)


class FrameMbState:
    """Mutable per-macroblock bookkeeping for one frame.

    Plain Python lists, not numpy arrays: every macroblock does a
    handful of scalar neighbor lookups, and list indexing is several
    times cheaper than numpy scalar indexing at that grain.
    """

    #: Sentinel mode for not-yet-coded macroblocks.
    UNSET = -1

    def __init__(self, mb_rows: int, mb_cols: int) -> None:
        self.mb_rows = mb_rows
        self.mb_cols = mb_cols
        self.modes: List[List[int]] = [
            [self.UNSET] * mb_cols for _ in range(mb_rows)]
        self.mvs: List[List[Tuple[int, int]]] = [
            [(0, 0)] * mb_cols for _ in range(mb_rows)]
        self.nnz: List[List[int]] = [
            [0] * mb_cols for _ in range(mb_rows)]
        self.last_dqp_nonzero = False
        self.prev_qp = 0  # seeded with the slice QP at slice start

    # -- recording -------------------------------------------------------

    def record(self, mb_row: int, mb_col: int, mode: MacroblockMode,
               mv: MotionVector, qp: int, dqp: int, nnz: int) -> None:
        """Store the outcome of one coded macroblock."""
        self.modes[mb_row][mb_col] = int(mode)
        self.mvs[mb_row][mb_col] = (mv.dy, mv.dx)
        self.nnz[mb_row][mb_col] = nnz
        self.last_dqp_nonzero = dqp != 0
        self.prev_qp = qp

    def start_slice(self, slice_qp: int) -> None:
        self.prev_qp = slice_qp
        self.last_dqp_nonzero = False

    # -- availability ------------------------------------------------------

    def _available(self, mb_row: int, mb_col: int, min_mb_row: int) -> bool:
        return (
            min_mb_row <= mb_row < self.mb_rows
            and 0 <= mb_col < self.mb_cols
            and self.modes[mb_row][mb_col] != self.UNSET
        )

    # -- metadata prediction ----------------------------------------------

    def predict_mv(self, mb_row: int, mb_col: int,
                   min_mb_row: int) -> MotionVector:
        """Median motion-vector prediction from neighbors A, B, C.

        A = left, B = above, C = above-right (falling back to above-left
        as H.264 does when C is unavailable). As in H.264: when exactly
        one neighbor is inter-coded its vector is used directly;
        otherwise the component-wise median is taken with intra or
        unavailable neighbors contributing (0, 0).
        """
        modes = self.modes
        rows = self.mb_rows
        cols = self.mb_cols
        above = mb_row - 1
        corner = mb_col + 1
        if not (min_mb_row <= above < rows and 0 <= corner < cols
                and modes[above][corner] != self.UNSET):
            corner = mb_col - 1  # D fallback
        inter_vectors: List[Tuple[int, int]] = []
        for row, col in ((mb_row, mb_col - 1), (above, mb_col),
                         (above, corner)):
            if (min_mb_row <= row < rows and 0 <= col < cols
                    and modes[row][col] in _MOTION_MODES):
                inter_vectors.append(self.mvs[row][col])
        if not inter_vectors:
            return MotionVector(0, 0)
        if len(inter_vectors) == 1:
            return MotionVector(*inter_vectors[0])
        if len(inter_vectors) == 2:
            inter_vectors.append((0, 0))
        dys = sorted(vector[0] for vector in inter_vectors)
        dxs = sorted(vector[1] for vector in inter_vectors)
        return MotionVector(dys[1], dxs[1])

    # -- context variant selection ------------------------------------------

    def _neighbor_count(self, mb_row: int, mb_col: int, min_mb_row: int,
                        mode: int) -> int:
        """0..2: how many of neighbors A (left) and B (above) are
        available and coded as ``mode``."""
        count = 0
        if (min_mb_row <= mb_row < self.mb_rows
                and 0 < mb_col <= self.mb_cols
                and self.modes[mb_row][mb_col - 1] == mode):
            count += 1
        if (min_mb_row < mb_row <= self.mb_rows
                and 0 <= mb_col < self.mb_cols
                and self.modes[mb_row - 1][mb_col] == mode):
            count += 1
        return count

    def skip_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: number of A/B neighbors coded as skip."""
        return self._neighbor_count(mb_row, mb_col, min_mb_row, _SKIP)

    def intra_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: number of A/B neighbors coded as intra."""
        return self._neighbor_count(mb_row, mb_col, min_mb_row, _INTRA)

    def partition_context(self, mb_row: int, mb_col: int,
                          min_mb_row: int) -> int:
        """0..2: number of A/B neighbors coded as (non-skip) inter."""
        return self._neighbor_count(mb_row, mb_col, min_mb_row, _INTER)

    def mvd_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: bucket of neighboring motion activity (H.264's ctx rule
        uses neighbor |mvd|; we bucket stored |mv| which adapts the same
        way)."""
        total = 0
        for row, col in ((mb_row, mb_col - 1), (mb_row - 1, mb_col)):
            if self._available(row, col, min_mb_row):
                mv = self.mvs[row][col]
                total += abs(mv[0]) + abs(mv[1])
        if total < 3:
            return 0
        if total < 32:
            return 1
        return 2

    def dqp_context(self) -> int:
        """0/1: whether the previous MB changed QP."""
        return 1 if self.last_dqp_nonzero else 0

    def nnz_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: bucket of neighboring residual density."""
        total = 0
        for row, col in ((mb_row, mb_col - 1), (mb_row - 1, mb_col)):
            if self._available(row, col, min_mb_row):
                total += self.nnz[row][col]
        if total == 0:
            return 0
        if total < 16:
            return 1
        return 2
