"""Context-adaptive binary arithmetic coding (CABAC-style).

A carry-aware binary range coder with per-context adaptive probabilities,
structurally equivalent to H.264's CABAC: syntax bins are coded under
adaptive contexts, equiprobable bins take a bypass path, and the coder
state is reset at every slice.

The probability estimator is the classic 11-bit shift-register update
(as used by LZMA's range coder) rather than H.264's 64-state table; both
adapt geometrically and both exhibit the error behaviour the paper
studies: a single flipped payload bit desynchronizes the decoder and
corrupts the adaptive contexts for the remainder of the slice.

Error hardening: the decoder reads zero bytes past the end of the
payload and clamps all decoded integers, so corrupted streams decode to
garbage — never to a crash or an unbounded loop.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import BitstreamError
from .entropy import (
    LEVEL_BUCKETS,
    MAX_EG_PREFIX,
    QUADRANT_BLOCKS,
    ZIGZAG_RASTER,
    ContextGroup,
    EntropyDecoder,
    EntropyEncoder,
)

_PROB_BITS = 11
_PROB_ONE = 1 << _PROB_BITS          # 2048
_PROB_INIT = _PROB_ONE // 2          # p(0) = 0.5 initially
_MOVE_BITS = 5                       # adaptation rate
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


class CabacEncoder(EntropyEncoder):
    """Binary range encoder with adaptive contexts."""

    def __init__(self, num_contexts: int) -> None:
        self._probs: List[int] = [_PROB_INIT] * num_contexts
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1
        self._out = bytearray()
        self._finished = False

    # -- range coder core ----------------------------------------------

    def _shift_low(self) -> None:
        if self._low < 0xFF000000 or self._low > _MASK32:
            carry = self._low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            for _ in range(self._cache_size - 1):
                self._out.append((0xFF + carry) & 0xFF)
            self._cache = (self._low >> 24) & 0xFF
            self._cache_size = 0
        self._cache_size += 1
        self._low = (self._low << 8) & _MASK32

    def _encode_context_bin(self, bit: int, ctx: int) -> None:
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if bit == 0:
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        else:
            self._low += bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def encode_bypass(self, bit: int) -> None:
        """Encode one equiprobable bin: halve the range, no adaptation."""
        self._range >>= 1
        if bit:
            self._low += self._range
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def encode_bypass_bits(self, value: int, count: int) -> None:
        """Encode ``count`` bypass bins of ``value``, MSB first.

        Same per-bit range-coder steps as :meth:`encode_bypass`, run in
        one call to amortize Python dispatch over whole bin strings.
        """
        for shift in range(count - 1, -1, -1):
            self._range >>= 1
            if (value >> shift) & 1:
                self._low += self._range
            while self._range < _TOP:
                self._shift_low()
                self._range = (self._range << 8) & _MASK32

    # -- EntropyEncoder interface ---------------------------------------

    def encode_flag(self, value: bool, group: ContextGroup,
                    variant: int = 0) -> None:
        """Encode one flag as a single context bin.

        Inlined rather than routed through ``_encode_context_bin``:
        flags are the most frequent symbol (skip / intra / cbp / sig)
        and the extra dispatch is measurable at batch-encode scale.
        """
        ctx = group.first_bin_context(variant)
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if value:
            self._low += bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        else:
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def encode_uint(self, value: int, group: ContextGroup,
                    variant: int = 0) -> None:
        """Specialized TU + EG0 encoder: same bins as the base-class
        implementation, emitted by one loop over local coder state.

        Entropy coding is the one per-clip stage the batch encoder
        cannot turn into numpy calls, and the generic path pays two-plus
        method calls per bin. Keeping ``low``/``range``/the byte cache
        in locals for the whole symbol cuts that to plain integer ops;
        the emitted stream is bit-for-bit identical (asserted by the
        CABAC equivalence tests against the base-class path).
        """
        if value < 0:
            raise BitstreamError(f"encode_uint got negative value {value}")
        if value > group.max_value:
            raise BitstreamError(
                f"value {value} exceeds group max {group.max_value}"
            )
        ladder = group.unary_ladder(variant)
        tu_cap = group.tu_cap
        probs = self._probs
        low = self._low
        rng = self._range
        cache = self._cache
        cache_size = self._cache_size
        out = self._out

        prefix = value if value < tu_cap else tu_cap
        for position in range(prefix):
            ctx = ladder[position]
            prob = probs[ctx]
            bound = (rng >> _PROB_BITS) * prob
            low += bound
            rng -= bound
            probs[ctx] = prob - (prob >> _MOVE_BITS)
            while rng < _TOP:
                if low < 0xFF000000 or low > _MASK32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    for _ in range(cache_size - 1):
                        out.append((0xFF + carry) & 0xFF)
                    cache = (low >> 24) & 0xFF
                    cache_size = 0
                cache_size += 1
                low = (low << 8) & _MASK32
                rng = (rng << 8) & _MASK32
        if value < tu_cap:
            # Terminating zero bin of the truncated-unary prefix.
            ctx = ladder[value]
            prob = probs[ctx]
            bound = (rng >> _PROB_BITS) * prob
            rng = bound
            probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
            while rng < _TOP:
                if low < 0xFF000000 or low > _MASK32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    for _ in range(cache_size - 1):
                        out.append((0xFF + carry) & 0xFF)
                    cache = (low >> 24) & 0xFF
                    cache_size = 0
                cache_size += 1
                low = (low << 8) & _MASK32
                rng = (rng << 8) & _MASK32
        else:
            # EG0 bypass suffix: ``length`` ones, a zero, ``length``
            # suffix bits — the exact bulk bin string of
            # ``_encode_eg0_bypass``.
            shifted = value - tu_cap + 1
            length = shifted.bit_length() - 1
            if length > MAX_EG_PREFIX:
                raise BitstreamError(
                    f"value {value - tu_cap} too large for EG0 suffix")
            pattern = ((((1 << length) - 1) << 1) << length) \
                | (shifted - (1 << length))
            for shift in range(2 * length, -1, -1):
                rng >>= 1
                if (pattern >> shift) & 1:
                    low += rng
                while rng < _TOP:
                    if low < 0xFF000000 or low > _MASK32:
                        carry = low >> 32
                        out.append((cache + carry) & 0xFF)
                        for _ in range(cache_size - 1):
                            out.append((0xFF + carry) & 0xFF)
                        cache = (low >> 24) & 0xFF
                        cache_size = 0
                    cache_size += 1
                    low = (low << 8) & _MASK32
                    rng = (rng << 8) & _MASK32
        self._low = low
        self._range = rng
        self._cache = cache
        self._cache_size = cache_size

    def encode_bins(self, ops) -> None:
        """Batched mirror of the base-class ``encode_bins``.

        One loop over pre-planned bins with the whole coder state in
        locals; the bin arithmetic is exactly ``_encode_context_bin`` /
        ``encode_bypass``, so the stream is bit-for-bit identical to
        dispatching each bin through those methods.
        """
        probs = self._probs
        low = self._low
        rng = self._range
        cache = self._cache
        cache_size = self._cache_size
        out = self._out
        # Module constants as locals: this loop runs once per bin and
        # global loads are measurable at batch-encode scale.
        prob_bits = _PROB_BITS
        move_bits = _MOVE_BITS
        prob_one = _PROB_ONE
        top = _TOP
        mask32 = _MASK32
        for op in ops:
            if op >= 0:
                ctx = op >> 1
                prob = probs[ctx]
                bound = (rng >> prob_bits) * prob
                if op & 1:
                    low += bound
                    rng -= bound
                    probs[ctx] = prob - (prob >> move_bits)
                else:
                    rng = bound
                    probs[ctx] = prob + ((prob_one - prob) >> move_bits)
            else:
                rng >>= 1
                if op != -1:
                    low += rng
            while rng < top:
                if low < 0xFF000000 or low > mask32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    for _ in range(cache_size - 1):
                        out.append((0xFF + carry) & 0xFF)
                    cache = (low >> 24) & 0xFF
                    cache_size = 0
                cache_size += 1
                low = (low << 8) & mask32
                rng = (rng << 8) & mask32
        self._low = low
        self._range = rng
        self._cache = cache
        self._cache_size = cache_size

    @property
    def bits_emitted(self) -> int:
        """Bits flushed to the output so far.

        The range coder buffers up to ``cache_size + 4`` bytes
        internally, so reported positions lag the bins by a few bytes:
        that blurs MB bit-range attribution, never stream correctness.
        """
        return 8 * len(self._out)

    def finish(self) -> bytes:
        """Flush the low register and return the complete payload."""
        if not self._finished:
            for _ in range(5):
                self._shift_low()
            self._finished = True
        return bytes(self._out)


class CabacDecoder(EntropyDecoder):
    """Binary range decoder mirroring :class:`CabacEncoder`."""

    def __init__(self, data: bytes, num_contexts: int) -> None:
        self._data = data
        self._pos = 0
        self._probs: List[int] = [_PROB_INIT] * num_contexts
        self._range = _MASK32
        self._code = 0
        # The first byte is the encoder's spurious initial cache byte (0
        # for well-formed streams); masking keeps corrupted streams sane.
        for _ in range(5):
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32

    @property
    def bits_consumed(self) -> int:
        """Payload bits the code register has loaded so far.

        The register reads ahead (5 bytes at init, then byte by byte),
        so this over-reports actual consumption by up to a few bytes: a
        conservative bound for concealment salvage.
        """
        return 8 * self._pos

    def _next_byte(self) -> int:
        if self._pos >= len(self._data):
            self._pos += 1
            return 0
        byte = self._data[self._pos]
        self._pos += 1
        return byte

    def _decode_context_bin(self, ctx: int) -> int:
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if self._code < bound:
            bit = 0
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        else:
            bit = 1
            self._code -= bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32
        return bit

    def decode_bypass(self) -> int:
        """Decode one equiprobable bin; mirror of the encoder's."""
        self._range >>= 1
        if self._code >= self._range:
            self._code -= self._range
            bit = 1
        else:
            bit = 0
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32
        return bit

    def decode_bypass_bits(self, count: int) -> int:
        """Decode ``count`` bypass bins as one MSB-first integer.

        Bulk mirror of :meth:`decode_bypass`: bit for bit the same reads.
        """
        value = 0
        for _ in range(count):
            self._range >>= 1
            if self._code >= self._range:
                self._code -= self._range
                value = (value << 1) | 1
            else:
                value = value << 1
            while self._range < _TOP:
                self._code = (((self._code << 8) | self._next_byte())
                              & _MASK32)
                self._range = (self._range << 8) & _MASK32
        return value

    def decode_flag(self, group: ContextGroup, variant: int = 0) -> bool:
        """Decode one flag as a single context bin (inlined mirror of
        :meth:`CabacEncoder.encode_flag`)."""
        ctx = group.first_bin_context(variant)
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if self._code < bound:
            bit = False
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        else:
            bit = True
            self._code -= bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32
        return bit

    def decode_uint(self, group: ContextGroup, variant: int = 0) -> int:
        """Specialized mirror of :meth:`CabacEncoder.encode_uint`.

        Reads exactly the bins the generic base-class path reads (same
        contexts, same renormalization byte fetches), with the register
        state held in locals for the whole symbol. This is the decoder
        half of the entropy hot path; clean-stream decodes and corrupted
        -stream clamping behave identically to the base implementation.
        """
        ladder = group.unary_ladder(variant)
        tu_cap = group.tu_cap
        max_value = group.max_value
        probs = self._probs
        rng = self._range
        code = self._code
        data = self._data
        pos = self._pos
        data_len = len(data)

        value = 0
        terminated = False
        while value < tu_cap:
            ctx = ladder[value]
            prob = probs[ctx]
            bound = (rng >> _PROB_BITS) * prob
            if code < bound:
                rng = bound
                probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
                bit = 0
            else:
                code -= bound
                rng -= bound
                probs[ctx] = prob - (prob >> _MOVE_BITS)
                bit = 1
            while rng < _TOP:
                byte = data[pos] if pos < data_len else 0
                pos += 1
                code = ((code << 8) | byte) & _MASK32
                rng = (rng << 8) & _MASK32
            if not bit:
                terminated = True
                break
            value += 1
        if not terminated:
            # EG0 bypass suffix: count the ones prefix (bounded), then
            # read that many suffix bits — the same bits the generic
            # ``_decode_eg0_bypass`` consumes.
            length = 0
            while True:
                rng >>= 1
                if code >= rng:
                    code -= rng
                    bit = 1
                else:
                    bit = 0
                while rng < _TOP:
                    byte = data[pos] if pos < data_len else 0
                    pos += 1
                    code = ((code << 8) | byte) & _MASK32
                    rng = (rng << 8) & _MASK32
                if not bit or length >= MAX_EG_PREFIX:
                    break
                length += 1
            suffix = 0
            for _ in range(length):
                rng >>= 1
                if code >= rng:
                    code -= rng
                    suffix = (suffix << 1) | 1
                else:
                    suffix <<= 1
                while rng < _TOP:
                    byte = data[pos] if pos < data_len else 0
                    pos += 1
                    code = ((code << 8) | byte) & _MASK32
                    rng = (rng << 8) & _MASK32
            value += (1 << length) - 1 + suffix
        self._range = rng
        self._code = code
        self._pos = pos
        return value if value < max_value else max_value

    def decode_residual(self, nnz_group: ContextGroup,
                        sig_group: ContextGroup, level_group: ContextGroup,
                        nnz_variant: int, cbp: Sequence[bool],
                        ) -> Tuple[List[int], List[int]]:
        """Fused mirror of :meth:`EntropyDecoder.decode_residual`.

        Parses every coded block of the macroblock in one loop with the
        register state (``rng``, ``code``, ``pos``) and the probability
        table in locals: the decoder half of the encoder's
        whole-macroblock ``encode_bins`` plan. It reads exactly the bins
        of the per-symbol default, in the same order and under the same
        contexts, so the returned coefficients, the adaptive state and
        ``bits_consumed`` all match it on any input, damaged streams
        included. A block alternates two steps: one unsigned value (the
        nonzero count first, then each level) through a single TU +
        EG0 decoder, then the significance flags up to the next
        significant position.
        """
        positions: List[int] = []
        levels: List[int] = []
        if not (cbp[0] or cbp[1] or cbp[2] or cbp[3]):
            return positions, levels
        if (sig_group.variants < 16 or level_group.variants < 3
                or nnz_group.max_value > 16):
            # Layouts outside the loop's assumptions (a significance
            # context per scan position, three level buckets, at most
            # 16 coefficients a block) keep the per-symbol path.
            return super().decode_residual(nnz_group, sig_group,
                                           level_group, nnz_variant, cbp)
        nnz_ladder = nnz_group.unary_ladder(nnz_variant)
        nnz_cap = nnz_group.tu_cap
        nnz_max = nnz_group.max_value
        sig_base = sig_group.base
        level_ladders = tuple(level_group.unary_ladder(bucket)
                              for bucket in range(3))
        level_cap = level_group.tu_cap
        level_max = level_group.max_value
        buckets = LEVEL_BUCKETS
        zigzag = ZIGZAG_RASTER
        max_prefix = MAX_EG_PREFIX
        prob_bits = _PROB_BITS
        move_bits = _MOVE_BITS
        prob_one = _PROB_ONE
        top = _TOP
        mask32 = _MASK32
        probs = self._probs
        rng = self._range
        code = self._code
        data = self._data
        pos = self._pos
        data_len = len(data)
        add_position = positions.append
        add_level = levels.append
        # Renormalization shifts ``rng`` without masking: it runs only
        # while rng < 2**24, so rng << 8 stays within 32 bits.
        for quadrant in range(4):
            if not cbp[quadrant]:
                continue
            for block in QUADRANT_BLOCKS[quadrant]:
                base = block << 4
                ladder = nnz_ladder
                cap = nnz_cap
                position = -1  # -1 while the value read is the count
                nonzero = found = 0
                while True:
                    # One unsigned value: truncated-unary context bins.
                    value = 0
                    while value < cap:
                        ctx = ladder[value]
                        prob = probs[ctx]
                        bound = (rng >> prob_bits) * prob
                        if code < bound:
                            rng = bound
                            probs[ctx] = prob + (
                                (prob_one - prob) >> move_bits)
                            while rng < top:
                                code = ((code << 8) | (
                                    data[pos] if pos < data_len else 0)
                                        ) & mask32
                                rng <<= 8
                                pos += 1
                            break
                        code -= bound
                        rng -= bound
                        probs[ctx] = prob - (prob >> move_bits)
                        while rng < top:
                            code = ((code << 8) | (
                                data[pos] if pos < data_len else 0)) & mask32
                            rng <<= 8
                            pos += 1
                        value += 1
                    else:
                        # Exp-Golomb escape in bypass bins: a unary
                        # length (bounded), then that many suffix bits.
                        length = 0
                        while True:
                            rng >>= 1
                            bit = code >= rng
                            if bit:
                                code -= rng
                            while rng < top:
                                code = ((code << 8) | (
                                    data[pos] if pos < data_len else 0)
                                        ) & mask32
                                rng <<= 8
                                pos += 1
                            if not bit or length >= max_prefix:
                                break
                            length += 1
                        suffix = 0
                        for _ in range(length):
                            rng >>= 1
                            suffix <<= 1
                            if code >= rng:
                                code -= rng
                                suffix |= 1
                            while rng < top:
                                code = ((code << 8) | (
                                    data[pos] if pos < data_len else 0)
                                        ) & mask32
                                rng <<= 8
                                pos += 1
                        value += (1 << length) - 1 + suffix
                    if position < 0:
                        nonzero = value if value < nnz_max else nnz_max
                        position = 0
                    else:
                        magnitude = (value if value < level_max
                                     else level_max) + 1
                        # Sign: one bypass bin.
                        rng >>= 1
                        if code >= rng:
                            code -= rng
                            magnitude = -magnitude
                        while rng < top:
                            code = ((code << 8) | (
                                data[pos] if pos < data_len else 0)) & mask32
                            rng <<= 8
                            pos += 1
                        add_position(base + zigzag[position])
                        add_level(magnitude)
                        found += 1
                        position += 1
                    if found == nonzero:
                        break
                    # Significance flags up to the next significant
                    # position; none once the rest must all be set.
                    while 16 - position != nonzero - found:
                        ctx = sig_base + position
                        prob = probs[ctx]
                        bound = (rng >> prob_bits) * prob
                        if code < bound:
                            rng = bound
                            probs[ctx] = prob + (
                                (prob_one - prob) >> move_bits)
                            while rng < top:
                                code = ((code << 8) | (
                                    data[pos] if pos < data_len else 0)
                                        ) & mask32
                                rng <<= 8
                                pos += 1
                            position += 1
                            continue
                        code -= bound
                        rng -= bound
                        probs[ctx] = prob - (prob >> move_bits)
                        while rng < top:
                            code = ((code << 8) | (
                                data[pos] if pos < data_len else 0)) & mask32
                            rng <<= 8
                            pos += 1
                        break
                    # A level follows at ``position``.
                    ladder = level_ladders[buckets[position]]
                    cap = level_cap
        self._range = rng
        self._code = code
        self._pos = pos
        return positions, levels
