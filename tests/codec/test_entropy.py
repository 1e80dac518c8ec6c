"""Tests for the entropy coding backends (CABAC and CAVLC).

The central contract: any sequence of (flag | uint | sint | bypass)
symbols encoded with either backend decodes to the identical sequence —
including the context variants, which must match between the two sides.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import Decoder, Encoder, EncoderConfig
from repro.codec.cabac import CabacDecoder, CabacEncoder
from repro.codec.cavlc import CavlcDecoder, CavlcEncoder
from repro.codec.contexts import DEFAULT_CONTEXT_MODEL, build_context_model
from repro.codec.entropy import ContextGroup, EntropyDecoder
from repro.codec.neighbors import FrameMbState
from repro.codec.syntax import (
    attach_coefficients,
    decode_macroblock,
    encode_macroblock,
    finalize_macroblock,
)
from repro.codec.types import (
    FrameType,
    IntraMode,
    MacroblockDecision,
    MacroblockMode,
)
from repro.errors import BitstreamError
from repro.video import VideoSequence

MODEL = DEFAULT_CONTEXT_MODEL

BACKENDS = [
    (CabacEncoder, CabacDecoder),
    (CavlcEncoder, CavlcDecoder),
]


def _roundtrip(encoder_cls, decoder_cls, operations):
    encoder = encoder_cls(MODEL.total_contexts)
    for op in operations:
        kind, group_name, variant, value = op
        group = MODEL[group_name]
        if kind == "flag":
            encoder.encode_flag(bool(value), group, variant)
        elif kind == "uint":
            encoder.encode_uint(value, group, variant)
        elif kind == "sint":
            encoder.encode_sint(value, group, variant)
    payload = encoder.finish()
    decoder = decoder_cls(payload, MODEL.total_contexts)
    decoded = []
    for op in operations:
        kind, group_name, variant, _value = op
        group = MODEL[group_name]
        if kind == "flag":
            decoded.append(int(decoder.decode_flag(group, variant)))
        elif kind == "uint":
            decoded.append(decoder.decode_uint(group, variant))
        elif kind == "sint":
            decoded.append(decoder.decode_sint(group, variant))
    return payload, decoded


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 120))):
        kind = draw(st.sampled_from(["flag", "uint", "sint"]))
        if kind == "flag":
            group = draw(st.sampled_from(["skip_flag", "is_intra", "cbp"]))
            variant = draw(st.integers(0, MODEL[group].variants - 1))
            value = draw(st.integers(0, 1))
        elif kind == "uint":
            group = draw(st.sampled_from(["nnz", "level", "intra_mode"]))
            variant = draw(st.integers(0, MODEL[group].variants - 1))
            value = draw(st.integers(0, min(MODEL[group].max_value, 500)))
        else:
            group = draw(st.sampled_from(["mvd_x", "mvd_y", "dqp"]))
            variant = draw(st.integers(0, MODEL[group].variants - 1))
            value = draw(st.integers(-MODEL[group].max_value,
                                     MODEL[group].max_value))
        ops.append((kind, group, variant, value))
    return ops


class TestRoundTrip:
    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    @given(ops=operations())
    @settings(max_examples=60, deadline=None)
    def test_symbol_sequences(self, encoder_cls, decoder_cls, ops):
        _payload, decoded = _roundtrip(encoder_cls, decoder_cls, ops)
        expected = [op[3] if op[0] != "flag" else int(bool(op[3]))
                    for op in ops]
        assert decoded == expected

    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    def test_extreme_values(self, encoder_cls, decoder_cls):
        group = MODEL["level"]
        ops = [("uint", "level", 0, group.max_value),
               ("uint", "level", 2, 0),
               ("sint", "mvd_x", 1, -MODEL["mvd_x"].max_value)]
        _payload, decoded = _roundtrip(encoder_cls, decoder_cls, ops)
        assert decoded == [group.max_value, 0, -MODEL["mvd_x"].max_value]


class TestCompression:
    def test_cabac_adapts_to_skewed_flags(self):
        """A heavily skewed flag sequence must compress far below 1
        bit/flag under CABAC but stay ~1 bit/flag under CAVLC."""
        ops = [("flag", "skip_flag", 0, 1)] * 2000
        cabac_payload, _ = _roundtrip(CabacEncoder, CabacDecoder, ops)
        cavlc_payload, _ = _roundtrip(CavlcEncoder, CavlcDecoder, ops)
        assert len(cabac_payload) < len(cavlc_payload) / 4

    def test_cabac_contexts_separate_statistics(self):
        """Mixing two skewed contexts should compress nearly as well as
        each alone — contexts keep their own statistics."""
        mixed = []
        for i in range(1000):
            mixed.append(("flag", "skip_flag", 0, 1))
            mixed.append(("flag", "is_intra", 0, 0))
        payload, _ = _roundtrip(CabacEncoder, CabacDecoder, mixed)
        assert len(payload) < 2000 / 8 / 2  # far below 1 bit per flag


class TestRobustness:
    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    def test_corrupted_payload_decodes_in_range(self, encoder_cls,
                                                decoder_cls):
        ops = [("uint", "nnz", 0, 5)] * 50
        payload, _ = _roundtrip(encoder_cls, decoder_cls, ops)
        corrupted = bytearray(payload)
        corrupted[0] ^= 0xFF
        decoder = decoder_cls(bytes(corrupted), MODEL.total_contexts)
        group = MODEL["nnz"]
        for _ in range(50):
            value = decoder.decode_uint(group, 0)
            assert 0 <= value <= group.max_value

    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    def test_empty_payload_decodes(self, encoder_cls, decoder_cls):
        decoder = decoder_cls(b"", MODEL.total_contexts)
        group = MODEL["level"]
        for _ in range(20):
            value = decoder.decode_uint(group, 0)
            assert 0 <= value <= group.max_value

    def test_encoder_rejects_out_of_range(self):
        encoder = CabacEncoder(MODEL.total_contexts)
        group = MODEL["nnz"]
        with pytest.raises(BitstreamError):
            encoder.encode_uint(group.max_value + 1, group)
        with pytest.raises(BitstreamError):
            encoder.encode_uint(-1, group)


class TestContextModel:
    def test_groups_do_not_overlap(self):
        model = build_context_model()
        spans = sorted((g.base, g.base + g.size)
                       for g in model.groups.values())
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        assert spans[-1][1] == model.total_contexts

    def test_duplicate_group_rejected(self):
        model = build_context_model()
        with pytest.raises(BitstreamError):
            model.add("skip_flag")

    def test_variant_out_of_range(self):
        group = ContextGroup(base=0, variants=2)
        with pytest.raises(BitstreamError):
            group.first_bin_context(2)

    def test_bits_emitted_monotone(self):
        encoder = CabacEncoder(MODEL.total_contexts)
        positions = [encoder.bits_emitted]
        for i in range(200):
            encoder.encode_uint(i % 16, MODEL["nnz"])
            positions.append(encoder.bits_emitted)
        assert positions == sorted(positions)
        assert positions[-1] > 0


# ----------------------------------------------------------------------
# Fused residual parse vs the per-symbol default
# ----------------------------------------------------------------------

class PerSymbolCabacDecoder(CabacDecoder):
    """CABAC decoder whose residual parse is the base-class default,
    one ``decode_uint``/``decode_flag``/``decode_bypass`` per symbol."""

    decode_residual = EntropyDecoder.decode_residual


RESIDUAL_GROUPS = (MODEL["nnz"], MODEL["sig"], MODEL["level"])


def _coder_state(decoder):
    return (decoder.bits_consumed, list(decoder._probs), decoder._range,
            decoder._code)


def _residual_outcome(decoder, nnz_variant, cbp):
    try:
        result = decoder.decode_residual(*RESIDUAL_GROUPS, nnz_variant, cbp)
    except BitstreamError as error:
        result = ("BitstreamError", str(error))
    return result, _coder_state(decoder)


def _run_residuals(data, calls):
    """Both parses over the same bytes, call by call."""
    fused = CabacDecoder(data, MODEL.total_contexts)
    reference = PerSymbolCabacDecoder(data, MODEL.total_contexts)
    for nnz_variant, cbp in calls:
        assert _residual_outcome(fused, nnz_variant, cbp) == \
            _residual_outcome(reference, nnz_variant, cbp)


def _macroblock_levels(rng, dense, large):
    """(16, 4, 4) levels; ``dense`` blocks carry >= 7 nonzeros (an nnz
    escape), ``large`` levels reach the EG0 escape and its long tail."""
    levels = rng.integers(-3, 4, (16, 4, 4))
    levels[rng.random((16, 4, 4)) < 0.7] = 0
    for block in np.flatnonzero(rng.random(16) < dense):
        count = int(rng.integers(7, 17))
        cells = rng.choice(16, count, replace=False)
        values = rng.integers(1, 6, count) * rng.choice((-1, 1), count)
        levels[block].reshape(16)[cells] = values
    mask = (levels != 0) & (rng.random((16, 4, 4)) < large)
    magnitudes = rng.choice((8, 9, 16, 300, 1 << 15, (1 << 15) + 1),
                            mask.sum())
    levels[mask] = np.sign(levels[mask]) * magnitudes
    return levels.astype(np.int32)


def _encode_intra_slice(seed, count, dense, large):
    """An I slice of ``count`` intra macroblocks written by the encoder,
    with every cbp pattern drawn (including coded all-zero quadrants)."""
    rng = np.random.default_rng(seed)
    rows, cols = 1, count
    state = FrameMbState(rows, cols)
    state.start_slice(24)
    encoder = CabacEncoder(MODEL.total_contexts)
    for col in range(cols):
        decision = MacroblockDecision(
            mode=MacroblockMode.INTRA, qp=int(rng.integers(20, 30)),
            intra_mode=IntraMode(int(rng.integers(0, 4))),
            coefficients=_macroblock_levels(rng, dense, large),
            cbp=tuple(bool(flag) for flag in rng.random(4) < 0.75))
        encode_macroblock(encoder, MODEL, state, decision, FrameType.I,
                          0, col, 0)
        finalize_macroblock(state, decision, 0, col)
    return encoder.finish(), rows, cols


def _parse_slice(decoder_cls, payload, frame_type, rows, cols):
    """Every macroblock's levels and coder state through the one grammar."""
    decoder = decoder_cls(payload, MODEL.total_contexts)
    state = FrameMbState(rows, cols)
    state.start_slice(24)
    parsed = []
    for row in range(rows):
        for col in range(cols):
            decision = decode_macroblock(decoder, MODEL, state, frame_type,
                                         row, col, 0)
            parsed.append((decision.mode, decision.qp, decision.cbp,
                           decision.levels, _coder_state(decoder)))
            finalize_macroblock(state, decision, row, col)
    return parsed


class TestFusedResidual:
    """``CabacDecoder.decode_residual`` reads exactly the bins of the
    per-symbol default: same coefficients, nonzero count, consumed
    bits, adaptive state and errors, on clean and damaged input."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           dense=st.sampled_from((0.0, 0.3, 1.0)),
           large=st.sampled_from((0.0, 0.2, 0.6)))
    @settings(max_examples=40, deadline=None)
    def test_encoder_streams(self, seed, dense, large):
        payload, rows, cols = _encode_intra_slice(seed, 6, dense, large)
        fused = _parse_slice(CabacDecoder, payload, FrameType.I, rows, cols)
        assert fused == _parse_slice(PerSymbolCabacDecoder, payload,
                                     FrameType.I, rows, cols)

    def test_encoder_streams_decode_to_the_encoded_levels(self):
        rng = np.random.default_rng(11)
        state = FrameMbState(1, 1)
        state.start_slice(24)
        levels = _macroblock_levels(rng, dense=1.0, large=0.6)
        decision = MacroblockDecision(
            mode=MacroblockMode.INTRA, qp=24, intra_mode=IntraMode.DC,
            coefficients=levels, cbp=(True, True, True, True))
        encoder = CabacEncoder(MODEL.total_contexts)
        encode_macroblock(encoder, MODEL, state, decision, FrameType.I,
                          0, 0, 0)
        decoded_state = FrameMbState(1, 1)
        decoded_state.start_slice(24)
        decoded = decode_macroblock(
            CabacDecoder(encoder.finish(), MODEL.total_contexts), MODEL,
            decoded_state, FrameType.I, 0, 0, 0)
        batch = attach_coefficients([decoded])
        assert np.array_equal(batch[0], levels)
        assert decoded.coefficients.base is batch
        assert decoded.nonzero == np.count_nonzero(levels)
        assert max(abs(level) for level in decoded.levels[1]) > 1 << 14
        assert max(np.count_nonzero(block) for block in levels) >= 7

    @given(seed=st.integers(0, 2 ** 32 - 1),
           frame_type=st.sampled_from(list(FrameType)),
           damage=st.sampled_from(("truncate", "flip")),
           amount=st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_damaged_streams(self, seed, frame_type, damage, amount):
        payload, rows, cols = _encode_intra_slice(seed, 6, 0.3, 0.2)
        rng = np.random.default_rng(seed)
        if damage == "truncate":
            payload = payload[:max(0, len(payload) - 3 * amount)]
        else:
            buffer = bytearray(payload)
            for bit in rng.integers(0, 8 * len(buffer), amount):
                buffer[bit // 8] ^= 1 << (bit % 8)
            payload = bytes(buffer)
        # Parsed as any frame type: a P/B parse of I-slice bytes is one
        # more kind of garbage.
        assert _parse_slice(CabacDecoder, payload, frame_type, 2, 3) == \
            _parse_slice(PerSymbolCabacDecoder, payload, frame_type, 2, 3)

    @given(data=st.binary(max_size=96),
           calls=st.lists(st.tuples(st.integers(-1, 3),
                                    st.tuples(*[st.booleans()] * 4)),
                          min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes(self, data, calls):
        # Variants -1 and 3 are out of range: both parses raise before
        # reading a bin, and only when some quadrant is coded.
        _run_residuals(data, calls)

    def test_out_of_range_variant_raises_without_reading(self):
        decoder = CabacDecoder(bytes(range(40)), MODEL.total_contexts)
        before = _coder_state(decoder)
        with pytest.raises(BitstreamError):
            decoder.decode_residual(*RESIDUAL_GROUPS, 3,
                                    (False, True, False, False))
        assert _coder_state(decoder) == before
        assert decoder.decode_residual(*RESIDUAL_GROUPS, 3,
                                       (False,) * 4) == ([], [])

    def test_all_ones_stream_hits_the_prefix_bound(self):
        # 0xFF bytes drive every bin to 1: TU prefixes run to their cap
        # and the EG0 prefix to MAX_EG_PREFIX, then values clamp.
        _run_residuals(b"\xff" * 400, [(2, (True,) * 4)] * 3)
        decoder = CabacDecoder(b"\xff" * 400, MODEL.total_contexts)
        positions, levels = decoder.decode_residual(*RESIDUAL_GROUPS, 0,
                                                    (True,) * 4)
        assert len(positions) == len(set(positions)) == len(levels)
        assert all(0 <= p < 256 for p in positions)
        assert all(1 <= abs(level) <= MODEL["level"].max_value + 1
                   for level in levels)


class _RecordingDecoder(Decoder):
    """Records where each damaged-I-slice salvage stopped."""

    per_symbol = False

    def __init__(self):
        super().__init__(conceal_uncorrectable=True)
        self.stops = []

    def _new_entropy_decoder(self, payload, coder):
        cls = PerSymbolCabacDecoder if self.per_symbol else CabacDecoder
        return cls(payload, self._model.total_contexts)

    def _salvage_slice(self, *args):
        stop = super()._salvage_slice(*args)
        self.stops.append((stop, len(args[-1])))
        return stop


class _PerSymbolRecordingDecoder(_RecordingDecoder):
    per_symbol = True


def test_salvage_stops_at_the_same_macroblock():
    rng = np.random.default_rng(5)
    frames = [np.clip(rng.normal(128, 40, (48, 64)), 0, 255)
              .astype(np.uint8) for _ in range(4)]
    encoded = Encoder(EncoderConfig(crf=20, gop_size=4, slices=1)).encode(
        VideoSequence(frames=frames))
    position = next(index for index, frame in enumerate(encoded.frames)
                    if frame.header.frame_type == FrameType.I)
    payloads = list(encoded.frame_payloads())
    bits = 8 * len(payloads[position])
    stops = set()
    for first_bad in (bits // 5, bits // 2, 4 * bits // 5):
        buffer = bytearray(payloads[position])
        for bit in range(first_bad, min(first_bad + 64, bits), 3):
            buffer[bit // 8] ^= 1 << (bit % 8)
        damaged = list(payloads)
        damaged[position] = bytes(buffer)
        corrupted = encoded.with_payloads(damaged)
        damage = {position: [(first_bad, first_bad + 64)]}
        fused, per_symbol = _RecordingDecoder(), _PerSymbolRecordingDecoder()
        fused_frames = fused.decode(corrupted, damage)
        reference_frames = per_symbol.decode(corrupted, damage)
        assert fused.stops == per_symbol.stops
        assert all(np.array_equal(a, b) for a, b in
                   zip(fused_frames.frames, reference_frames.frames))
        stops.update(stop for stop, _ in fused.stops)
    # The damage moved the stop: the cases are not all the same one.
    assert len(stops) > 1
