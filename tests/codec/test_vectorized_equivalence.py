"""Property tests: vectorized hot paths == scalar references, bit for bit.

Every batched numpy kernel introduced for throughput is checked against
the loop-level implementations in ``tests/codec/reference.py`` on
Hypothesis-generated inputs. These tests are the per-kernel counterpart
of the whole-pipeline net in ``test_golden_bitstreams.py``: a digest
mismatch says *something* diverged, a failure here says exactly which
kernel and on which input.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

import reference as ref
from reference_encoder import ReferenceEncoder

from repro.codec.batch import (
    assemble_gop_units,
    encode_batch,
    encode_batch_with_recon,
    gop_unit_bounds,
)
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.cabac import CabacDecoder, CabacEncoder
from repro.codec.cavlc import CavlcDecoder, CavlcEncoder
from repro.codec.config import EncoderConfig, EntropyCoder
from repro.codec.decoder import Decoder
from repro.codec.deblock import (
    _filter_vertical_edges,
    deblock_frame,
    filter_thresholds,
)
from repro.codec.encoder import _coded_block_patterns_many
from repro.codec.intra import choose_intra_mode
from repro.codec.motion import (
    ENCODER_RECTS,
    RECT_COLUMN,
    pad_reference,
)
from repro.codec.ratecontrol import activity_qp_offset, frame_activity_offsets
from repro.codec.transform import (
    forward_transform,
    quantize,
    reconstruct_residual,
    reconstruct_residuals_many,
)
from repro.video.frame import VideoSequence

pixels = st.integers(min_value=0, max_value=255)


def frames(min_mbs: int = 1, max_mbs: int = 3):
    """Strategy: uint8 frames whose sides are 16 * [min_mbs, max_mbs]."""
    return st.integers(min_mbs, max_mbs).flatmap(
        lambda mb_rows: st.integers(min_mbs, max_mbs).flatmap(
            lambda mb_cols: npst.arrays(
                np.uint8, (16 * mb_rows, 16 * mb_cols),
                elements=pixels,
            )
        )
    )


# ----------------------------------------------------------------------
# Motion search
# ----------------------------------------------------------------------

class TestMotionSearchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), search_range=st.integers(1, 4),
           lam=st.floats(0.0, 8.0, allow_nan=False))
    def test_frame_search_matches_macroblock_oracle(self, data,
                                                    search_range, lam):
        current = data.draw(frames(max_mbs=2))
        reference = data.draw(
            npst.arrays(np.uint8, current.shape, elements=pixels))
        padded = pad_reference(reference, search_range)
        frame_search = ref.FrameMotionSearch(current, padded, search_range,
                                         search_range, lam)
        mb_rows = current.shape[0] // 16
        mb_cols = current.shape[1] // 16
        for mb_row in range(mb_rows):
            for mb_col in range(mb_cols):
                oracle = ref.MacroblockSearch(
                    current[16 * mb_row:16 * mb_row + 16,
                            16 * mb_col:16 * mb_col + 16],
                    padded, search_range, 16 * mb_row, 16 * mb_col,
                    search_range)
                table = frame_search.mb_table(mb_row, mb_col)
                for rect in ENCODER_RECTS:
                    want_mv, want_sad = oracle.best_mv(rect, lam)
                    got_mv, got_sad = table[RECT_COLUMN[rect]]
                    assert got_mv == want_mv
                    assert got_sad == want_sad

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), search_range=st.integers(1, 2),
           lam=st.floats(0.0, 4.0, allow_nan=False))
    def test_macroblock_oracle_matches_exhaustive_loops(self, data,
                                                        search_range, lam):
        current = data.draw(
            npst.arrays(np.uint8, (16, 16), elements=pixels))
        reference = data.draw(
            npst.arrays(np.uint8, (16, 16), elements=pixels))
        padded = pad_reference(reference, search_range)
        oracle = ref.MacroblockSearch(current, padded, search_range, 0,
                                      0, search_range)
        for rect in ((0, 0, 16, 16), (0, 0, 8, 8), (8, 4, 4, 8)):
            want_mv, want_sad = ref.best_mv_scalar(
                current, padded, search_range, 0, 0, rect, search_range,
                lam)
            got_mv, got_sad = oracle.best_mv(rect, lam)
            assert got_mv == want_mv
            assert got_sad == want_sad


# ----------------------------------------------------------------------
# Intra mode selection
# ----------------------------------------------------------------------

class TestIntraEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), min_mb_row=st.integers(0, 1))
    def test_batched_mode_choice_matches_scalar_scan(self, data,
                                                     min_mb_row):
        recon = data.draw(frames(min_mbs=2, max_mbs=2))
        mb_rows = recon.shape[0] // 16
        mb_cols = recon.shape[1] // 16
        source = data.draw(
            npst.arrays(np.uint8, (16, 16), elements=pixels))
        mb_row = data.draw(st.integers(0, mb_rows - 1))
        mb_col = data.draw(st.integers(0, mb_cols - 1))
        want = ref.choose_intra_mode_scalar(source, recon, mb_row, mb_col,
                                            min_mb_row)
        got = choose_intra_mode(source, recon, mb_row, mb_col, min_mb_row)
        assert got[0] == want[0]
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])


# ----------------------------------------------------------------------
# Transform / quantization
# ----------------------------------------------------------------------

class TestTransformEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(block=npst.arrays(np.int32, (4, 4),
                             elements=st.integers(-255, 255)),
           qp=st.integers(0, 51))
    def test_forward_and_quantize_match_loops(self, block, qp):
        batched = quantize(forward_transform(block[np.newaxis]), qp)[0]
        scalar = ref.quantize_scalar(ref.forward_transform_scalar(block),
                                     qp)
        np.testing.assert_array_equal(batched, scalar)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4))
    def test_many_residuals_match_per_macroblock_path(self, data, count):
        stacks = data.draw(npst.arrays(
            np.int32, (count, 16, 4, 4), elements=st.integers(-64, 64)))
        qps = data.draw(st.lists(st.integers(0, 51), min_size=count,
                                 max_size=count))
        batched = reconstruct_residuals_many(stacks, qps)
        for index in range(count):
            expected = reconstruct_residual(stacks[index], qps[index])
            np.testing.assert_array_equal(batched[index], expected)

    @settings(max_examples=50, deadline=None)
    @given(levels=npst.arrays(np.int32, (4, 4),
                              elements=st.integers(-64, 64)),
           qp=st.integers(0, 51))
    def test_single_block_reconstruction_matches_loops(self, levels, qp):
        stacked = np.zeros((16, 4, 4), dtype=np.int32)
        stacked[0] = levels
        production = reconstruct_residual(stacked, qp)[:4, :4]
        scalar = ref.reconstruct_residual_block_scalar(levels, qp)
        np.testing.assert_array_equal(production, scalar)


# ----------------------------------------------------------------------
# Deblocking
# ----------------------------------------------------------------------

class TestDeblockEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), qp=st.integers(16, 51))
    def test_vectorized_edges_match_pixel_loops(self, data, qp):
        frame = data.draw(frames(max_mbs=2))
        alpha, beta, clip_limit = filter_thresholds(qp)
        if alpha == 0:
            return
        vectorized = frame.astype(np.int16)
        _filter_vertical_edges(vectorized, alpha, beta, clip_limit)
        scalar = frame.astype(np.int16)
        ref.filter_vertical_edges_scalar(scalar, alpha, beta, clip_limit)
        np.testing.assert_array_equal(vectorized, scalar)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), qp=st.integers(0, 51))
    def test_full_filter_matches_transposed_scalar_sweeps(self, data, qp):
        frame = data.draw(frames(max_mbs=2))
        got = deblock_frame(frame, qp)
        alpha, beta, clip_limit = filter_thresholds(qp)
        if alpha == 0:
            np.testing.assert_array_equal(got, frame)
            return
        working = frame.astype(np.int16)
        ref.filter_vertical_edges_scalar(working, alpha, beta, clip_limit)
        working = working.T.copy()
        ref.filter_vertical_edges_scalar(working, alpha, beta, clip_limit)
        np.testing.assert_array_equal(got, working.T.astype(np.uint8))


# ----------------------------------------------------------------------
# Entropy bulk paths
# ----------------------------------------------------------------------

bit_runs = st.lists(
    st.integers(0, 24).flatmap(
        lambda count: st.tuples(
            st.integers(0, (1 << count) - 1 if count else 0),
            st.just(count))),
    min_size=1, max_size=16)


class TestBulkBypassEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(runs=bit_runs)
    def test_cabac_bulk_bypass_roundtrip_matches_bitwise(self, runs):
        bulk = CabacEncoder(num_contexts=4)
        bitwise = CabacEncoder(num_contexts=4)
        for value, count in runs:
            bulk.encode_bypass_bits(value, count)
            ref.encode_bypass_bits_scalar(bitwise, value, count)
        payload = bulk.finish()
        assert payload == bitwise.finish()
        bulk_dec = CabacDecoder(payload, num_contexts=4)
        bit_dec = CabacDecoder(payload, num_contexts=4)
        for value, count in runs:
            assert bulk_dec.decode_bypass_bits(count) == value
            assert ref.decode_bypass_bits_scalar(bit_dec, count) == value

    @settings(max_examples=40, deadline=None)
    @given(runs=bit_runs)
    def test_cavlc_bulk_bypass_roundtrip_matches_bitwise(self, runs):
        bulk = CavlcEncoder()
        bitwise = CavlcEncoder()
        for value, count in runs:
            bulk.encode_bypass_bits(value, count)
            ref.encode_bypass_bits_scalar(bitwise, value, count)
        payload = bulk.finish()
        assert payload == bitwise.finish()
        bulk_dec = CavlcDecoder(payload)
        bit_dec = CavlcDecoder(payload)
        for value, count in runs:
            assert bulk_dec.decode_bypass_bits(count) == value
            assert ref.decode_bypass_bits_scalar(bit_dec, count) == value

    @settings(max_examples=40, deadline=None)
    @given(runs=bit_runs, tail=st.integers(0, 64))
    def test_bitstream_bulk_io_matches_bitwise(self, runs, tail):
        bulk = BitWriter()
        bitwise = BitWriter()
        for value, count in runs:
            bulk.write_bits(value, count)
            ref.write_bits_scalar(bitwise, value, count)
        assert bulk.bit_length == bitwise.bit_length
        payload = bulk.getvalue()
        assert payload == bitwise.getvalue()
        # Reads past the end must keep yielding zeros, bulk or not.
        bulk_reader = BitReader(payload)
        bit_reader = BitReader(payload)
        for value, count in runs:
            assert bulk_reader.read_bits(count) == value
            assert ref.read_bits_scalar(bit_reader, count) == value
        assert (bulk_reader.read_bits(tail)
                == ref.read_bits_scalar(bit_reader, tail))
        assert bulk_reader.bit_position == bit_reader.bit_position


# ----------------------------------------------------------------------
# Encoder-side batched helpers
# ----------------------------------------------------------------------

class TestEncoderHelperEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(coefficients=npst.arrays(np.int32, (16, 4, 4),
                                    elements=st.integers(-3, 3)))
    def test_coded_block_pattern_matches_loops(self, coefficients):
        got = tuple(_coded_block_patterns_many(coefficients[None])[0].tolist())
        assert got == ref.coded_block_pattern_scalar(coefficients)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_frame_activity_offsets_match_per_macroblock_var(self, data):
        frame = data.draw(frames(max_mbs=3))
        offsets = frame_activity_offsets(frame)
        mb_rows = frame.shape[0] // 16
        mb_cols = frame.shape[1] // 16
        for mb_row in range(mb_rows):
            for mb_col in range(mb_cols):
                mb = frame[16 * mb_row:16 * mb_row + 16,
                           16 * mb_col:16 * mb_col + 16]
                assert offsets[mb_row, mb_col] == activity_qp_offset(mb)


# ----------------------------------------------------------------------
# Whole-pipeline batching: the encode farm's stacked path
# ----------------------------------------------------------------------

def clip_stacks(count: int, min_frames: int = 2, max_frames: int = 5,
                min_mb_rows: int = 1):
    """Strategy: ``count`` same-geometry uint8 clips as one array."""
    return st.tuples(
        st.integers(min_mb_rows, 2), st.integers(1, 2),
        st.integers(min_frames, max_frames),
    ).flatmap(
        lambda dims: npst.arrays(
            np.uint8,
            (count, dims[2], 16 * dims[0], 16 * dims[1]),
            elements=pixels,
        )
    )


@st.composite
def encoder_configs(draw):
    """Strategy: configs over every mode the encode loop branches on."""
    bframes = draw(st.integers(0, 2))
    return EncoderConfig(
        crf=draw(st.integers(18, 42)),
        gop_size=draw(st.integers(max(2, bframes + 1), 4)),
        bframes=bframes,
        slices=draw(st.integers(1, 2)),
        entropy_coder=draw(st.sampled_from(EntropyCoder)),
        adaptive_qp=draw(st.booleans()),
        deblocking=draw(st.booleans()),
    )


class TestBatchedEncodeEquivalence:
    """The encoder's contract is bit-for-bit equality with the
    per-macroblock reference loop in ``reference_encoder.py``: same
    streams (traces included — ``serialize`` covers them) whatever a
    clip is batched with — N=1 is every lone encode — and the same
    reconstruction the decoder produces from those streams."""

    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), config=encoder_configs())
    def test_batched_streams_and_recon_match_per_clip(self, data, config):
        count = data.draw(st.integers(1, 3))
        stack = data.draw(clip_stacks(count, min_mb_rows=config.slices))
        videos = [VideoSequence.from_array(clip) for clip in stack]
        encodeds, recons = encode_batch_with_recon(videos, config)
        for video, encoded, recon in zip(videos, encodeds, recons):
            want = ReferenceEncoder(config).encode(video)
            assert encoded.serialize() == want.serialize()
            decoded = Decoder().decode(encoded).to_array()
            np.testing.assert_array_equal(recon, decoded)

    def test_mixed_geometry_batch_matches_per_clip_in_input_order(self):
        rng = np.random.default_rng(11)
        shapes = [(3, 32, 32), (4, 16, 48), (3, 32, 32), (2, 16, 16),
                  (4, 16, 48)]
        videos = [VideoSequence.from_array(
            rng.integers(0, 256, size=shape, dtype=np.uint8))
            for shape in shapes]
        config = EncoderConfig(crf=30, gop_size=2)
        encodeds, recons = encode_batch_with_recon(videos, config)
        assert len(encodeds) == len(recons) == len(videos)
        for video, encoded, recon in zip(videos, encodeds, recons):
            (want,), (want_recon,) = encode_batch_with_recon([video], config)
            assert encoded.serialize() == want.serialize()
            np.testing.assert_array_equal(recon, want_recon)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data(), crf=st.integers(20, 40), gop=st.integers(2, 4))
    def test_gop_unit_assembly_is_byte_identical(self, data, crf, gop):
        stack = data.draw(clip_stacks(1, min_frames=3, max_frames=9))
        video = VideoSequence.from_array(stack[0])
        config = EncoderConfig(crf=crf, gop_size=gop)
        whole = ReferenceEncoder(config).encode(video).serialize()
        bounds = gop_unit_bounds(len(video), config)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(video)
        units = encode_batch([video.subsequence(start, stop)
                              for start, stop in bounds], config)
        stitched = assemble_gop_units(units, len(video))
        assert stitched.serialize() == whole
