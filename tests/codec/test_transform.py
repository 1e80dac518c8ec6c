"""Tests for the 4x4 integer transform and quantization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import transform_and_quantize

from repro.codec.transform import (
    ZIGZAG_4x4,
    blockify,
    deblockify,
    forward_transform,
    inverse_transform,
    quant_step,
    reconstruct_residual,
    zigzag_flatten,
    zigzag_unflatten,
)
from repro.errors import EncoderError


class TestQuantStep:
    def test_base_value(self):
        assert quant_step(0) == pytest.approx(0.625)

    def test_doubles_every_six(self):
        assert quant_step(18) == pytest.approx(2 * quant_step(12))

    def test_rejects_out_of_range(self):
        with pytest.raises(EncoderError):
            quant_step(52)
        with pytest.raises(EncoderError):
            quant_step(-1)


class TestBlockify:
    def test_roundtrip(self):
        mb = np.arange(256, dtype=np.int32).reshape(16, 16)
        assert np.array_equal(deblockify(blockify(mb)), mb)

    def test_block_zero_is_top_left(self):
        mb = np.zeros((16, 16), dtype=np.int32)
        mb[:4, :4] = 7
        blocks = blockify(mb)
        assert np.all(blocks[0] == 7)
        assert np.all(blocks[1:] == 0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(EncoderError):
            blockify(np.zeros((8, 8)))


class TestTransform:
    def test_inverse_is_exact_on_integers(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(-255, 256, (16, 4, 4))
        out = inverse_transform(forward_transform(blocks).astype(np.float64))
        assert np.array_equal(out, blocks)

    def test_dc_coefficient_is_scaled_sum(self):
        block = np.full((1, 4, 4), 10, dtype=np.int64)
        coeffs = forward_transform(block)
        assert coeffs[0, 0, 0] == 160  # sum of all entries
        assert np.all(coeffs[0][1:, :] == 0)

    @given(st.integers(0, 44), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quantization_error_bounded(self, qp, seed):
        """Reconstruction error per pixel is bounded by ~the quant step."""
        rng = np.random.default_rng(seed)
        residual = rng.integers(-255, 256, (16, 16))
        levels = transform_and_quantize(residual, qp)
        recon = reconstruct_residual(levels, qp)
        # Worst-case rounding: half a step per coefficient, spread by the
        # (orthonormal-scaled) inverse transform.
        bound = quant_step(qp) * 2.0 + 1.0
        assert np.abs(recon - residual).max() <= bound

    def test_high_qp_zeroes_small_residuals(self):
        residual = np.ones((16, 16), dtype=np.int32)
        levels = transform_and_quantize(residual, 40)
        assert not np.any(levels)

    def test_low_qp_preserves_detail(self):
        rng = np.random.default_rng(1)
        residual = rng.integers(-30, 31, (16, 16))
        levels = transform_and_quantize(residual, 4)
        recon = reconstruct_residual(levels, 4)
        assert np.abs(recon - residual).max() <= 2


class TestZigzag:
    def test_visits_every_position_once(self):
        assert sorted(ZIGZAG_4x4) == sorted(
            (r, c) for r in range(4) for c in range(4))

    def test_starts_at_dc_ends_at_hf(self):
        assert ZIGZAG_4x4[0] == (0, 0)
        assert ZIGZAG_4x4[-1] == (3, 3)

    def test_roundtrip(self):
        block = np.arange(16).reshape(4, 4)
        assert np.array_equal(zigzag_unflatten(zigzag_flatten(block)), block)

    def test_low_frequency_first(self):
        """Zigzag should front-load low-frequency positions: the sum of
        (row+col) must be non-decreasing-ish; check first four exactly."""
        assert ZIGZAG_4x4[1] in ((0, 1), (1, 0))
        assert ZIGZAG_4x4[2] in ((0, 1), (1, 0))
