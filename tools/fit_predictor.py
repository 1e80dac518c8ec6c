#!/usr/bin/env python
"""Fit the default rate/quality predictor weights.

Generates a synthetic suite spanning the codec's regimes (static,
panning, shaking, noisy, high-detail, fading), encodes every clip at a
CRF grid, and least-squares fits
:class:`repro.analysis.predictor.RateQualityPredictor` on probe
features from the CRF-24 encode. Prints the weights (paste into
``DEFAULT_PREDICTOR``) and the in-sample R^2 per head.

Run from the repo root::

    PYTHONPATH=src python tools/fit_predictor.py
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.predictor import (
    PROBE_CRF,
    RateQualityPredictor,
    probe_features,
)
from repro.codec.config import EncoderConfig
from repro.codec.encoder import Encoder
from repro.codec.stats import inspect_video
from repro.metrics.psnr import video_psnr
from repro.video.frame import VideoSequence

CRF_GRID = (16, 20, 24, 28, 32, 36)
FRAMES, HEIGHT, WIDTH = 10, 48, 64


def _suite():
    clips = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 220, size=(HEIGHT, WIDTH), dtype=np.int32)
        detail = rng.integers(0, 35 + 15 * (seed % 3),
                              size=(HEIGHT, WIDTH))
        pan = seed % 4            # 0 = static .. 3 = fast pan
        noise = 3 * (seed % 3)    # temporal noise amplitude
        fade = 4 if seed % 5 == 0 else 0
        frames = []
        for t in range(FRAMES):
            frame = np.roll(base + detail, shift=pan * t, axis=1)
            if noise:
                frame = frame + rng.integers(-noise, noise + 1,
                                             size=frame.shape)
            frames.append(np.clip(frame + fade * t, 0, 255))
        clips.append(VideoSequence.from_array(
            np.stack(frames).astype(np.uint8)))
    return clips


def main() -> None:
    rows, log_bpp, psnr = [], [], []
    for clip in _suite():
        probe = Encoder(
            EncoderConfig(crf=PROBE_CRF)).encode(clip)
        stats = inspect_video(probe)
        pixels = clip.total_pixels
        for crf in CRF_GRID:
            (encoded,), (recon,) = Encoder(dataclasses.replace(
                EncoderConfig(), crf=crf)).encode_batch_with_recon([clip])
            target_stats = inspect_video(encoded)
            rows.append(probe_features(stats, pixels, crf))
            log_bpp.append(float(np.log2(
                target_stats.total_payload_bits / pixels)))
            psnr.append(float(video_psnr(
                clip, VideoSequence.from_array(recon))))
    predictor = RateQualityPredictor.fit(rows, log_bpp, psnr)

    matrix = np.asarray(rows)
    for name, weights, observed in (
            ("bits", predictor.bits_weights, np.asarray(log_bpp)),
            ("psnr", predictor.psnr_weights, np.asarray(psnr))):
        predicted = matrix @ np.asarray(weights)
        residual = observed - predicted
        r2 = 1.0 - residual.var() / observed.var()
        print(f"{name}_weights=(")
        for weight in weights:
            print(f"    {weight!r},")
        print(f")  # R^2 = {r2:.3f}, RMSE = {residual.std():.3f}")


if __name__ == "__main__":
    main()
