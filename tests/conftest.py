"""Shared fixtures.

Encoding is the expensive step, so encoded artifacts are session-scoped
and shared by every test that only reads them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.codec import Decoder, EncodedVideo, Encoder, EncoderConfig
from repro.core import compute_importance
from repro.video import SceneConfig, VideoSequence, synthesize_scene

# The codec's reference implementations (``tests/codec/reference.py``,
# ``tests/codec/reference_encoder.py``) are plain modules that suites
# outside ``tests/codec`` compare against too.
sys.path.insert(0, str(Path(__file__).resolve().parent / "codec"))


@pytest.fixture(scope="session")
def small_video() -> VideoSequence:
    """A 64x48, 8-frame scene with two moving objects."""
    return synthesize_scene(SceneConfig(
        width=64, height=48, num_frames=8, seed=11, num_objects=2))


@pytest.fixture(scope="session")
def medium_video() -> VideoSequence:
    """A 96x64, 12-frame scene with more motion (2 GOPs)."""
    return synthesize_scene(SceneConfig(
        width=96, height=64, num_frames=12, seed=7, num_objects=3,
        pan_speed=(0.5, 0.0)))


@pytest.fixture(scope="session")
def default_config() -> EncoderConfig:
    return EncoderConfig(crf=24, gop_size=8)


@pytest.fixture(scope="session")
def encoded_small(small_video, default_config) -> EncodedVideo:
    return Encoder(default_config).encode(small_video)


@pytest.fixture(scope="session")
def encoded_medium(medium_video) -> EncodedVideo:
    return Encoder(EncoderConfig(crf=24, gop_size=12)).encode(medium_video)


@pytest.fixture(scope="session")
def decoded_small(encoded_small) -> VideoSequence:
    return Decoder().decode(encoded_small)


@pytest.fixture(scope="session")
def decoded_medium(encoded_medium) -> VideoSequence:
    return Decoder().decode(encoded_medium)


@pytest.fixture(scope="session")
def importance_small(encoded_small):
    return compute_importance(encoded_small.trace)


@pytest.fixture(scope="session")
def importance_medium(encoded_medium):
    return compute_importance(encoded_medium.trace)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
