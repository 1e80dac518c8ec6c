"""Encrypting the multiple reliability streams (Section 5.3).

Approximate video storage splits a video into one stream per ECC level.
Each stream is encrypted separately with an approximation-compatible
mode. Per the paper, the per-stream IV is derived from a single master
value combined with the stream's identifier, so one secret (key + master
IV) covers the whole video; the derivation here runs the identifier
through the block cipher itself (a standard one-way diversification).

The analysis/partitioning must run *before* encryption — importance is
computed on plaintext bits — so the encryptor is applied to the already
partitioned streams, and decryption happens before merging and decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import CryptoError
from ..obs import trace as obs_trace
from .aes import AES128, BLOCK_SIZE
from .modes import OFB, _xor_bytes, counter_blocks

#: Modes acceptable for stream encryption (requirements 1-3).
APPROVED_MODES = ("OFB", "CTR")


def _stream_ivs(
    cipher: AES128, master_iv: bytes, stream_ids: Sequence[int]
) -> np.ndarray:
    """Every stream's IV as one ``(S, 16)`` batch:
    ``E_k(master_iv XOR stream_id)``, one cipher call."""
    mixed = np.empty((len(stream_ids), BLOCK_SIZE), dtype=np.uint8)
    for row, stream_id in enumerate(stream_ids):
        if stream_id < 0:
            raise CryptoError(f"stream id must be non-negative, got {stream_id}")
        identifier = stream_id.to_bytes(BLOCK_SIZE, "big")
        mixed[row] = np.frombuffer(identifier, dtype=np.uint8)
    mixed ^= np.frombuffer(master_iv, dtype=np.uint8)
    return cipher.encrypt_blocks(mixed)


def derive_stream_iv(master_iv: bytes, stream_id: int, key: bytes) -> bytes:
    """Per-stream IV: encrypt (master_iv XOR stream_id) under the key."""
    if len(master_iv) != BLOCK_SIZE:
        raise CryptoError(f"master IV must be {BLOCK_SIZE} bytes")
    return _stream_ivs(AES128(key), master_iv, [stream_id])[0].tobytes()


@dataclass
class StreamEncryptor:
    """Encrypts/decrypts a set of reliability streams under one secret.

    Each call makes two batched cipher calls in CTR mode: one derives
    every stream IV of the call, one produces the keystream for every
    stream's counter blocks at once. OFB's feedback chain is serial, so
    it walks each stream block by block.
    """

    key: bytes
    master_iv: bytes
    mode: str = "CTR"

    def __post_init__(self) -> None:
        if self.mode.upper() not in APPROVED_MODES:
            raise CryptoError(
                f"mode {self.mode!r} is not approximation-compatible; "
                f"use one of {APPROVED_MODES}"
            )
        self.mode = self.mode.upper()
        if len(self.key) != BLOCK_SIZE:
            raise CryptoError(f"key must be {BLOCK_SIZE} bytes")
        if len(self.master_iv) != BLOCK_SIZE:
            raise CryptoError(f"master IV must be {BLOCK_SIZE} bytes")
        self._cipher = AES128(self.key)

    def _xor_windows(self, windows: List[Tuple[int, bytes, int]]) -> List[bytes]:
        """XOR each ``(stream_id, data, byte_offset)`` window with its
        stream's keystream from ``byte_offset`` on (encrypt, decrypt and
        random-access decrypt are all this one operation)."""
        if not windows:
            return []
        stream_ids = [stream_id for stream_id, _, _ in windows]
        ivs = _stream_ivs(self._cipher, self.master_iv, stream_ids)
        if self.mode == "OFB":
            return [
                OFB(self.key, iv.tobytes()).decrypt_range(data, offset)
                for iv, (_, data, offset) in zip(ivs, windows)
            ]
        counters = []
        for iv, (_, data, offset) in zip(ivs, windows):
            skip_blocks, phase = divmod(offset, BLOCK_SIZE)
            count = -(-(phase + len(data)) // BLOCK_SIZE)
            counters.append(counter_blocks(iv.tobytes(), skip_blocks, count))
        stream = self._cipher.encrypt_blocks(np.concatenate(counters)).reshape(-1)
        out = []
        start = 0
        for run, (_, data, offset) in zip(counters, windows):
            begin = start + offset % BLOCK_SIZE
            out.append(_xor_bytes(data, stream[begin:]))
            start += run.size
        return out

    def _xor_streams(self, streams: Dict[int, bytes]) -> Dict[int, bytes]:
        windows = [(stream_id, data, 0) for stream_id, data in streams.items()]
        return dict(zip(streams, self._xor_windows(windows)))

    def encrypt_streams(self, streams: Dict[int, bytes]) -> Dict[int, bytes]:
        """Encrypt each stream under its derived IV (sizes preserved)."""
        with obs_trace.span("aes.encrypt", mode=self.mode, streams=len(streams)):
            return self._xor_streams(streams)

    def decrypt_streams(self, streams: Dict[int, bytes]) -> Dict[int, bytes]:
        """Decrypt each stream under its derived IV."""
        with obs_trace.span("aes.decrypt", mode=self.mode, streams=len(streams)):
            return self._xor_streams(streams)

    def decrypt_at(self, stream_id: int, data: bytes, byte_offset: int) -> bytes:
        """Decrypt a slice of stream ``stream_id`` that begins
        ``byte_offset`` bytes into the ciphertext.

        This is the random-access primitive the seek path rides: both
        approved modes are keystream XORs, so a slice decrypts without
        its neighbours (CTR jumps the counter; OFB pays an
        ``O(offset)`` keystream walk — see
        :meth:`~repro.crypto.modes.OFB.decrypt_range`).
        """
        if byte_offset < 0:
            raise CryptoError(f"negative byte offset {byte_offset}")
        with obs_trace.span(
            "aes.decrypt_at",
            mode=self.mode,
            stream=stream_id,
            offset=byte_offset,
            size=len(data),
        ):
            return self._xor_windows([(stream_id, data, byte_offset)])[0]

    def encrypt_list(self, payloads: List[bytes]) -> List[bytes]:
        """Encrypt an ordered payload list (ids are list positions)."""
        return list(self.encrypt_streams(dict(enumerate(payloads))).values())

    def decrypt_list(self, payloads: List[bytes]) -> List[bytes]:
        """Decrypt an ordered payload list (ids are list positions)."""
        return list(self.decrypt_streams(dict(enumerate(payloads))).values())
