"""Block cipher modes of operation: ECB, CBC, OFB, CTR (Figure 7).

All four modes share one interface so the paper's requirements analysis
(Section 5) can probe them uniformly. Plaintexts whose length is not a
multiple of 16 bytes are handled the way a video store needs: the
keystream modes (OFB/CTR) natively produce exact-length output, while
the block modes (ECB/CBC) use ciphertext stealing-free zero padding
with the original length restored on decryption — padding never changes
error-propagation behaviour, which is what the analysis measures.
"""

from __future__ import annotations

import abc
from typing import Dict, Type

import numpy as np

from ..errors import CryptoError
from .aes import AES128, BLOCK_SIZE

_MASK64 = (1 << 64) - 1


def _xor_bytes(data: bytes, keystream: np.ndarray) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of a flat uint8 keystream."""
    size = len(data)
    return (np.frombuffer(data, dtype=np.uint8) ^ keystream[:size]).tobytes()


def _pad(data: bytes) -> bytes:
    remainder = len(data) % BLOCK_SIZE
    if remainder == 0:
        return data
    return data + b"\x00" * (BLOCK_SIZE - remainder)


def _as_blocks(data: bytes) -> np.ndarray:
    """View block-aligned bytes as an ``(N, 16)`` uint8 array."""
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)


def counter_blocks(iv: bytes, first_block: int, count: int) -> np.ndarray:
    """The CTR counter blocks ``iv + first_block ... iv + first_block +
    count - 1`` as a ``(count, 16)`` uint8 array.

    The IV is one 128-bit big-endian integer: the add carries from the
    low 64-bit half into the high half, and the counter wraps mod
    2^128.
    """
    start = (int.from_bytes(iv, "big") + first_block) % (1 << 128)
    low0 = np.uint64(start & _MASK64)
    steps = np.arange(count, dtype=np.uint64)
    low = low0 + steps  # wraps mod 2^64
    counters = np.empty((count, 2), dtype=">u8")
    counters[:, 0] = np.uint64(start >> 64) + (low < low0)
    counters[:, 1] = low
    return counters.view(np.uint8).reshape(count, BLOCK_SIZE)


class BlockMode(abc.ABC):
    """A block-cipher mode over AES-128."""

    #: Whether an IV/nonce is required.
    needs_iv = True

    def __init__(self, key: bytes, iv: bytes = b"") -> None:
        self.cipher = AES128(key)
        if self.needs_iv and len(iv) != BLOCK_SIZE:
            raise CryptoError(f"{type(self).__name__} needs a {BLOCK_SIZE}-byte IV")
        self.iv = iv

    @abc.abstractmethod
    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt a whole message."""

    @abc.abstractmethod
    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt a whole message."""

    def decrypt_range(self, ciphertext: bytes, byte_offset: int) -> bytes:
        """Decrypt a slice that starts ``byte_offset`` bytes into the
        full message.

        Only the keystream modes support this (the whole point of the
        paper preferring CTR for a storage system): block modes chain
        ciphertext, so a slice cannot be decrypted without its
        neighbours.
        """
        raise CryptoError(
            f"{type(self).__name__} does not support random-access decryption"
        )

    def _previous_blocks(self, ciphertext: bytes) -> np.ndarray:
        """IV followed by every ciphertext block but the last: the
        chaining input of each block, known up front on decrypt."""
        blocks = _as_blocks(ciphertext)
        return np.concatenate([_as_blocks(self.iv), blocks[:-1]])


class ECB(BlockMode):
    """Electronic codebook: block-wise, stateless.

    Fails the paper's requirement #1: equal plaintext blocks map to
    equal ciphertext blocks, enabling dictionary attacks.
    """

    needs_iv = False

    def encrypt(self, plaintext: bytes) -> bytes:
        return self.cipher.encrypt_blocks(_as_blocks(_pad(plaintext))).tobytes()

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % BLOCK_SIZE:
            raise CryptoError("ECB ciphertext must be block-aligned")
        return self.cipher.decrypt_blocks(_as_blocks(ciphertext)).tobytes()


class CBC(BlockMode):
    """Cipher block chaining.

    Meets requirement #1 but fails #2/#3 for approximate storage: a
    flipped ciphertext bit garbles its whole block and flips one bit of
    the next — a ~65x bit-error amplification.
    """

    def encrypt(self, plaintext: bytes) -> bytes:
        blocks = _as_blocks(_pad(plaintext))
        out = np.empty_like(blocks)
        previous = _as_blocks(self.iv)
        for index, block in enumerate(blocks):
            previous = self.cipher.encrypt_blocks(block ^ previous)
            out[index] = previous[0]
        return out.tobytes()

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % BLOCK_SIZE:
            raise CryptoError("CBC ciphertext must be block-aligned")
        if not ciphertext:
            return b""
        plain = self.cipher.decrypt_blocks(_as_blocks(ciphertext))
        return (plain ^ self._previous_blocks(ciphertext)).tobytes()


class CFB(BlockMode):
    """Cipher feedback (full-block): keystream from the previous
    ciphertext block.

    Like CBC it meets requirement #1, and like CBC it fails #3 for
    approximate storage: a flipped ciphertext bit flips the mirrored
    plaintext bit of its own block *and* garbles the whole next block
    (the flipped ciphertext feeds the next keystream) — ~65x bit-error
    amplification, just ordered the other way around.
    """

    def encrypt(self, plaintext: bytes) -> bytes:
        blocks = _as_blocks(_pad(plaintext))
        out = np.empty_like(blocks)
        feedback = _as_blocks(self.iv)
        for index, block in enumerate(blocks):
            feedback = self.cipher.encrypt_blocks(feedback) ^ block
            out[index] = feedback[0]
        return out.tobytes()

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % BLOCK_SIZE:
            raise CryptoError("CFB ciphertext must be block-aligned")
        if not ciphertext:
            return b""
        keystream = self.cipher.encrypt_blocks(self._previous_blocks(ciphertext))
        return (keystream ^ _as_blocks(ciphertext)).tobytes()


class OFB(BlockMode):
    """Output feedback: keystream from iterated encryption of the IV.

    Ciphertext never feeds the chain, so a stored-bit flip corrupts
    exactly that plaintext bit — approximate-storage compatible.
    """

    def _keystream(self, length: int) -> np.ndarray:
        count = -(-length // BLOCK_SIZE)
        stream = np.empty((count, BLOCK_SIZE), dtype=np.uint8)
        feedback = _as_blocks(self.iv)
        for index in range(count):
            feedback = self.cipher.encrypt_blocks(feedback)
            stream[index] = feedback[0]
        return stream.reshape(-1)

    def encrypt(self, plaintext: bytes) -> bytes:
        return _xor_bytes(plaintext, self._keystream(len(plaintext)))

    def decrypt(self, ciphertext: bytes) -> bytes:
        return _xor_bytes(ciphertext, self._keystream(len(ciphertext)))

    def decrypt_range(self, ciphertext: bytes, byte_offset: int) -> bytes:
        """OFB random access: the feedback chain must be iterated from
        the IV, so seeking costs ``O(byte_offset)`` cipher calls — it
        works, but CTR is the mode a random-access store wants."""
        if byte_offset < 0:
            raise CryptoError(f"negative byte offset {byte_offset}")
        stream = self._keystream(byte_offset + len(ciphertext))
        return _xor_bytes(ciphertext, stream[byte_offset:])


class CTR(BlockMode):
    """Counter mode: keystream from encrypting nonce+counter.

    Same approximate-storage compatibility as OFB, plus random access.
    Every counter block of a message is known up front, so the whole
    keystream is one batched cipher call.
    """

    def keystream(self, byte_offset: int, length: int) -> np.ndarray:
        """``length`` keystream bytes starting ``byte_offset`` bytes
        into the message, as a flat uint8 array."""
        skip_blocks, phase = divmod(byte_offset, BLOCK_SIZE)
        count = -(-(phase + length) // BLOCK_SIZE)
        stream = self.cipher.encrypt_blocks(counter_blocks(self.iv, skip_blocks, count))
        return stream.reshape(-1)[phase:][:length]

    def encrypt(self, plaintext: bytes) -> bytes:
        return _xor_bytes(plaintext, self.keystream(0, len(plaintext)))

    def decrypt(self, ciphertext: bytes) -> bytes:
        return _xor_bytes(ciphertext, self.keystream(0, len(ciphertext)))

    def decrypt_range(self, ciphertext: bytes, byte_offset: int) -> bytes:
        """CTR random access: jump the counter to the slice's block and
        phase into it — ``O(len(ciphertext))`` regardless of offset."""
        if byte_offset < 0:
            raise CryptoError(f"negative byte offset {byte_offset}")
        return _xor_bytes(ciphertext, self.keystream(byte_offset, len(ciphertext)))


#: Mode registry by canonical name.
MODES: Dict[str, Type[BlockMode]] = {
    "ECB": ECB,
    "CBC": CBC,
    "CFB": CFB,
    "OFB": OFB,
    "CTR": CTR,
}


def make_mode(name: str, key: bytes, iv: bytes = b"") -> BlockMode:
    try:
        mode_class = MODES[name.upper()]
    except KeyError:
        raise CryptoError(f"unknown mode {name!r}; known: {sorted(MODES)}") from None
    if mode_class.needs_iv:
        return mode_class(key, iv)
    return mode_class(key)
