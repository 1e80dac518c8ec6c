"""AES-128 block cipher, from scratch (FIPS-197), batched over NumPy.

The paper's Section 5 analyzes AES modes of operation for compatibility
with approximate storage; this module provides the underlying
substitution-permutation network (the paper's ``subperm`` box) and its
inverse. The cipher runs on a whole batch of blocks at once: a message
is an ``(N, 16)`` uint8 array, one row per block, and every round is a
handful of table lookups and fixed column permutations over the whole
array:

* SubBytes is ``SBOX[state]``;
* ShiftRows is a fixed permutation of the 16 columns;
* MixColumns is ``MUL2[s] ^ MUL3[s[:, rot1]] ^ s[:, rot2] ^ s[:, rot3]``
  with ``rot*`` rotating each 4-byte column by one, two or three rows;
* AddRoundKey XORs one row of the ``(11, 16)`` key schedule, which is
  expanded once per key and cached.

:func:`encrypt_blocks` / :func:`decrypt_blocks` are the only round
implementations. Counter-mode keystreams and the parallel decrypt
directions of the block modes feed them every block of a message in one
call; the serial chains (OFB, CBC/CFB encrypt) call them with ``N = 1``.
The S-box and GF(2^8) tables are derived at import from the field
arithmetic, and the test suite checks the core against the FIPS-197 and
SP 800-38A vectors and against a retained block-at-a-time reference.

This is an algorithmic reference implementation (it is not constant-time
and must not be used to protect real secrets).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import CryptoError

BLOCK_SIZE = 16  #: bytes
KEY_SIZE = 16  #: bytes (AES-128)
ROUNDS = 10


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_multiply(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple:
    """Compute the AES S-box from the GF(2^8) inverse + affine map."""
    # Multiplicative inverses via exp/log over generator 3.
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value ^= _xtime(value)  # multiply by 3 = x + 1
    exp[255:510] = exp[:255]

    def inverse(byte: int) -> int:
        if byte == 0:
            return 0
        return exp[255 - log[byte]]

    sbox = [0] * 256
    for byte in range(256):
        inv = inverse(byte)
        # Affine transform over GF(2): b ^ rotl(b,1..4) ^ 0x63.
        value = inv
        transformed = value
        for _ in range(4):
            value = ((value << 1) | (value >> 7)) & 0xFF
            transformed ^= value
        sbox[byte] = transformed ^ 0x63
    inv_sbox = [0] * 256
    for byte, mapped in enumerate(sbox):
        inv_sbox[mapped] = byte
    return np.array(sbox, dtype=np.uint8), np.array(inv_sbox, dtype=np.uint8)


def _mul_table(coefficient: int) -> np.ndarray:
    """256-entry GF(2^8) multiplication table for one coefficient."""
    products = [_gf_multiply(byte, coefficient) for byte in range(256)]
    return np.array(products, dtype=np.uint8)


#: All cipher tables are module-level constants computed once at import:
#: the S-box pair plus one multiplication table per MixColumns
#: coefficient (2, 3 forward; 9, 11, 13, 14 inverse).
SBOX, INV_SBOX = _build_sbox()
MUL2, MUL3 = _mul_table(2), _mul_table(3)
MUL9, MUL11, MUL13, MUL14 = (_mul_table(c) for c in (9, 11, 13, 14))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# State layout: column 4*c + r of a block row is row r, column c of the
# AES state (column-major, the standard's byte order of inputs).
_SHIFT_ROWS = np.array([4 * ((c + r) % 4) + r for c in range(4) for r in range(4)])
_INV_SHIFT_ROWS = np.array([4 * ((c - r) % 4) + r for c in range(4) for r in range(4)])
#: ``_ROTk`` maps each byte to the byte k rows further down its column.
_ROT1, _ROT2, _ROT3 = (
    np.array([4 * c + (r + k) % 4 for c in range(4) for r in range(4)])
    for k in (1, 2, 3)
)


@lru_cache(maxsize=256)
def _expand_key_cached(key: bytes) -> np.ndarray:
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]
            word = [int(SBOX[b]) for b in word]
            word[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(word, words[i - 4])])
    schedule = np.array(words, dtype=np.uint8).reshape(ROUNDS + 1, BLOCK_SIZE)
    schedule.flags.writeable = False
    return schedule


def expand_key(key: bytes) -> np.ndarray:
    """AES-128 key schedule: an ``(11, 16)`` uint8 array, one round key
    per row. Expanded once per key (cached) and read-only."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"AES-128 key must be {KEY_SIZE} bytes")
    return _expand_key_cached(bytes(key))


def _checked_blocks(blocks: np.ndarray) -> np.ndarray:
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
        raise CryptoError(
            f"blocks must be an (N, {BLOCK_SIZE}) uint8 array, got {blocks.shape}"
        )
    return blocks


def encrypt_blocks(round_keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Encrypt every row of an ``(N, 16)`` uint8 array (the cipher)."""
    state = _checked_blocks(blocks) ^ round_keys[0]
    for round_key in round_keys[1:ROUNDS]:
        s = SBOX[state[:, _SHIFT_ROWS]]
        state = MUL2[s] ^ MUL3[s[:, _ROT1]] ^ s[:, _ROT2] ^ s[:, _ROT3] ^ round_key
    return SBOX[state[:, _SHIFT_ROWS]] ^ round_keys[ROUNDS]


def decrypt_blocks(round_keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Decrypt every row of an ``(N, 16)`` uint8 array (the inverse
    cipher)."""
    state = _checked_blocks(blocks) ^ round_keys[ROUNDS]
    state = INV_SBOX[state[:, _INV_SHIFT_ROWS]]
    for round_key in round_keys[1:ROUNDS][::-1]:
        s = state ^ round_key
        state = MUL14[s] ^ MUL11[s[:, _ROT1]] ^ MUL13[s[:, _ROT2]] ^ MUL9[s[:, _ROT3]]
        state = INV_SBOX[state[:, _INV_SHIFT_ROWS]]
    return state ^ round_keys[0]


class AES128:
    """AES-128: the ``subperm`` / ``invsubperm`` boxes of the paper."""

    def __init__(self, key: bytes) -> None:
        self.round_keys = expand_key(key)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Batched encrypt (see :func:`encrypt_blocks`)."""
        return encrypt_blocks(self.round_keys, blocks)

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Batched decrypt (see :func:`decrypt_blocks`)."""
        return decrypt_blocks(self.round_keys, blocks)

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one 16-byte block (the core at ``N = 1``)."""
        return self.encrypt_blocks(_one_block(plaintext)).tobytes()

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt one 16-byte block (the core at ``N = 1``)."""
        return self.decrypt_blocks(_one_block(ciphertext)).tobytes()


def _one_block(data: bytes) -> np.ndarray:
    if len(data) != BLOCK_SIZE:
        raise CryptoError(f"block must be {BLOCK_SIZE} bytes")
    return np.frombuffer(bytes(data), dtype=np.uint8).reshape(1, BLOCK_SIZE)
